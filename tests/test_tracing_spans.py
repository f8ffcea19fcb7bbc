"""The benchmark tracer's span list names functions that exist.

``perfbench/tracing.py`` wraps each ``"<module>.<name>"`` of ``SPANS``
by looking it up in the flipwide package; a span whose function was
renamed or deleted would crash a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


@pytest.mark.parametrize("label", load_spans())
def test_span_resolves_in_package(label):
    layer, name = label.split(".")
    module = importlib.import_module(f"flipwide.{layer}")
    assert callable(getattr(module, name, None)), label
