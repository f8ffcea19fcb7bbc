"""The README's CLI quick start is what CI runs.

Every ``flipwide`` or ``seq`` line of the README's "Quick start (CLI)"
block must appear in the "README quick start" step of
``.github/workflows/tier1.yml``, verbatim or followed by `` -o FILE``
(CI writes some outputs to files it then checks). A command edited in one
place and not the other fails here. Standard library only: the workflow
is read as indented text, not parsed as YAML.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STEP = "README quick start"


def readme_commands(readme: str) -> list[str]:
    """The ``flipwide`` and ``seq`` lines of the CLI quick-start block."""
    section = readme.split("## Quick start (CLI)", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines()
            if line.startswith(("flipwide ", "seq "))]


def step_lines(workflow: str, name: str) -> list[str]:
    """The stripped lines of the workflow step called ``name``: every line
    after its ``- name:`` line that is indented deeper, blank lines aside."""
    lines = workflow.splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.strip() == f"- name: {name}")
    indent = len(lines[start]) - len(lines[start].lstrip())
    body = []
    for line in lines[start + 1:]:
        if line.strip() and len(line) - len(line.lstrip()) <= indent:
            break
        body.append(line.strip())
    return body


def missing_commands(readme: str, workflow: str) -> list[str]:
    """The README commands that the CI step runs neither verbatim nor with
    `` -o FILE`` appended, in README order."""
    step = step_lines(workflow, STEP)
    return [cmd for cmd in readme_commands(readme)
            if not any(line == cmd
                       or re.fullmatch(re.escape(cmd) + r" -o \S+", line)
                       for line in step)]


def test_readme_quick_start_runs_in_ci():
    readme = (ROOT / "README.md").read_text()
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    assert readme_commands(readme)
    assert missing_commands(readme, workflow) == []


def test_checker_reports_drift():
    readme = ("## Quick start (CLI)\n\n```sh\n# a comment\n"
              "flipwide generate path 4 | flipwide extract --seq all\n"
              "seq 3 -1 0 > d.txt\nflipwide generate clique 5\n```\n")
    workflow = (f"steps:\n  - name: {STEP}\n    run: |\n"
                "      flipwide generate path 4 | flipwide extract --seq all"
                " -o e.json\n      seq 3 -1 0 > e.txt\n"
                "  - name: next\n    run: flipwide generate clique 5\n")
    assert missing_commands(readme, workflow) == [
        "seq 3 -1 0 > d.txt", "flipwide generate clique 5"]
