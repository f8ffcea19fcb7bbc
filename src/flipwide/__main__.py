"""Run the command line interface without installing the package:

    PYTHONPATH=src python -m flipwide generate path 3
"""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
