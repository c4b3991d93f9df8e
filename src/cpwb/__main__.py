"""``python -m cpwb``: the command-line frontend of ``cpwb.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
