"""Run the command-line tool as ``python -m nodecut``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
