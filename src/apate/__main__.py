"""``python -m apate``: the same command line as the ``apate`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
