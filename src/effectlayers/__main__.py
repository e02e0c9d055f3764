"""`python -m effectlayers`: the command line of `effectlayers.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
