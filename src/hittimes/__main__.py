"""``python -m hittimes``: the command line of `hittimes.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
