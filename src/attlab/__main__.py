"""``python -m attlab``: the same command line as the ``attlab`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
