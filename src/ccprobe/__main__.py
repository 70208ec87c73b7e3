"""`python3 -m ccprobe`: the command line of `ccprobe.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
