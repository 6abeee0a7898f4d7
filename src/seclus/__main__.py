"""`python -m seclus` runs the command-line front end."""

import sys

from seclus.cli import main

if __name__ == "__main__":
    sys.exit(main())
