"""Run the command-line front end as ``python -m chromcat``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
