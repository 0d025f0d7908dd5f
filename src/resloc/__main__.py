"""`python -m resloc ...` runs the command line; see resloc.cli."""

import sys

from .cli import main

sys.exit(main())
