"""`python -m locquad`: the command-line interface of locquad.cli."""

import sys

from .cli import main

sys.exit(main())
