"""python -m heckelab: the heckelab command line, runnable from a checkout
with PYTHONPATH=src."""

import sys

from .cli import main

sys.exit(main())
