"""`python -m barrier_lab` runs the barrier-lab command line."""

import sys

from .cli import main

sys.exit(main())
