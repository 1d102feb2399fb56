"""``python -m dynoscale``: the same command line as the ``dynoscale`` script."""

import sys

from .cli import main

sys.exit(main())
