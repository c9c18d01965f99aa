"""python -m gdbsim: the gdbsim command line."""
from .cli import main

raise SystemExit(main())
