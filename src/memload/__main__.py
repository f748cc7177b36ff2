"""Allow running the CLI as `python -m memload`."""

from .cli import main

raise SystemExit(main())
