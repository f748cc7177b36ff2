"""Run the CLI as `python -m memload`; `script` is also the installed `memload` command."""

import gc

from .cli import main


def script() -> None:
    """Exit with the CLI's code, the heap frozen for the interpreter's shutdown."""
    try:
        raise SystemExit(main())
    finally:
        # Shutdown's collections walk every tracked object, even with the collector
        # off. No record a run builds forms a cycle, so freezing them skips nothing.
        gc.freeze()


if __name__ == "__main__":
    script()
