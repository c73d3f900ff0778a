"""``python -m ejaopt``: the ``ejaopt`` command line, also from a source checkout."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
