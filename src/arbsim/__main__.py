"""``python -m arbsim``: the command line, without the installed script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
