"""Entry point for ``python -m vptenum``."""

from vptenum.cli import main

if __name__ == "__main__":
    raise SystemExit(main())
