"""`python -m framedlie`: the same command line as the framedlie script."""

from .cli import main

if __name__ == "__main__":  # importing the module, as a module walk does, runs nothing
    raise SystemExit(main())
