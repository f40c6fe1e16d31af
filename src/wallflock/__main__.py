"""`python -m wallflock`: the same command line as the `wallflock` script."""
from .cli import entry

if __name__ == "__main__":
    entry()
