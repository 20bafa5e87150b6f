"""``python -m bellbound``: the same command line as the ``bellbound`` script."""

from .cli import run

if __name__ == "__main__":
    run()
