"""``python -m pqw``: the pqw command, the same as the console script."""

from .cli import entry

if __name__ == "__main__":
    entry()
