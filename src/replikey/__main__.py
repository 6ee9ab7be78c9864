"""``python -m replikey``: the command line front end (see ``replikey.cli``)."""

from .cli import entry

if __name__ == "__main__":
    entry()
