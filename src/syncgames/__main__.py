"""`python -m syncgames`: the command line of `syncgames.cli`."""

from .cli import main

__all__: list[str] = []  # an entry point; it exports nothing

if __name__ == "__main__":
    main()
