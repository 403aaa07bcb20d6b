"""`python -m occlm`: the `occlm` command."""

from .cli import main

if __name__ == "__main__":
    main()
