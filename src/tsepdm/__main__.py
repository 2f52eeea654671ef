"""``python -m tsepdm``: the command-line interface of `tsepdm.cli`."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
