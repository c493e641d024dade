"""``python -m asymwell <command>``: the report CLI."""
import sys

from .report import main

if __name__ == "__main__":
    sys.exit(main())
