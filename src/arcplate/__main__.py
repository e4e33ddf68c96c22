"""`python -m arcplate` and the installed `arcplate` command."""

import gc

from .cli import main


def run() -> int:
    """Run the command line, then freeze the collector and return the exit code.

    The process exits next. gc.freeze() moves every object left into the
    collector's permanent generation, which the interpreter's final
    collections skip, so exit does not walk and free the heap the imports
    and the command built; the operating system reclaims it. atexit handlers
    and the flush of stdout and stderr still run. cli.main() itself leaves
    the collector alone, so library callers and tests keep a normal one.
    """
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(run())
