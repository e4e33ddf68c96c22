"""`python -m arcplate` and the installed `arcplate` command."""

import gc
import sys

from .cli import _stdout_closed, main


def run() -> int:
    """Run the command line, then freeze the collector and return the exit code.

    The process exits next. gc.freeze() moves every object left into the
    collector's permanent generation, which the interpreter's final
    collections skip, so exit does not walk and free the heap the imports
    and the command built; the operating system reclaims it. atexit handlers
    and the flush of stdout and stderr still run. cli.main() itself leaves
    the collector alone, so library callers and tests keep a normal one.
    stdout is flushed here, where a reader that has left can still be told
    from a config error, as in main().
    """
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        code = _stdout_closed()
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(run())
