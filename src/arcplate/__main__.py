"""`python -m arcplate` and the installed `arcplate` command."""

import gc
import os
import sys

from .cli import EXIT_STDOUT_CLOSED, main


def run() -> int:
    """Run the command line on sys.argv, end stdout, freeze the collector
    and return main()'s exit code; cli.main() touches no process state.

    stdout is flushed once more, for what a failed write left in its
    buffer. If that fails, stdout is pointed at os.devnull, as the note on
    SIGPIPE in the signal module's documentation does, so the flush at exit
    writes nowhere and main()'s code stands. gc.freeze() moves what is left
    into the permanent generation, which the interpreter's final collections
    skip, so exit does not free the heap; atexit handlers still run.
    """
    if sys.stdout is None:  # started with file descriptor 1 closed: as a reader that left
        return EXIT_STDOUT_CLOSED
    code = main(sys.argv[1:])
    try:
        sys.stdout.flush()
    except OSError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(run())
