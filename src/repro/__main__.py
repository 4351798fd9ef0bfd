"""Process entry point of the experiment CLI: ``python -m repro`` and the ``repro`` script.

Both run :func:`main`, which runs :func:`repro.cli.main` and then freezes the
garbage collector.  Interpreter shutdown runs full collections over every
tracked object, more than once and regardless of ``gc.disable()``: ~28k
objects after a solve on scipy's SLSQP kernel, ~55k where ``scipy.optimize``
has loaded, for a process that is about to exit.  ``gc.freeze()`` moves them
all to the permanent generation, which those collections skip.  Nothing of
``repro`` needs a cyclic-garbage finalizer at exit: files close in ``with``
blocks, and pools in their ``with`` block and at exit.  ``os._exit`` would be faster
still, but it skips the atexit handlers and the flush of standard streams.
"""

import gc
import sys

from . import cli


def main() -> int:
    """Run the CLI on ``sys.argv``, freeze the collector and return the exit code.

    Only the process entry points freeze.  ``cli.main`` does not, because
    tests and library callers run it in-process, where a freeze would keep
    every object they hold alive until their interpreter exits.
    """
    try:
        return cli.main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
