"""Start OpenBLAS on one thread in every process the ``repro`` CLI runs.

numpy and scipy each load their own OpenBLAS, and each starts one thread per
core when it loads; the idle threads spin-wait beside the main thread and
burn CPU.  Every solve runs on one BLAS thread anyway
(:func:`repro.offline.nlp.single_blas_thread`), so ``repro.cli`` imports this
module before anything imports numpy, and it defaults
``OPENBLAS_NUM_THREADS`` to 1.  A value the caller set wins, and pool workers
inherit the variable.  A process that loaded numpy before importing the CLI
(a tracer, a test, a library caller) already started its BLAS threads, so
there the variable is left alone.  Nothing else imports this module, so
library importers keep their own BLAS threads.
"""

import os
import sys

#: Whether this process set ``OPENBLAS_NUM_THREADS`` to 1: the caller left it
#: unset and numpy was not loaded yet, so the default took effect.
DEFAULTED = "numpy" not in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ

if DEFAULTED:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
