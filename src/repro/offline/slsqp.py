"""SLSQP on scipy's compiled kernel, without importing ``scipy.optimize``.

``import scipy.optimize`` loads hundreds of modules (``scipy.linalg``,
HiGHS, ``scipy.spatial``, numpy's testing and f2py, ...): about half a
second and ~38 MB in every process that plans, for a solver that calls one
C function.  :func:`kernel` loads that function, ``slsqp`` of
``scipy/optimize/_slsqplib``, from its file, and :func:`minimize` runs its
reverse-communication loop the way ``_minimize_slsqp`` of scipy 1.17
(``scipy/optimize/_slsqp_py.py``) does, so a solve returns the same bits as
``scipy.optimize.minimize(method="SLSQP")`` given the same rows as dict
constraints and the same BLAS thread count.

The loop, the kernel's calling convention (a state dict plus ten arrays) and
its workspace sizes are private to scipy, so :func:`kernel` answers only on
the minor releases in :data:`VERIFIED_MINORS` and returns ``None`` elsewhere;
callers then keep ``scipy.optimize.minimize``.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import re
import sys
from pathlib import Path
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

__all__ = ["EXIT_MODES", "VERIFIED_MINORS", "kernel", "minimize"]

#: scipy minors whose ``_minimize_slsqp`` :func:`minimize` replays.  scipy
#: 1.15 and older ship a Fortran ``_slsqp`` with another signature; 1.16 is
#: unchecked.
VERIFIED_MINORS = ((1, 17),)

#: scipy's exit-mode messages, word for word: a solve stores its message.
EXIT_MODES = {
    -1: "Gradient evaluation required (g & a)",
    0: "Optimization terminated successfully",
    1: "Function evaluation required (f & c)",
    2: "More equality constraints than independent variables",
    3: "More than 3*n iterations in LSQ subproblem",
    4: "Inequality constraints incompatible",
    5: "Singular matrix E in LSQ subproblem",
    6: "Singular matrix C in LSQ subproblem",
    7: "Rank-deficient equality constraint subproblem HFTI",
    8: "Positive directional derivative for linesearch",
    9: "Iteration limit reached",
}

_MODULE = "scipy.optimize._slsqplib"


@functools.lru_cache(maxsize=None)
def kernel() -> Optional[Callable[..., None]]:
    """scipy's compiled ``slsqp``, or ``None`` on an unverified scipy or a failed load.

    Taken from ``sys.modules`` when ``scipy.optimize`` has loaded it already;
    otherwise loaded from its file without running
    ``scipy/optimize/__init__.py``.  ``import scipy`` runs first, so the
    wheel's library paths are set up.  Looked up once per process.
    """
    import scipy

    version = re.match(r"(\d+)\.(\d+)", scipy.__version__)
    if version is None or (int(version[1]), int(version[2])) not in VERIFIED_MINORS:
        return None
    loaded = sys.modules.get(_MODULE)
    if loaded is not None:
        return loaded.slsqp
    directory = Path(scipy.__file__).parent / "optimize"
    paths = [directory / f"_slsqplib{suffix}" for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((str(path) for path in paths if path.is_file()), None)
    if path is None:
        return None
    loader = importlib.machinery.ExtensionFileLoader(_MODULE, path)
    try:
        module = importlib.util.module_from_spec(
            importlib.util.spec_from_file_location(_MODULE, path, loader=loader))
        loader.exec_module(module)
    except (ImportError, OSError):
        return None
    return module.slsqp


def minimize(
    objective: Callable[[np.ndarray], float],
    gradient: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    bounds: Sequence[Tuple[Optional[float], Optional[float]]],
    rows: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    *,
    maxiter: int,
    ftol: float,
) -> Tuple[np.ndarray, int, int, str]:
    """Minimize ``objective`` subject to ``rows`` and ``bounds`` on :func:`kernel`.

    ``rows`` is ``(a_ineq, b_ineq, a_eq, b_eq)``: ``a_ineq @ x + b_ineq ≥ 0``
    and ``a_eq @ x − b_eq = 0``.  ``None`` leaves a side of ``bounds`` open.
    Returns ``(x, status, iterations, message)``.  Every step replays
    ``_minimize_slsqp`` of scipy 1.17, its ``ScalarFunction`` caching
    included: the objective and gradient see a copy of the point and are
    evaluated again only at a new one.
    """
    slsqp = kernel()
    lower = np.array([-np.inf if low is None else low for low, _ in bounds], dtype=float)
    upper = np.array([np.inf if high is None else high for _, high in bounds], dtype=float)
    x = np.clip(np.array(x0, dtype=np.float64), lower, upper)
    # The kernel reads an open side as NaN.
    xl = np.where(np.isfinite(lower), lower, np.nan)
    xu = np.where(np.isfinite(upper), upper, np.nan)

    a_ineq, b_ineq, a_eq, b_eq = rows
    meq, mieq = len(b_eq), len(b_ineq)
    m, n = meq + mieq, len(x)
    buffer_size = n * (n + 1) // 2 + 3 * m * n - (m + 5 * n + 7) * meq + 9 * m + 8 * n * n \
        + 35 * n + meq * meq + 28
    if mieq == 0:
        buffer_size += 2 * n * (n + 1)
    buffer = np.zeros(max(buffer_size, 1), dtype=np.float64)
    indices = np.zeros(max(m + 2 * n + 2, 1), dtype=np.int32)
    mult = np.zeros(max(1, m + 2 * n + 2), dtype=np.float64)
    C = np.zeros((max(1, m), n), dtype=np.float64, order="F")
    d = np.zeros(max(1, m), dtype=np.float64)

    def fill_normals() -> None:
        C[:meq] = a_eq
        C[meq:m] = a_ineq

    def fill_values() -> None:
        d[:meq] = a_eq @ x - b_eq
        d[meq:m] = a_ineq @ x + b_ineq

    # ScalarFunction's memo: f and g belong to the point `at`.
    at = x.copy()
    f = objective(at.copy())
    g = np.atleast_1d(gradient(at.copy()))
    f_current = g_current = True

    def move_to(point: np.ndarray) -> None:
        nonlocal at, f_current, g_current
        if not np.array_equal(point, at):
            at = point.copy()
            f_current = g_current = False

    fill_normals()
    fill_values()
    state = {
        "acc": ftol, "alpha": 0.0, "f0": 0.0, "gs": 0.0, "h1": 0.0, "h2": 0.0,
        "h3": 0.0, "h4": 0.0, "t": 0.0, "t0": 0.0, "tol": 10.0 * ftol,
        "exact": 0, "inconsistent": 0, "reset": 0, "iter": 0, "itermax": int(maxiter),
        "line": 0, "m": m, "meq": meq, "mode": 0, "n": n,
    }
    while True:
        slsqp(state, f, g, C, d, x, mult, xl, xu, buffer, indices)
        if state["mode"] == 1:
            move_to(x)
            if not f_current:
                f, f_current = objective(at.copy()), True
            fill_values()
        if state["mode"] == -1:
            move_to(x)
            if not g_current:
                g, g_current = np.atleast_1d(gradient(at.copy())), True
            fill_normals()
        if abs(state["mode"]) != 1:
            break
    mode = state["mode"]
    return x, mode, state["iter"], EXIT_MODES[mode]
