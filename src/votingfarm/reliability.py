"""Reliability models for voted redundancy with and without a spare.

Two closed-form curves are exposed: the classic triple-modular
reliability 3R^2 - 2R^3 and its one-spare extension with recovery
coverage C,

    R1(C, R) = (-3C^2 + 6C) [R(1-R)]^2 + (3R^2 - 2R^3).

An independent continuous-time Markov chain over nine states acts as a
numerical oracle: summing its live-state probabilities at time t with
component reliability R = exp(-lambda t) reproduces R1.  State names
encode (working modules, spares, faulty-but-isolated modules) in the
d1 d2 d3 digit scheme; FS and FU are the safe-stop and undetected-fail
absorbers.  ``markov_solve`` propagates the chain with one matrix
exponential per distinct time step; a private DOP853 integration of
the same chain is kept as the reference the tests compare it against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import ValidationError, VotingFarmError


class DomainError(ValidationError):
    pass


class NoSignChange(VotingFarmError):
    pass


class IntegrationFailure(VotingFarmError):
    pass


def _check_unit(name: str, value) -> None:
    arr = np.asarray(value, dtype=float)
    if not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise DomainError(f"{name} must lie in [0, 1], got {value!r}")


def check_rate(lam: float) -> None:
    """Reject a module failure rate that is not finite and positive."""
    if not 0.0 < lam < np.inf:
        raise DomainError(f"lambda must be finite and positive, got {lam}")


def check_curve_step(step: float) -> None:
    """Reject an R step for curve_export outside [0.01, 1]: the R column
    has two decimals, so a finer step would repeat its labels."""
    if not 0.01 <= step <= 1.0:
        raise ValidationError(f"curve step must lie in [0.01, 1], got {step!r}")


def r_tmr(R):
    """Reliability of a 2-out-of-3 voted system with component reliability R."""
    _check_unit("R", R)
    R = np.asarray(R, dtype=float)
    out = 3.0 * R**2 - 2.0 * R**3
    return float(out) if out.ndim == 0 else out


def r_tmr_1spare(C, R):
    """Voted triple plus one spare switched in with coverage C."""
    _check_unit("C", C)
    _check_unit("R", R)
    C = np.asarray(C, dtype=float)
    R = np.asarray(R, dtype=float)
    out = (-3.0 * C**2 + 6.0 * C) * (R * (1.0 - R)) ** 2 + (3.0 * R**2 - 2.0 * R**3)
    return float(out) if out.ndim == 0 else out


# -- Markov oracle --------------------------------------------------------

STATES = ("310", "300", "200", "FS", "211", "301", "201", "202", "FU")
LIVE_STATES = ("310", "300", "200", "211", "301", "201", "202")
_IDX = {name: i for i, name in enumerate(STATES)}

# (source, destination, rate as a function of lam and C)
_TRANSITIONS: tuple[tuple[str, str, Callable[[float, float], float]], ...] = (
    ("310", "300", lambda lam, C: 4 * lam * C),
    ("310", "211", lambda lam, C: 3 * lam * (1 - C)),
    ("310", "301", lambda lam, C: lam * (1 - C)),
    ("300", "200", lambda lam, C: 3 * lam),
    ("200", "FS", lambda lam, C: 2 * lam),
    ("301", "201", lambda lam, C: 3 * lam * C),
    ("211", "201", lambda lam, C: 3 * lam * C),
    ("301", "202", lambda lam, C: 3 * lam * (1 - C)),
    ("211", "202", lambda lam, C: lam * (1 - C)),
    ("201", "FU", lambda lam, C: 2 * lam),
    ("211", "FU", lambda lam, C: 2 * lam * (1 - C)),
    ("202", "FU", lambda lam, C: 2 * lam),
)


@dataclass(frozen=True)
class MarkovModel:
    lam: float
    C: float

    def __post_init__(self) -> None:
        check_rate(self.lam)
        _check_unit("C", self.C)

    def generator(self) -> np.ndarray:
        """Matrix A with dp/dt = A @ p; columns sum to zero."""
        A = np.zeros((len(STATES), len(STATES)))
        for src, dst, rate in _TRANSITIONS:
            r = rate(self.lam, self.C)
            A[_IDX[dst], _IDX[src]] += r
            A[_IDX[src], _IDX[src]] -= r
        return A

    @property
    def initial(self) -> np.ndarray:
        p0 = np.zeros(len(STATES))
        p0[_IDX["310"]] = 1.0
        return p0


def _times(t_grid: Sequence[float]) -> np.ndarray:
    t = np.asarray(t_grid, dtype=float)
    if (
        t.ndim != 1
        or len(t) == 0
        or not np.all(np.isfinite(t))
        or np.any(np.diff(t, prepend=0.0) < 0.0)
    ):
        raise ValidationError(
            "t_grid must be a non-empty 1-d sequence of finite, non-negative, "
            "non-decreasing times"
        )
    return t


def markov_solve(model: MarkovModel, t_grid: Sequence[float]) -> np.ndarray:
    """Probabilities over time, one row per grid point, columns = STATES.

    The times must be finite, non-negative and non-decreasing.  This
    computes expm(A * dt) once for each distinct step dt between
    neighbouring times (the first from 0) and carries the initial state
    from row to row by matrix-vector products, so a repeated time
    repeats its row exactly.

    scipy is imported on use, here and in crosspoint: at module level it
    was most of the import time every ``vf`` command paid.
    """
    t = _times(t_grid)
    from scipy.linalg import expm

    steps, which = np.unique(np.diff(t, prepend=0.0), return_inverse=True)
    step_maps = expm(model.generator() * steps[:, None, None])
    out = np.empty((len(t), len(STATES)))
    p = model.initial
    for i, k in enumerate(which):
        out[i] = p = step_maps[k] @ p
    return out


def _markov_solve_ivp(model: MarkovModel, t_grid: Sequence[float]) -> np.ndarray:
    """markov_solve's reference: the chain integrated with DOP853 at
    relative tolerance 1e-11.  It shares only the generator with
    markov_solve, which is why the tests compare the two."""
    t = _times(t_grid)
    from scipy.integrate import solve_ivp

    A = model.generator()
    times, which = np.unique(t, return_inverse=True)
    sol = solve_ivp(
        lambda _, p: A @ p,
        (0.0, float(times[-1]) if times[-1] > 0 else 1e-9),
        model.initial,
        method="DOP853",
        t_eval=times,
        rtol=1e-11,
        atol=1e-14,
    )
    if not sol.success:
        raise IntegrationFailure(sol.message)
    return sol.y.T[which]


def live_probability(p: np.ndarray) -> np.ndarray:
    """Sum of non-absorbing state probabilities (the system reliability)."""
    idx = [_IDX[s] for s in LIVE_STATES]
    return np.asarray(p)[..., idx].sum(axis=-1)


def closed_forms(lam: float, C: float, t) -> dict[str, np.ndarray]:
    """Transient-state solutions of the chain, one entry per live state."""
    t = np.asarray(t, dtype=float)
    e2, e3, e4 = np.exp(-2 * lam * t), np.exp(-3 * lam * t), np.exp(-4 * lam * t)
    kernel = e4 - 2 * e3 + e2
    return {
        "310": e4,
        "300": 4 * C * (e3 - e4),
        "200": 6 * C * kernel,
        "211": 3 * (1 - C) * (e3 - e4),
        "301": (1 - C) * (e3 - e4),
        "201": 6 * C * (1 - C) * kernel,
        "202": 3 * (1 - C) ** 2 * kernel,
    }


def markov_reliability(lam: float, C: float, t) -> np.ndarray:
    """Closed-form live-state sum; equals r_tmr_1spare(C, exp(-lam t))."""
    forms = closed_forms(lam, C, t)
    return sum(forms.values())


# -- crosspoints and exports ----------------------------------------------

def crosspoint(
    f: Callable[[float], float],
    g: Callable[[float], float],
    bracket: tuple[float, float],
) -> float:
    """Root of f(R) = g(R) on the bracket, to well under 1e-6."""
    a, b = bracket
    fa, fb = f(a) - g(a), f(b) - g(b)
    if fa == 0.0:
        return float(a)
    if fb == 0.0:
        return float(b)
    if np.sign(fa) == np.sign(fb):
        raise NoSignChange(f"no sign change of f-g on [{a}, {b}]")
    from scipy.optimize import brentq

    return float(brentq(lambda r: f(r) - g(r), a, b, xtol=1e-9))


def simplex(R):
    """The non-redundant single component, for crosspoint comparisons."""
    return R


def curve_export(C_values: Iterable[float], step: float = 0.01) -> str:
    """Tabulate both curves over R in [0, 1] as comma-separated text.

    One block per coverage value; columns are R, the plain voted-triple
    curve, the one-spare curve, and their difference.
    """
    check_curve_step(step)
    lines = []
    grid = np.arange(0.0, 1.0 + step / 2, step)
    for C in C_values:
        lines.append(f"# C={C:g}")
        lines.append("R,R_tmr,R_tmr1spare,delta")
        base = r_tmr(grid)
        spare = r_tmr_1spare(C, grid)
        for r, y0, y1 in zip(grid, np.atleast_1d(base), np.atleast_1d(spare)):
            lines.append(f"{r:.2f},{y0:.9f},{y1:.9f},{y1 - y0:.9f}")
    return "\n".join(lines) + "\n"
