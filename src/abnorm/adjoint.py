"""Independent PMP oracle for the adjoint system along an abnormal curve:
fixed-step integration cross-checked against the matrix exponential,
closed-form solutions of the second-order equation for the first covector
component, and the search for a bounded normal-witness covector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lie import expm
from .seminorm import SeminormBody
from .subspace import CanonicalBasis
from .tolerances import SUPPORT_TOL, is_zero, norm


def system_matrix(c23, u2: float) -> np.ndarray:
    """Right-hand side of the adjoint system; psi2' = 0 identically."""
    c1, c2, c3 = float(c23[0]), float(c23[1]), float(c23[2])
    return u2 * np.array(
        [
            [0.0, 0.0, -1.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
            [c1, c2, c3, 0.0],
            [0.0, 0.0, c2, c3],
        ]
    )


def _powers(m: np.ndarray, psi0: np.ndarray, n: int) -> np.ndarray:
    """Rows m^k psi0 for k = 0..n, filled by doubling: the block of rows
    [k, 2k) is rows [0, k) times m^k, and m^k is squared after each block."""
    out = np.empty((n + 1, m.shape[0]))
    out[0] = psi0
    k, mk = 1, m
    while k <= n:
        j = min(k, n + 1 - k)
        out[k:k + j] = out[:j] @ mk.T
        k += j
        mk = mk @ mk
    return out


def rk4_trajectory(a: np.ndarray, psi0: np.ndarray, dt: float, n_steps: int) -> np.ndarray:
    """Classical RK4 for psi' = a @ psi; returns (n_steps + 1, 4) states.

    With constant coefficients one step is the RK4 stability matrix R(h a),
    so the states are the powers of R applied to psi0.
    """
    h = dt * np.asarray(a, dtype=float)
    h2 = h @ h
    r = np.eye(len(h)) + h + h2 / 2 + h2 @ h / 6 + h2 @ h2 / 24
    return _powers(r, np.asarray(psi0, dtype=float), n_steps)


@dataclass(frozen=True)
class Trajectory:
    t: np.ndarray
    psi: np.ndarray  # RK4 states, shape (n+1, 4)
    max_deviation: float  # max-entry distance to the matrix-exponential states


def integrate(c23, u2: float, psi0, T: float, dt: float) -> Trajectory:
    """Fixed-step RK4 plus the exact matrix-exponential solution."""
    psi0 = np.asarray(psi0, dtype=float)
    if not (0 < T < math.inf and 0 < dt < math.inf and T / dt < math.inf and np.isfinite(psi0).all()):
        raise ValueError("T, dt and T / dt must be positive and finite, and psi0 finite")
    n = max(1, int(round(T / dt)))
    t = np.arange(n + 1) * dt
    # an overflowing trajectory is refused below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        a = system_matrix(c23, u2)
        psi = rk4_trajectory(a, psi0, dt, n)
        exact = _powers(expm(a * dt), psi0, n)
        dev = float(np.max(np.abs(psi - exact)))
    # an entry that is not finite in either trajectory makes the distance inf or nan
    if not math.isfinite(dev):
        raise ValueError("the trajectory leaves the float range: "
                         "the constants, u2 or T are out of numerical range")
    return Trajectory(t=t, psi=psi, max_deviation=dev)


@dataclass(frozen=True)
class ClosedFormPsi1:
    case: str  # B_pos | B_zero | B_neg | C1_zero
    evaluate: object

    def __call__(self, t):
        return self.evaluate(t)


def closed_form_psi1(c23, u2: float, a1: float, a2: float) -> ClosedFormPsi1:
    """General solution of psi1'' - u2 C323 psi1' + u2^2 C123 psi1 + u2 C223 = 0,
    split by the discriminant B = (C323)^2 - 4 C123 when C123 != 0.  The map
    (C123, C223, C323, u2) -> (l^2 C123, l C223, l C323, u2 / l) leaves the
    equation as it is, so C223 and C323 count as zero against the constants'
    scale d, and C123 and B against d^2."""
    c1, c2, c3 = float(c23[0]), float(c23[1]), float(c23[2])
    d = norm([c2, c3, math.sqrt(abs(c1))])
    b = c3 * c3 - 4.0 * c1
    if not is_zero(c1, d * d):
        if not is_zero(c2, d):
            raise ValueError("closed form expects the C223 = 0 normalization when C123 != 0")
        if is_zero(b, d * d):
            rate = 0.5 * c3 * u2
            fn = lambda t: (a1 * np.asarray(t) + a2) * np.exp(rate * t)
            case = "B_zero"
        elif b > 0:
            lam1 = u2 * (c3 + math.sqrt(b)) / 2.0
            lam2 = u2 * (c3 - math.sqrt(b)) / 2.0
            fn = lambda t: a1 * np.exp(lam1 * t) + a2 * np.exp(lam2 * t)
            case = "B_pos"
        else:
            rate = 0.5 * c3 * u2
            omega = u2 * math.sqrt(-b) / 2.0
            fn = lambda t: np.exp(rate * t) * (a1 * np.cos(omega * t) + a2 * np.sin(omega * t))
            case = "B_neg"
    else:
        if not is_zero(c3, d):
            rate = c3 * u2
            fn = lambda t: a1 * np.exp(rate * t) + (c2 / c3) * np.asarray(t) + a2
        else:
            fn = lambda t: -0.5 * c2 * u2 * np.asarray(t) ** 2 + a1 * np.asarray(t) + a2
        case = "C1_zero"
    return ClosedFormPsi1(case=case, evaluate=fn)


@dataclass(frozen=True)
class Witness:
    """Constant part of a bounded normal covector certifying non-strictness."""

    s: int
    u2: float
    k: float


def witness_search(basis: CanonicalBasis, body: SeminormBody, s: int) -> Witness | None:
    """Decide existence of a bounded PMP covector with psi2 = 1/u2 and
    F_U(psi1(t), 1/u2) = 1 for all t.

    Boundedness is decided analytically from the characteristic roots of
    the closed-form family; the constant branch is checked against the
    support function.
    """
    if s not in (1, -1):
        raise ValueError("s must be +1 or -1")
    f_se2 = body.axis_gauge(s)
    if f_se2 <= 0:
        raise ValueError("degenerate seminorm on the e2 axis")
    u2 = s / f_se2
    height = 1.0 / u2
    c1, c2, _ = basis.constants
    if c1 == 0.0 and c2 == 0.0:
        # every bounded branch is a constant psi1 = k; one always exists
        lo, hi = body.level_interval(s)
        k = min(max(0.0, lo), hi)
        if abs(body.support((k, height)) - 1.0) > SUPPORT_TOL:
            return None
        return Witness(s=s, u2=u2, k=k)

    if c1 == 0.0:
        # C223 != 0 forces an unbounded drift (linear or parabolic) in
        # every branch of the general solution
        return None

    # C123 != 0: the bounded branches are psi1 = 0 and, when the roots are
    # purely imaginary, oscillations around 0; psi1 = 0 decides
    if abs(body.support((0.0, height)) - 1.0) > SUPPORT_TOL:
        return None
    return Witness(s=s, u2=u2, k=0.0)
