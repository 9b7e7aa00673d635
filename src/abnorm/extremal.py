"""The abnormal extremals and their strict/non-strict classification.

A generating 2D subspace has two abnormal extremals, the one-parameter
subgroups exp(t u2 e2) with u2 = s / F(0, s), s = +/-1; one
``DirectionReport`` per extremal carries its velocity and its verdict under
the criterion on the canonical structure constants and the axis condition
on the control body.  The 3D case is purely algebraic (the closed-form line
p1 and its brackets with p).  The summary dispatch cross-checks the
per-family summary statement against the criterion and the ODE witness
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import adjoint
from .catalog import AlgebraId
from .lie import StructureConstants, bracket
from .seminorm import SeminormBody, axis_condition
from .subspace import (
    CanonicalBasis,
    SL2SubspaceType,
    Subspace,
    SubspaceError,
    _contains,
    canonical_basis,
    classify_sl2,
    generates,
)
from .tolerances import is_zero, norm, row_and_null_space


class Verdict(Enum):
    NonStrict = "non-strict"
    Strict = "strict"


class Reason(Enum):
    C1C2Zero = "C123 = C223 = 0"
    AxisConditionHolds = "C123 != 0 and the axis condition holds"
    AxisConditionFails = "C123 != 0 and the axis condition fails"
    C1ZeroC2Nonzero = "C123 = 0, C223 != 0"


@dataclass(frozen=True)
class DirectionReport:
    """The abnormal extremal exp(t * velocity) of direction s and its verdict."""

    s: int
    velocity: np.ndarray  # u2 e2 in the catalog frame, u2 = s / F(0, s)
    verdict: Verdict
    reason: Reason
    witness: dict | None


def _both(non_strict) -> Verdict:
    """The pair of directions is non-strict iff both directions are."""
    return Verdict.NonStrict if all(non_strict) else Verdict.Strict


@dataclass(frozen=True)
class StrictnessReport:
    basis: CanonicalBasis
    directions: dict  # s -> DirectionReport

    @property
    def combined(self) -> Verdict:
        return _both(d.verdict is Verdict.NonStrict for d in self.directions.values())


def _require_generating(alg: StructureConstants, p: Subspace) -> None:
    if not generates(alg, p):
        raise SubspaceError("subspace does not generate the algebra")


def _direction_report(basis: CanonicalBasis, body: SeminormBody, s: int) -> DirectionReport:
    """The criterion: non-strict iff a witness constant k = psi1 exists."""
    c1, c2, c3 = basis.constants
    u2 = s / body.axis_gauge(s)
    if c1 == 0.0 and c2 == 0.0:
        lo, hi = body.level_interval(s)
        reason, k = Reason.C1C2Zero, min(max(0.0, lo), hi)
    elif c1 == 0.0:
        reason, k = Reason.C1ZeroC2Nonzero, None
    elif axis_condition(body, s):
        reason, k = Reason.AxisConditionHolds, 0.0
    else:
        reason, k = Reason.AxisConditionFails, None
    velocity = basis.to_catalog_frame((0.0, u2))
    if k is None:
        return DirectionReport(s, velocity, Verdict.Strict, reason, None)
    witness = {"psi1": k, "psi2": 1.0 / u2, "psi3": 0.0, "psi4": f"exp({c3 * u2:g} * t)"}
    return DirectionReport(s, velocity, Verdict.NonStrict, reason, witness)


def classify_basis(basis: CanonicalBasis, body: SeminormBody) -> StrictnessReport:
    """Per-direction strictness of the canonical basis of a generating 2D
    subspace via the canonical-constant criterion."""
    return StrictnessReport(
        basis=basis,
        directions={s: _direction_report(basis, body, s) for s in (1, -1)},
    )


def classify(alg: StructureConstants, p: Subspace, body: SeminormBody) -> StrictnessReport:
    """Per-direction strictness via the canonical-constant criterion."""
    _require_generating(alg, p)
    return classify_basis(canonical_basis(alg, p), body)


class Dim3Verdict(Enum):
    NonStrictForAllMetrics = "non-strict for all metrics"
    StrictForAllMetrics = "strict for all metrics"
    MetricDependent = "metric dependent"


@dataclass(frozen=True)
class Dim3Report:
    p1: np.ndarray
    verdict: Dim3Verdict


def dim3_report(alg: StructureConstants, p: Subspace) -> Dim3Report:
    """Abnormal extremals of a generating 3D subspace run along the line
    p1 = p ∩ N(p), the kernel of the antisymmetric form psi0([x, y]) on p
    (psi0 annihilates p).  The form is zero only on a subalgebra, so here it
    has rank 2; on orthonormal rows q of p its kernel is (b23, -b13, b12) @ q,
    b_ij = psi0([q_i, q_j]).  p1 has unit length and its first entry that is
    not zero against RTOL positive.  Strictness from p1 vs [p1, p]."""
    q = p.orthonormal
    psi0 = row_and_null_space(q)[1][0]
    b12, b13, b23 = (psi0 @ bracket(alg, q[i], q[j]) for i, j in ((0, 1), (0, 2), (1, 2)))
    x = np.array([b23, -b13, b12]) @ q
    x = x / norm(x)
    if next(v for v in x.tolist() if not is_zero(v, 1.0)) < 0:
        x = -x
    # [x, v] is zero against |c| |x| |v|, its largest size (round-off near
    # 1e-16); |x| = 1
    cn = norm(alg.c)
    brackets = [b for v in p.basis
                if not is_zero(norm(b := bracket(alg, x, v)), cn * norm(v))]
    if not brackets:
        # [p1, p] = 0 means p1 = p ∩ C(p)
        verdict = Dim3Verdict.NonStrictForAllMetrics
    elif _contains(brackets, x):
        verdict = Dim3Verdict.StrictForAllMetrics
    else:
        verdict = Dim3Verdict.MetricDependent
    return Dim3Report(p1=x, verdict=verdict)


def classify_dim3(alg: StructureConstants, p: Subspace) -> Dim3Report:
    """``dim3_report`` after checking that p is 3D and generates."""
    if p.dim != 3:
        raise SubspaceError("3D subspace expected")
    _require_generating(alg, p)
    return dim3_report(alg, p)


# summary case of each family; ``dispatch`` makes g4.8 at alpha = 0 case 1.1
# and types g3.6+g1 by its sl(2) type.  g3.1+g1 and g3.3+g1 have none ("-")
_SUMMARY_CASE = {
    "g3.2+g1": "1.3", "g3.4+g1": "1.3", "g3.5+g1": "1.3",
    "g4.1": "1.4", "g4.2": "1.4", "g4.3": "1.4",
    "g4.4": "1.4", "g4.5": "1.4", "g4.6": "1.4",
    "g4.10": "1.2",
    "g3.7+g1": "2", "g4.7": "2", "g4.8": "2", "g4.9": "2",
}


@dataclass(frozen=True)
class DispatchReport:
    case: str
    summary_verdict: Verdict | None     # per-family summary statement
    criterion_verdict: Verdict          # canonical-constant criterion
    oracle_verdict: Verdict             # ODE witness search
    consistent: bool
    flagged_tension: bool
    sl2_type: str | None
    report: StrictnessReport


def dispatch(alg_id: AlgebraId, p: Subspace, body: SeminormBody,
             rep: StrictnessReport) -> DispatchReport:
    """Summary-case dispatch of the criterion's report ``rep`` on p, with
    the witness oracle run on the same canonical basis.

    Known tension: for the sl(2,R)+R types IIa/IIb the summary statement
    says strict while the criterion (and the oracle) can say non-strict
    when the axis condition holds; such instances are flagged, never
    silently classified.
    """
    oracle = _both(adjoint.witness_search(rep.basis, body, s) is not None for s in (1, -1))

    fam = alg_id.family
    sl2_type = None
    if fam == "g3.6+g1":
        typing = classify_sl2(p.algebra, p, fam)
        sl2_type = typing.value
        case = "2" if typing is SL2SubspaceType.TypeI else "3"
    elif fam == "g4.8" and alg_id.alpha == 0:
        case = "1.1"
    else:
        case = _SUMMARY_CASE.get(fam, "-")

    # 1.x non-strict, 3 strict, 2 conditional: non-strict iff the axis
    # condition holds in both directions
    if case.startswith("1."):
        summary = Verdict.NonStrict
    elif case == "3":
        summary = Verdict.Strict
    elif case == "2":
        summary = _both(axis_condition(body, s) for s in (1, -1))
    else:
        summary = None

    criterion = rep.combined
    consistent = (summary is None or summary is criterion) and criterion is oracle
    flagged = fam == "g3.6+g1" and sl2_type in ("IIa", "IIb") and summary is not criterion
    return DispatchReport(
        case=case,
        summary_verdict=summary,
        criterion_verdict=criterion,
        oracle_verdict=oracle,
        consistent=consistent,
        flagged_tension=flagged,
        sl2_type=sl2_type,
        report=rep,
    )


def theorem3_dispatch(alg_id: AlgebraId, p: Subspace, body: SeminormBody) -> DispatchReport:
    """Summary-case dispatch with criterion and oracle cross-check."""
    return dispatch(alg_id, p, body, classify(p.algebra, p, body))
