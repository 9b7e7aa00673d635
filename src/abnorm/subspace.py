"""Subspace machinery: bracket generation, the canonical basis construction
and the typing of subspaces of the two decomposable algebras with simple 3D
part.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .lie import DIM, StructureConstants, bracket, killing_matrix
from .tolerances import is_zero, norm, rank, row_and_null_space, span


class SubspaceError(ValueError):
    pass


def _out_of_range(what: str) -> SubspaceError:
    return SubspaceError(f"canonicalization out of numerical range: {what}")


def _contains(space_rows, vector) -> bool:
    q = span(space_rows)
    v = np.asarray(vector, dtype=float)
    return is_zero(norm(v - q.T @ (q @ v)), norm(v))


@dataclass(frozen=True)
class Subspace:
    """A 2D or 3D subspace of ``algebra``.  Its generation result and canonical
    basis are computed on first use and kept; read-only arrays keep them valid."""

    algebra: StructureConstants
    basis: np.ndarray  # rows
    #: orthonormal rows with the span of ``basis``
    orthonormal: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=float)
        if b.ndim != 2 or b.shape[0] not in (2, 3) or b.shape[1] != DIM:
            raise SubspaceError("subspace basis must be 2 or 3 vectors in R^4")
        if not np.isfinite(b).all():
            raise SubspaceError("subspace basis has non-finite entries")
        q = span(b)
        if len(q) != len(b):
            raise SubspaceError("dependent spanning set")
        b.setflags(write=False)
        q.setflags(write=False)
        object.__setattr__(self, "basis", b)
        object.__setattr__(self, "orthonormal", q)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @functools.cached_property
    def generation(self) -> GenerationResult:
        return generates(self.algebra, self)

    @functools.cached_property
    def canonical(self) -> CanonicalBasis:
        return canonical_basis(self.algebra, self)


@dataclass(frozen=True)
class GenerationResult:
    generates: bool
    dims: tuple

    def __bool__(self):
        return self.generates


def generates(alg: StructureConstants, p: Subspace) -> GenerationResult:
    """Flag test: V0 = p, V_{i+1} = V_i + [V_i, V_i] until stabilization."""
    rows = p.orthonormal
    dims = [rows.shape[0]]
    while dims[-1] < DIM:
        new = list(rows)
        n = rows.shape[0]
        for i in range(n):
            for j in range(i + 1, n):
                new.append(bracket(alg, rows[i], rows[j]))
        # the one rank at raw scale: the unit rows of V_i beside brackets at
        # their own size, so that brackets large enough to push V_i under the
        # rank cutoff (V_i must lie in V_{i+1}) show
        q = row_and_null_space(new)[0]
        if not is_zero(norm(rows - rows @ q.T @ q), 1.0):
            raise SubspaceError("bracket generation out of numerical range: "
                                "the brackets swamp the subspace")
        rows = q
        if rows.shape[0] == dims[-1]:
            break
        dims.append(rows.shape[0])
    return GenerationResult(generates=dims[-1] == DIM, dims=tuple(dims))


@dataclass(frozen=True)
class CanonicalBasis:
    """Basis with [e1,e2] = e3, [e1,e3] = e4 and the e4-component of
    [e2,e3] removed; the e2-shift of e1 is applied whenever it can zero
    the e2-component of [e2,e3].  ``constants`` is (C123, C223, C323)
    with each one that counts as zero set to 0.0, decided here only."""

    algebra: StructureConstants
    e1: np.ndarray
    e2: np.ndarray
    e3: np.ndarray
    e4: np.ndarray
    c23: np.ndarray
    constants: tuple
    #: columns of final (e1, e2) in coordinates of the input spanners
    frame_from_spanners: np.ndarray

    def to_catalog_frame(self, xy) -> np.ndarray:
        x, y = xy
        return x * self.e1 + y * self.e2


def canonical_basis(alg: StructureConstants, p: Subspace) -> CanonicalBasis:
    """Construct the canonical basis from a generating 2D subspace.

    Tie-break: the first spanner is preferred as e1; if e1, e2, [e1,e2],
    [e1,[e1,e2]] fail the rank-4 test the spanners are swapped.  In exact
    arithmetic one ordering of a generating subspace passes.
    """
    if p.dim != 2:
        raise SubspaceError("canonical basis needs a 2D subspace")
    cn = norm(alg.c)
    v1, v2 = p.basis
    for e1, e2, frame in (
        (v1, v2, np.eye(2)),
        (v2, v1, np.array([[0.0, 1.0], [1.0, 0.0]])),
    ):
        e3 = bracket(alg, e1, e2)
        e4 = bracket(alg, e1, e3)
        n1, n3, n4 = norm(e1), norm(e3), norm(e4)
        # a bracket [x, y] counts as zero against |c| |x| |y|
        if (np.isfinite(n4) and not is_zero(n3, cn * n1 * norm(e2))
                and not is_zero(n4, cn * n1 * n3) and rank([e1, e2, e3, e4]) == DIM):
            break
    else:
        raise _out_of_range("no ordering of the spanners gives a rank-4 basis")

    basis = np.stack([e1, e2, e3, e4], axis=1)
    c23 = np.linalg.solve(basis, bracket(alg, e2, e3))
    # solve returns inf or nan without a warning, and the scalar tests run on
    # Python floats, which overflow without one; a component that is not
    # finite ends the job before it reaches a numpy operation that would warn
    shift = c23.tolist()[3]
    if not math.isfinite(shift):
        raise _out_of_range("the components of [e2, e3] are not finite")
    if shift != 0:
        # e2 <- e2 - C423 e1 removes the e4-component of [e2, e3]
        e2 = e2 - shift * e1
        frame = frame @ np.array([[1.0, -shift], [0.0, 1.0]])
        basis = np.stack([e1, e2, e3, e4], axis=1)
        c23 = np.linalg.solve(basis, bracket(alg, e2, e3))

    # Ck23 is zero when its component Ck23 e_k of [e2, e3] is, against
    # |c| |e2| |e3|; taken as a ratio, since that product overflows on bases
    # whose vectors and constants are all in range
    n2, c = norm(e2), c23.tolist()
    rel = [ck / n3 * (n / n2) for ck, n in zip(c, (n1, n2, n3))]
    if not all(map(math.isfinite, rel)):
        raise _out_of_range("the components of [e2, e3] are not finite")
    zero = [is_zero(r, cn) for r in rel]
    if not (zero[0] or zero[1]):
        # e1 <- e1 + (C223/C123) e2 zeroes C223 only; e3 is unchanged, e4 moves
        x = c[1] / c[0]
        e1 = e1 + x * e2
        frame = frame @ np.array([[1.0, 0.0], [x, 1.0]])
        e4 = bracket(alg, e1, e3)
        basis = np.stack([e1, e2, e3, e4], axis=1)
        c23 = np.linalg.solve(basis, bracket(alg, e2, e3))
        zero[1] = True
        if not all(map(math.isfinite, (*c23.tolist(), norm(e1), norm(e4)))):
            raise _out_of_range("the C223 shift is not finite")

    for a in (e1, e2, e3, e4, c23, frame):
        a.setflags(write=False)
    return CanonicalBasis(
        algebra=alg, e1=e1, e2=e2, e3=e3, e4=e4, c23=c23,
        constants=tuple(0.0 if z else float(c) for c, z in zip(c23, zero)),
        frame_from_spanners=frame,
    )


def check_prop2(b: CanonicalBasis) -> float:
    """Max violation of C124 = C224 = 0, C324 = C223, C424 = C323."""
    c24 = np.linalg.solve(np.stack([b.e1, b.e2, b.e3, b.e4], axis=1),
                          bracket(b.algebra, b.e2, b.e4))
    return float(max(abs(c24[0]), abs(c24[1]), abs(c24[2] - b.c23[1]), abs(c24[3] - b.c23[2])))


class SL2SubspaceType(Enum):
    TypeI = "I"
    TypeIIa = "IIa"
    TypeIIb = "IIb"
    TypeIIc = "IIc"
    Degenerate = "degenerate"


# the typing form Q on the 3D part reproduces signature (+,+,-) for the
# sl(2,R) summand and (+,+,+) for the so(3) summand; see the decomposable
# Killing matrices diag(±2, ±2, -2, 0)
def _typing_form(alg: StructureConstants, family: str) -> np.ndarray:
    k = killing_matrix(alg)[:3, :3]
    return 0.5 * k if family == "g3.6+g1" else -0.5 * k


def classify_sl2(alg: StructureConstants, p: Subspace, family: str) -> SL2SubspaceType:
    """Type a 2D subspace of g3.6+g1 or g3.7+g1.

    Conditions checked: the projection p1 onto the 3D part differs from p,
    is 2D, and the Killing form restricted to p1 is non-degenerate.  On
    the sl(2,R) side the indefinite case is refined by the causal type of
    s = p ∩ g3.
    """
    if family not in ("g3.6+g1", "g3.7+g1"):
        raise SubspaceError("classification applies to g3.6+g1 / g3.7+g1 only")
    if p.dim != 2:
        raise SubspaceError("2D subspace expected")
    q = _typing_form(alg, family)

    # u: orthonormal rows of p; w: their E4-components, zero iff p ⊂ g3.
    # The smallest singular value of the projection of u is the sine of the
    # angle between p and E4
    u = p.orthonormal
    w = u[:, 3]
    p1 = row_and_null_space(u[:, :3])[0]
    if is_zero(norm(w), 1.0) or p1.shape[0] != 2:
        return SL2SubspaceType.Degenerate

    gram = p1 @ q @ p1.T
    eigs = np.linalg.eigvalsh(gram)
    if is_zero(min(abs(eigs)), norm(q)):
        return SL2SubspaceType.Degenerate

    if family == "g3.7+g1" or np.all(eigs > 0):
        return SL2SubspaceType.TypeI

    # indefinite restriction: refine by the causal type of the line
    # p ∩ g3 = (w1 u0 - w0 u1) / |w|
    v = (w[1] * u[0] - w[0] * u[1])[:3] / norm(w)
    qv = float(v @ q[:3, :3] @ v)
    if is_zero(qv, norm(q)):
        return SL2SubspaceType.TypeIIc
    if qv > 0:
        return SL2SubspaceType.TypeIIa
    return SL2SubspaceType.TypeIIb
