"""Scale invariance of the verdicts, and the one home of the tolerances.

The criterion reads only which canonical constants vanish and the shape of
the control body, so rescaling the spanners or the body must leave every
verdict, per-direction reason and oracle verdict as it is.
"""

import ast
import warnings
from pathlib import Path

import numpy as np
import pytest

import abnorm
from abnorm.catalog import AlgebraId, default_id, instantiate, known_generating_subspace
from abnorm.extremal import classify_basis, classify_dim3, dispatch
from abnorm.seminorm import Disk, Polygon
from abnorm.subspace import Subspace, canonical_basis, classify_sl2, generates
from abnorm.tolerances import rank, span
from reference import centralizer, normalizer

E = np.eye(4)
BODIES = {
    "disk": Disk((0, 0), 1.0),
    "shifted": Disk((0.5, 0.0), 1.0),
    "square": Polygon([[1, -1], [1, 1], [-1, 1], [-1, -1]]),
    "quad": Polygon([[1, 0], [0, 1], [-2, 0], [0, -1]]),
}
KNOWN = ["g3.2+g1", "g3.4+g1", "g3.5+g1", "g3.6+g1", "g3.7+g1", "g4.1", "g4.2",
         "g4.3", "g4.4", "g4.5", "g4.6", "g4.7", "g4.8", "g4.9", "g4.10"]
#: every 10th exponent and the ends of [-100, 100]
EXPONENTS = range(-100, 101, 10)


def known(fam, scale=1.0):
    aid = default_id(fam)
    alg = instantiate(aid)
    p = Subspace(alg, scale * np.stack(known_generating_subspace(aid).span))
    assert generates(alg, p)
    return aid, p, canonical_basis(alg, p)


def signature(aid, p, basis, body):
    rep = classify_basis(basis, body)
    disp = dispatch(aid, p, body, rep)
    return (rep.combined, tuple(rep.directions[s].reason for s in (1, -1)),
            disp.oracle_verdict, disp.consistent)


@pytest.mark.parametrize("body", sorted(BODIES))
@pytest.mark.parametrize("base", [2.0, 10.0])
def test_verdicts_invariant_under_spanner_scaling(base, body):
    for fam in KNOWN:
        want = signature(*known(fam), BODIES[body])
        for k in EXPONENTS:
            assert signature(*known(fam, base ** k), BODIES[body]) == want, (fam, k)


@pytest.mark.parametrize("fam", KNOWN)
def test_verdicts_invariant_under_body_scaling(fam):
    aid, p, basis = known(fam)
    for name, body in BODIES.items():
        want = signature(aid, p, basis, body)
        for k in EXPONENTS:
            assert signature(aid, p, basis, body.scaled(10.0 ** k)) == want, (k, name)


@pytest.mark.parametrize("fam", ["g4.1", "g4.3"])
def test_dim3_verdict_invariant_under_spanner_scaling(fam):
    alg = instantiate(AlgebraId(fam))
    rows = np.stack([E[0], E[2], E[3]])
    want = classify_dim3(alg, Subspace(alg, rows)).verdict
    for k in EXPONENTS:
        assert classify_dim3(alg, Subspace(alg, 10.0 ** k * rows)).verdict is want, k


def test_no_tolerance_literal_outside_tolerances():
    # every small threshold is a named, documented constant of abnorm.tolerances
    src = Path(abnorm.__file__).parent
    found = [
        f"{path.name}:{node.lineno}: {node.value!r}"
        for path in sorted(src.glob("*.py")) if path.name != "tolerances.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant) and isinstance(node.value, float)
        and 0.0 < node.value < 1e-6
    ]
    assert not found


def row_scaled(rows, i, k):
    """rows with row i multiplied by 10^k"""
    out = np.array(rows, dtype=float)
    out[i] *= 10.0 ** k
    return out


def dispatch_signature(aid, alg, rows, body):
    p = Subspace(alg, rows)
    assert generates(alg, p)
    disp = dispatch(aid, p, body, classify_basis(canonical_basis(alg, p), body))
    return (disp.criterion_verdict, disp.oracle_verdict, disp.consistent, disp.sl2_type,
            disp.flagged_tension)


@pytest.mark.parametrize("body", sorted(BODIES))
def test_verdicts_invariant_under_per_row_spanner_scaling(body):
    # spanners may differ in length by any factor
    for fam in KNOWN:
        aid = default_id(fam)
        alg = instantiate(aid)
        rows = np.stack(known_generating_subspace(aid).span)
        want = dispatch_signature(aid, alg, rows, BODIES[body])
        for i in range(2):
            for k in EXPONENTS:
                got = dispatch_signature(aid, alg, row_scaled(rows, i, k), BODIES[body])
                assert got == want, (fam, i, k)


SL2_TYPED = {"I": [E[0], E[1] + E[3]], "IIa": [E[0], E[2] + E[3]], "IIb": [E[2], E[0] + E[3]]}


@pytest.mark.parametrize("tag", sorted(SL2_TYPED))
def test_sl2_typing_invariant_under_per_row_spanner_scaling(tag):
    aid = default_id("g3.6+g1")
    alg = instantiate(aid)
    rows = np.stack(SL2_TYPED[tag])
    want = {name: dispatch_signature(aid, alg, rows, body) for name, body in BODIES.items()}
    for i in range(2):
        for k in EXPONENTS:
            scaled = row_scaled(rows, i, k)
            assert classify_sl2(alg, Subspace(alg, scaled), "g3.6+g1").value == tag, (i, k)
            for name, body in BODIES.items():
                assert dispatch_signature(aid, alg, scaled, body) == want[name], (i, k, name)


@pytest.mark.parametrize("fam", ["g4.1", "g4.3"])
def test_dim3_invariant_under_per_row_spanner_scaling(fam):
    alg = instantiate(AlgebraId(fam))

    def signature3(rows):
        p = Subspace(alg, rows)
        return classify_dim3(alg, p).verdict, len(normalizer(alg, p)), len(centralizer(alg, p))

    rows = np.stack([E[0], E[2], E[3]])
    want = signature3(rows)
    for i in range(3):
        for k in EXPONENTS:
            assert signature3(row_scaled(rows, i, k)) == want, (i, k)


def test_span_takes_each_row_at_unit_size():
    # rows at both ends of the float range count; an exact-zero row spans nothing
    rows = [[1.5e308, 1.5e308, 0, 0], [0, 0, 5e-324, 0], [0, 0, 0, 0]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q = span(rows)
        assert rank(rows) == 2
    for v in ([0.5 ** 0.5, 0.5 ** 0.5, 0, 0], [0, 0, 1, 0]):
        assert np.allclose(q.T @ (q @ v), v)


def test_no_singular_value_cutoff_outside_tolerances():
    # every span, null-space and invertibility test goes through abnorm.tolerances
    names = {"svd", "det", "slogdet", "matrix_rank", "pinv", "lstsq"}
    src = Path(abnorm.__file__).parent
    found = [
        f"{path.name}: {node.attr if isinstance(node, ast.Attribute) else node.name}"
        for path in sorted(src.glob("*.py")) if path.name != "tolerances.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in names
        or isinstance(node, ast.alias) and node.name in names
    ]
    assert not found
