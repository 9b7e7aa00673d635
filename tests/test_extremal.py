import math

import numpy as np
import pytest

from abnorm.catalog import FAMILIES, AlgebraId, default_id, instantiate, known_generating_subspace
from abnorm.extremal import (
    Dim3Verdict,
    Reason,
    Verdict,
    classify,
    classify_dim3,
    theorem3_dispatch,
)
from abnorm.lie import inner_automorphism
from abnorm.seminorm import Disk, Polygon
from abnorm.subspace import Subspace, SubspaceError, canonical_basis, generates
from abnorm.tolerances import RTOL
from reference import normalizer

E = np.eye(4)
DISK = Disk((0, 0), 1.0)
SHIFTED = Disk((0.5, 0.0), 1.0)
SQUARE = Polygon([[1, -1], [1, 1], [-1, 1], [-1, -1]])
QUAD = Polygon([[1, 0], [0, 1], [-2, 0], [0, -1]])


def known(fam, **kw):
    aid = default_id(fam, **kw)
    alg = instantiate(aid)
    ks = known_generating_subspace(aid)
    return aid, alg, Subspace(alg, np.stack(ks.span))


def test_extremal_descriptors_unit_disk():
    _, alg, p = known("g4.1")
    descs = classify(alg, p, DISK).directions
    assert list(descs) == [1, -1]
    b = canonical_basis(alg, p)
    for s, d in descs.items():
        assert d.s == s
        assert np.allclose(d.velocity, d.s * b.e2)


def test_extremal_descriptors_shifted_disk():
    # gauge of e2 is 2/sqrt(3), so the velocity is scaled by sqrt(3)/2
    _, alg, p = known("g4.1")
    descs = classify(alg, p, SHIFTED).directions
    b = canonical_basis(alg, p)
    assert np.allclose(descs[1].velocity, (math.sqrt(3) / 2) * b.e2, atol=1e-12)


def test_non_generating_subspace_rejected():
    alg = instantiate(AlgebraId("g4.1"))
    p = Subspace(alg, np.stack([E[0], E[1]]))
    with pytest.raises(SubspaceError):
        classify(alg, p, DISK)


def test_classify_reasons_constant_case():
    _, alg, p = known("g4.10")
    rep = classify(alg, p, DISK)
    for s in (1, -1):
        d = rep.directions[s]
        assert d.verdict is Verdict.NonStrict
        assert d.reason is Reason.C1C2Zero
        assert d.witness is not None
    assert rep.combined is Verdict.NonStrict


def test_classify_reasons_axis_case():
    _, alg, p = known("g4.7")
    rep = classify(alg, p, DISK)
    assert all(d.reason is Reason.AxisConditionHolds for d in rep.directions.values())
    rep = classify(alg, p, SHIFTED)
    assert all(d.reason is Reason.AxisConditionFails for d in rep.directions.values())
    assert rep.combined is Verdict.Strict


def test_classify_second_constant_case():
    # sl(2,R)+R subspace whose bracket stays inside span(e2, e3)
    alg = instantiate(default_id("g3.6+g1"))
    p = Subspace(alg, np.stack([E[0] + E[2] + E[3], E[2] - E[0]]))
    rep = classify(alg, p, DISK)
    for d in rep.directions.values():
        assert d.verdict is Verdict.Strict
        assert d.reason is Reason.C1ZeroC2Nonzero


def test_engel_dim3_nonstrict():
    alg = instantiate(AlgebraId("g4.1"))
    p = Subspace(alg, np.stack([E[0], E[2], E[3]]))
    rep = classify_dim3(alg, p)
    assert rep.verdict is Dim3Verdict.NonStrictForAllMetrics
    assert np.array_equal(rep.p1, E[0])


def test_g43_dim3_strict():
    alg = instantiate(AlgebraId("g4.3"))
    p = Subspace(alg, np.stack([E[0], E[2], E[3]]))
    rep = classify_dim3(alg, p)
    assert rep.verdict is Dim3Verdict.StrictForAllMetrics
    assert np.array_equal(rep.p1, E[0])


@pytest.mark.parametrize("fam, verdict", [
    ("g4.1", Dim3Verdict.NonStrictForAllMetrics),
    ("g4.3", Dim3Verdict.StrictForAllMetrics),
])
def test_dim3_invariant_under_inner_automorphisms(fam, verdict):
    # images of span(E1, E3, E4) under exp(ad X): the g4.1 brackets [p1, p]
    # vanish, and on the images they are round-off of about 1e-16
    alg = instantiate(AlgebraId(fam))
    rng = np.random.default_rng(0)
    for _ in range(200):
        m = inner_automorphism(alg, rng.normal(scale=0.3, size=4))
        p = Subspace(alg, (m @ np.stack([E[0], E[2], E[3]]).T).T)
        assert classify_dim3(alg, p).verdict is verdict


def test_dim3_p1_on_random_subspaces():
    # p1 = p ∩ N(p) for random generating 3D subspaces of every family,
    # checked against the SVD-based normalizer; mixing the spanners by an
    # invertible matrix leaves p1, sign included, as it is
    rng = np.random.default_rng(3)
    for fam in FAMILIES:
        alg = instantiate(default_id(fam))
        for _ in range(3):
            rows = rng.normal(size=(3, 4))
            p = Subspace(alg, rows)
            assert generates(alg, p), fam  # a generic 3D subspace generates
            x = classify_dim3(alg, p).p1
            assert math.isclose(np.linalg.norm(x), 1.0, rel_tol=1e-12), fam
            q, n = p.orthonormal, normalizer(alg, p)
            assert np.allclose(q.T @ (q @ x), x, atol=1e-12), fam
            assert np.allclose(n.T @ (n @ x), x, atol=1e-12), fam
            assert x[np.flatnonzero(np.abs(x) > RTOL)[0]] > 0, fam
            mix = rng.normal(size=(3, 3))
            assert abs(np.linalg.det(mix)) > 1e-3
            mixed = classify_dim3(alg, Subspace(alg, mix @ rows)).p1
            assert np.allclose(mixed, x, atol=1e-12), fam


def test_dim3_requires_dimension():
    _, alg, p = known("g4.7")
    with pytest.raises(SubspaceError):
        classify_dim3(alg, p)


def test_liu_sussmann_strict():
    alg = instantiate(default_id("g3.7+g1"))
    p = Subspace(alg, np.stack([E[0] + E[3], E[0] + E[1] + 2 * E[3]]))
    b = canonical_basis(alg, p)
    assert np.allclose(b.e1, [0.5, -0.5, 0.0, 0.0])
    # unit disk in the spanner frame, mapped to canonical coordinates
    body = Disk((0, 0), 1.0).transformed(np.linalg.inv(b.frame_from_spanners))
    rep = classify(alg, p, body)
    assert rep.combined is Verdict.Strict
    assert all(d.reason is Reason.AxisConditionFails for d in rep.directions.values())


def test_dispatch_unconditional_cases():
    for fam, kw, case in [("g4.10", {}, "1.2"), ("g4.8", {"alpha": 0.0}, "1.1"),
                          ("g4.1", {}, "1.4"), ("g3.2+g1", {}, "1.3")]:
        aid, alg, p = known(fam, **kw)
        for body in (DISK, SHIFTED, SQUARE, QUAD):
            d = theorem3_dispatch(aid, p, body)
            assert d.case == case
            assert d.summary_verdict is Verdict.NonStrict
            assert d.criterion_verdict is Verdict.NonStrict
            assert d.oracle_verdict is Verdict.NonStrict
            assert d.consistent and not d.flagged_tension


def test_dispatch_conditional_case():
    aid, alg, p = known("g4.7")
    d = theorem3_dispatch(aid, p, DISK)
    assert d.case == "2" and d.summary_verdict is Verdict.NonStrict and d.consistent
    d = theorem3_dispatch(aid, p, SHIFTED)
    assert d.summary_verdict is Verdict.Strict
    assert d.criterion_verdict is Verdict.Strict and d.consistent


def test_dispatch_sl2_tension_flagged():
    aid = default_id("g3.6+g1")
    alg = instantiate(aid)
    for rows, typ in [([E[0], E[2] + E[3]], "IIa"), ([E[2], E[0] + E[3]], "IIb")]:
        p = Subspace(alg, np.stack(rows))
        d = theorem3_dispatch(aid, p, DISK)
        assert d.sl2_type == typ
        assert d.case == "3" and d.summary_verdict is Verdict.Strict
        assert d.criterion_verdict is Verdict.NonStrict
        assert d.oracle_verdict is Verdict.NonStrict
        assert d.flagged_tension and not d.consistent
        # axis condition failing removes the tension
        d = theorem3_dispatch(aid, p, SHIFTED)
        assert d.criterion_verdict is Verdict.Strict
        assert not d.flagged_tension and d.consistent


def test_dispatch_sl2_type_iic_consistent():
    aid = default_id("g3.6+g1")
    alg = instantiate(aid)
    p = Subspace(alg, np.stack([E[0] + E[2] + E[3], E[2] - E[0]]))
    d = theorem3_dispatch(aid, p, DISK)
    assert d.sl2_type == "IIc"
    assert d.summary_verdict is Verdict.Strict
    assert d.criterion_verdict is Verdict.Strict and d.consistent


def test_dispatch_sl2_type_one_conditional():
    aid, alg, p = known("g3.6+g1")
    d = theorem3_dispatch(aid, p, DISK)
    assert d.sl2_type == "I" and d.case == "2"
    assert d.summary_verdict is Verdict.NonStrict and d.consistent


def test_classify_invariant_under_scaling():
    for fam in ["g4.7", "g4.10", "g3.7+g1"]:
        _, alg, p = known(fam)
        for body in (DISK, SHIFTED, QUAD):
            ref = classify(alg, p, body).combined
            for lam in (0.5, 2.0, 10.0):
                assert classify(alg, p, body.scaled(lam)).combined is ref


def test_triangle_witness_is_exact():
    # the e2 ray leaves this triangle mid-edge, so the support slice
    # touches level 1 at one kink only
    _, alg, p = known("g4.10")
    tri = Polygon([[1, -1], [0.3, 1], [-1, -0.5]])
    rep = classify(alg, p, tri)
    for s in (1, -1):
        w = rep.directions[s].witness
        assert rep.directions[s].verdict is Verdict.NonStrict
        assert w["psi1"] is not None and math.isfinite(w["psi1"])
        assert abs(tri.support((w["psi1"], w["psi2"])) - 1.0) <= 1e-12


def test_shifted_disk_witness_is_exact():
    _, alg, p = known("g4.10")
    for s in (1, -1):
        assert classify(alg, p, SHIFTED).directions[s].witness["psi1"] == pytest.approx(
            -2.0 / 3.0, abs=1e-14)
