import numpy as np
import pytest

from abnorm.catalog import AlgebraId, default_id, instantiate, known_generating_subspace
from abnorm.extremal import theorem3_dispatch
from abnorm.lie import inner_automorphism
from abnorm.seminorm import Disk
from abnorm.subspace import (
    SL2SubspaceType,
    Subspace,
    SubspaceError,
    canonical_basis,
    check_prop2,
    classify_sl2,
    generates,
)
from reference import centralizer, normalizer

E = np.eye(4)


def known(fam, **kw):
    aid = default_id(fam, **kw)
    alg = instantiate(aid)
    ks = known_generating_subspace(aid)
    return alg, Subspace(alg, np.stack(ks.span))


def test_known_subspaces_generate_with_full_flag():
    for fam in ["g3.2+g1", "g3.4+g1", "g3.5+g1", "g3.6+g1", "g3.7+g1", "g4.1",
                "g4.2", "g4.3", "g4.4", "g4.5", "g4.6", "g4.7", "g4.8", "g4.9",
                "g4.10"]:
        alg, p = known(fam)
        res = generates(alg, p)
        assert res and res.dims == (2, 3, 4), fam


def test_abelian_plane_does_not_generate():
    alg = instantiate(AlgebraId("g4.1"))
    res = generates(alg, Subspace(alg, np.stack([E[0], E[1]])))
    assert not res and res.dims == (2,)


def test_dependent_spanners_rejected():
    alg = instantiate(AlgebraId("g4.1"))
    with pytest.raises(SubspaceError):
        Subspace(alg, np.stack([E[0], 2 * E[0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_spanners_rejected(bad):
    alg = instantiate(AlgebraId("g4.1"))
    with pytest.raises(SubspaceError, match="non-finite"):
        Subspace(alg, np.stack([E[0], [0.0, 1.0, bad, 0.0]]))


@pytest.mark.parametrize(
    "fam,kw,c123,c223,c323",
    [
        ("g4.7", {}, 1.0, 0.0, -2.0),
        ("g4.8", {"alpha": 0.5}, 0.5, 0.0, -1.5),
        ("g4.8", {"alpha": -1.0}, -1.0, 0.0, 0.0),
        ("g4.9", {"alpha": 0.5}, 1.25, 0.0, -1.0),
        ("g4.9", {"alpha": 0.0}, 1.0, 0.0, 0.0),
        ("g4.10", {}, 0.0, 0.0, -1.0),
        ("g3.6+g1", {}, -1.0, 0.0, 0.0),
        ("g3.7+g1", {}, 1.0, 0.0, 0.0),
    ],
)
def test_canonical_constants_fixtures(fam, kw, c123, c223, c323):
    alg, p = known(fam, **kw)
    b = canonical_basis(alg, p)
    assert np.allclose(b.c23[:3], [c123, c223, c323], atol=1e-9)
    assert abs(b.c23[3]) <= 1e-9


def test_canonical_basis_bracket_relations():
    from abnorm.lie import bracket

    for fam in ["g4.7", "g4.9", "g4.10", "g3.6+g1", "g3.7+g1"]:
        alg, p = known(fam)
        b = canonical_basis(alg, p)
        assert np.allclose(bracket(alg, b.e1, b.e2), b.e3, atol=1e-9)
        assert np.allclose(bracket(alg, b.e1, b.e3), b.e4, atol=1e-9)
        assert check_prop2(b) <= 1e-9


def test_second_constant_killed_when_first_nonzero():
    # spanners engineered so the raw second constant is nonzero
    alg = instantiate(default_id("g3.7+g1"))
    p = Subspace(alg, np.stack([E[0] + E[3], E[0] + E[1] + 2 * E[3]]))
    b = canonical_basis(alg, p)
    assert abs(b.c23[0] - 2.0) <= 1e-9
    assert abs(b.c23[1]) <= 1e-9
    assert np.allclose(b.e1, [0.5, -0.5, 0.0, 0.0])
    assert np.allclose(b.frame_from_spanners, [[1.0, 0.0], [-0.5, 1.0]])


def test_canonical_constants_where_the_scale_product_overflows():
    # |c| |e2| |e3| is about 3.3e308, past the float range, while the basis
    # and C123 near 3.4e307 are in it: C123 must not count as zero, and the
    # zero pattern is that of the known g4.7 subspace
    aid = default_id("g4.7")
    alg = instantiate(aid)
    p = Subspace(alg, np.array([[0.3, -1, 2, 0.3], [0, 0.3, 2, 6e153]]))
    b = canonical_basis(alg, p)
    want = canonical_basis(*known("g4.7")).constants
    assert [c == 0.0 for c in b.constants] == [c == 0.0 for c in want] == [False, True, False]
    assert np.isfinite(np.stack([b.e1, b.e2, b.e3, b.e4])).all()
    assert theorem3_dispatch(aid, p, Disk((0.1, 0.0), 1.0)).consistent


def test_canonical_frame_roundtrip():
    alg, p = known("g4.7")
    b = canonical_basis(alg, p)
    v = b.to_catalog_frame((0.3, -1.2))
    assert np.allclose(v, 0.3 * b.e1 - 1.2 * b.e2)


def test_normalizer_centralizer_nilpotent():
    alg = instantiate(AlgebraId("g4.1"))
    p = Subspace(alg, np.stack([E[0], E[2], E[3]]))
    n = normalizer(alg, p)
    assert n.shape[0] == 2
    assert np.allclose(np.abs(np.linalg.svd(np.vstack([n, E[0], E[1]]))[1][2:]), 0.0, atol=1e-9)
    c = centralizer(alg, p)
    assert c.shape[0] == 1
    assert np.allclose(np.abs(c[0]), E[0], atol=1e-9)


@pytest.mark.parametrize(
    "rows,tag",
    [
        ([E[0], E[1] + E[3]], SL2SubspaceType.TypeI),
        ([E[0], E[2] + E[3]], SL2SubspaceType.TypeIIa),
        ([E[2], E[0] + E[3]], SL2SubspaceType.TypeIIb),
        ([E[0] + E[2] + E[3], E[2] - E[0]], SL2SubspaceType.TypeIIc),
        ([E[0] + E[3], E[1] + E[2]], SL2SubspaceType.Degenerate),  # subalgebra
        ([E[0], E[1]], SL2SubspaceType.Degenerate),  # inside the 3D part
        ([E[0] + E[3], E[3] - E[0]], SL2SubspaceType.Degenerate),  # 1D projection
    ],
)
def test_sl2_typing(rows, tag):
    alg = instantiate(default_id("g3.6+g1"))
    p = Subspace(alg, np.stack(rows))
    assert classify_sl2(alg, p, "g3.6+g1") is tag


def test_sl2_so3_always_type_one():
    alg = instantiate(default_id("g3.7+g1"))
    p = Subspace(alg, np.stack([E[0], E[1] + E[3]]))
    assert classify_sl2(alg, p, "g3.7+g1") is SL2SubspaceType.TypeI


def test_wrong_dimension_or_family_rejected():
    alg, p = known("g4.7")
    p3 = Subspace(alg, E[:3])
    with pytest.raises(SubspaceError, match="2D"):
        canonical_basis(alg, p3)
    with pytest.raises(SubspaceError, match="g3.6"):
        classify_sl2(alg, p, "g4.7")
    alg = instantiate(default_id("g3.6+g1"))
    with pytest.raises(SubspaceError, match="2D"):
        classify_sl2(alg, Subspace(alg, E[:3]), "g3.6+g1")


def test_canonical_constants_invariant_under_inner_automorphisms():
    rng = np.random.default_rng(11)
    for fam in ["g4.7", "g4.10", "g3.6+g1", "g3.7+g1"]:
        alg, p = known(fam)
        ref = canonical_basis(alg, p).c23
        for _ in range(10):
            m = inner_automorphism(alg, rng.normal(scale=0.4, size=4))
            q = Subspace(alg, (m @ p.basis.T).T)
            b = canonical_basis(alg, q)
            assert np.allclose(b.c23, ref, atol=1e-7), fam
            assert check_prop2(b) <= 1e-7, fam
