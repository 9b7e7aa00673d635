import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abnorm.adjoint import _powers, system_matrix
from abnorm.catalog import default_id, instantiate, list_families
from abnorm.lie import (
    LieError,
    StructureConstants,
    ad_matrix,
    automorphism_defect,
    bracket,
    expm,
    inner_automorphism,
    jacobi_defect,
    killing_matrix,
)

HEIS4 = [(2, 4, {1: 1.0}), (3, 4, {2: 1.0})]  # nilpotent reference table


def heis():
    return StructureConstants.from_brackets(HEIS4)


def test_from_brackets_antisymmetry():
    alg = heis()
    assert np.allclose(alg.c, -np.transpose(alg.c, (1, 0, 2)))
    e2, e4 = np.eye(4)[1], np.eye(4)[3]
    assert np.allclose(bracket(alg, e2, e4), np.eye(4)[0])
    assert np.allclose(bracket(alg, e4, e2), -np.eye(4)[0])


def test_non_antisymmetric_rejected():
    c = np.zeros((4, 4, 4))
    c[0, 1, 2] = 1.0  # missing the mirrored entry
    with pytest.raises(LieError):
        StructureConstants(c)
    with pytest.raises(LieError, match="4x4x4"):
        StructureConstants(np.zeros((3, 3, 3)))
    c = np.zeros((4, 4, 4))
    c[0, 1, 2], c[1, 0, 2] = np.nan, np.nan
    with pytest.raises(LieError, match="finite"):
        StructureConstants(c)


def test_ad_matrix_matches_bracket():
    alg = instantiate(default_id("g4.7"))
    rng = np.random.default_rng(0)
    for _ in range(20):
        x, y = rng.normal(size=4), rng.normal(size=4)
        assert np.allclose(ad_matrix(alg, x) @ y, bracket(alg, x, y))


vec = st.lists(st.floats(-5, 5), min_size=4, max_size=4).map(np.array)


@given(x=vec, y=vec, a=st.floats(-3, 3))
@settings(max_examples=50, deadline=None)
def test_bracket_bilinear_antisymmetric(x, y, a):
    alg = heis()
    assert np.allclose(bracket(alg, x, y), -bracket(alg, y, x), atol=1e-9)
    assert np.allclose(
        bracket(alg, a * x, y), a * bracket(alg, x, y), atol=1e-7
    )


def test_jacobi_defect_zero_on_catalog():
    for fam in list_families():
        alg = instantiate(default_id(fam))
        assert jacobi_defect(alg) <= 1e-12, fam


def test_jacobi_defect_detects_corruption():
    alg = instantiate(default_id("g4.7"))
    c = alg.c.copy()
    c[0, 1, 2] += 0.3
    c[1, 0, 2] -= 0.3
    bad = StructureConstants(c)
    assert jacobi_defect(bad) > 1e-3


def test_killing_matrices_of_decomposable_algebras():
    k36 = killing_matrix(instantiate(default_id("g3.6+g1")))
    assert np.allclose(k36, np.diag([2.0, 2.0, -2.0, 0.0]))
    k37 = killing_matrix(instantiate(default_id("g3.7+g1")))
    assert np.allclose(k37, np.diag([-2.0, -2.0, -2.0, 0.0]))


def test_killing_vanishes_on_nilpotent():
    assert np.allclose(killing_matrix(heis()), 0.0)


def test_automorphism_defect_identity_and_scaling():
    alg = heis()
    assert automorphism_defect(alg, np.eye(4)) == 0.0
    # grading automorphism of the nilpotent table
    m = np.diag([2.0, 2.0, 2.0, 1.0])
    assert automorphism_defect(alg, m) <= 1e-12


def test_automorphism_defect_rejects_singular():
    alg = heis()
    with pytest.raises(LieError):
        automorphism_defect(alg, np.zeros((4, 4)))


def test_automorphism_defect_invertibility_is_scale_free():
    alg = heis()
    assert np.isfinite(automorphism_defect(alg, 1e-4 * np.eye(4)))
    for k in range(-100, 101, 10):
        assert np.isfinite(automorphism_defect(alg, np.diag([10.0 ** k, 1.0, 1.0, 1.0])))
    with pytest.raises(LieError, match="not invertible"):
        automorphism_defect(alg, np.stack([np.eye(4)[0], 1e5 * np.eye(4)[0], np.eye(4)[2], np.eye(4)[3]]))
    with pytest.raises(LieError, match="finite"):
        automorphism_defect(alg, np.full((4, 4), np.nan))


def test_inner_automorphism_is_automorphism():
    rng = np.random.default_rng(3)
    for fam in ["g3.6+g1", "g3.7+g1", "g4.7", "g4.10"]:
        alg = instantiate(default_id(fam))
        for _ in range(10):
            m = inner_automorphism(alg, rng.normal(scale=0.5, size=4))
            assert automorphism_defect(alg, m) <= 1e-9, fam


def test_expm_matches_scipy():
    from scipy.linalg import expm as scipy_expm

    # the one-step matrices and 5000-step trajectories of the criterion-6 draws
    rng = np.random.default_rng(60)
    for _ in range(100):
        a = 1e-3 * system_matrix(rng.uniform(-1, 1, size=3), rng.uniform(0.5, 1.0))
        psi0 = rng.normal(size=4)
        psi0 /= np.linalg.norm(psi0)
        m, ref = expm(a), scipy_expm(a)
        assert np.max(np.abs(m - ref)) <= 1e-15
        assert np.max(np.abs(_powers(m, psi0, 5000) - _powers(ref, psi0, 5000))) <= 1e-9
    # exp(ad x) on every family, up to norms that take several squarings
    rng = np.random.default_rng(0)
    for sigma in (0.3, 0.4, 1.0, 3.0):
        for fam in list_families():
            alg = instantiate(default_id(fam))
            for _ in range(10):
                ad = ad_matrix(alg, rng.normal(scale=sigma, size=4))
                ref = scipy_expm(ad)
                assert np.max(np.abs(expm(ad) - ref)) <= 1e-12 * np.max(np.abs(ref)), fam


def test_expm_closed_forms():
    theta = 20.0  # 1-norm 40: six squarings
    rot = expm([[0.0, -theta], [theta, 0.0]])
    assert np.allclose(rot, [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]],
                       rtol=0, atol=1e-13)
    d = np.array([-3.0, -0.5, 0.0, 2.5])
    assert np.allclose(expm(np.diag(d)), np.diag(np.exp(d)), rtol=1e-14, atol=0)
    n = np.diag([1.0, 2.0, 3.0], k=1)  # nilpotent: the series stops at n^3 / 6
    assert np.allclose(expm(n), np.eye(4) + n + n @ n / 2 + n @ n @ n / 6, rtol=0, atol=1e-15)
    assert np.array_equal(expm(np.zeros((4, 4))), np.eye(4))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_expm_rejects_non_finite(bad):
    a = np.zeros((4, 4))
    a[1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        expm(a)
