import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import abnorm
from abnorm import adjoint
from abnorm.adjoint import integrate, system_matrix, witness_search
from abnorm.catalog import default_id, instantiate, known_generating_subspace
from abnorm.extremal import DirectionReport, Verdict, classify
from abnorm.seminorm import BodyError, Disk, Polygon
from abnorm.subspace import Subspace, canonical_basis
from abnorm.tolerances import SUPPORT_TOL
from reference import closed_form_psi1

QUAD = Polygon([[1, 0], [0, 1], [-2, 0], [0, -1]])


def rk4_stepwise(a, psi0, dt, n_steps):
    """Reference: classical RK4 for psi' = a @ psi, one step at a time.
    Leading axes of ``a`` and ``psi0`` run independent systems side by side."""
    a = np.asarray(a, dtype=float)
    psi = np.asarray(psi0, dtype=float).copy()
    out = np.empty(psi.shape[:-1] + (n_steps + 1, psi.shape[-1]))
    out[..., 0, :] = psi

    def f(v):
        return (a @ v[..., None])[..., 0]

    for n in range(n_steps):
        k1 = f(psi)
        k2 = f(psi + 0.5 * dt * k1)
        k3 = f(psi + 0.5 * dt * k2)
        k4 = f(psi + dt * k3)
        psi = psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[..., n + 1, :] = psi
    return out


def basis_for(fam, **kw):
    aid = default_id(fam, **kw)
    alg = instantiate(aid)
    ks = known_generating_subspace(aid)
    return canonical_basis(alg, Subspace(alg, np.stack(ks.span)))


def test_system_matrix_shape_and_content():
    a = system_matrix([1.0, 0.0, -2.0], 0.5)
    assert np.allclose(a, 0.5 * np.array([
        [0, 0, -1, 0], [0, 0, 0, 0], [1, 0, -2, 0], [0, 0, 0, -2.0],
    ]))


def test_integrate_matches_exponential():
    rng = np.random.default_rng(0)
    for _ in range(10):
        c23 = rng.uniform(-1, 1, size=3)
        u2 = rng.uniform(0.5, 1.0)
        psi0 = rng.normal(size=4)
        traj = integrate(c23, u2, psi0, T=5.0, dt=1e-3)
        assert traj.max_deviation <= 1e-6


def test_integrate_second_component_constant():
    traj = integrate([1.0, 0.0, -2.0], 0.7, [0.3, 1.1, -0.2, 0.9], T=2.0, dt=1e-3)
    assert np.allclose(traj.psi[:, 1], 1.1, atol=1e-12)


def test_integrate_rejects_bad_steps():
    with pytest.raises(ValueError):
        integrate([0, 0, 0], 1.0, [0, 1, 0, 1], T=-1.0, dt=1e-3)
    with pytest.raises(ValueError):
        integrate([0, 0, 0], 1.0, [0, 1, 0, 1], T=1.0, dt=0.0)


@pytest.mark.parametrize("T,dt,psi0", [
    (math.inf, 1e-3, [0, 1, 0, 1]),
    (-math.inf, 1e-3, [0, 1, 0, 1]),
    (math.nan, 1e-3, [0, 1, 0, 1]),
    (1.0, math.nan, [0, 1, 0, 1]),
    (1.0, math.inf, [0, 1, 0, 1]),
    (1.0, 1e-3, [math.nan, 1, 0, 1]),
    (1.0, 1e-3, [0, 1, math.inf, 1]),
])
def test_integrate_rejects_non_finite_input(T, dt, psi0):
    with pytest.raises(ValueError, match="finite"):
        integrate([0, 0, 0], 1.0, psi0, T=T, dt=dt)


def test_kernel_matches_python_fallback():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(4, 4))
    psi0 = rng.normal(size=4)
    fast = adjoint.rk4_trajectory(a, psi0, 1e-3, 500)
    slow = rk4_stepwise(a, psi0, 1e-3, 500)
    assert np.allclose(fast, slow, atol=1e-13, rtol=0.0)


def test_rk4_long_run_matches_stepwise():
    # the draws of acceptance criterion 6, over its full 5000 steps
    rng = np.random.default_rng(60)
    a, psi0 = [], []
    for _ in range(100):
        c23 = rng.uniform(-1, 1, size=3)
        u2 = rng.uniform(0.5, 1.0)
        p = rng.normal(size=4)
        a.append(system_matrix(c23, u2))
        psi0.append(p / np.linalg.norm(p))
    n = 5000
    slow = rk4_stepwise(np.array(a), np.array(psi0), 1e-3, n)
    for ai, pi, ref in zip(a, psi0, slow):
        fast = adjoint.rk4_trajectory(ai, pi, 1e-3, n)
        # rounding of a step's few 4x4 products, 16 eps per step
        tol = n * 16 * np.finfo(float).eps * np.max(np.abs(ref))
        assert np.max(np.abs(fast - ref)) <= tol
        assert np.all(fast[:, 1] == pi[1])


def test_psi4_exponential_law():
    # with both leading constants zero the last component is a pure exponential
    c3, u2, phi4 = -1.0, 0.8, 1.7
    traj = integrate([0.0, 0.0, c3], u2, [0.2, 1.0 / u2, 0.0, phi4], T=5.0, dt=1e-3)
    expect = phi4 * np.exp(c3 * u2 * traj.t)
    assert np.max(np.abs(traj.psi[:, 3] - expect)) <= 1e-6


CASES = [
    ([2.0, 0.0, 0.0], "B_neg"),       # purely imaginary roots
    ([1.0, 0.0, -2.0], "B_zero"),     # double root
    ([-1.0, 0.0, 0.0], "B_pos"),      # real roots of opposite sign
    ([0.5, 0.0, -1.5], "B_pos"),
    ([0.0, 1.0, -1.0], "C1_zero"),
    ([0.0, 1.0, 0.0], "C1_zero"),
    ([0.0, 0.0, -1.0], "C1_zero"),
]


@pytest.mark.parametrize("c23,case", CASES)
def test_closed_form_solves_equation(c23, case):
    u2 = 0.9
    cf = closed_form_psi1(c23, u2, a1=0.7, a2=-0.4)
    assert cf.case == case
    # residual of psi1'' - u2 c3 psi1' + u2^2 c1 psi1 + u2 c2 = 0 via
    # central differences
    h = 1e-5
    c1, c2, c3 = c23
    for t in np.linspace(0.0, 3.0, 25):
        f0, fp, fm = cf(t), cf(t + h), cf(t - h)
        d1 = (fp - fm) / (2 * h)
        d2 = (fp - 2 * f0 + fm) / (h * h)
        resid = d2 - u2 * c3 * d1 + u2 * u2 * c1 * f0 + u2 * c2
        assert abs(resid) <= 1e-4, (c23, t, resid)


@pytest.mark.parametrize("c23,case", CASES)
def test_closed_form_invariant_under_constant_scaling(c23, case):
    # (c1, c2, c3, u2) -> (l^2 c1, l c2, l c3, u2 / l) leaves the equation and
    # its solutions as they are; l = 1e-5 on the first case is c = (2e-10, 0, 0)
    # with u2 = 9e4
    c1, c2, c3 = c23
    u2, ts = 0.9, np.linspace(0.0, 3.0, 7)
    want = closed_form_psi1(c23, u2, a1=0.7, a2=-0.4)(ts)
    for k in range(-20, 21):
        lam = 10.0 ** k
        cf = closed_form_psi1([lam * lam * c1, lam * c2, lam * c3], u2 / lam, a1=0.7, a2=-0.4)
        assert cf.case == case, k
        assert np.allclose(cf(ts), want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want))), k


def test_closed_form_matches_integration():
    u2 = 0.8
    for c23, _ in CASES:
        c1, c2, c3 = c23
        cf = closed_form_psi1(c23, u2, a1=0.3, a2=1.1)
        h = 1e-6
        dpsi1 = (cf(h) - cf(-h)) / (2 * h)
        psi0 = [cf(0.0), 1.0 / u2, -dpsi1 / u2, 1.0]
        traj = integrate(c23, u2, psi0, T=3.0, dt=1e-3)
        expect = cf(traj.t)
        assert np.max(np.abs(traj.psi[:, 0] - expect)) <= 1e-4, c23


def test_closed_form_rejects_unnormalized_constants():
    with pytest.raises(ValueError):
        closed_form_psi1([1.0, 1.0, 0.0], 1.0, 0.0, 0.0)


def test_witness_constant_case_centered_and_shifted():
    b = basis_for("g4.10")  # both leading constants zero
    k = witness_search(b, Disk((0, 0), 1.0), 1)
    assert k is not None and abs(k) <= 1e-6
    # shifted disk: the witness still exists, with an off-axis constant
    body = Disk((0.5, 0.0), 1.0)
    k = witness_search(b, body, 1)
    assert k is not None
    height = body.axis_gauge(1)  # 1 / u2 with u2 = 1 / F(0, 1)
    assert abs(body.support((k, height)) - 1.0) <= 1e-6
    assert k < -1e-3


def test_witness_axis_case():
    b = basis_for("g4.7")  # first constant nonzero
    assert witness_search(b, Disk((0, 0), 1.0), 1) is not None
    assert witness_search(b, Disk((0, 0), 1.0), -1) is not None
    assert witness_search(b, Disk((0.5, 0.0), 1.0), 1) is None


def test_witness_linear_drift_case_returns_none():
    fake = SimpleNamespace(c23=np.array([0.0, 1.0, -1.0, 0.0]), constants=(0.0, 1.0, -1.0))
    assert witness_search(fake, Disk((0, 0), 1.0), 1) is None


def oscillation_amplitude(basis, body, s) -> float:
    """Reference: the largest amplitude of a bounded oscillating witness
    psi1 = amp cos(omega t) around psi1 = 0, which exists when C123 != 0 and
    the characteristic roots are purely imaginary; the support identity is
    checked along one full oscillation.  No verdict depends on it."""
    c1, _, c3 = basis.constants
    b = c3 * c3 - 4.0 * c1
    if c1 == 0.0 or c3 != 0.0 or b >= 0.0:
        return 0.0
    u2 = s / body.gauge((0.0, float(s)))
    height = 1.0 / u2
    lo, hi = body.level_interval(s)
    amp = max(0.0, min(-lo, hi))
    if amp > 0.0:
        omega = abs(u2) * math.sqrt(-b) / 2.0
        ts = np.linspace(0.0, 2.0 * math.pi / omega, 1001)
        if not all(abs(body.support((x, height)) - 1.0) <= SUPPORT_TOL
                   for x in amp * np.cos(omega * ts)):
            amp = 0.0
    return amp


def test_witness_oscillatory_flat_amplitude():
    b = basis_for("g3.7+g1")  # roots purely imaginary
    assert witness_search(b, QUAD, 1) is not None
    assert oscillation_amplitude(b, QUAD, 1) == pytest.approx(0.5, abs=1e-6)
    # the disk has no flat slice: bounded witnesses are constants only
    assert witness_search(b, Disk((0, 0), 1.0), 1) is not None
    assert oscillation_amplitude(b, Disk((0, 0), 1.0), 1) == 0.0


def test_witness_agrees_with_criterion_on_random_polygons():
    # C123 = C223 = 0: the constant witness sits where the support slice
    # touches level 1, usually at a kink of the slice
    from scipy.spatial import ConvexHull

    rng = np.random.default_rng(11)
    for fam in ("g3.2+g1", "g4.10"):
        aid = default_id(fam)
        alg = instantiate(aid)
        p = Subspace(alg, np.stack(known_generating_subspace(aid).span))
        basis = canonical_basis(alg, p)
        made = 0
        while made < 40:
            pts = rng.normal(size=(8, 2)) + rng.normal(scale=0.3, size=2)
            try:
                body = Polygon(pts[ConvexHull(pts).vertices])
            except BodyError:
                continue
            made += 1
            rep = classify(alg, p, body)
            for s in (1, -1):
                k = witness_search(basis, body, s)
                assert rep.directions[s].verdict is Verdict.NonStrict
                assert k is not None
                u2 = s / body.axis_gauge(s)
                assert abs(body.support((k, 1.0 / u2)) - 1.0) <= 1e-12


def test_import_leaves_out_scipy():
    src = str(Path(abnorm.__file__).resolve().parents[1])
    code = "import sys, abnorm; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert res.stdout.strip() == "[]"


def test_public_names_resolve_and_test_references_are_gone():
    from abnorm import subspace

    for name in abnorm.__all__:
        assert hasattr(abnorm, name), name
    # test-side references (tests/reference.py) and fields no output reads
    for module, name in [(abnorm, "closed_form_psi1"), (adjoint, "closed_form_psi1"),
                         (adjoint, "ClosedFormPsi1"), (adjoint, "Witness"),
                         (subspace, "normalizer"), (subspace, "centralizer"),
                         (abnorm, "normalizer"), (abnorm, "centralizer")]:
        assert not hasattr(module, name), (module.__name__, name)
    assert "pmp_max" not in DirectionReport.__dataclass_fields__


def test_witness_rejects_bad_direction():
    b = basis_for("g4.7")
    with pytest.raises(ValueError):
        witness_search(b, Disk((0, 0), 1.0), 2)
