import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abnorm.seminorm import (
    BodyError,
    Disk,
    Ellipse,
    Polygon,
    axis_condition,
    body_from_config,
    body_to_config,
    polar,
)

SQUARE = Polygon([[1, -1], [1, 1], [-1, 1], [-1, -1]])
QUAD = Polygon([[1, 0], [0, 1], [-2, 0], [0, -1]])
DISK = Disk((0, 0), 1.0)
SHIFTED = Disk((0.5, 0.0), 1.0)
BODIES = [SQUARE, QUAD, DISK, SHIFTED]


def test_polygon_validation():
    with pytest.raises(BodyError):
        Polygon([[1, 0], [0, 1]])  # too few vertices
    with pytest.raises(BodyError):
        Polygon([[1, 0], [0, 1], [1, 1]])  # origin outside
    with pytest.raises(BodyError):
        Polygon([[1, -1], [-1, 1], [1, 1], [-1, -1]])  # not convex/ccw
    with pytest.raises(BodyError, match="degenerate polygon edge"):
        Polygon([[1, -1], [1, -1], [1, 1], [-1, 1], [-1, -1]])  # repeated vertex


def test_square_gauge_support():
    assert SQUARE.gauge((1, 1)) == pytest.approx(1.0)
    assert SQUARE.gauge((0.5, 0)) == pytest.approx(0.5)
    assert SQUARE.gauge((0, -3)) == pytest.approx(3.0)
    assert SQUARE.support((1, 0)) == pytest.approx(1.0)
    assert SQUARE.support((1, 1)) == pytest.approx(2.0)


def test_disk_gauge_support():
    assert DISK.gauge((3, 4)) == pytest.approx(5.0)
    assert DISK.gauge((0, 0)) == 0.0
    assert DISK.support((0.6, -0.8)) == pytest.approx(1.0)
    assert SHIFTED.gauge((0, 1)) == pytest.approx(2.0 / math.sqrt(3.0))
    assert SHIFTED.support((0, 1)) == pytest.approx(1.0)
    assert SHIFTED.support((1, 0)) == pytest.approx(1.5)
    assert SHIFTED.gauge((1, 0)) == pytest.approx(1.0 / 1.5)


def test_asymmetric_gauge():
    assert QUAD.gauge((1, 0)) == pytest.approx(1.0)
    assert QUAD.gauge((-1, 0)) == pytest.approx(0.5)


@pytest.mark.parametrize("body", [SQUARE, QUAD, DISK, Ellipse((0.2, -0.1), [[2.0, 0.3], [0.3, 0.5]])])
def test_gauge_positively_homogeneous_at_all_scales(body):
    for v in [(1.0, 0.0), (0.0, -1.0), (0.3, 0.7), (-1.2, 0.4)]:
        g = body.gauge(v)
        for t in [1e-12, 1e-9, 1e-6, 1e-3, 1.0, 1e3]:
            assert body.gauge((t * v[0], t * v[1])) == pytest.approx(t * g, rel=1e-12)


def test_polar_square_is_cross_polytope():
    verts = polar(SQUARE).vertices
    want = {(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)}
    got = {(round(x, 9), round(y, 9)) for x, y in verts}
    assert got == want


def test_polar_involution():
    from scipy.spatial import ConvexHull

    rng = np.random.default_rng(5)
    for _ in range(20):
        pts = rng.normal(size=(12, 2))
        try:
            poly = Polygon(pts[ConvexHull(pts).vertices])
        except BodyError:  # origin not interior for this draw
            continue
        back = polar(polar(poly))
        a = sorted(map(tuple, np.round(poly.vertices, 9)))
        b = sorted(map(tuple, np.round(back.vertices, 9)))
        assert np.allclose(a, b, atol=1e-9)


def test_gauge_support_duality():
    # support(w) * gauge(v) >= <w, v>
    rng = np.random.default_rng(2)
    for body in BODIES:
        for _ in range(200):
            w = rng.normal(size=2)
            v = rng.normal(size=2)
            assert body.support(w) * body.gauge(v) >= float(w @ v) - 1e-9


def test_support_sublinear():
    rng = np.random.default_rng(3)
    for body in BODIES:
        for _ in range(100):
            w1, w2 = rng.normal(size=2), rng.normal(size=2)
            assert body.support(w1 + w2) <= body.support(w1) + body.support(w2) + 1e-9


def test_boundary_gauge_is_one():
    rng = np.random.default_rng(4)
    for t in rng.uniform(0, 2 * math.pi, size=50):
        p = np.array([0.5 + math.cos(t), math.sin(t)])
        assert SHIFTED.gauge(p) == pytest.approx(1.0, abs=1e-9)
    for x in rng.uniform(-1, 1, size=20):
        assert SQUARE.gauge((x, 1.0)) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize(
    "body,plus,minus",
    [
        (DISK, True, True),
        (SHIFTED, False, False),
        (SQUARE, True, True),
        (QUAD, True, True),
        # validation and axis condition relative to the polygon's size
        (Polygon(1e-15 * np.array([[1, -1], [0.3, 1], [-1, -0.5]])), False, False),
    ],
)
def test_axis_condition_fixtures(body, plus, minus):
    assert axis_condition(body, 1) is plus
    assert axis_condition(body, -1) is minus


def test_shifted_disk_axis_values_exact():
    assert SHIFTED.support((0.0, 1.0)) == pytest.approx(1.0, abs=1e-12)
    assert 1.0 / SHIFTED.gauge((0.0, 1.0)) == pytest.approx(math.sqrt(3) / 2, abs=1e-12)


def test_symmetric_body_axis_condition_symmetric():
    for body in (DISK, SQUARE):
        assert axis_condition(body, 1) == axis_condition(body, -1)


def test_axis_condition_needs_a_direction():
    with pytest.raises(BodyError, match="direction"):
        axis_condition(DISK, 2)


def test_centered_ellipse_axis_condition_and_shear():
    e = Ellipse((0, 0), np.diag([4.0, 0.25]))
    assert axis_condition(e, 1) and axis_condition(e, -1)
    sheared = e.transformed(np.array([[1.0, 0.7], [0.0, 1.0]]))
    assert not axis_condition(sheared, 1)


def test_ellipse_gauge_support_consistency():
    e = Ellipse((0.2, -0.1), np.array([[2.0, 0.3], [0.3, 1.0]]))
    rng = np.random.default_rng(6)
    for _ in range(100):
        v = rng.normal(size=2)
        g = e.gauge(v)
        # v/g lies on the boundary: its gauge is 1
        assert e.gauge(v / g) == pytest.approx(1.0, abs=1e-9)
    for _ in range(100):
        w = rng.normal(size=2)
        d = w / np.linalg.norm(w)
        # support point realizes the maximum over sampled boundary points
        best = max(
            float(w @ (e.center + np.linalg.cholesky(e.shape) @
                       np.array([math.cos(t), math.sin(t)])))
            for t in np.linspace(0, 2 * math.pi, 720)
        )
        assert e.support(w) >= best - 1e-6


def test_scaling():
    for body in BODIES:
        s = body.scaled(2.0)
        assert s.gauge((0.4, 0.7)) == pytest.approx(body.gauge((0.4, 0.7)) / 2.0)
        assert s.support((0.4, 0.7)) == pytest.approx(2.0 * body.support((0.4, 0.7)))


def test_transformed_polygon_keeps_orientation():
    flip = np.array([[-1.0, 0.0], [0.0, 1.0]])
    t = SQUARE.transformed(flip)
    assert t.gauge((1, 1)) == pytest.approx(1.0)


def test_config_roundtrip():
    for body in [SQUARE, QUAD, DISK, SHIFTED,
                 Ellipse((0.1, 0.0), np.array([[2.0, 0.2], [0.2, 1.0]]))]:
        cfg = body_to_config(body)
        back = body_from_config(cfg)
        for v in [(1, 0), (0.3, -0.8), (-2, 1)]:
            assert back.gauge(v) == pytest.approx(body.gauge(v), abs=1e-12)
            assert back.support(v) == pytest.approx(body.support(v), abs=1e-12)


def test_config_validation():
    with pytest.raises(BodyError):
        body_from_config({"polygon": [[1, 0]], "disk": {"radius": 1}})
    with pytest.raises(BodyError):
        body_from_config({"blob": 1})
    with pytest.raises(BodyError):
        body_from_config({"disk": {"radius": -1}})
    with pytest.raises(BodyError, match="unknown body type"):
        body_to_config(object())


@pytest.mark.parametrize("cfg", [
    {"ellipse": {"center": [0, 0]}},
    {"ellipse": {"matrix": [[1, 0], [0, 1]]}},
    {"ellipse": [[1, 0], [0, 1]]},
    {"ellipse": {"center": "x", "matrix": [[1, 0], [0, 1]]}},
    {"disk": {"center": [0, 0]}},
    {"disk": {"radius": "abc"}},
    {"disk": {"radius": [1, 2]}},
    {"disk": 1.0},
    {"polygon": "abc"},
    {"polygon": [[1, 0], [0, 1], [-1]]},
    {"ellipse": {"center": [0, 0], "matrix": [[1, 0], [0, -1]]}},  # not SPD
    {"ellipse": {"center": [2, 0], "matrix": [[1, 0], [0, 1]]}},  # origin outside
])
def test_malformed_config_raises_body_error(cfg):
    with pytest.raises(BodyError):
        body_from_config(cfg)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_bodies_rejected(bad):
    with pytest.raises(BodyError, match="finite"):
        Polygon([[1, -1], [1, 1], [-1, 1], [-1, bad]])
    with pytest.raises(BodyError, match="finite"):
        Ellipse((bad, 0.0), np.eye(2))
    with pytest.raises(BodyError, match="finite"):
        Ellipse((0.0, 0.0), [[1.0, 0.0], [0.0, bad]])
    with pytest.raises(BodyError, match="finite"):
        Disk((0.0, bad), 1.0)
    with pytest.raises(BodyError, match="finite"):
        Disk((0.0, 0.0), bad)


def test_level_interval_vertex_exit():
    # the ray e2 leaves QUAD through the vertex (0, 1); its two edges have
    # the polar vertices (1, 1) and (-0.5, 1)
    assert QUAD.level_interval(1) == pytest.approx((-0.5, 1.0), abs=1e-12)
    assert QUAD.level_interval(-1) == pytest.approx((-0.5, 1.0), abs=1e-12)


def test_level_interval_mid_edge_exit():
    assert SQUARE.level_interval(1) == (0.0, 0.0)
    tri = Polygon([[1, -1], [0.3, 1], [-1, -0.5]])
    for s in (1, -1):
        lo, hi = tri.level_interval(s)
        assert lo == hi
        assert tri.support((lo, s * tri.gauge((0.0, s)))) == pytest.approx(1.0, abs=1e-12)


def test_level_interval_shifted_disk():
    for s in (1, -1):
        lo, hi = SHIFTED.level_interval(s)
        assert lo == hi == pytest.approx(-2.0 / 3.0, abs=1e-14)


def test_level_interval_is_the_level_set():
    from scipy.spatial import ConvexHull

    rng = np.random.default_rng(9)
    bodies = []
    while len(bodies) < 30:
        pts = rng.normal(size=(7, 2)) + rng.normal(scale=0.3, size=2)
        try:
            bodies.append(Polygon(pts[ConvexHull(pts).vertices]))
        except BodyError:
            continue
    for _ in range(30):
        m = rng.normal(size=(2, 2))
        bodies.append(Ellipse(rng.uniform(-0.3, 0.3, size=2), m @ m.T + 0.2 * np.eye(2)))
    bodies += [QUAD, SQUARE.transformed([[1.0, 0.4], [0.0, 1.0]])]
    for body in bodies:
        for s in (1, -1):
            lo, hi = body.level_interval(s)
            h = s * body.gauge((0.0, s))
            assert lo <= hi
            for k in (lo, 0.5 * (lo + hi), hi):
                assert body.support((k, h)) == pytest.approx(1.0, abs=1e-12)
            # off the interval the support slice rises above 1
            assert body.support((lo - 0.1, h)) > 1.0 + 1e-6
            assert body.support((hi + 0.1, h)) > 1.0 + 1e-6


coord = st.floats(-3, 3)


@given(w=st.tuples(coord, coord), lam=st.floats(0.1, 10))
@settings(max_examples=60, deadline=None)
def test_support_positively_homogeneous(w, lam):
    w = np.array(w)
    for body in (SQUARE, SHIFTED):
        assert body.support(lam * w) == pytest.approx(lam * body.support(w), rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("a, b", [
    (0.3, 0.3), (0.3, 0.3 * (1 + 9e-6)), (0.3, 0.3 * (1 + 2e-5)), (-0.3, 0.3),
    (0.0, 1e-13), (0.0, 2e-12), (1e-13, -1e-13), (0.5, 0.5 + 5e-6), (0.5, 0.5 + 6e-6),
])
def test_ellipse_symmetry_matches_allclose(a, b):
    # the off-diagonal test accepts exactly what np.allclose(s, s.T) does
    m = np.array([[1.0, a], [b, 1.0]])
    want = np.allclose(m, m.T, atol=1e-12 * np.abs(m).max())
    try:
        Ellipse((0.0, 0.0), m)
    except BodyError as exc:
        assert not want and "symmetric" in str(exc)
    else:
        assert want


def test_body_numbers_per_direction_are_computed_once(monkeypatch):
    calls = []
    for cls, body in ((Polygon, Polygon(QUAD.vertices)), (Ellipse, Disk((0.2, 0.1), 1.0))):
        for name in ("gauge", "support"):
            fn = getattr(cls, name)
            monkeypatch.setattr(cls, name, lambda self, v, _f=fn, _n=name: calls.append(_n)
                                or _f(self, v))
        for _ in range(3):
            for s in (1, -1):
                body.axis_gauge(s), body.axis_support(s), body.level_interval(s)
                axis_condition(body, s)
        # F(0, s) and h_U(0, s) once per direction, however often they are read
        assert (calls.count("gauge"), calls.count("support")) == (2, 2), cls
        calls.clear()
