"""Convex geometry of the 2D control region: gauge (Minkowski functional),
support function, polar polygon and the axis condition on the second
canonical direction.

Bodies live in the canonical (e1, e2) frame of the subspace and may be
asymmetric; nothing here assumes F(u) = F(-u).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .tolerances import BODY_RTOL, is_zero


class BodyError(ValueError):
    pass


def _per_direction(method):
    """``method(self, s)`` computed once per body and direction s: a body is
    immutable, and the criterion, the witness oracle and the summary rule of
    one job all read the same few numbers of the ray s e2."""

    @functools.wraps(method)
    def once(self, s):
        memo = self.__dict__.setdefault("_per_direction", {})
        key = (method.__name__, s)
        if key not in memo:
            memo[key] = method(self, s)
        return memo[key]

    return once


class SeminormBody:
    """Convex, bounded, with the origin strictly interior."""

    def gauge(self, v) -> float:
        raise NotImplementedError

    def support(self, w) -> float:
        raise NotImplementedError

    @_per_direction
    def axis_gauge(self, s: int) -> float:
        """F(0, s): where the ray s e2 leaves the body."""
        return self.gauge((0.0, float(s)))

    @_per_direction
    def axis_support(self, s: int) -> float:
        """h_U(0, s), the support function on the e2-axis."""
        return self.support((0.0, float(s)))

    def level_interval(self, s: int) -> tuple[float, float]:
        """The interval (lo, hi) of k with F_U(k, s F(0, s)) = 1: the
        subdifferential of F at the point where the ray s e2 leaves the body
        (Rockafellar, Convex Analysis, section 23)."""
        raise NotImplementedError

    def scaled(self, lam: float) -> "SeminormBody":
        raise NotImplementedError

    def transformed(self, m) -> "SeminormBody":
        """Image of the body under the linear map m (2x2, invertible)."""
        raise NotImplementedError


@dataclass(frozen=True)
class Polygon(SeminormBody):
    """Convex polygon, vertices counterclockwise, origin strictly interior."""

    vertices: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[0] < 3 or v.shape[1] != 2 or not np.isfinite(v).all():
            raise BodyError("polygon needs >= 3 finite planar vertices")
        size = np.abs(v).max()
        edges = np.roll(v, -1, axis=0) - v
        cross = edges[:, 0] * np.roll(edges, -1, axis=0)[:, 1] - edges[:, 1] * np.roll(edges, -1, axis=0)[:, 0]
        if np.any(cross < -BODY_RTOL * size * size):
            raise BodyError("polygon vertices must be convex and counterclockwise")
        # outward normal of edge i and its support offset; origin interior
        # iff every offset is positive
        normals = np.stack([edges[:, 1], -edges[:, 0]], axis=1)
        lengths = np.linalg.norm(normals, axis=1)
        if np.any(lengths <= BODY_RTOL * size):
            raise BodyError("degenerate polygon edge")
        normals = normals / lengths[:, None]
        offsets = np.einsum("ij,ij->i", normals, v)
        if np.any(offsets <= BODY_RTOL * size):
            raise BodyError("invalid body: origin not strictly interior")
        for a in (v, normals, offsets):
            a.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "_normals", normals)
        object.__setattr__(self, "_offsets", offsets)

    def gauge(self, v) -> float:
        v = np.asarray(v, dtype=float)
        return float(np.max((self._normals @ v) / self._offsets))

    def support(self, w) -> float:
        return float(np.max(self.vertices @ np.asarray(w, dtype=float)))

    @_per_direction
    def level_interval(self, s: int) -> tuple[float, float]:
        # the edges through the exit point; their polar vertices span the
        # subdifferential of F there
        vals = self._normals[:, 1] * s / self._offsets
        active = vals >= np.max(vals) * (1.0 - BODY_RTOL)
        xs = self._normals[active, 0] / self._offsets[active]
        return float(np.min(xs)), float(np.max(xs))

    def scaled(self, lam: float) -> "Polygon":
        return Polygon(lam * self.vertices)

    def transformed(self, m) -> "Polygon":
        m = np.asarray(m, dtype=float)
        verts = self.vertices @ m.T
        u, w = verts[1] - verts[0], verts[2] - verts[0]
        area2 = u[0] * w[1] - u[1] * w[0]
        if area2 < 0:  # orientation flipped
            verts = verts[::-1]
        return Polygon(verts)


def polar(p: Polygon) -> Polygon:
    """Polar polygon {w : <w, u> <= 1 on U}; vertices dual to edges."""
    verts = p._normals / p._offsets[:, None]
    return Polygon(verts)


@dataclass(frozen=True)
class Ellipse(SeminormBody):
    """{center + S^(1/2) d : |d| <= 1} for SPD shape matrix S.

    The support function is <center, w> + sqrt(w^T S w).
    """

    center: np.ndarray
    shape: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float)
        s = np.asarray(self.shape, dtype=float)
        finite = np.isfinite(c).all() and np.isfinite(s).all()
        if c.shape != (2,) or s.shape != (2, 2) or not finite:
            raise BodyError("ellipse needs a finite 2-vector center and 2x2 shape matrix")
        # np.allclose(s, s.T, atol=...) tests only the off-diagonal pair, both
        # ways round (1e-5 is its default rtol)
        a, b = float(s[0, 1]), float(s[1, 0])
        atol = BODY_RTOL * float(np.abs(s).max())
        if abs(a - b) > atol + 1e-5 * min(abs(a), abs(b)) or np.any(np.linalg.eigvalsh(s) <= 0):
            raise BodyError("shape matrix must be symmetric positive definite")
        q = np.linalg.inv(s)
        if not np.isfinite(q).all():  # a subnormal matrix inverts to inf or nan
            raise BodyError("ellipse shape matrix out of numerical range")
        if float(c @ q @ c) >= 1.0 - BODY_RTOL:
            raise BodyError("invalid body: origin not strictly interior")
        for m in (c, s, q):
            m.setflags(write=False)
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "shape", s)
        object.__setattr__(self, "_q", q)

    def gauge(self, v) -> float:
        v = np.asarray(v, dtype=float)
        if not v.any():
            return 0.0
        # smallest lam > 0 with (v/lam - c)^T Q (v/lam - c) = 1
        q = self._q
        a = float(self.center @ q @ self.center) - 1.0  # < 0
        b = float(v @ q @ self.center)
        c = float(v @ q @ v)
        return float((b - np.sqrt(b * b - a * c)) / a)

    def support(self, w) -> float:
        w = np.asarray(w, dtype=float)
        return float(self.center @ w + np.sqrt(w @ self.shape @ w))

    @_per_direction
    def level_interval(self, s: int) -> tuple[float, float]:
        # smooth boundary: the outer normal at the exit point, scaled to
        # pair to 1 with it
        p = np.array([0.0, s / self.axis_gauge(s)])
        n = self._q @ (p - self.center)
        k = float(n[0] / (n @ p))
        return k, k

    def scaled(self, lam: float) -> "Ellipse":
        return Ellipse(lam * self.center, lam * lam * self.shape)

    def transformed(self, m) -> "Ellipse":
        m = np.asarray(m, dtype=float)
        return Ellipse(m @ self.center, m @ self.shape @ m.T)


def Disk(center, radius: float) -> Ellipse:
    """Disk as the isotropic ellipse."""
    r = np.asarray(radius, dtype=float)
    if r.shape != () or not np.isfinite(r):
        raise BodyError("disk radius must be a finite number")
    if r <= 0:
        raise BodyError("disk radius must be positive")
    r2 = float(r) * float(r)  # a Python float product overflows to inf without a warning
    if not 0.0 < r2 < math.inf:
        raise BodyError("disk radius out of numerical range")
    return Ellipse(np.asarray(center, dtype=float), r2 * np.eye(2))


def axis_condition(b: SeminormBody, s: int) -> bool:
    """True iff F_U(0, s) = 1 / F(0, s), i.e. the extreme point of U in
    the direction s*e2 sits on the e2-axis."""
    if s not in (1, -1):
        raise BodyError("direction must be +1 or -1")
    sup = b.axis_support(s)
    return is_zero(sup - 1.0 / b.axis_gauge(s), sup)


def body_from_config(cfg: dict) -> SeminormBody:
    """Parse the config schema: {"polygon": [...]} / {"ellipse": {...}} /
    {"disk": {...}}."""
    if not isinstance(cfg, dict) or len(cfg) != 1:
        raise BodyError("body config must have exactly one of polygon/ellipse/disk")
    (kind, val), = cfg.items()
    if kind == "polygon":
        return Polygon(_numbers(kind, val))
    if kind == "ellipse":
        return Ellipse(_numbers(kind, val, "center"), _numbers(kind, val, "matrix"))
    if kind == "disk":
        return Disk(_numbers(kind, val, "center", [0.0, 0.0]), _numbers(kind, val, "radius"))
    raise BodyError(f"unknown body kind {kind!r}")


def is_number(x) -> bool:
    """The one rule for a config number: a JSON number, not a boolean."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def config_array(val) -> np.ndarray:
    """A config number, or lists of them, as a float array.  Raises what
    ``np.asarray`` raises, and TypeError for a string, boolean, null or
    object that it would read as a number."""
    a = np.asarray(val, dtype=float)
    todo = [val]
    while todo:
        x = todo.pop()
        if isinstance(x, (list, tuple)):
            todo.extend(x)
        elif not is_number(x):
            raise TypeError(f"{x!r} is not a number")
    return a


def _numbers(kind: str, val, key: str | None = None, default=None) -> np.ndarray:
    """``val``, or its entry ``key``, as a float array."""
    if key is not None:
        if not isinstance(val, dict) or (key not in val and default is None):
            raise BodyError(f"{kind} config needs a {key!r} entry")
        val = val.get(key, default)
    try:
        return config_array(val)
    except (TypeError, ValueError, OverflowError):
        raise BodyError(f"{kind} config has a non-numeric value {val!r}") from None


def body_to_config(b: SeminormBody) -> dict:
    if isinstance(b, Polygon):
        return {"polygon": [[float(x), float(y)] for x, y in b.vertices]}
    if isinstance(b, Ellipse):
        return {"ellipse": {"center": [float(x) for x in b.center],
                            "matrix": [[float(x) for x in row] for row in b.shape]}}
    raise BodyError("unknown body type")
