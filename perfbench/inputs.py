"""Seeded job generator for the abnorm benchmark, and the expectations each
job's output is checked against.

Everything here is derived from the seed and from the closed-form
description of each body; the program under test only ever sees the
config files written from these jobs.  Expected verdicts combine the
paper's C123/C223 zero pattern per family with the axis condition
computed in closed form from the body description.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

E = np.eye(4)

#: families with a known generating 2D subspace; "zero" means the paper
#: gives C123 = C223 = 0 (non-strict for every body), "axis" means
#: C123 != 0 (non-strict iff the axis condition holds in both directions)
PATTERN = {
    "g3.2+g1": "zero", "g3.4+g1": "zero", "g3.5+g1": "zero",
    "g3.6+g1": "axis", "g3.7+g1": "axis",
    "g4.1": "zero", "g4.2": "zero", "g4.3": "zero", "g4.4": "zero",
    "g4.5": "zero", "g4.6": "zero", "g4.7": "axis", "g4.8": "axis",
    "g4.9": "axis", "g4.10": "zero",
}
FAMILIES = list(PATTERN)
ZERO_FAMILIES = [f for f in FAMILIES if PATTERN[f] == "zero"]

#: the worked 3D examples: span(E1, E3, E4) in g4.1 and g4.3
DIM3 = {"g4.1": "non-strict for all metrics", "g4.3": "strict for all metrics"}
DIM3_SPAN = [E[0], E[2], E[3]]

#: body kinds of the sweep and ODE workloads; random polygons go to the
#: "axis" families only (see the FOUND note on the support-level solver)
KINDS_AXIS = ["disk_centred", "disk_off", "ellipse_centred", "ellipse_off",
              "square", "quad", "polygon"]
KINDS_ZERO = ["disk_centred", "disk_off", "ellipse_centred", "ellipse_off",
              "square", "quad", "disk_off"]
#: classify_oracle: flat-slice cases on g3.7+g1, root-finding cases on
#: the zero-pattern families
KINDS_FLAT = ["disk_centred", "ellipse_axis", "poly_flat", "poly_flat_top"]
KINDS_ROOT = ["disk_off", "ellipse_off"]


def family_params(family: str, rng: np.random.Generator) -> dict:
    """Parameters drawn inside the family constraint and away from the
    boundaries where the known subspace stops generating."""

    def away_from_one(lo, hi):
        while True:
            a = float(rng.uniform(lo, hi))
            if abs(a - 1.0) >= 0.1:
                return a

    if family == "g3.4+g1":
        return {"alpha": away_from_one(0.05, 3.0)}
    if family == "g3.5+g1":
        return {"alpha": float(rng.uniform(0.05, 3.0))}
    if family == "g4.2":
        return {"alpha": float(rng.choice([-1.0, 1.0])) * away_from_one(0.2, 3.0)}
    if family == "g4.5":
        while True:
            a, b = (float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 0.95))
                    for _ in range(2))
            if abs(a - b) >= 0.05:
                return {"alpha": min(a, b), "beta": max(a, b)}
    if family == "g4.6":
        return {"alpha": float(rng.uniform(0.2, 3.0)),
                "beta": float(rng.uniform(-3.0, 3.0))}
    if family == "g4.8":
        # alpha = 0 is the zero-pattern point; the axis region is the rest
        return {"alpha": float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 0.9))}
    if family == "g4.9":
        return {"alpha": float(rng.uniform(0.05, 2.0))}
    return {}


def pattern(family: str, params: dict) -> str:
    if family == "g4.8" and params.get("alpha") == 0.0:
        return "zero"
    return PATTERN[family]


# -- bodies ---------------------------------------------------------------


def _tilted_shape(rng):
    while True:
        a, b = rng.uniform(0.6, 1.6, size=2)
        th = rng.uniform(0.0, math.pi)
        if abs(a * a - b * b) >= 0.5 and abs(math.sin(2 * th)) >= 0.5:
            break
    r = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    return r @ np.diag([a * a, b * b]) @ r.T


def _hull(points):
    """Counterclockwise convex hull (monotone chain), collinear points dropped."""
    pts = sorted(map(tuple, points))

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and (
                (out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])
            ) <= 1e-9:
                out.pop()
            out.append(p)
        return out

    lower, upper = half(pts), half(reversed(pts))
    return [list(p) for p in lower[:-1] + upper[:-1]]


def _random_polygon(rng):
    """Convex polygon around the origin whose extreme points in +-e2 are
    single vertices clearly off the e2-axis."""
    while True:
        n = int(rng.integers(5, 9))
        ang = np.arange(n) * 2 * math.pi / n + rng.uniform(0, 2 * math.pi)
        ang += rng.uniform(-0.25, 0.25, size=n) * 2 * math.pi / n
        rad = rng.uniform(0.7, 1.3, size=n)
        verts = _hull(np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=1))
        if len(verts) >= 3 and all(_polygon_margin(verts, s) >= 0.02 for s in (1, -1)):
            return verts


def _flat_polygon(rng, flat_bottom: bool):
    """Convex polygon with a horizontal top edge across the e2-axis; the
    bottom is a flat edge across the axis too, or a vertex off it."""
    h1, h2 = rng.uniform(0.6, 1.4, size=2)
    a1, b1 = rng.uniform(0.2, 0.8, size=2)
    r = max(b1, 0.8) + float(rng.uniform(0.2, 0.6))
    left = max(a1, 0.8) + float(rng.uniform(0.2, 0.6))
    y0, y1 = rng.uniform(-0.5, 0.5, size=2) * min(h1, h2)
    if flat_bottom:
        a2, b2 = rng.uniform(0.2, 0.8, size=2)
        r, left = max(r, b2 + 0.2), max(left, a2 + 0.2)
        bottom = [[float(-a2), float(-h2)], [float(b2), float(-h2)]]
    else:
        xb = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 0.6))
        bottom = [[xb, float(-h2)]]
    return bottom + [[float(r), float(y0)], [float(b1), float(h1)],
                     [float(-a1), float(h1)], [float(-left), float(y1)]]


def make_body(kind: str, rng: np.random.Generator) -> dict:
    scale = float(rng.uniform(0.6, 1.8))
    if kind == "disk_centred":
        return {"kind": "ellipse", "center": [0.0, 0.0],
                "shape": (scale * scale * np.eye(2)).tolist(), "disk": scale}
    if kind == "disk_off":
        cx = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.15, 0.5)) * scale
        cy = float(rng.uniform(-0.3, 0.3)) * scale
        return {"kind": "ellipse", "center": [cx, cy],
                "shape": (scale * scale * np.eye(2)).tolist(), "disk": scale}
    if kind == "ellipse_axis":
        a, b = rng.uniform(0.6, 1.8, size=2)
        return {"kind": "ellipse", "center": [0.0, 0.0],
                "shape": [[float(a * a), 0.0], [0.0, float(b * b)]]}
    if kind in ("ellipse_centred", "ellipse_off"):
        s = _tilted_shape(rng) * scale * scale
        c = np.zeros(2)
        if kind == "ellipse_off":
            lean = s[0, 1] / math.sqrt(s[1, 1])
            while True:
                # a point of the ellipse scaled by 0.2-0.5 keeps the origin inside
                d = rng.normal(size=2)
                c = np.linalg.cholesky(s) @ (d / np.linalg.norm(d))
                c *= float(rng.uniform(0.2, 0.5))
                if min(abs(c[0] - lean), abs(c[0] + lean)) >= 0.05 * scale:
                    break
        return {"kind": "ellipse", "center": [float(x) for x in c],
                "shape": s.tolist()}
    if kind == "square":
        v = [[1, -1], [1, 1], [-1, 1], [-1, -1]]
    elif kind == "quad":
        v = [[1, 0], [0, 1], [-2, 0], [0, -1]]
    elif kind == "polygon":
        v = _random_polygon(rng)
    elif kind == "poly_flat":
        v = _flat_polygon(rng, True)
    elif kind == "poly_flat_top":
        v = _flat_polygon(rng, False)
    else:
        raise ValueError(kind)
    return {"kind": "polygon", "vertices": [[scale * x, scale * y] for x, y in v]}


def body_config(body: dict) -> dict:
    if body["kind"] == "polygon":
        return {"polygon": body["vertices"]}
    if "disk" in body:
        return {"disk": {"center": body["center"], "radius": body["disk"]}}
    return {"ellipse": {"center": body["center"], "matrix": body["shape"]}}


def _polygon_margin(verts, s: int) -> float:
    """How far the extreme face in direction s*e2 sits from the e2-axis:
    0 when the extreme vertex or edge meets x = 0."""
    v = np.asarray(verts, dtype=float)
    top = np.max(s * v[:, 1])
    face = v[s * v[:, 1] >= top - 1e-12, 0]
    if face.min() <= 0.0 <= face.max():
        return 0.0
    return float(min(abs(face.min()), abs(face.max())))


def axis_holds(body: dict, s: int) -> bool:
    """Closed-form axis condition: the extreme point (or edge) of the
    body in direction s*e2 meets the e2-axis."""
    if body["kind"] == "polygon":
        return _polygon_margin(body["vertices"], s) == 0.0
    sh = body["shape"]
    return body["center"][0] + s * sh[0][1] / math.sqrt(sh[1][1]) == 0.0


def axis_reach(body: dict, s: int) -> float:
    """Distance from the origin to the boundary along s*e2, i.e. 1/F(0, s)."""
    if body["kind"] == "polygon":
        v = np.asarray(body["vertices"], dtype=float)
        best = math.inf
        for p, q in zip(v, np.roll(v, -1, axis=0)):
            # ray x = 0, y = s*t crosses edge p->q where x changes sign
            if (p[0] <= 0.0 <= q[0] or q[0] <= 0.0 <= p[0]) and p[0] != q[0]:
                y = p[1] + (q[1] - p[1]) * (-p[0]) / (q[0] - p[0])
                if s * y > 0:
                    best = min(best, s * y)
            elif p[0] == q[0] == 0.0:
                best = min(best, max(s * p[1], s * q[1]))
        return best
    c = np.asarray(body["center"], dtype=float)
    q = np.linalg.inv(np.asarray(body["shape"], dtype=float))
    qc = q @ c
    a, b, cc = q[1, 1], -2.0 * s * qc[1], float(c @ qc) - 1.0
    return (-b + math.sqrt(b * b - 4 * a * cc)) / (2 * a)


def expected_directions(family: str, params: dict, body: dict) -> dict:
    if pattern(family, params) == "zero":
        return {1: "non-strict", -1: "non-strict"}
    return {s: "non-strict" if axis_holds(body, s) else "strict" for s in (1, -1)}


# -- subspaces ------------------------------------------------------------


def bracket_table(family: str, params: dict) -> np.ndarray:
    from abnorm.catalog import AlgebraId, instantiate

    return np.array(instantiate(AlgebraId(family, **params)).c)


def known_span(family: str, params: dict) -> np.ndarray:
    from abnorm.catalog import AlgebraId, known_generating_subspace

    return np.stack(known_generating_subspace(AlgebraId(family, **params)).span)


def inner_image(c: np.ndarray, rows: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Rows mapped by the inner automorphism exp(ad X), X seeded."""
    x = rng.normal(scale=0.3, size=4)
    ad = np.einsum("i,ijk->kj", x, c)  # column j is [X, E_j]
    return (expm(ad) @ np.asarray(rows, dtype=float).T).T


def canonical_constants(c: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(C123, C223, C323) of the canonical basis [e1,e2] = e3, [e1,e3] = e4,
    [e2,e3] = C123 e1 + C223 e2 + C323 e3, with C223 = 0 when C123 != 0."""

    def br(x, y):
        return np.einsum("i,j,ijk->k", x, y, c)

    for e1, e2 in ((rows[0], rows[1]), (rows[1], rows[0])):
        basis = np.stack([e1, e2, br(e1, e2), br(e1, br(e1, e2))], axis=1)
        if np.linalg.matrix_rank(basis) == 4:
            break
    comps = np.linalg.solve(basis, br(e2, basis[:, 2]))
    e2 = e2 - comps[3] * e1  # removes the e4 part; e3 and e4 are unchanged
    basis[:, 1] = e2
    comps = np.linalg.solve(basis, br(e2, basis[:, 2]))
    if abs(comps[0]) > 1e-9 and abs(comps[1]) > 1e-9:
        e1 = e1 + comps[1] / comps[0] * e2
        basis = np.stack([e1, e2, basis[:, 2], br(e1, basis[:, 2])], axis=1)
        comps = np.linalg.solve(basis, br(e2, basis[:, 2]))
    return np.where(np.abs(comps[:3]) > 1e-9, comps[:3], 0.0)


def adjoint_matrix(c23, u2: float) -> np.ndarray:
    """psi1' = -u2 psi3, psi2' = 0, psi3' = u2 (C123 psi1 + C223 psi2 + C323 psi3),
    psi4' = u2 (C223 psi3 + C323 psi4)."""
    c1, c2, c3 = c23
    return u2 * np.array([[0, 0, -1, 0], [0, 0, 0, 0],
                          [c1, c2, c3, 0], [0, 0, c2, c3]], dtype=float)


# -- jobs -----------------------------------------------------------------


def classify_job(family, params, rows, body, form, pair) -> dict:
    return {
        "config": {"algebra": {"family": family, **params},
                   "subspace": "known" if form == "known" else np.asarray(rows).tolist(),
                   "body": body_config(body)},
        "family": family, "params": params, "form": form, "pair": pair,
        "expect": expected_directions(family, params, body),
    }


def job_pair(family, params, body, rng, pair) -> list:
    """A job on the known span and the same job on an inner-automorphism
    image of it; both must get the same verdict."""
    c = bracket_table(family, params)
    span = known_span(family, params)
    image = inner_image(c, span, rng)
    return [classify_job(family, params, span, body, "known", pair),
            classify_job(family, params, image, body, "image", pair)]


def dim3_job(family, form, rng) -> dict:
    rows = np.stack(DIM3_SPAN)
    if form == "image":
        rows = inner_image(bracket_table(family, {}), rows, rng)
    return {"config": {"algebra": {"family": family}, "subspace": rows.tolist()},
            "family": family, "params": {}, "form": form, "dim3": DIM3[family]}


def sweep_batches(seed: int) -> list:
    """Fourteen batches of 16 jobs.  Round r gives every family one body
    (kind rotating with r); batch 2r holds half the families on the known
    span and half on their images, batch 2r+1 the other halves, so each
    job meets its image in the next batch.  Each batch adds one 3D job."""
    rng = np.random.default_rng([seed, 1])
    batches = []
    for r in range(7):
        pairs = []
        for i, fam in enumerate(FAMILIES):
            kinds = KINDS_AXIS if PATTERN[fam] == "axis" else KINDS_ZERO
            params = family_params(fam, rng)
            body = make_body(kinds[(i + r) % 7], rng)
            pairs.append(job_pair(fam, params, body, rng, f"{r}/{i}"))
        for half in (0, 1):
            jobs = [pair[(i + r + half) % 2] for i, pair in enumerate(pairs)]
            # g4.1 images are left out: see the FOUND note on classify_dim3
            b = 2 * r + half
            if b % 2 == 0:
                jobs.append(dim3_job("g4.1", "known", rng))
            else:
                jobs.append(dim3_job("g4.3", ["known", "image"][(b // 2) % 2], rng))
            batches.append(jobs)
    return batches


def oracle_jobs(seed: int) -> list:
    """Classify jobs on which the witness oracle searches numerically:
    g3.7+g1 with bodies meeting the axis condition (flat-slice bisection)
    and the zero-pattern families with off-centre bodies (support-level
    root finding).  Every job comes with its automorphism image."""
    rng = np.random.default_rng([seed, 2])
    jobs = []
    # 16 g3.7+g1 bodies: the cost of the bisection varies from body to body,
    # and more of them keep the pass cost and its slowest job alike across seeds
    for k in range(16):
        body = make_body(KINDS_FLAT[k % 4], rng)
        jobs += job_pair("g3.7+g1", {}, body, rng, f"flat/{k}")
    for k, fam in enumerate(2 * (ZERO_FAMILIES + ["g4.8"])):
        params = {"alpha": 0.0} if fam == "g4.8" else family_params(fam, rng)
        jobs += job_pair(fam, params, make_body(KINDS_ROOT[k % 2], rng), rng, f"root/{k}")
    return jobs


def ode_jobs(seed: int) -> list:
    """One trajectory per family on its known span, bodies rotating over
    the sweep kinds, psi0 a seeded unit covector."""
    rng = np.random.default_rng([seed, 3])
    jobs = []
    for i, fam in enumerate(FAMILIES):
        kinds = KINDS_AXIS if PATTERN[fam] == "axis" else KINDS_ZERO
        params = family_params(fam, rng)
        body = make_body(kinds[i % 7], rng)
        psi0 = rng.normal(size=4)
        psi0 /= np.linalg.norm(psi0)
        c = bracket_table(fam, params)
        c23 = canonical_constants(c, known_span(fam, params))
        u2 = axis_reach(body, 1)
        jobs.append({
            "config": {"algebra": {"family": fam, **params}, "subspace": "known",
                       "body": body_config(body)},
            "family": fam, "psi0": [float(x) for x in psi0],
            "matrix": adjoint_matrix(c23, u2),
        })
    return jobs
