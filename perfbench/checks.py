"""Independent checks of each op's output.  Each check returns None when
the output is right, or a one-line reason when it is not."""

from __future__ import annotations

import csv
import json

import numpy as np
from scipy.linalg import expm

#: the documented CLI defaults the ODE workload runs at
ODE_T = 5.0
ODE_DT = 1e-3


def check_report(job: dict, report: dict, verdicts: dict) -> str | None:
    """One classify report.  ``verdicts`` maps a pair tag to the verdict
    its first member got in this pass, so the second member must match."""
    if "dim3" in job:
        got = (report.get("dim3") or {}).get("verdict")
        if got != job["dim3"]:
            return f"{job['family']} 3D {job['form']}: {got!r}, expected {job['dim3']!r}"
        return None
    where = f"{job['family']} {job['params']} {job['form']}"
    if not report.get("generates"):
        return f"{where}: reported as not generating"
    cls = report["classification"]
    for s, want in job["expect"].items():
        got = cls["directions"][str(s)]["verdict"]
        if got != want:
            return f"{where}: direction {s} is {got}, expected {want}"
    combined = "non-strict" if all(v == "non-strict" for v in job["expect"].values()) else "strict"
    if cls["verdict"] != combined:
        return f"{where}: verdict {cls['verdict']}, expected {combined}"
    if cls["oracle_verdict"] != cls["verdict"]:
        return f"{where}: oracle says {cls['oracle_verdict']}, criterion {cls['verdict']}"
    if not cls["consistent"] and not cls["flagged_tension"]:
        return f"{where}: inconsistent without a flagged tension"
    first = verdicts.setdefault(job["pair"], cls["verdict"])
    if first != cls["verdict"]:
        return f"{where}: verdict {cls['verdict']} differs from its pair's {first}"
    return None


def check_classify(job, rc, stdout, out_path, verdicts) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    with open(out_path) as fh:
        return check_report(job, json.load(fh), verdicts)


def check_sweep(jobs, rc, stdout, out_path, verdicts) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    with open(out_path) as fh:
        results = json.load(fh)["results"]
    if [r["job"] for r in results] != list(range(len(jobs))):
        return "sweep results do not cover the batch in order"
    for job, res in zip(jobs, results):
        if "report" not in res:
            return f"job {res['job']}: {res.get('error')}"
        why = check_report(job, res["report"], verdicts)
        if why:
            return f"job {res['job']}: {why}"
    return None


def rk4_bound(a: np.ndarray, psi0, n: int, dt: float, growth: float) -> float:
    """Global error bound of n classical RK4 steps on psi' = a psi: the local
    truncation error (dt |a|)^5 / 120 plus the rounding of one step's few
    4x4 products (16 eps), per step, propagated by at most ``growth``."""
    h = dt * np.linalg.norm(a, 2)
    local = h ** 5 / 120.0 * np.exp(h) + 16 * np.finfo(float).eps
    return n * local * growth * growth * float(np.linalg.norm(psi0))


def check_ode(job, rc, stdout, out_path, verdicts) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    n = round(ODE_T / ODE_DT)
    if json.loads(stdout)["n_steps"] != n:
        return "wrong n_steps in the summary"
    with open(out_path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["t", "psi1", "psi2", "psi3", "psi4"] or len(rows) != n + 2:
        return f"csv has {len(rows) - 1} data rows, expected {n + 1}"
    data = np.array(rows[1:], dtype=float)
    psi0 = np.asarray(job["psi0"])
    if np.any(data[:, 2] != float(f"{psi0[1]:.12g}")):
        return "psi2 moved off its initial value"
    if np.max(np.abs(data[:, 0] - np.arange(n + 1) * ODE_DT)) > 1e-9:
        return "time column is off the dt grid"
    a = job["matrix"]
    idx = np.linspace(0, n, 51).astype(int)
    props = [expm(k * ODE_DT * a) for k in idx]
    exact = np.array([p @ psi0 for p in props])
    growth = max(np.linalg.norm(p, 2) for p in props)
    # 12 printed digits add a relative rounding of 5e-13 per entry
    tol = rk4_bound(a, psi0, n, ODE_DT, growth) + 1e-12 * np.max(np.abs(exact))
    err = float(np.max(np.abs(data[idx, 1:] - exact)))
    if err > tol:
        return f"trajectory off expm(tA) psi0 by {err:.3g} > {tol:.3g}"
    return None
