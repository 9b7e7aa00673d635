"""Batch front-end: catalog queries, verification suites, classification
reports, ODE trajectory dumps and config sweeps.

Exit codes: 0 ok, 2 usage error, 3 catalog data corruption, 4 the
configured subspace does not generate.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

import numpy as np

from . import adjoint, extremal
from .catalog import (
    AlgebraId,
    CatalogCorruptError,
    CatalogError,
    automorphism_family,
    default_id,
    instantiate,
    known_generating_subspace,
    list_families,
    verify_automorphism,
)
from .lie import jacobi_defect
from .seminorm import body_from_config, body_to_config, config_array, is_number
from .subspace import Subspace, canonical_basis, check_prop2, generates
from .tolerances import JACOBI_TOL, PROP2_TOL

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CORRUPT = 3
EXIT_NON_GENERATING = 4


class UsageError(ValueError):
    pass


class NonGeneratingError(ValueError):
    pass


DEFAULT_BODY = {"disk": {"radius": 1.0}}


def _emit(data, out: str | None):
    text = json.dumps(data, indent=2, sort_keys=True, allow_nan=False)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _algebra_id(spec) -> AlgebraId:
    if isinstance(spec, str):
        return default_id(spec)
    if not isinstance(spec, dict) or not isinstance(spec.get("family"), str):
        raise UsageError(f"bad algebra spec: {spec!r}")
    for key in ("alpha", "beta"):
        val = spec.get(key)
        if val is not None and not is_number(val):
            raise UsageError(f"bad algebra spec: {key} must be a number, got {val!r}")
    return default_id(spec["family"], spec.get("alpha"), spec.get("beta"))


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise UsageError(f"config {path} must be a JSON object")
    return cfg


class _Algebra:
    """What a job reads of its catalog entry alone: the checked bracket
    table, and the known subspace with its generation result and canonical
    basis, each computed on first use.  Every array in it is read-only."""

    def __init__(self, alg_id: AlgebraId):
        self.id = alg_id
        self.alg = instantiate(alg_id)

    @functools.cached_property
    def known(self) -> Subspace | None:
        ks = known_generating_subspace(self.id)
        return None if ks is None else Subspace(self.alg, np.stack(ks.span))

    @functools.cached_property
    def known_generates(self):
        return generates(self.alg, self.known)

    @functools.cached_property
    def known_basis(self):
        return canonical_basis(self.alg, self.known)


# one entry per catalog file and AlgebraId, computed once per process; an
# exception is not cached, so a failing id fails again on the next call.
# Ids that compare equal (alpha 1 and 1.0, -0.0 and 0.0) build the same table,
# and a report prints its own job's id
@functools.lru_cache(maxsize=64)
def _algebra_cached(path: str | None, alg_id: AlgebraId) -> _Algebra:
    return _Algebra(alg_id)


def _algebra(alg_id: AlgebraId) -> _Algebra:
    return _algebra_cached(os.environ.get("ABNORM_CATALOG"), alg_id)


def _vec(x) -> list:
    return np.asarray(x, dtype=float).ravel().tolist()


def cmd_catalog(args) -> int:
    if args.action == "list":
        _emit({"families": list_families()}, args.out)
        return EXIT_OK
    if args.id is None:
        raise UsageError("catalog show needs a family id")
    alg_id = default_id(args.id, args.alpha, args.beta)
    data = _algebra(alg_id)
    alg, known = data.alg, data.known
    try:
        n_branches = len(automorphism_family(alg_id).branches)
    except CatalogError:
        n_branches = 0
    _emit(
        {
            "id": str(alg_id),
            "brackets": [
                {"i": i, "j": j,
                 "value": [float(comps.get(k, 0.0)) for k in range(1, 5)]}
                for i, j, comps in alg.nonzero_brackets()
            ],
            "jacobi_defect": jacobi_defect(alg),
            "automorphism_branches": n_branches,
            "known_subspace": None if known is None else [_vec(v) for v in known.basis],
        },
        args.out,
    )
    return EXIT_OK


def _verify_one(alg_id: AlgebraId, rng: np.random.Generator) -> dict:
    data = _algebra(alg_id)
    alg = data.alg
    res = {"id": str(alg_id), "jacobi_defect": jacobi_defect(alg)}
    ok = res["jacobi_defect"] <= JACOBI_TOL
    try:
        fam = automorphism_family(alg_id)
    except CatalogError:
        res["automorphism_failures"] = None
    else:
        failures = sum(not verify_automorphism(alg, fam.sample(rng)) for _ in range(20))
        res["automorphism_failures"] = failures
        ok = ok and not failures
    if data.known is not None:
        gen = data.known_generates
        res["generates"] = bool(gen)
        res["generation_dims"] = list(gen.dims)
        if gen:
            res["prop2_defect"] = check_prop2(data.known_basis)
            ok = ok and res["prop2_defect"] <= PROP2_TOL
        ok = ok and bool(gen)
    else:
        res["generates"] = None
    res["pass"] = ok
    return res


def cmd_verify(args) -> int:
    rng = np.random.default_rng(0)
    if args.scope == "all":
        ids = [default_id(f) for f in list_families()]
    else:
        ids = [default_id(args.scope, args.alpha, args.beta)]
    results = [_verify_one(i, rng) for i in ids]
    all_pass = all(r["pass"] for r in results)
    _emit({"results": results, "pass": all_pass}, args.out)
    return EXIT_OK if all_pass else 1


def _job(cfg: dict):
    """Algebra id, algebra, subspace, generation result and a canonical-basis
    getter of a job config; the known subspace's come from the per-id cache."""
    alg_id = _algebra_id(cfg.get("algebra"))
    data = _algebra(alg_id)
    spec = cfg.get("subspace", "known")
    if spec == "known":
        if data.known is None:
            raise NonGeneratingError(f"no known generating subspace for {alg_id}")
        return alg_id, data.alg, data.known, data.known_generates, lambda: data.known_basis
    try:
        rows = config_array(spec)
    except (TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"bad subspace spec: {exc}") from exc
    p = Subspace(data.alg, rows)
    return alg_id, data.alg, p, generates(data.alg, p), lambda: canonical_basis(data.alg, p)


def _classify_report(cfg: dict) -> dict:
    if not isinstance(cfg, dict):
        raise UsageError(f"job config must be a JSON object, got {cfg!r}")
    alg_id, alg, p, gen, canonical = _job(cfg)
    report: dict = {
        "config": {
            "algebra": {"family": alg_id.family, "alpha": alg_id.alpha, "beta": alg_id.beta},
            "subspace": [_vec(v) for v in p.basis],
        },
        "generates": bool(gen),
        "generation_dims": list(gen.dims),
    }
    if not gen:
        raise NonGeneratingError(json.dumps(report, sort_keys=True))
    body = body_from_config(cfg.get("body", DEFAULT_BODY))
    if p.dim == 3:
        d3 = extremal.dim3_report(alg, p)
        # a generating 3D subspace always has its abnormal line p1
        report["dim3"] = {"exists": True, "p1": _vec(d3.p1), "verdict": d3.verdict.value}
        return report
    report["config"]["body"] = body_to_config(body)
    basis = canonical()
    report["canonical"] = {
        "e1": _vec(basis.e1), "e2": _vec(basis.e2),
        "e3": _vec(basis.e3), "e4": _vec(basis.e4),
        "c23": _vec(basis.c23),
    }
    disp = extremal.dispatch(alg_id, p, body, extremal.classify_basis(basis, body))
    report["extremals"] = [
        {"s": d.s, "velocity": _vec(d.velocity),
         "label": "one-parameter subgroup exp(t * velocity)"}
        for d in disp.report.directions.values()
    ]
    report["classification"] = {
        "directions": {
            str(s): {
                "verdict": d.verdict.value,
                "reason": d.reason.value,
                "witness": d.witness,
                "pmp_max": int(d.witness is not None),
            }
            for s, d in disp.report.directions.items()
        },
        "verdict": disp.criterion_verdict.value,
        "oracle_verdict": disp.oracle_verdict.value,
        "summary_case": disp.case,
        "summary_verdict": None if disp.summary_verdict is None else disp.summary_verdict.value,
        "consistent": disp.consistent,
        "flagged_tension": disp.flagged_tension,
        "sl2_type": disp.sl2_type,
    }
    return report


def cmd_classify(args) -> int:
    report = _classify_report(_load_config(args.config))
    _emit(report, args.out)
    if args.expect:
        want = {"strict": "strict", "nonstrict": "non-strict"}[args.expect]
        if "dim3" in report:
            return EXIT_OK if report["dim3"]["verdict"].startswith(want) else 1
        return EXIT_OK if report["classification"]["verdict"] == want else 1
    return EXIT_OK


def cmd_ode(args) -> int:
    cfg = _load_config(args.config)
    _, _, _, gen, canonical = _job(cfg)
    if not gen:
        raise NonGeneratingError("subspace does not generate")
    body = body_from_config(cfg.get("body", DEFAULT_BODY))
    basis = canonical()
    opts = cfg.get("options", {})
    s = opts.get("s", 1) if isinstance(opts, dict) else None
    if isinstance(s, bool) or s not in (1, -1):
        raise UsageError("options must be an object whose 's' is 1 or -1")
    u2 = s / body.axis_gauge(s)
    if args.psi0:
        psi0 = [float(x) for x in args.psi0.split(",")]
        if len(psi0) != 4:
            raise UsageError("--psi0 needs 4 comma-separated values")
    else:
        psi0 = [0.0, 1.0 / u2, 0.0, 1.0]
    traj = adjoint.integrate(basis.c23[:3], u2, psi0, args.T, args.dt)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write("t,psi1,psi2,psi3,psi4\r\n")
            fh.writelines("%.10g,%.12g,%.12g,%.12g,%.12g\r\n" % (t, *row)
                          for t, row in zip(traj.t.tolist(), traj.psi.tolist()))
    _emit({"max_deviation": traj.max_deviation, "n_steps": len(traj.t) - 1, "u2": u2}, None)
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    jobs = cfg.get("jobs")
    if not isinstance(jobs, list):
        raise UsageError("sweep config needs a 'jobs' list")
    results = []
    # serial: the work holds the GIL, so a thread pool only adds overhead
    for i, job in enumerate(jobs):
        try:
            results.append({"job": i, "report": _classify_report(job)})
        except NonGeneratingError:
            results.append({"job": i, "error": "subspace does not generate"})
        except CatalogCorruptError:
            raise
        except ValueError as exc:  # what main reports with exit code 2
            results.append({"job": i, "error": str(exc)})
    _emit({"results": results}, args.out)
    return EXIT_OK


# built once per process: parse_args fills a fresh Namespace each call, and
# argparse reads the output streams and terminal width only when it prints
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="abnorm")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="list families or show one algebra")
    p.add_argument("action", choices=["list", "show"])
    p.add_argument("id", nargs="?")
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_catalog)

    p = sub.add_parser("verify", help="run consistency suites")
    p.add_argument("scope", help="'all' or a family id")
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("classify", help="classify a configured extremal")
    p.add_argument("--config", required=True)
    p.add_argument("--expect", choices=["strict", "nonstrict"])
    p.add_argument("--out")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("ode", help="dump a covector trajectory")
    p.add_argument("--config", required=True)
    p.add_argument("--psi0")
    p.add_argument("-T", type=float, default=5.0)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_ode)

    p = sub.add_parser("sweep", help="run many classify jobs")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_sweep)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    # argparse reads a separate value such as "-1e3" or "-.5,1" as a flag: join
    # it to the option before it (no option name starts "-<digit>" or "-.")
    joined = []
    for tok in sys.argv[1:] if argv is None else argv:
        if joined and re.match(r"-[\d.]", tok) and re.fullmatch(r"-[^\d.][^=]*", joined[-1]):
            joined[-1] += "=" + tok
        else:
            joined.append(tok)
    try:
        args = ap.parse_args(joined)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except CatalogCorruptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CORRUPT
    except NonGeneratingError as exc:
        print(f"{exc}", file=sys.stderr)
        return EXIT_NON_GENERATING
    except (ValueError, OSError) as exc:
        # ValueError: every input error of the package; OSError: an --out
        # path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
