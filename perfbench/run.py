"""End-to-end benchmark of the abnorm CLI.

    python3 perfbench/run.py --workload classify_oracle --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  One process, one client thread, closed loop: each op is one
in-process ``abnorm.cli.main([...])`` call on config files generated from
the seed.  After an untimed warm-up pass the run times whole passes over
its job list until ``--seconds`` of op time have been spent, checking
every op's output between ops (outside the clock).  ``--trace 1`` spends
half the time untraced and half with every layer wrapped in spans, and
reports per-layer metrics instead of the end-to-end ones.  The last line
of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: percentile reported as op_tail_ms; fixed per workload so that a 45 s
#: run leaves at least ten samples beyond it (see README).  sweep_mixed is
#: runnable by hand but not in BENCHMARK.json: it was too unsteady.
TAIL = {"sweep_mixed": 97, "classify_oracle": 99, "ode_dump": 95}

SETUP_REPEATS = 5
SETUP_CODE = (
    "import time\n"
    "import abnorm\n"
    "from abnorm.catalog import default_id, instantiate\n"
    "t = time.perf_counter()\n"
    "instantiate(default_id('g4.7'))\n"
    "print((time.perf_counter() - t) * 1e3)\n"
)


class Op(NamedTuple):
    argv: list      # arguments of one abnorm.cli.main call
    jobs: int       # classify jobs or trajectories the call completes
    check: object   # check(job, rc, stdout, out, verdicts) -> reason or None
    job: object     # what the check compares the output with
    out: str        # output file the call writes


def build_ops(workload: str, seed: int, work: Path) -> list:
    import inputs
    import checks

    def dump(name, data):
        path = work / name
        path.write_text(json.dumps(data))
        return str(path)

    out = str(work / "out.json")
    if workload == "sweep_mixed":
        return [Op(["sweep", "--config", dump(f"batch{b}.json", {"jobs": [j["config"] for j in jobs]}),
                    "--out", out], len(jobs), checks.check_sweep, jobs, out)
                for b, jobs in enumerate(inputs.sweep_batches(seed))]
    if workload == "classify_oracle":
        return [Op(["classify", "--config", dump(f"job{k}.json", job["config"]), "--out", out],
                   1, checks.check_classify, job, out)
                for k, job in enumerate(inputs.oracle_jobs(seed))]
    csv_out = str(work / "traj.csv")  # ode_dump, the last of the --workload choices
    # "--psi0=" because argparse reads a separate value starting with "-" as a flag
    return [Op(["ode", "--config", dump(f"ode{k}.json", job["config"]),
                "--psi0=" + ",".join(repr(x) for x in job["psi0"]), "--out", csv_out],
               1, checks.check_ode, job, csv_out)
            for k, job in enumerate(inputs.ode_jobs(seed))]


def run_op(main, op):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = main(op.argv)
        except Exception as exc:  # an escaped exception is a failed op, not a crash
            rc = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
    return rc, out.getvalue(), err.getvalue(), t0, t1


def run_passes(ops, budget: float, tracer=None) -> dict:
    """Whole passes over ``ops`` until ``budget`` seconds of op time."""
    from abnorm.cli import main

    lat, jobs, failed, wrong, reasons = [], 0, 0, 0, []
    spent, passes, rates = 0.0, 0, []
    while spent < budget or passes == 0:
        verdicts, pass_jobs, pass_spent = {}, 0, 0.0
        for op in ops:
            # a missing output must not be checked against the previous op's
            Path(op.out).unlink(missing_ok=True)
            if tracer:
                tracer.begin_op()
            rc, stdout, stderr, t0, t1 = run_op(main, op)
            if tracer:
                tracer.end_op(t0, t1, keep=passes == 0)
            lat.append(t1 - t0)
            pass_spent += t1 - t0
            pass_jobs += op.jobs
            try:
                why = op.check(op.job, rc, stdout, op.out, verdicts)
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                why = f"unreadable output: {type(exc).__name__}: {exc}"
            if why:
                failed += 1
                wrong += rc == 0
                if len(reasons) < 5:
                    reasons.append(f"{op.argv[0]}: {why} {stderr.strip()[:200]}")
        passes += 1
        spent += pass_spent
        jobs += pass_jobs
        rates.append(pass_jobs / pass_spent)
    return {"lat": lat, "jobs": jobs, "failed": failed, "wrong": wrong, "reasons": reasons,
            "passes": passes, "spent": spent, "rates": rates}


def measure_setup(env) -> tuple:
    """Median wall time of a fresh interpreter importing abnorm and loading
    the catalog, and the median in-process catalog load time."""
    walls, loads = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        res = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                             capture_output=True, text=True, check=True, timeout=60)
        walls.append(time.perf_counter() - t0)
        loads.append(float(res.stdout.split()[-1]))
    return statistics.median(walls), statistics.median(loads)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, res, setup_s) -> dict:
    lat = res["lat"]
    tail = statistics.quantiles(lat, n=100, method="inclusive")[TAIL[workload] - 1]
    return {
        "setup_s": metric(setup_s, "s"),
        # median over passes, so that a slow stretch of the host moves it less
        "jobs_per_s": metric(statistics.median(res["rates"]), "1/s"),
        "op_p50_ms": metric(statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": metric(tail * 1e3, "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, res, untraced, imports, load_ms) -> dict:
    jobs, ops = res["jobs"], len(res["lat"])
    calls, total, self_ms = tracer.calls, tracer.total, tracer.self_time
    m = {k: metric(v, "ms") for k, v in imports.items()}
    m["catalog.load_ms"] = metric(load_ms, "ms")
    for name in ("catalog.instantiate", "subspace.generates", "subspace.canonical_basis"):
        m[f"{name}.calls_per_job"] = metric(calls[name] / jobs, "calls/job")
        m[f"{name}.self_ms_per_job"] = metric(self_ms[name] * 1e3 / jobs, "ms/job")
    m["extremal.classify.calls_per_job"] = metric(calls["extremal.classify"] / jobs, "calls/job")
    m["extremal.theorem3_dispatch.self_ms_per_job"] = metric(
        self_ms["extremal.theorem3_dispatch"] * 1e3 / jobs, "ms/job")
    m["adjoint.witness_search.self_ms_per_job"] = metric(
        self_ms["adjoint.witness_search"] * 1e3 / jobs, "ms/job")
    m["seminorm.support.calls_per_job"] = metric(calls["seminorm.support"] / jobs, "calls/job")
    m["seminorm.gauge.calls_per_job"] = metric(calls["seminorm.gauge"] / jobs, "calls/job")
    m["seminorm.self_ms_per_job"] = metric(
        sum(v for k, v in self_ms.items() if k.startswith("seminorm.")) * 1e3 / jobs, "ms/job")
    m["adjoint.rk4_trajectory.ms_per_op"] = metric(total["adjoint.rk4_trajectory"] * 1e3 / ops, "ms/op")
    m["adjoint.integrate.self_ms_per_op"] = metric(self_ms["adjoint.integrate"] * 1e3 / ops, "ms/op")
    m["cli.self_ms_per_op"] = metric(
        sum(v for k, v in self_ms.items() if k.startswith("cli.")) * 1e3 / ops, "ms/op")
    m["cli.sweep.busy_over_wall"] = metric(total["cli.classify_report"] / res["spent"], "ratio")
    m["trace.overhead_ratio"] = metric(
        (jobs / res["spent"]) / (untraced["jobs"] / untraced["spent"]), "ratio")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(TAIL))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "abnorm" / "__init__.py").is_file():
        print(f"error: no abnorm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    env = dict(os.environ, PYTHONPATH=str(SRC))

    work = HERE / ".out" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    setup_s, load_ms = measure_setup(env)
    ops = build_ops(args.workload, args.seed, work)
    warm = run_passes(ops, 0.0)
    if warm["failed"]:
        print(f"warm-up: {warm['failed']} ops failed", file=sys.stderr)

    if args.trace:
        from spans import Tracer, importtime_ms

        imports = importtime_ms(env, ROOT)
        untraced = run_passes(ops, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        res = run_passes(ops, args.seconds / 2, tracer)
        tracer.write(work / "spans.jsonl")
        metrics = per_layer(tracer, res, untraced, imports, load_ms)
        attempted = len(untraced["lat"]) + len(res["lat"])
        failed = untraced["failed"] + res["failed"]
        wrong = untraced["wrong"] + res["wrong"]
        reasons = untraced["reasons"] + res["reasons"]
    else:
        res = run_passes(ops, args.seconds)
        metrics = end_to_end(args.workload, res, setup_s)
        attempted, failed, wrong = len(res["lat"]), res["failed"], res["wrong"]
        reasons = res["reasons"]
        beyond = sum(x * 1e3 > metrics["op_tail_ms"]["value"] for x in res["lat"])
        print(f"{args.workload}: {attempted} ops in {res['passes']} passes of {len(ops)}, "
              f"{res['jobs']} jobs; op_tail_ms is p{TAIL[args.workload]} "
              f"with {beyond} samples beyond it")

    for why in reasons:
        print(f"failed op: {why}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    # a failed op that exited 0 returned a wrong result; one that exited
    # non-zero is a failure the program reported, and only counts as failed
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
