import csv
import io
import json
import math

import numpy as np
import pytest

from abnorm.adjoint import integrate

from abnorm.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    data = json.loads(out)
    assert code == 0 and len(data["families"]) == 17


def test_catalog_show(capsys):
    code, out, _ = run(capsys, "catalog", "show", "g4.7")
    data = json.loads(out)
    assert code == 0
    assert data["jacobi_defect"] <= 1e-12
    entries = {(e["i"], e["j"]): e["value"] for e in data["brackets"]}
    assert entries[(2, 3)] == [1.0, 0.0, 0.0, 0.0]
    assert data["known_subspace"] is not None


def test_catalog_show_unknown_exits_2(capsys):
    code, _, err = run(capsys, "catalog", "show", "g9.9")
    assert code == 2 and "error" in err


def test_verify_single(capsys):
    code, out, _ = run(capsys, "verify", "g4.7")
    data = json.loads(out)
    assert code == 0 and data["pass"]


def test_verify_no_subspace_family(capsys):
    code, out, _ = run(capsys, "verify", "g4.5", "--alpha", "0.5", "--beta", "1")
    data = json.loads(out)
    assert code == 0
    assert data["results"][0]["generates"] is None


def test_classify_fixture_nonstrict(tmp_path, capsys):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({
        "algebra": {"family": "g4.10"},
        "subspace": "known",
        "body": {"disk": {"center": [0, 0], "radius": 1.0}},
    }))
    code, out, _ = run(capsys, "classify", "--config", str(cfg), "--expect", "nonstrict")
    assert code == 0
    report = json.loads(out)
    assert report["classification"]["verdict"] == "non-strict"
    assert report["classification"]["oracle_verdict"] == "non-strict"


def test_classify_fixture_strict(tmp_path, capsys):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({
        "algebra": {"family": "g3.7+g1"},
        "subspace": [[1, 0, 0, 1], [1, 1, 0, 2]],
        "body": {"ellipse": {"center": [0, 0],
                             "matrix": [[1.0, 0.5], [0.5, 1.25]]}},
    }))
    code, out, _ = run(capsys, "classify", "--config", str(cfg), "--expect", "strict")
    assert code == 0
    assert json.loads(out)["classification"]["verdict"] == "strict"


def test_classify_dim3_fixture(tmp_path, capsys):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({
        "algebra": {"family": "g4.1"},
        "subspace": [[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    }))
    code, out, _ = run(capsys, "classify", "--config", str(cfg), "--expect", "nonstrict")
    assert code == 0
    assert json.loads(out)["dim3"]["verdict"] == "non-strict for all metrics"


def test_classify_non_generating_exits_4(tmp_path, capsys):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({
        "algebra": {"family": "g4.1"},
        "subspace": [[1, 0, 0, 0], [0, 1, 0, 0]],
    }))
    code, _, err = run(capsys, "classify", "--config", str(cfg))
    assert code == 4 and "generates" in err


def test_classify_deterministic_output(tmp_path, capsys):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"algebra": {"family": "g4.7"}, "subspace": "known",
                               "body": {"disk": {"radius": 1.0}}}))
    _, first, _ = run(capsys, "classify", "--config", str(cfg))
    _, second, _ = run(capsys, "classify", "--config", str(cfg))
    assert first == second


def test_corrupt_catalog_exits_3(tmp_path, capsys, monkeypatch):
    bad = tmp_path / "bad.json"
    bad.write_text("[]")
    monkeypatch.setenv("ABNORM_CATALOG", str(bad))
    code, _, err = run(capsys, "catalog", "show", "g4.1")
    assert code == 3 and "catalog" in err


def test_ode_csv_dump(tmp_path, capsys):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"algebra": {"family": "g4.10"}, "subspace": "known"}))
    out_csv = tmp_path / "traj.csv"
    code, out, _ = run(capsys, "ode", "--config", str(cfg), "-T", "1.0",
                       "--dt", "0.001", "--out", str(out_csv))
    assert code == 0
    stats = json.loads(out)
    assert stats["max_deviation"] <= 1e-6
    rows = list(csv.reader(out_csv.open()))
    assert rows[0] == ["t", "psi1", "psi2", "psi3", "psi4"]
    assert len(rows) == 1002
    # constants-zero case: first and third columns stay constant
    assert float(rows[-1][1]) == pytest.approx(float(rows[1][1]), abs=1e-9)


def test_ode_bad_psi0_exits_2(tmp_path, capsys):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"algebra": {"family": "g4.10"}, "subspace": "known"}))
    code, _, err = run(capsys, "ode", "--config", str(cfg), "--psi0", "1,2,3")
    assert code == 2


def test_sweep(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"jobs": [
        {"algebra": {"family": "g4.10"}, "subspace": "known",
         "body": {"disk": {"radius": 1.0}}},
        {"algebra": {"family": "g4.7"}, "subspace": "known",
         "body": {"disk": {"center": [0.5, 0.0], "radius": 1.0}}},
        {"algebra": {"family": "g4.1"},
         "subspace": [[1, 0, 0, 0], [0, 1, 0, 0]]},
    ]}))
    code, out, _ = run(capsys, "sweep", "--config", str(cfg))
    assert code == 0
    results = json.loads(out)["results"]
    assert results[0]["report"]["classification"]["verdict"] == "non-strict"
    assert results[1]["report"]["classification"]["verdict"] == "strict"
    assert results[2]["error"] == "subspace does not generate"


def test_sweep_keeps_good_jobs_when_one_fails(tmp_path, capsys):
    good = {"algebra": {"family": "g4.10"}, "subspace": "known",
            "body": {"disk": {"radius": 1.0}}}
    bad = dict(good, body={"disk": {"radius": -1}})
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"jobs": [good, bad, good]}))
    out = tmp_path / "out.json"
    code, _, _ = run(capsys, "sweep", "--config", str(cfg), "--out", str(out))
    assert code == 0
    results = json.loads(out.read_text())["results"]
    assert [r["job"] for r in results] == [0, 1, 2]
    assert results[1] == {"job": 1, "error": "disk radius must be positive"}
    for r in (results[0], results[2]):
        assert r["report"]["classification"]["verdict"] == "non-strict"


def test_missing_config_exits_2(tmp_path, capsys):
    code, _, _ = run(capsys, "classify", "--config", str(tmp_path / "nope.json"))
    assert code == 2


GOOD_JOB = {"algebra": {"family": "g4.10"}, "subspace": "known",
            "body": {"disk": {"radius": 1.0}}}
BAD_JOBS = {
    "ellipse_without_matrix": dict(GOOD_JOB, body={"ellipse": {"center": [0, 0]}}),
    "non_numeric_polygon": dict(GOOD_JOB, body={"polygon": "abc"}),
    "job_not_an_object": "g4.10",
    "non_numeric_alpha": dict(GOOD_JOB, algebra={"family": "g4.8", "alpha": "x"}),
    "algebra_not_an_object": dict(GOOD_JOB, algebra=["g4.8"]),
    "nan_disk_centre": dict(GOOD_JOB, body={"disk": {"center": [math.nan, 0], "radius": 1}}),
}


@pytest.mark.parametrize("name", sorted(BAD_JOBS))
def test_sweep_records_malformed_job(tmp_path, capsys, name):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"jobs": [GOOD_JOB, BAD_JOBS[name]]}))
    out = tmp_path / "out.json"
    code, _, _ = run(capsys, "sweep", "--config", str(cfg), "--out", str(out))
    assert code == 0
    results = json.loads(out.read_text())["results"]
    assert results[0]["report"]["classification"]["verdict"] == "non-strict"
    assert set(results[1]) == {"job", "error"} and results[1]["job"] == 1


@pytest.mark.parametrize("name", sorted(BAD_JOBS))
def test_classify_malformed_config_exits_2(tmp_path, capsys, name):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps(BAD_JOBS[name]))
    code, _, err = run(capsys, "classify", "--config", str(cfg))
    assert code == 2 and err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["-T", "inf"],
    ["-T", "nan"],
    ["--dt", "inf"],
    ["--psi0=nan,1,0,1"],
    ["--psi0=0,1,inf,1"],
    ["-T", "1e300", "--dt", "1e-300"],
])
def test_ode_non_finite_input_exits_2(tmp_path, capsys, argv):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"algebra": {"family": "g4.10"}, "subspace": "known"}))
    out_csv = tmp_path / "traj.csv"
    code, _, err = run(capsys, "ode", "--config", str(cfg), "--out", str(out_csv), *argv)
    assert code == 2 and "finite" in err
    assert not out_csv.exists()


@pytest.mark.parametrize("options", [[], {"s": 2}, {"s": "x"}])
def test_ode_bad_options_exit_2(tmp_path, capsys, options):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"algebra": {"family": "g4.10"}, "subspace": "known",
                               "options": options}))
    code, _, err = run(capsys, "ode", "--config", str(cfg), "-T", "0.01")
    assert code == 2 and "options" in err


def test_ode_csv_bytes_match_csv_writer(tmp_path, capsys):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"algebra": {"family": "g4.7"}, "subspace": "known",
                               "body": {"disk": {"center": [0.2, 0.1], "radius": 1.0}}}))
    out_csv = tmp_path / "traj.csv"
    code, out, _ = run(capsys, "ode", "--config", str(cfg), "-T", "5", "--dt", "1e-3",
                       "--psi0=-0.5,0.5,0.25,1e-7", "--out", str(out_csv))
    assert code == 0
    u2 = json.loads(out)["u2"]
    from abnorm.catalog import default_id, instantiate, known_generating_subspace
    from abnorm.subspace import Subspace, canonical_basis

    aid = default_id("g4.7")
    alg = instantiate(aid)
    basis = canonical_basis(alg, Subspace(alg, np.stack(known_generating_subspace(aid).span)))
    traj = integrate(basis.c23[:3], u2, [-0.5, 0.5, 0.25, 1e-7], 5.0, 1e-3)
    # reference: the csv.writer rows the command used to write
    ref = io.StringIO(newline="")
    w = csv.writer(ref)
    w.writerow(["t", "psi1", "psi2", "psi3", "psi4"])
    for t, row in zip(traj.t, traj.psi):
        w.writerow([f"{t:.10g}"] + [f"{x:.12g}" for x in row])
    assert out_csv.read_bytes() == ref.getvalue().encode()
    assert out_csv.read_bytes().count(b"\r\n") == 5002
