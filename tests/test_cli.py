import contextlib
import csv
import importlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import abnorm
from abnorm import catalog, cli, subspace
from abnorm.adjoint import integrate
from abnorm.catalog import default_id, instantiate, known_generating_subspace, list_families
from abnorm.cli import main
from abnorm.extremal import Dim3Verdict, classify, classify_dim3, theorem3_dispatch
from abnorm.seminorm import Disk, Polygon, body_to_config
from abnorm.subspace import Subspace, canonical_basis


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
    code, out, _ = run(capsys, "catalog", "show", "g3.1+g1")
    assert code == 0 and json.loads(out)["automorphism_branches"] == 0


def test_catalog_show_unknown_exits_2(capsys):
    # g9.9 is not a family name; g4.11 is one, but not in the catalog
    for family in ("g9.9", "g4.11"):
        code, _, err = run(capsys, "catalog", "show", family)
        assert code == 2 and "error" in err and "unknown family" in err


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
    assert json.loads(out)["dim3"] == {"exists": True, "p1": [1.0, 0.0, 0.0, 0.0],
                                       "verdict": "non-strict for all metrics"}


def test_classify_non_generating_exits_4(tmp_path, capsys):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({
        "algebra": {"family": "g4.1"},
        "subspace": [[1, 0, 0, 0], [0, 1, 0, 0]],
    }))
    code, _, err = run(capsys, "classify", "--config", str(cfg))
    assert code == 4 and "generates" in err
    code, _, err = run(capsys, "ode", "--config", str(cfg))
    assert code == 4 and err == "subspace does not generate\n"
    cfg.write_text(json.dumps({"algebra": {"family": "g3.1+g1"}, "subspace": "known"}))
    code, _, err = run(capsys, "classify", "--config", str(cfg))
    assert code == 4 and "no known generating subspace for g3.1+g1" in err


def test_classify_deterministic_output(tmp_path, capsys):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"algebra": {"family": "g4.7"}, "subspace": "known",
                               "body": {"disk": {"radius": 1.0}}}))
    _, first, _ = run(capsys, "classify", "--config", str(cfg))
    _, second, _ = run(capsys, "classify", "--config", str(cfg))
    assert first == second


def _set_g47_coefficient(text):
    return lambda fam: fam["rows"][0]["brackets"][0][2].update({"1": text})


def _set_g47_automorphism_entry(text):
    return lambda fam: fam["automorphisms"][0]["matrix"][0].__setitem__(0, text)


#: edits of the shipped catalog's g4.7 entry; None writes "[]" instead, and a
#: string replaces the entry
CATALOG_EDITS = {
    "not_a_catalog": None,
    "rows_deleted": lambda fam: fam.pop("rows"),
    "coefficient_syntax_error": _set_g47_coefficient("alpha +"),
    "bracket_index_9": lambda fam: fam["rows"][0]["brackets"][0].__setitem__(0, 9),
    "coefficient_import": _set_g47_coefficient("__import__"),
    "coefficient_attribute": _set_g47_coefficient("().__class__"),
    "coefficient_parameter_not_taken": _set_g47_coefficient("beta"),
    "coefficient_division_by_zero": _set_g47_coefficient("1 / 0"),
    "coefficient_complex": _set_g47_coefficient("(-1) ** 0.5"),
    "coefficient_beyond_float": _set_g47_coefficient("10 ** 400"),
    "coefficient_literal_beyond_float": _set_g47_coefficient("1" + "0" * 400),
    # powers that evaluate at once, but that the load-time bound refuses
    "automorphism_power_5": _set_g47_automorphism_entry("a1**5"),
    "automorphism_power_of_a_sum": _set_g47_automorphism_entry("(a1+1)**2"),
    "known_subspace_nan": lambda fam: fam["known_subspace"]["span"][0].__setitem__(0, "nan"),
    "row_condition_false": lambda fam: fam["rows"][0].update(condition="False"),
    "coefficient_a_number": _set_g47_coefficient(1.0),
    "rows_an_object": lambda fam: fam.update(rows={"0": fam["rows"][0]}),
    "unknown_parameter": lambda fam: fam.update(params=["gamma"]),
    "family_entry_a_string": "g4.7",
    "constraint_text_a_number": lambda fam: fam.update(constraint_text=5),
    "discrete_parameter_tau": lambda fam: fam["automorphisms"][0].update(discrete={"tau": [1]}),
    "automorphism_without_matrix": lambda fam: fam["automorphisms"][0].pop("matrix"),
}


@pytest.mark.parametrize("name", sorted(CATALOG_EDITS))
def test_corrupt_catalog_exits_3(tmp_path, capsys, monkeypatch, name):
    bad = tmp_path / "bad.json"
    edit = CATALOG_EDITS[name]
    if edit is None:
        bad.write_text("[]")
    else:
        data = json.loads((Path(catalog.__file__).parent / "data" / "catalog.json").read_text())
        families = data["families"]
        i = next(i for i, f in enumerate(families) if f["name"] == "g4.7")
        if isinstance(edit, str):
            families[i] = edit
        else:
            edit(families[i])
        bad.write_text(json.dumps(data))
    monkeypatch.setenv("ABNORM_CATALOG", str(bad))
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps({"jobs": [GOOD_JOB, dict(GOOD_JOB, algebra="g4.7")]}))
    for argv in (["catalog", "show", "g4.7"], ["sweep", "--config", str(sweep)]):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "" and "catalog" in err, (argv, err)
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)


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
    "nan_alpha": dict(GOOD_JOB, algebra={"family": "g4.2", "alpha": math.nan}),
    "inf_beta": dict(GOOD_JOB, algebra={"family": "g4.5", "alpha": 0.25, "beta": math.inf}),
    "nested_subspace": dict(GOOD_JOB, subspace=[[[1], [0], [0], [0]], [[0], [1], [0], [0]]]),
    "huge_integer_radius": dict(GOOD_JOB, body={"disk": {"radius": 10 ** 400}}),
    "huge_integer_subspace": dict(GOOD_JOB, subspace=[[10 ** 400, 0, 0, 0], [0, 1, 0, 0]]),
    "huge_integer_alpha": dict(GOOD_JOB, algebra={"family": "g4.2", "alpha": 10 ** 400}),
    "extra_alpha": dict(GOOD_JOB, algebra={"family": "g4.7", "alpha": 3}),
    "overflowing_brackets": dict(GOOD_JOB, algebra={"family": "g4.7"},
                                 subspace=[[1e110, 0, 0, 1e110], [0, 1e110, 1e110, 0]]),
    "dim3_body_does_not_parse": {"algebra": "g4.1", "body": {"polygon": "nonsense"},
                                 "subspace": [[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]},
    # a body or subspace number must be a JSON number that is not a boolean
    "string_radius": dict(GOOD_JOB, body={"disk": {"radius": "1"}}),
    "boolean_radius": dict(GOOD_JOB, body={"disk": {"radius": True}}),
    "string_polygon_vertex": dict(GOOD_JOB, body={
        "polygon": [[1, 1], [-1, 1], [-1, -1], ["1", "-1"]]}),
    "string_subspace_entry": dict(GOOD_JOB, subspace=[["1", 0, 0, 0], [0, 1, 0, 0]]),
    # the solve for [e2, e3] in the basis gives nan, inf, and an infinite
    # C423 (whose shift of e2 would warn): a canonical basis out of the float range
    "canonical_basis_nan": {
        "algebra": "g4.10",
        "subspace": [[5e-324, 0.873, 0.019, -0.632], [-0.899, 1e154, -1e300, -1.86]],
        "body": {"polygon": [[1.152, 1.152], [-1.152, 1.152], [-1.152, -1.152], [1.152, -1.152]]}},
    "canonical_basis_inf": {
        "algebra": "g3.6+g1",
        "subspace": [[-1.958, 1e154, 1e-300, -0.496], [-0.807, -0.431, 1e-160, -0.494]],
        "body": {"disk": {"radius": 1.308, "center": [0.178, 0.0895]}}},
    "canonical_basis_inf_c423": {
        "algebra": "g4.7",
        "subspace": [[-0.443, 0.303, -0.245, -1e154], [0.414, -0.315, -0.831, -1.357]],
        "body": {"ellipse": {"center": [0, 0], "matrix": [[2.987, 0.041], [0.041, 1.415]]}}},
    # body checks whose products would overflow: the square's edge cross
    # products, the disk's c^T Q c
    "square_out_of_range": dict(GOOD_JOB, algebra={"family": "g3.5+g1"}, body={
        "polygon": [[1e200, -1e200], [1e200, 1e200], [-1e200, 1e200], [-1e200, -1e200]]}),
    "disk_centre_out_of_range": dict(GOOD_JOB, algebra={"family": "g4.7"}, body={
        "disk": {"center": [1e153, -1e299], "radius": 1}}),
    # u2 = 1e150 along e2 = 1e200 E3: the velocity u2 e2 overflows
    "velocity_out_of_range": {"algebra": {"family": "g4.1"},
                              "subspace": [[0, 0, 0, 1e-100], [0, 0, 1e200, 0]],
                              "body": {"disk": {"radius": 1e150}}},
}
OUT_OF_RANGE_JOBS = ["canonical_basis_nan", "canonical_basis_inf", "canonical_basis_inf_c423"]


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


@pytest.mark.parametrize("name", OUT_OF_RANGE_JOBS)
def test_canonical_basis_out_of_range_is_refused(tmp_path, capsys, name):
    job = BAD_JOBS[name]
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps(job))
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps({"jobs": [GOOD_JOB, job, GOOD_JOB]}))
    out = tmp_path / "out.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(capsys, "classify", "--config", str(cfg))
        assert code == 2 and err.startswith("error: canonicalization out of numerical range")
        code, _, err = run(capsys, "sweep", "--config", str(sweep), "--out", str(out))
        assert code == 0 and err == ""
        results = json.loads(out.read_text())["results"]
        assert "out of numerical range" in results[1]["error"]
        assert [r["report"]["classification"]["verdict"] for r in (results[0], results[2])] == [
            "non-strict", "non-strict"]
        alg = instantiate(default_id(job["algebra"]))
        with pytest.raises(subspace.SubspaceError, match="out of numerical range"):
            classify(alg, Subspace(alg, job["subspace"]), Disk((0, 0), 1.0))


BODY_OUT_OF_RANGE = {"square_out_of_range": "polygon out of numerical range",
                     "disk_centre_out_of_range": "invalid body: origin not strictly interior"}


@pytest.mark.parametrize("name", sorted(BODY_OUT_OF_RANGE))
def test_body_out_of_range_is_refused(tmp_path, capsys, name):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps(BAD_JOBS[name]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "classify", "--config", str(cfg))
    assert code == 2 and out == "" and err == f"error: {BODY_OUT_OF_RANGE[name]}\n"


def test_velocity_out_of_range_is_refused(tmp_path, capsys):
    job = BAD_JOBS["velocity_out_of_range"]
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps(job))
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps({"jobs": [dict(GOOD_JOB, algebra={"family": "g4.7"}), job,
                                          GOOD_JOB]}))
    out = tmp_path / "out.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, err = run(capsys, "classify", "--config", str(cfg))
        assert code == 2 and stdout == ""
        assert err == "error: velocity u2 e2 out of numerical range\n"
        code, _, err = run(capsys, "sweep", "--config", str(sweep), "--out", str(out))
    assert code == 0 and err == ""
    results = json.loads(out.read_text())["results"]
    assert results[1] == {"job": 1, "error": "velocity u2 e2 out of numerical range"}
    assert [r["report"]["config"]["algebra"]["family"] for r in (results[0], results[2])] == [
        "g4.7", "g4.10"]


def test_sweep_records_a_report_the_encoder_refuses(tmp_path, capsys, monkeypatch):
    # a non-finite value in one job's report is that job's error, not the sweep's
    real = cli._classify_report
    monkeypatch.setattr(cli, "_classify_report",
                        lambda job: {"x": math.inf} if job == "inf" else real(job))
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"jobs": [GOOD_JOB, "inf", GOOD_JOB]}))
    out = tmp_path / "out.json"
    code, _, err = run(capsys, "sweep", "--config", str(cfg), "--out", str(out))
    assert code == 0 and err == ""
    results = json.loads(out.read_text())["results"]
    assert results[1]["job"] == 1
    assert results[1]["error"].startswith("Out of range float values are not JSON compliant")
    for r in (results[0], results[2]):
        assert r["report"]["classification"]["verdict"] == "non-strict"


@pytest.mark.parametrize("radius", [1e-170, 1e200])
def test_classify_disk_radius_out_of_range_exits_2(tmp_path, capsys, radius):
    # radius**2 underflows to 0 or overflows: refused before any numpy warning
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps(dict(GOOD_JOB, body={"disk": {"radius": radius}})))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(capsys, "classify", "--config", str(cfg))
    assert code == 2 and err == "error: disk radius out of numerical range\n"


@pytest.mark.parametrize("body", [
    {"ellipse": {"center": [0, 0], "matrix": [[1e-310, 0], [0, 1e-310]]}},
    {"ellipse": {"center": [0, 0], "matrix": [[1e-320, 0], [0, 1e-320]]}},
    {"disk": {"radius": 1e-155}},
])
def test_classify_subnormal_shape_matrix_exits_2(tmp_path, capsys, body):
    # the inverse of a subnormal shape matrix is not finite
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"algebra": {"family": "g4.7"}, "subspace": "known", "body": body}))
    code, _, err = run(capsys, "classify", "--config", str(cfg))
    assert code == 2 and err == "error: ellipse shape matrix out of numerical range\n"


@pytest.mark.parametrize("body", [
    {"ellipse": {"center": [0, 0], "matrix": [[1e-300, 0], [0, 1e-300]]}},
    {"disk": {"radius": 1e-150}},
])
def test_classify_tiny_centred_ellipse_is_nonstrict(tmp_path, capsys, body):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"algebra": {"family": "g4.7"}, "subspace": "known", "body": body}))
    code, out, _ = run(capsys, "classify", "--config", str(cfg), "--expect", "nonstrict")
    assert code == 0 and json.loads(out)["classification"]["consistent"]


@pytest.mark.parametrize("argv, message", [
    (["verify", "g4.7", "--alpha", "3"], "g4.7 takes no parameter alpha"),
    (["catalog", "show", "g4.7", "--alpha", "3"], "g4.7 takes no parameter alpha"),
    (["catalog", "show", "g4.2", "--alpha", "2", "--beta", "1"], "g4.2 takes no parameter beta"),
])
def test_extra_catalog_parameter_exits_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err == f"error: {message}\n"


@pytest.mark.parametrize("family", ["g4.2", "g4.9"])
def test_classify_nan_alpha_says_finite(tmp_path, capsys, family):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"algebra": {"family": family, "alpha": math.nan}}))
    code, _, err = run(capsys, "classify", "--config", str(cfg))
    assert code == 2 and f"{family}: alpha must be finite, got nan" in err


def test_sweep_records_nan_alpha(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"jobs": [
        GOOD_JOB, dict(GOOD_JOB, algebra={"family": "g4.2", "alpha": math.nan})]}))
    out = tmp_path / "out.json"
    code, _, _ = run(capsys, "sweep", "--config", str(cfg), "--out", str(out))
    assert code == 0
    results = json.loads(out.read_text())["results"]
    assert results[0]["report"]["classification"]["verdict"] == "non-strict"
    assert results[1] == {"job": 1, "error": "g4.2: alpha must be finite, got nan"}


def test_catalog_show_nan_alpha_exits_2(capsys):
    code, _, err = run(capsys, "catalog", "show", "g4.8", "--alpha", "nan")
    assert code == 2 and "alpha must be finite" in err


BAD_INVOCATIONS = {
    "classify_unwritable_out": ["classify", "--config", "{cfg}", "--out", "{missing}"],
    "ode_unwritable_out": ["ode", "--config", "{cfg}", "-T", "0.01", "--out", "{missing}"],
    "catalog_list_unwritable_out": ["catalog", "list", "--out", "{missing}"],
    "catalog_show_without_id": ["catalog", "show"],
    "verify_overflowing_alpha": ["verify", "g4.9", "--alpha", "1e200"],
    "sweep_without_jobs": ["sweep", "--config", "{cfg}"],
}


@pytest.mark.parametrize("name", sorted(BAD_INVOCATIONS))
def test_bad_invocation_exits_2(tmp_path, capsys, name):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps(GOOD_JOB))
    paths = {"cfg": str(cfg), "missing": str(tmp_path / "no_such_dir" / "out")}
    code, _, err = run(capsys, *[arg.format(**paths) for arg in BAD_INVOCATIONS[name]])
    assert code == 2 and err.startswith("error: ")


def test_ode_psi0_takes_a_separate_negative_value(tmp_path, capsys):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"algebra": {"family": "g4.10"}, "subspace": "known"}))
    joined = run(capsys, "ode", "--config", str(cfg), "-T", "0.1", "--psi0=-0.5,0.5,0.5,0.5")
    separate = run(capsys, "ode", "--config", str(cfg), "-T", "0.1", "--psi0", "-0.5,0.5,0.5,0.5")
    assert joined[0] == 0 and separate == joined


@pytest.mark.parametrize("separate, joined", [
    (["verify", "g4.5", "--alpha", "-1e3", "--beta", "1e3"],
     ["verify", "g4.5", "--alpha=-1e3", "--beta", "1e3"]),
    (["catalog", "show", "g4.8", "--alpha", "-5e-1"], ["catalog", "show", "g4.8", "--alpha=-5e-1"]),
    (["ode", "--config", "{cfg}", "-T", "0.01", "--psi", "-0.5,0.5,0.5,0.5"],
     ["ode", "--config", "{cfg}", "-T", "0.01", "--psi0=-0.5,0.5,0.5,0.5"]),
    (["ode", "--config", "{cfg}", "-T", "0.01", "--psi0", "-.5,0.5,0.5,0.5"],
     ["ode", "--config", "{cfg}", "-T", "0.01", "--psi0=-.5,0.5,0.5,0.5"]),
], ids=["verify_alpha", "catalog_alpha", "ode_psi_abbreviation", "ode_psi0_leading_dot"])
def test_negative_option_value_may_be_separate(tmp_path, capsys, separate, joined):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps(GOOD_JOB))
    got = run(capsys, *[arg.format(cfg=cfg) for arg in separate])
    assert "expected one argument" not in got[2]
    assert got == run(capsys, *[arg.format(cfg=cfg) for arg in joined])


@pytest.mark.parametrize("family", ["g4.2", "g3.4+g1", "g3.5+g1", "g4.9", "g4.6"])
def test_large_parameters_classify_or_report_numerical_range(tmp_path, capsys, family):
    cfg = tmp_path / "job.json"
    # alpha = 1 is outside the parameters of g3.4+g1 and has no known
    # generating subspace in g4.2
    alphas = [10 ** (j / 4) for j in range(41) if j or family not in ("g4.2", "g3.4+g1")]
    for alpha in alphas + [1e200]:
        algebra = {"family": family, "alpha": alpha} | ({"beta": alpha} if family == "g4.6" else {})
        for body in ({"disk": {"radius": 1.0}}, {"disk": {"center": [0.5, 0], "radius": 1.0}}):
            cfg.write_text(json.dumps({"algebra": algebra, "subspace": "known", "body": body}))
            code, out, err = run(capsys, "classify", "--config", str(cfg))
            if code == 0:
                assert json.loads(out)["classification"]["consistent"], alpha
            else:
                assert code == 2 and "out of numerical range" in err, (alpha, err)


def test_verify_large_equal_parameters(capsys):
    code, out, _ = run(capsys, "verify", "g4.6", "--alpha", "1e3", "--beta", "1e3")
    assert code == 0 and json.loads(out)["pass"]


@pytest.mark.parametrize("algebra, argv", [
    ({"family": "g4.2", "alpha": 1e200}, ["classify", "--config", "{cfg}"]),
    ({"family": "g4.9", "alpha": 1e200}, ["classify", "--config", "{cfg}"]),
    ({"family": "g3.4+g1", "alpha": 1e200}, ["classify", "--config", "{cfg}"]),
    ({"family": "g4.6", "alpha": 1e200, "beta": 1e200}, ["classify", "--config", "{cfg}"]),
    (None, ["verify", "g3.4+g1", "--alpha", "1e200"]),
], ids=["g4.2", "g4.9", "g3.4+g1", "g4.6", "verify_g3.4+g1"])
def test_generation_out_of_numerical_range_exits_2(tmp_path, capsys, algebra, argv):
    # the brackets dwarf the unit rows of the subspace: the flag would
    # shrink to [2, 1] and wrongly report "does not generate"
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"algebra": algebra, "subspace": "known"}))
    code, _, err = run(capsys, *[arg.format(cfg=cfg) for arg in argv])
    assert code == 2 and "out of numerical range" in err


SCIPY_BLOCKED = """
import json, sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError("scipy is blocked: " + name)

sys.meta_path.insert(0, BlockScipy())
from abnorm.cli import main

codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "scipy": [m for m in sys.modules if m.startswith("scipy")]}))
"""


def test_commands_run_with_scipy_blocked(tmp_path):
    job, sweep = tmp_path / "job.json", tmp_path / "sweep.json"
    job.write_text(json.dumps(GOOD_JOB))
    sweep.write_text(json.dumps({"jobs": [GOOD_JOB, dict(GOOD_JOB, algebra={"family": "g4.7"})]}))
    cmds = [
        ["classify", "--config", str(job), "--out", str(tmp_path / "c.json")],
        ["ode", "--config", str(job), "-T", "1", "--out", str(tmp_path / "t.csv")],
        ["sweep", "--config", str(sweep), "--out", str(tmp_path / "s.json")],
        ["verify", "all", "--out", str(tmp_path / "v.json")],
    ]
    src = str(Path(abnorm.__file__).resolve().parents[1])
    res = subprocess.run([sys.executable, "-c", SCIPY_BLOCKED, json.dumps(cmds)],
                         capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert json.loads(res.stdout.splitlines()[-1]) == {"codes": [0, 0, 0, 0], "scipy": []}
    assert json.loads((tmp_path / "v.json").read_text())["pass"]
    assert all("report" in r for r in json.loads((tmp_path / "s.json").read_text())["results"])


def test_import_leaves_out_the_cli():
    # the parser is built on the first main call, not when abnorm is imported
    src = str(Path(abnorm.__file__).resolve().parents[1])
    res = subprocess.run(
        [sys.executable, "-c", "import sys, abnorm; "
         "print(sorted({'abnorm.cli', 'argparse'} & set(sys.modules)))"],
        capture_output=True, text=True, check=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=60)
    assert res.stdout.strip() == "[]"


def test_parser_is_built_once_and_reuse_changes_nothing(tmp_path, capsys, monkeypatch):
    job, sweep, out = tmp_path / "job.json", tmp_path / "sweep.json", tmp_path / "out"
    job.write_text(json.dumps(GOOD_JOB))
    sweep.write_text(json.dumps({"jobs": [GOOD_JOB, dict(GOOD_JOB, algebra={"family": "g4.7"})]}))
    calls = [
        ["classify", "--config", job, "--out", out],
        ["classify"],
        ["classify", "--config", job, "--expect", "maybe"],
        ["--help"],
        ["ode", "--config", job, "--psi0", "-0.5,0.5,0.5,0.5", "-T", "0.01", "--out", out],
        ["ode", "--config", job, "--psi", "-.5,.5,.5,.5", "-T", "0.01"],
        ["catalog", "show", "g4.7"],
        ["verify", "g4.7"],
        ["sweep", "--config", sweep, "--out", out],
        ["classify", "--config", job, "--expect", "nonstrict"],
    ]

    def run_all():
        results = []
        for argv in calls:
            code, stdout, stderr = run(capsys, *map(str, argv))
            results.append((code, stdout, stderr, out.read_bytes() if out.exists() else None))
            out.unlink(missing_ok=True)
        return results

    parser = cli.build_parser()
    built = cli.build_parser.cache_info().misses
    reused = run_all()
    assert cli.build_parser() is parser and cli.build_parser.cache_info().misses == built
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert reused == run_all()
    assert [r[0] for r in reused] == [0, 2, 2, 0, 0, 0, 0, 0, 0, 0]
    assert "usage: abnorm classify" in reused[1][2] and "usage: abnorm" in reused[3][1]
    assert reused[0][3] is not None and reused[4][3] is not None and reused[8][3] is not None


def test_catalog_show_huge_alpha_exits_0(capsys):
    # only verify samples the automorphism table, where alpha**2 overflows
    code, out, _ = run(capsys, "catalog", "show", "g4.9", "--alpha", "1e200")
    assert code == 0 and json.loads(out)["automorphism_branches"] == 1


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


@pytest.mark.parametrize("job, argv", [
    # c23 near (9.6e17, 0, -2.0e9): psi4 reaches 6e23 after one step, then overflows
    ({"algebra": {"family": "g4.7"}, "subspace": [[0.3, -1, 2, 0.3], [0, 0.3, 2, 1e9]],
      "body": {"disk": {"center": [0.1, 0], "radius": 1}}, "options": {"s": -1}},
     ["-T", "0.05"]),
    # u2 = 1e150: the one-step matrix overflows
    ({"algebra": {"family": "g4.7"}, "subspace": "known",
      "body": {"ellipse": {"center": [0, 0], "matrix": [[1, 0.5], [0.5, 1e300]]}}}, []),
    # C123 near 3.4e307: the 1-norm of a * dt lies in [2^1023, 2^1024), where
    # expm's scaling 2.0 ** 1024 used to raise OverflowError
    ({"algebra": {"family": "g4.7"}, "subspace": [[0.3, -1, 2, 0.3], [0, 0.3, 2, 6e153]],
      "body": {"disk": {"center": [0.1, 0], "radius": 1}}}, ["-T", "4.378", "--dt", "4.378"]),
])
def test_ode_non_finite_trajectory_exits_2(tmp_path, capsys, job, argv):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps(job))
    out_csv = tmp_path / "traj.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "ode", "--config", str(cfg), "--out", str(out_csv), *argv)
    assert code == 2 and out == "" and not out_csv.exists()
    assert err.startswith("error: the trajectory leaves the float range") and err.count("\n") == 1


@pytest.mark.parametrize("options", [[], {"s": 2}, {"s": "x"}, {"s": True}])
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


# -- one analysis pass per classify job ------------------------------------

#: config, then the calls of a job with the per-id cache cleared, and of the
#: same job again: the known subspace's results are cached with the table
ONE_PASS_JOBS = {
    "known_disk": ({"algebra": {"family": "g4.7"}, "subspace": "known",
                    "body": {"disk": {"radius": 1.0}}}, (1, 1, 1), (0, 0, 0)),
    "sl2_typing": ({"algebra": {"family": "g3.6+g1"}, "subspace": [[1, 0, 0, 0], [0, 0, 1, 1]],
                    "body": {"polygon": [[1, 0], [0, 1], [-2, 0], [0, -1]]}}, (1, 1, 1),
                   (0, 1, 1)),
    "dim3": ({"algebra": {"family": "g4.1"},
              "subspace": [[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}, (1, 1, 0), (0, 1, 0)),
}


def count_pipeline_calls(monkeypatch) -> dict:
    """Count the calls of instantiate, generates and canonical_basis, with
    the per-id cache cleared first."""
    cli._algebra_cached.cache_clear()
    counts = {}
    for owner, fname in [(catalog, "instantiate"), (subspace, "generates"),
                         (subspace, "canonical_basis")]:
        fn = getattr(owner, fname)
        counts[fname] = 0

        def counted(*args, _fn=fn, _name=fname, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        # every module binding, as ``from .subspace import generates`` copies it
        for mod in [m for n, m in sys.modules.items() if n.split(".")[0] == "abnorm"]:
            if getattr(mod, fname, None) is fn:
                monkeypatch.setattr(mod, fname, counted)
    return counts


@pytest.mark.parametrize("name", sorted(ONE_PASS_JOBS))
def test_classify_job_runs_its_pipeline_once(monkeypatch, name):
    counts = count_pipeline_calls(monkeypatch)
    cfg, cold, warm = ONE_PASS_JOBS[name]
    first = cli._classify_report(cfg)
    assert (counts["instantiate"], counts["generates"], counts["canonical_basis"]) == cold
    counts.update(dict.fromkeys(counts, 0))
    assert cli._classify_report(cfg) == first
    assert (counts["instantiate"], counts["generates"], counts["canonical_basis"]) == warm


def test_ode_runs_its_pipeline_once(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps(ONE_PASS_JOBS["known_disk"][0]))
    counts = count_pipeline_calls(monkeypatch)
    code, _, _ = run(capsys, "ode", "--config", str(cfg), "-T", "0.01")
    assert code == 0
    assert (counts["instantiate"], counts["generates"], counts["canonical_basis"]) == (1, 1, 1)
    counts.update(dict.fromkeys(counts, 0))
    assert run(capsys, "ode", "--config", str(cfg), "-T", "0.01")[0] == 0
    assert (counts["instantiate"], counts["generates"], counts["canonical_basis"]) == (0, 0, 0)


GATE_BODIES = [Disk((0, 0), 1.0), Disk((0.5, 0.0), 1.0),
               Polygon([[1, -1], [1, 1], [-1, 1], [-1, -1]]),
               Polygon([[1, 0], [0, 1], [-2, 0], [0, -1]])]


@pytest.mark.parametrize("family", ["g4.7", "g3.6+g1", "g4.10"])
def test_subspace_keeps_its_generation_and_canonical_basis(monkeypatch, family):
    # one subspace against many bodies: generates and canonical_basis run once
    aid = default_id(family)
    alg = instantiate(aid)
    p = Subspace(alg, np.stack(known_generating_subspace(aid).span))
    counts = count_pipeline_calls(monkeypatch)
    for body in GATE_BODIES:
        classify(alg, p, body)
        theorem3_dispatch(aid, p, body)
    assert (counts["generates"], counts["canonical_basis"]) == (1, 1)
    assert p.canonical is p.canonical and p.generation is p.generation


def test_dim3_subspace_keeps_its_generation(monkeypatch):
    alg = instantiate(default_id("g4.1"))
    p = Subspace(alg, np.eye(4)[[0, 2, 3]])
    counts = count_pipeline_calls(monkeypatch)
    verdicts = {classify_dim3(alg, p).verdict for _ in GATE_BODIES}
    assert verdicts == {Dim3Verdict.NonStrictForAllMetrics}
    assert (counts["generates"], counts["canonical_basis"]) == (1, 0)


def _assert_close(got, want):
    assert np.allclose(got, want, rtol=0.0, atol=1e-12), (got, want)


@pytest.mark.parametrize("family", [
    f for f in list_families()
    if known_generating_subspace(default_id(f)) is not None
])
def test_classify_report_matches_public_functions(family):
    aid = default_id(family)
    alg = instantiate(aid)
    p = Subspace(alg, np.stack(known_generating_subspace(aid).span))
    basis = canonical_basis(alg, p)
    bodies = [Disk((0, 0), 1.0), Disk((0.5, 0.0), 1.0),
              Polygon([[1, -1], [1, 1], [-1, 1], [-1, -1]]),
              Polygon([[1, 0], [0, 1], [-2, 0], [0, -1]])]
    for body in bodies:
        rep = cli._classify_report({
            "algebra": {"family": family, "alpha": aid.alpha, "beta": aid.beta},
            "subspace": "known", "body": body_to_config(body)})
        for key in ("e1", "e2", "e3", "e4", "c23"):
            _assert_close(rep["canonical"][key], getattr(basis, key))
        crit = classify(alg, p, body)
        descs = crit.directions.values()
        assert [(e["s"], e["label"]) for e in rep["extremals"]] == [
            (d.s, "one-parameter subgroup exp(t * velocity)") for d in descs]
        for e, d in zip(rep["extremals"], descs):
            _assert_close(e["velocity"], d.velocity)
        disp = theorem3_dispatch(aid, p, body)
        got = rep["classification"]
        for s, d in crit.directions.items():
            g = got["directions"][str(s)]
            assert (g["verdict"], g["reason"], g["pmp_max"]) == (
                d.verdict.value, d.reason.value, int(d.witness is not None))
            assert (g["witness"] is None) == (d.witness is None)
            for k, v in (d.witness or {}).items():
                if isinstance(v, str):
                    assert g["witness"][k] == v
                else:
                    _assert_close(g["witness"][k], v)
        assert got["verdict"] == crit.combined.value == disp.criterion_verdict.value
        assert got["oracle_verdict"] == disp.oracle_verdict.value
        assert got["summary_case"] == disp.case
        assert got["summary_verdict"] == (
            None if disp.summary_verdict is None else disp.summary_verdict.value)
        assert (got["consistent"], got["flagged_tension"], got["sl2_type"]) == (
            disp.consistent, disp.flagged_tension, disp.sl2_type)


# -- exit codes on random job configs ---------------------------------------

_NUMBER = st.one_of(st.floats(-3, 3), st.floats(allow_nan=True, allow_infinity=True),
                    st.integers(), st.sampled_from([1e300, -1e-300, 10 ** 400]))
_JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=3), _NUMBER,
                  st.lists(_NUMBER, max_size=3),
                  st.dictionaries(st.text(max_size=3), _NUMBER, max_size=2))
_VECTOR = st.lists(st.one_of(_NUMBER, _JUNK), max_size=5)
_POINT = st.one_of(st.lists(_NUMBER, min_size=2, max_size=2), _VECTOR, _JUNK)
_FAMILY = st.one_of(st.sampled_from(["g4.7", "g4.10", "g3.7+g1", "g3.6+g1", "g4.1", "g4.2",
                                     "g4.5", "g4.8", "g4.9", "g9.9"]), _JUNK)
_ALGEBRA = st.one_of(_FAMILY, st.fixed_dictionaries(
    {"family": _FAMILY},
    optional={"alpha": st.one_of(_NUMBER, _JUNK), "beta": st.one_of(_NUMBER, _JUNK)}))
_SUBSPACE = st.one_of(
    st.just("known"), _JUNK,
    st.lists(st.lists(_NUMBER, min_size=4, max_size=4), min_size=2, max_size=3),
    st.lists(_VECTOR, max_size=4),  # ragged or short
    st.lists(st.lists(st.lists(_NUMBER, min_size=1, max_size=1), min_size=4, max_size=4),
             min_size=2, max_size=2),  # one level too deep
)
# entries from 5e-324 to 1e300, where the body checks' products over- or underflow
_TINY_OR_HUGE = st.tuples(
    st.sampled_from([1.0, -1.0]),
    st.one_of(st.sampled_from([5e-324, 1e-300, 1e-160, 1e154, 1e200, 1e300]),
              st.integers(-323, 300).map(lambda e: 10.0 ** e)),
).map(lambda t: t[0] * t[1])
_COORD = st.one_of(st.floats(-3, 3), _TINY_OR_HUGE)
_PAIR = st.lists(_COORD, min_size=2, max_size=2)
_SQUARE = [[1, -1], [1, 1], [-1, 1], [-1, -1]]
_EXTREME_BODY = st.one_of(
    st.builds(lambda r, c: {"polygon": [[r * x + c[0], r * y + c[1]] for x, y in _SQUARE]},
              _TINY_OR_HUGE, _PAIR),
    st.fixed_dictionaries({"polygon": st.lists(_PAIR, min_size=3, max_size=6)}),
    st.fixed_dictionaries({"disk": st.fixed_dictionaries({"center": _PAIR,
                                                          "radius": _TINY_OR_HUGE})}),
    st.builds(lambda c, d, e: {"ellipse": {"center": c, "matrix": [[d[0], e], [e, d[1]]]}},
              _PAIR, _PAIR, _COORD),
)
_BODY = st.one_of(
    _JUNK,
    st.fixed_dictionaries({"disk": st.one_of(_JUNK, st.fixed_dictionaries(
        {}, optional={"center": _POINT, "radius": st.one_of(_NUMBER, _JUNK)}))}),
    st.fixed_dictionaries({"polygon": st.one_of(_JUNK, st.lists(_POINT, max_size=6))}),
    st.fixed_dictionaries({"ellipse": st.one_of(_JUNK, st.fixed_dictionaries(
        {}, optional={"center": _POINT,
                      "matrix": st.one_of(st.lists(_POINT, max_size=3), _JUNK)}))}),
)
# a well-formed job whose numbers may over- or underflow
_EXTREME_JOB = st.fixed_dictionaries({
    "algebra": st.sampled_from(["g4.7", "g4.10", "g3.5+g1", "g3.6+g1", "g3.7+g1", "g4.2"]),
    "subspace": st.one_of(st.just("known"), st.lists(
        st.lists(_COORD, min_size=4, max_size=4), min_size=2, max_size=2)),
    "body": _EXTREME_BODY})
_JOB = st.one_of(_JUNK, _EXTREME_JOB, st.fixed_dictionaries(
    {}, optional={"algebra": _ALGEBRA, "subspace": _SUBSPACE, "body": _BODY}))
# derandomized so that the suite is repeatable; about 2 s for the three tests
_FUZZ = settings(max_examples=120, deadline=None, derandomize=True,
                 suppress_health_check=[HealthCheck.too_slow])


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _main_strict(argv) -> tuple:
    """Exit code and stderr of main, with every RuntimeWarning an error."""
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        code = main(argv)
    return code, err.getvalue()


@_FUZZ
@given(job=_JOB)
def test_classify_exit_code_on_random_config(fuzz_dir, job):
    cfg = fuzz_dir / "job.json"
    cfg.write_text(json.dumps(job))
    code, err = _main_strict(["classify", "--config", str(cfg), "--out", str(fuzz_dir / "out.json")])
    assert code in (0, 2, 4)
    # a report the JSON encoder refuses is a non-finite number that went unchecked
    assert "Out of range float values" not in err


_ODE_JOB = st.one_of(_JOB, st.builds(
    lambda job, s: dict(job, options={"s": s}), _EXTREME_JOB,
    st.one_of(st.sampled_from([1, -1, 1.0]), _JUNK)))
# at most 50 steps, so that no example allocates a long trajectory
_ODE_ARGS = st.lists(st.one_of(
    st.sampled_from([["-T", "0.5"], ["-T", "1e-300"], ["-T", "nan"], ["--dt", "0.05"],
                     ["--dt", "-1"], ["--dt", "inf"]]),
    st.lists(st.one_of(_COORD, st.sampled_from([math.nan, math.inf])), min_size=4,
             max_size=4).map(lambda psi0: ["--psi0=" + ",".join(map(repr, psi0))]),
), max_size=3).map(lambda args: ["-T", "0.1", "--dt", "0.01"] + sum(args, []))


@_FUZZ
@given(job=_ODE_JOB, args=_ODE_ARGS)
def test_ode_exit_code_on_random_config(fuzz_dir, job, args):
    cfg = fuzz_dir / "ode.json"
    cfg.write_text(json.dumps(job))
    code, err = _main_strict(["ode", "--config", str(cfg), "--out", str(fuzz_dir / "traj.csv"),
                              *args])
    assert code in (0, 2, 4)
    assert "Out of range float values" not in err


@_FUZZ
@given(jobs=st.lists(_JOB, max_size=4))
def test_sweep_one_result_per_random_job(fuzz_dir, jobs):
    cfg = fuzz_dir / "sweep.json"
    cfg.write_text(json.dumps({"jobs": jobs}))
    out = fuzz_dir / "sweep_out.json"
    code, err = _main_strict(["sweep", "--config", str(cfg), "--out", str(out)])
    assert code == 0 and "Out of range float values" not in err
    assert [r["job"] for r in json.loads(out.read_text())["results"]] == list(range(len(jobs)))


# -- the per-process cache of catalog-derived data ---------------------------

def _g47_variant(path):
    """Write to ``path`` a catalog whose g4.7 has another [E2, E3] coefficient
    (3 for 1) and known span."""
    data = json.loads((Path(catalog.__file__).parent / "data" / "catalog.json").read_text())
    fam = next(f for f in data["families"] if f["name"] == "g4.7")
    fam["rows"][0]["brackets"][3][2]["1"] = "3"
    fam["known_subspace"]["span"][1] = ["0", "0", "1", "2"]
    path.write_text(json.dumps(data))
    return str(path)


def test_catalog_data_comes_from_its_own_package(tmp_path, monkeypatch):
    # a copy of the package under another name reads the data file it ships
    copy = tmp_path / "abnorm_copy"
    shutil.copytree(Path(abnorm.__file__).parent, copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    _g47_variant(copy / "data" / "catalog.json")
    monkeypatch.delenv("ABNORM_CATALOG", raising=False)
    monkeypatch.syspath_prepend(str(tmp_path))
    try:
        copied = importlib.import_module("abnorm_copy.catalog")
        assert copied.instantiate(copied.default_id("g4.7")).c[1, 2, 0] == 3.0
    finally:
        for name in [n for n in sys.modules if n.split(".")[0] == "abnorm_copy"]:
            del sys.modules[name]
    assert instantiate(default_id("g4.7")).c[1, 2, 0] == 1.0


def test_catalog_switch_gives_each_file_its_own_data(tmp_path, capsys, monkeypatch):
    variant = _g47_variant(tmp_path / "variant.json")
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"algebra": "g4.7", "subspace": "known"}))

    def outputs():
        return [run(capsys, *argv) for argv in (["catalog", "show", "g4.7"],
                                                ["classify", "--config", str(job)],
                                                ["verify", "g4.7"])]

    seen = {}
    for path in (None, variant, None, variant):
        if path is None:
            monkeypatch.delenv("ABNORM_CATALOG", raising=False)
        else:
            monkeypatch.setenv("ABNORM_CATALOG", path)
        got = outputs()
        cli._algebra_cached.cache_clear()
        assert got == outputs()  # what a process with no cached id prints
        assert seen.setdefault(path, got) == got
    shipped, changed = seen[None], seen[variant]
    assert json.loads(shipped[0][1])["known_subspace"][1] == [0.0, 0.0, 0.0, 1.0]
    assert json.loads(changed[0][1])["known_subspace"][1] == [0.0, 0.0, 1.0, 2.0]
    assert json.loads(changed[1][1])["config"]["subspace"][1] == [0.0, 0.0, 1.0, 2.0]
    assert shipped[0][1] != changed[0][1] and shipped[1][1] != changed[1][1]


def test_cached_arrays_are_read_only():
    data = cli._algebra(default_id("g4.7"))
    basis = data.known.canonical
    arrays = [data.alg.c, data.known.basis, data.known.orthonormal, basis.e1, basis.e2,
              basis.e3, basis.e4, basis.c23, basis.frame_from_spanners]
    for a in arrays:
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 1.0
    assert cli._algebra(default_id("g4.7")) is data


@pytest.mark.parametrize("family, values", [("g4.9", [1, 1.0]), ("g4.8", [-0.0, 0.0])])
def test_equal_parameters_print_their_own_value(tmp_path, capsys, family, values):
    texts = {}
    for clear in (True, False):
        for v in values + values[::-1]:
            if clear:
                cli._algebra_cached.cache_clear()
            cfg = tmp_path / "job.json"
            cfg.write_text(json.dumps({"algebra": {"family": family, "alpha": v}}))
            code, out, _ = run(capsys, "classify", "--config", str(cfg))
            assert code == 0 and texts.setdefault(repr(v), out) == out
            assert f'"alpha": {json.dumps(v)},' in out
    assert texts[repr(values[0])] != texts[repr(values[1])]


def test_corrupt_catalog_is_not_cached(tmp_path, capsys, monkeypatch):
    bad = tmp_path / "bad.json"
    bad.write_text("[]")
    monkeypatch.setenv("ABNORM_CATALOG", str(bad))
    for _ in range(2):
        code, out, err = run(capsys, "catalog", "show", "g4.7")
        assert code == 3 and out == "" and err.startswith("error: ") and err.count("\n") == 1
    monkeypatch.delenv("ABNORM_CATALOG")
    code, out, _ = run(capsys, "catalog", "show", "g4.7")
    assert code == 0 and json.loads(out)["id"] == "g4.7"


def test_warm_caches_write_the_same_bytes(tmp_path, capsys):
    job, sweep, out = tmp_path / "job.json", tmp_path / "sweep.json", tmp_path / "out"
    configs = {
        "known": GOOD_JOB,
        "g47": {"algebra": "g4.7", "subspace": "known",
                "body": {"ellipse": {"center": [0.1, 0], "matrix": [[1, 0.2], [0.2, 0.5]]}}},
        "span": {"algebra": {"family": "g3.6+g1"}, "subspace": [[1, 0, 0, 0], [0, 0, 1, 1]],
                 "body": {"polygon": [[1, 0], [0, 1], [-2, 0], [0, -1]]}},
        "neg_zero": {"algebra": {"family": "g4.8", "alpha": -0.0}},
        "zero": {"algebra": {"family": "g4.8", "alpha": 0.0}},
        "dim3": {"algebra": "g4.1", "subspace": [[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]},
        "no_known": {"algebra": "g3.1+g1"},
    }
    paths = {}
    for name, cfg in configs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(cfg))
    job.write_text(json.dumps(GOOD_JOB))
    sweep.write_text(json.dumps({"jobs": list(configs.values()) + [BAD_JOBS["string_radius"]]}))
    calls = [["classify", "--config", paths[name], "--out", out] for name in configs]
    calls += [
        ["ode", "--config", paths["g47"], "-T", "0.05", "--out", out],
        ["ode", "--config", paths["span"], "--psi0=-0.5,0.5,0.5,0.5", "-T", "0.05"],
        ["sweep", "--config", sweep, "--out", out],
        ["verify", "g4.8", "--alpha", "-0.0"],
        ["catalog", "show", "g4.9", "--alpha", "1"],
        ["classify", "--config", paths["known"], "--expect", "strict"],
        ["classify", "--config", paths["g47"]],
    ]

    def run_all(clear):
        results = []
        for argv in calls + calls[::-1]:
            if clear:
                cli._algebra_cached.cache_clear()
                catalog._load_raw_cached.cache_clear()
            code, stdout, stderr = run(capsys, *map(str, argv))
            results.append((code, stdout, stderr, out.read_bytes() if out.exists() else None))
            out.unlink(missing_ok=True)
        return results

    warm = run_all(clear=False)
    assert warm == run_all(clear=True)
    assert [r[0] for r in warm[:len(calls)]] == [0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 1, 0]
