import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import duke
from duke import cli
from duke.cli import main
from duke.report import Report, fmt_float


@pytest.fixture()
def example_files(tmp_path, worked_example):
    emb, w = worked_example
    pts = tmp_path / "points.csv"
    wfile = tmp_path / "weights.csv"
    np.savetxt(pts, emb.features, delimiter=",", fmt="%.17g")
    np.savetxt(wfile, w.values[:, None], delimiter=",", fmt="%.17g")
    return str(pts), str(wfile)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_select_worked_example(capsys, example_files):
    pts, w = example_files
    code, out, err = run_cli(
        capsys, "select", "--embeddings", pts, "--weights", w,
        "--metric", "euclidean", "--k", "8", "--lambda", "1", "--gamma", "2",
    )
    assert code == 0
    rep = Report.from_text(out)
    assert rep.get("solution", "objective") == "6"
    assert rep.get("solution", "indices") == "0,4,1,2,3,5,6,7"
    assert rep.get("solution", "radius_term") == "2"
    assert rep.get("config", "method") == "duke"


def test_select_report_is_reproducible(capsys, example_files):
    pts, w = example_files
    args = ("select", "--embeddings", pts, "--weights", w,
            "--metric", "euclidean", "--k", "8", "--lambda", "1")
    _, out_a, _ = run_cli(capsys, *args)
    _, out_b, _ = run_cli(capsys, *args)
    rep_a, rep_b = Report.from_text(out_a), Report.from_text(out_b)
    # timing varies run to run; everything else must be byte equal
    for section in ("config", "trace", "solution"):
        assert rep_a.section(section) == rep_b.section(section)


def test_select_gamma_grid_trace(capsys, example_files):
    pts, w = example_files
    code, out, _ = run_cli(
        capsys, "select", "--embeddings", pts, "--weights", w,
        "--metric", "euclidean", "--k", "8", "--lambda", "1", "--gamma-grid", "8",
    )
    assert code == 0
    rep = Report.from_text(out)
    trace = rep.section("trace")
    assert len(trace) == 8
    best = float(rep.get("solution", "objective"))
    assert best == min(float(v) for _, v in trace)


def _without_timing(text):
    rep = Report.from_text(text)
    rep.sections = [sec for sec in rep.sections if sec[0] != "timing"]
    return rep.to_text()


def test_select_early_stop_keeps_the_report(capsys, monkeypatch, example_files):
    from dataclasses import replace

    from duke import cli
    from duke.dataset import load_embeddings, load_weights
    from duke.wkcenter import GammaSpan, weighted_objective

    pts, w = example_files
    args = ("select", "--embeddings", pts, "--weights", w, "--metric",
            "euclidean", "--k", "4", "--lambda", "1")
    runs, report_span = [], [True]

    def counted(selector):
        def run(*a, **kw):
            runs.append(1)
            sol = selector(*a, **kw)
            # a span that holds no larger gamma leaves nothing to skip
            return sol if report_span[0] else replace(sol, span=GammaSpan(np.inf))
        return run

    monkeypatch.setattr(cli, "weighted_kcenter", counted(cli.weighted_kcenter))
    code, early, _ = run_cli(capsys, *args)
    assert code == 0
    # on this instance the spans cover 8 grid gammas with 3 runs
    assert len(runs) == 3

    # with nothing to skip the search runs the whole grid
    runs.clear()
    report_span[0] = False
    _, full, _ = run_cli(capsys, *args)
    assert len(runs) == 8

    assert _without_timing(early) == _without_timing(full)
    rep = Report.from_text(early)
    assert len(rep.section("trace")) == 8
    assert "far_rounds" not in early
    # the selector's own scoring stands in for the final evaluation
    inds = [int(t) for t in rep.get("solution", "indices").split(",")]
    radius, wsum, obj = weighted_objective(
        load_embeddings(pts), "euclidean", load_weights(w), 1.0, inds)
    assert rep.get("solution", "radius_term") == fmt_float(radius)
    assert rep.get("solution", "weight_term") == fmt_float(wsum)
    assert rep.get("solution", "objective") == fmt_float(obj)


def test_select_parallel_and_baseline_methods(capsys, example_files):
    pts, w = example_files
    for extra in (
        ("--method", "parallel", "--machines", "2"),
        ("--method", "greedy-kcenter"),
        ("--method", "random"),
        ("--method", "margin"),
        ("--method", "submodular", "--knn", "5"),
    ):
        code, out, _ = run_cli(
            capsys, "select", "--embeddings", pts, "--weights", w,
            "--metric", "euclidean", "--k", "8", "--lambda", "1", "--gamma", "2", *extra,
        )
        assert code == 0, extra
        rep = Report.from_text(out)
        inds = [int(t) for t in rep.get("solution", "indices").split(",")]
        assert len(inds) == 8
        # every method's report carries a full evaluation
        assert rep.get("solution", "objective") is not None
        assert float(rep.get("solution", "radius_term")) >= 0.0


def test_select_margin_from_probabilities(capsys, tmp_path, example_files):
    pts, _ = example_files
    probs = tmp_path / "probs.csv"
    # rows engineered so margins are 0.5 for the first eight points and
    # 1.0 for the rest, mirroring the canonical weights reversed
    rows = [[0.75, 0.25]] * 8 + [[1.0, 0.0]] * 6
    np.savetxt(probs, np.asarray(rows), delimiter=",", fmt="%.17g")
    code, out, _ = run_cli(
        capsys, "select", "--embeddings", pts, "--probs", str(probs),
        "--metric", "euclidean", "--k", "2", "--lambda", "1", "--gamma", "2",
        "--method", "margin",
    )
    assert code == 0
    rep = Report.from_text(out)
    assert rep.get("solution", "indices") == "0,1"


def test_oracle_subcommand(capsys, example_files):
    pts, w = example_files
    code, out, _ = run_cli(
        capsys, "oracle", "--embeddings", pts, "--weights", w,
        "--metric", "euclidean", "--k", "8", "--lambda", "1",
    )
    assert code == 0
    rep = Report.from_text(out)
    assert rep.get("oracle", "objective") == "6"
    assert rep.get("oracle", "best_subset") == "0,1,2,3,4,5,6,7"
    code, out, _ = run_cli(
        capsys, "oracle", "--embeddings", pts, "--weights", w,
        "--metric", "euclidean", "--k", "8", "--kcenter",
    )
    rep = Report.from_text(out)
    assert rep.get("oracle", "radius_term") == "1"
    assert rep.get("oracle", "weight_term") == "7"


def test_gen_roundtrip(capsys, tmp_path):
    pts = tmp_path / "p.csv"
    w = tmp_path / "w.csv"
    code, out, _ = run_cli(
        capsys, "gen", "--kind", "clusters", "--n", "30", "--dim", "3",
        "--clusters", "3", "--seed", "4", "--points-out", str(pts), "--weights-out", str(w),
    )
    assert code == 0
    data = np.loadtxt(pts, delimiter=",")
    weights = np.loadtxt(w, delimiter=",")
    assert data.shape == (30, 3)
    assert weights.shape == (30,)
    # written instance loads back through the select pipeline
    code, out, _ = run_cli(
        capsys, "select", "--embeddings", str(pts), "--weights", str(w),
        "--metric", "euclidean", "--k", "5",
    )
    assert code == 0


def test_graph_subcommand(capsys, tmp_path, example_files):
    pts, _ = example_files
    gout = tmp_path / "g.txt"
    code, out, _ = run_cli(
        capsys, "graph", "--embeddings", pts, "--metric", "euclidean",
        "--knn", "3", "--graph-out", str(gout),
    )
    assert code == 0
    lines = gout.read_text().strip().splitlines()
    assert len(lines) == 14
    assert lines[0].startswith("0: ")


def test_verify_zero_trials_pass(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--trials", "0", "--parallel-trials", "0",
    )
    assert code == 0
    assert "overall = pass" in out


def test_verify_small_pass(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--trials", "3", "--parallel-trials", "2",
    )
    assert code == 0
    assert "overall = pass" in out
    assert "early_stop_matches_full_grid = pass" in out


def test_missing_file_exit_code(capsys):
    code, out, err = run_cli(
        capsys, "select", "--embeddings", "/nonexistent/file.csv", "--k", "3",
    )
    assert code == 2
    assert "MissingFile" in err


def test_usage_error_exit_code(capsys, example_files):
    pts, _ = example_files
    for argv in (
        ("select", "--embeddings"),
        ("select", "--embeddings", pts, "--k", "3", "--method", "duke-pq"),
        ("select", "--embeddings", pts, "--k", "3", "--neighborhood", "knn-graph"),
        ("bench",),
        ("verify", "--pq-instances", "5"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1, argv
        assert err.startswith("error: UsageError{"), argv
        assert err.count("\n") == 1, argv


def test_validation_exit_code(capsys, example_files):
    pts, w = example_files
    for argv, error in (
        (("select", "--k", "50"), "BudgetExceedsGroundSet"),
        (("select", "--k", "3", "--lambda", "-1"), "InvalidArgument"),
        (("select", "--k", "3", "--lambda", "nan"), "InvalidArgument"),
        (("select", "--k", "3", "--lambda", "inf"), "InvalidArgument"),
        (("select", "--k", "3", "--gamma", "nan"), "InvalidArgument"),
        (("select", "--k", "3", "--gamma", "-1"), "InvalidArgument"),
        (("select", "--k", "3", "--method", "random", "--lambda", "nan"),
         "InvalidArgument"),
        (("select", "--k", "3", "--method", "parallel", "--machines", "2",
          "--gamma", "nan"), "InvalidArgument"),
        (("oracle", "--k", "3", "--lambda", "nan"), "InvalidArgument"),
        (("oracle", "--k", "3", "--lambda", "-1"), "InvalidArgument"),
        (("oracle", "--k", "3", "--lambda", "inf"), "InvalidArgument"),
        # methods that read neither flag still check what they echo
        (("select", "--k", "3", "--method", "random", "--gamma", "-5"),
         "InvalidArgument"),
        (("select", "--k", "3", "--method", "greedy-kcenter", "--gamma",
          "nan"), "InvalidArgument"),
        (("select", "--k", "3", "--method", "margin", "--gamma", "-1"),
         "InvalidArgument"),
        (("oracle", "--k", "3", "--kcenter", "--lambda", "nan"),
         "InvalidArgument"),
    ):
        code, out, err = run_cli(capsys, *argv, "--embeddings", pts,
                                 "--weights", w, "--metric", "euclidean")
        assert code == 2, argv
        assert err.startswith(f"error: {error}{{"), argv
        assert out == "", argv


def test_gamma_inf_is_an_all_fill_run(capsys, example_files):
    pts, w = example_files
    code, out, _ = run_cli(
        capsys, "select", "--embeddings", pts, "--weights", w,
        "--metric", "euclidean", "--k", "3", "--gamma", "inf",
    )
    assert code == 0
    # every pick is a fill pick: the three lightest points
    assert Report.from_text(out).get("solution", "indices") == "0,1,2"


# each method with non-default values for the flags it reads
_ECHO_CASES = [
    ("--method", "duke", "--lambda", "0.5", "--gamma-grid", "5"),
    ("--method", "duke", "--metric", "manhattan", "--gamma", "1.5"),
    ("--method", "parallel", "--machines", "3", "--partition", "random",
     "--seed", "4", "--gamma-grid", "3", "--lambda", "0.25"),
    ("--method", "greedy-kcenter", "--metric", "manhattan"),
    ("--method", "greedy-kcenter", "--start", "3"),
    ("--method", "random", "--seed", "5"),
    ("--method", "margin", "--lambda", "0.25"),
    ("--method", "submodular", "--knn", "4", "--lambda-s", "0.5"),
]


@pytest.mark.parametrize("extra", _ECHO_CASES)
def test_config_echo_reproduces_the_solution(capsys, example_files, extra):
    assert {case[1] for case in _ECHO_CASES} == set(cli.METHODS)
    pts, w = example_files
    data = ("select", "--embeddings", pts, "--weights", w)
    code, out, err = run_cli(capsys, *data, "--k", "5",
                             "--metric", "euclidean", *extra)
    if code != 0:
        # a flag the echo cannot show must not be accepted at all
        assert code == 1 and "--start" in extra, err
        return
    rep = Report.from_text(out)
    argv = []
    for key, value in rep.section("config"):
        # n and dim describe the data; a searched gamma is the default
        if key in ("command", "n", "dim") or (key, value) == ("gamma", "search"):
            continue
        argv += ["--" + key.replace("_", "-"), value]
    code, again, _ = run_cli(capsys, *data, *argv)
    assert code == 0
    assert Report.from_text(again).section("solution") == rep.section("solution")


def test_parallel_search_builds_one_partition(capsys, monkeypatch,
                                              example_files):
    pts, w = example_files
    plans, make = [], cli.make_partition

    def counted(*a, **kw):
        plans.append(1)
        return make(*a, **kw)

    monkeypatch.setattr(cli, "make_partition", counted)
    code, out, _ = run_cli(
        capsys, "select", "--embeddings", pts, "--weights", w,
        "--metric", "euclidean", "--k", "4", "--method", "parallel",
        "--machines", "2", "--partition", "random",
    )
    assert code == 0
    assert len(Report.from_text(out).section("trace")) == 8
    assert len(plans) == 1


def test_out_flag_writes_report(capsys, tmp_path, example_files):
    pts, w = example_files
    dest = tmp_path / "report.txt"
    code, out, _ = run_cli(
        capsys, "select", "--embeddings", pts, "--weights", w,
        "--metric", "euclidean", "--k", "8", "--lambda", "1", "--gamma", "2",
        "--out", str(dest),
    )
    assert code == 0
    text = dest.read_text()
    rep = Report.from_text(text)
    assert rep.get("solution", "objective") == "6"


def _run_module(*argv):
    # the child imports the same duke as this process, installed or not, and
    # prints warnings as an interpreter does by default
    src = str(Path(duke.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-W", "default", "-m", "duke", *argv],
        capture_output=True, text=True, timeout=60, env=env,
    )


def test_module_entrypoint_subprocess(example_files):
    pts, w = example_files
    proc = _run_module(
        "select", "--embeddings", pts, "--weights", w, "--metric",
        "euclidean", "--k", "8", "--lambda", "1", "--gamma", "2")
    assert proc.returncode == 0
    assert "objective = 6" in proc.stdout


@pytest.mark.parametrize("data,error", [
    (b"", "EmptyInput"),
    (b"1,2\n3,\xff\n", "MalformedValue{row=1,token=\\xff}"),
])
def test_data_error_is_one_stderr_line(tmp_path, data, error):
    pts = tmp_path / "e.csv"
    pts.write_bytes(data)
    proc = _run_module("select", "--embeddings", str(pts), "--k", "1")
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("error: " + error)
