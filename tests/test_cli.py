import gc
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import duke
from duke import cli
from duke.cli import main
from conftest import parse_report
from duke.report import fmt_float


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
    rep = parse_report(out)
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
    rep_a, rep_b = parse_report(out_a), parse_report(out_b)
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
    rep = parse_report(out)
    trace = rep.section("trace")
    assert len(trace) == 8
    best = float(rep.get("solution", "objective"))
    assert best == min(float(v) for _, v in trace)


def _without_timing(text):
    rep = parse_report(text)
    rep.sections = [sec for sec in rep.sections if sec[0] != "timing"]
    return rep.to_text()


def test_select_early_stop_keeps_the_report(capsys, monkeypatch, example_files):
    from dataclasses import replace

    from duke import wkcenter
    from duke.dataset import load_embeddings, load_weights
    from duke.wkcenter import GammaSpan, evaluate_solution

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

    # the search's default runner calls the selector by its module's name
    monkeypatch.setattr(wkcenter, "weighted_kcenter",
                        counted(wkcenter.weighted_kcenter))
    code, early, _ = run_cli(capsys, *args)
    assert code == 0
    # on this instance the spans cover the 5 lowest grid gammas with 2 runs,
    # and the top 3 are all-fill: the bracket's score of the k lightest
    assert len(runs) == 2

    # with nothing to skip the search runs the whole grid
    runs.clear()
    report_span[0] = False
    _, full, _ = run_cli(capsys, *args)
    assert len(runs) == 5

    assert _without_timing(early) == _without_timing(full)
    rep = parse_report(early)
    assert len(rep.section("trace")) == 8
    assert "far_rounds" not in early
    # the selector's own scoring stands in for the final evaluation
    inds = [int(t) for t in rep.get("solution", "indices").split(",")]
    again = evaluate_solution(load_embeddings(pts, "euclidean"),
                              load_weights(w), 1.0, inds, "duke")
    assert rep.get("solution", "radius_term") == fmt_float(again.radius_term)
    assert rep.get("solution", "weight_term") == fmt_float(again.weight_term)
    assert rep.get("solution", "objective") == fmt_float(again.objective)


# ``duke select`` on 40 points of the 8-d unit cube (``gen --kind
# uniform-cube --seed 0``), k = 4, cosine: the seed's row holds no point
# farther than 3 * gamma at any grid gamma, so every run would fill with the
# four lightest points. Recorded before the search scored them from its
# bracket instead of running the selector.
_ALL_FILL_REPORT = """\
[config]
command = select
method = duke
k = 4
lambda = 0.025
metric = cosine-distance
seed = 0
n = 40
dim = 8
gamma = search
gamma_grid = 8
machines = 1
partition = round-robin
knn = 10
lambda_s = 0.9

[trace]
gamma_0.13231125 = 0.250679
gamma_0.144550174 = 0.250679
gamma_0.157921211 = 0.250679
gamma_0.172529082 = 0.250679
gamma_0.188488195 = 0.250679
gamma_0.205923543 = 0.250679
gamma_0.224971678 = 0.250679
gamma_0.245781785 = 0.250679

[solution]
algorithm = duke
indices = 20,13,25,3
radius_term = 0.245781785
weight_term = 0.195888595
objective = 0.250679
gamma_used = 0.13231125
"""


def test_select_all_fill_grid_runs_no_selector(capsys, monkeypatch, tmp_path):
    from duke import wkcenter
    from duke.instances import SyntheticSpec, gen_clusters

    points, w = gen_clusters(SyntheticSpec("uniform-cube", n=40, dim=8, seed=0))
    pts, wfile = tmp_path / "p.csv", tmp_path / "w.csv"
    np.savetxt(pts, points, delimiter=",", fmt="%.17g")
    np.savetxt(wfile, w.values, fmt="%.17g")
    runs = []

    def counted(*a, **kw):
        runs.append(1)
        return selector(*a, **kw)

    selector = wkcenter.weighted_kcenter
    monkeypatch.setattr(wkcenter, "weighted_kcenter", counted)
    monkeypatch.setattr(cli, "weighted_kcenter", counted)
    code, out, _ = run_cli(capsys, "select", "--embeddings", str(pts),
                           "--weights", str(wfile), "--k", "4")
    assert code == 0
    assert runs == []
    assert _without_timing(out) == _ALL_FILL_REPORT


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
        rep = parse_report(out)
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
    rep = parse_report(out)
    assert rep.get("solution", "indices") == "0,1"


def test_oracle_subcommand(capsys, example_files):
    pts, w = example_files
    code, out, _ = run_cli(
        capsys, "oracle", "--embeddings", pts, "--weights", w,
        "--metric", "euclidean", "--k", "8", "--lambda", "1",
    )
    assert code == 0
    rep = parse_report(out)
    assert rep.get("oracle", "objective") == "6"
    assert rep.get("oracle", "best_subset") == "0,1,2,3,4,5,6,7"
    code, out, _ = run_cli(
        capsys, "oracle", "--embeddings", pts, "--weights", w,
        "--metric", "euclidean", "--k", "8", "--kcenter",
    )
    rep = parse_report(out)
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


@pytest.mark.parametrize("argv", [("graph", "--graph-out", "g.txt"),
                                  ("select", "--method", "submodular",
                                   "--k", "1")])
def test_knn_graph_over_budget_is_a_data_error(capsys, monkeypatch, tmp_path,
                                               argv):
    # 70000 x 1 exceeds the graph's work budget: exit 2 with one stderr
    # line, and no distance row computed
    from duke import nngraph
    n = 70000
    assert n * n > nngraph.WORK_BUDGET
    pts = tmp_path / "line.f32"
    np.arange(n, dtype=np.float32).tofile(pts)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(nngraph, "metric_row", None)
    code, out, err = run_cli(capsys, *argv, "--embeddings", str(pts),
                             "--format", "raw-float32", "--dim", "1",
                             "--metric", "euclidean")
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: InstanceTooLarge{")


def test_verify_zero_trials_pass(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--trials", "0", "--parallel-trials", "0",
    )
    assert code == 0
    assert "overall = pass" in out


def test_verify_reports_time_per_suite(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--trials", "2", "--parallel-trials", "1",
    )
    assert code == 0
    timing = parse_report(out).section("timing")
    assert [key for key, _ in timing] == ["bounds_ms", "parallel_ms",
                                          "early_stop_ms", "total_ms"]
    assert all(float(value) >= 0.0 for _, value in timing)


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
        # every method echoes --lambda-s
        (("select", "--k", "3", "--method", "submodular", "--lambda-s",
          "nan"), "InvalidArgument"),
        (("select", "--k", "3", "--method", "submodular", "--lambda-s",
          "inf"), "InvalidArgument"),
        (("select", "--k", "3", "--method", "random", "--lambda-s", "-1"),
         "InvalidArgument"),
        # and --gamma-grid, --machines and --knn
        (("select", "--k", "3", "--method", "random", "--gamma-grid", "-3"),
         "InvalidArgument"),
        (("select", "--k", "3", "--gamma", "1", "--gamma-grid", "0"),
         "InvalidArgument"),
        (("select", "--k", "3", "--machines", "-5"), "TooManyWorkers"),
        (("select", "--k", "3", "--method", "greedy-kcenter", "--knn", "-2"),
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
    assert parse_report(out).get("solution", "indices") == "0,1,2"


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
    rep = parse_report(out)
    argv = []
    for key, value in rep.section("config"):
        # n and dim describe the data; a searched gamma is the default
        if key in ("command", "n", "dim") or (key, value) == ("gamma", "search"):
            continue
        argv += ["--" + key.replace("_", "-"), value]
    code, again, _ = run_cli(capsys, *data, *argv)
    assert code == 0
    assert parse_report(again).section("solution") == rep.section("solution")


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
    assert len(parse_report(out).section("trace")) == 8
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
    rep = parse_report(text)
    assert rep.get("solution", "objective") == "6"


def _run_python(*argv, env=(), preexec_fn=None):
    # the child imports the same duke as this process, installed or not, and
    # prints warnings as an interpreter does by default
    src = str(Path(duke.__file__).resolve().parent.parent)
    env = {**os.environ, **dict(env)}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-W", "default", *argv],
        capture_output=True, text=True, timeout=60, env=env,
        preexec_fn=preexec_fn,
    )


def _run_module(*argv):
    return _run_python("-m", "duke", *argv)


def test_module_entrypoint_subprocess(example_files):
    pts, w = example_files
    proc = _run_module(
        "select", "--embeddings", pts, "--weights", w, "--metric",
        "euclidean", "--k", "8", "--lambda", "1", "--gamma", "2")
    assert proc.returncode == 0
    assert "objective = 6" in proc.stdout


def _outside_timing(text: str) -> str:
    return "\n\n".join(block for block in text.split("\n\n")
                       if not block.startswith("[timing]"))


@pytest.mark.parametrize("module", ["duke", "duke.cli"])
def test_module_entries_write_the_in_process_report(tmp_path, example_files,
                                                    module):
    # python -m duke and python -m duke.cli both start at cli.run, which
    # freezes the collector; the report is main's, byte for byte
    pts, w = example_files
    argv = ["select", "--embeddings", pts, "--weights", w, "--metric",
            "euclidean", "--k", "8", "--lambda", "1"]
    assert main([*argv, "--out", str(tmp_path / "main.txt")]) == 0
    proc = _run_python("-m", module, *argv,
                       "--out", str(tmp_path / "child.txt"))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    expected = (tmp_path / "main.txt").read_text()
    assert "[trace]" in expected and "[timing]" in expected
    assert (_outside_timing((tmp_path / "child.txt").read_text())
            == _outside_timing(expected))


@pytest.mark.parametrize("argv, code", [
    (["verify", "--trials", "0", "--parallel-trials", "0"], 0),
    (["nosuch"], 1),
], ids=["verify", "usage-error"])
def test_run_freezes_once_then_exits_with_mains_code(capsys, monkeypatch,
                                                     argv, code):
    events = []
    real_main = cli.main

    def spy_main():
        events.append("main")
        return real_main()

    monkeypatch.setattr(cli.gc, "freeze", lambda: events.append("freeze"))
    monkeypatch.setattr(cli, "main", spy_main)
    monkeypatch.setattr(sys, "argv", ["duke", *argv])
    with pytest.raises(SystemExit) as exit_:
        cli.run()
    assert exit_.value.code == code
    assert events == ["freeze", "main"]


def test_main_and_import_leave_the_collector_alone(capsys, example_files):
    enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    pts, w = example_files
    code, _, _ = run_cli(capsys, "select", "--embeddings", pts, "--weights",
                         w, "--metric", "euclidean", "--k", "8")
    assert code == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
    proc = _run_python("-c", "import gc, duke.cli; "
                             "print(gc.isenabled(), gc.get_freeze_count())")
    assert (proc.returncode, proc.stdout) == (0, "True 0\n"), proc.stderr


def test_exhausted_memory_is_a_typed_error(tmp_path):
    # a sparse 2 GiB raw-float32 file (no page of it written) widens to a
    # 4 GiB matrix, which a 1 GiB address-space limit on the child refuses
    pts = tmp_path / "big.f32"
    pts.touch()
    os.truncate(pts, 2 << 30)

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = _run_python("-m", "duke", "select", "--embeddings", str(pts),
                       "--format", "raw-float32", "--dim", "64", "--metric",
                       "euclidean", "--k", "1",
                       env={"OPENBLAS_NUM_THREADS": "1"},
                       preexec_fn=limit_address_space)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert proc.stderr.startswith("error: InstanceTooLarge{memory=exhausted}")


@pytest.mark.parametrize("method", ["duke", "margin", "random"])
def test_select_loads_only_the_select_path(tmp_path, example_files, method):
    # a select in a fresh interpreter imports none of the modules that only
    # other subcommands or methods use
    pts, w = example_files
    argv = ["select", "--embeddings", pts, "--weights", w, "--metric",
            "euclidean", "--k", "8", "--lambda", "1", "--method", method,
            "--out", str(tmp_path / "report.txt")]
    proc = _run_python("-c", f"""import sys
from duke import cli
assert cli.main({argv!r}) == 0
print(*sorted(m for m in sys.modules if m.startswith("duke")))
""")
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert {"duke.cli", "duke.dataset", "duke.wkcenter"} <= loaded
    unused = {"duke.verify", "duke.oracle", "duke.nngraph"}
    if method == "duke":
        unused.add("duke.baselines")
    assert not loaded & unused


def _select_case(data, error):
    """``select --k 1`` on ``data``, under the id pytest gives the pair
    (data, error)."""
    return pytest.param(data, ("select", "--k", "1"), error,
                        id=f"{data.decode('latin-1')}-{error}")


def _refused_cases():
    """Every command on rows whose squared norms overflow: cosine rows at
    1e200, and +-1e308 rows as euclidean and as manhattan."""
    commands = {
        "search": ("select", "--k", "2"),
        "greedy": ("select", "--k", "2", "--method", "greedy-kcenter"),
        "margin": ("select", "--k", "2", "--method", "margin"),
        "oracle": ("oracle", "--k", "2"),
        "graph": ("graph", "--graph-out", os.devnull),
    }
    cos = b"1e200,1e200\n1e200,-1e200\n1,2\n"
    big = b"1e308,1e308\n-1e308,-1e308\n1,2\n"
    for data, metric in ((cos, "cosine-distance"), (big, "euclidean"),
                         (big, "manhattan")):
        for command, argv in commands.items():
            yield pytest.param(data, (*argv, "--metric", metric),
                               "NormOutOfRange{row=0}",
                               id=f"{metric}-{command}")


@pytest.mark.parametrize("data,argv,error", [
    _select_case(b"", "EmptyInput"),
    _select_case(b"1,2\n3,\xff\n", "MalformedValue{row=1,token=\\xff}"),
    # raw probabilities with no --classes: the error names the flag
    pytest.param(np.arange(4, dtype="<f4").tobytes(),
                 ("select", "--k", "1", "--format", "raw-float32", "--dim",
                  "2", "--probs", os.devnull),
                 "MalformedValue{classes=None}", id="raw-probs-no-classes"),
    *_refused_cases(),
    # the rows are checked when the embeddings load, before the flags and
    # the weights file
    pytest.param(b"1,2\n0,0\n", ("select", "--k", "5", "--metric",
                                  "cosine-distance"),
                 "ZeroVectorCosine{index=1}", id="zero-row-before-k"),
    pytest.param(b"1,2\n0,0\n", ("select", "--k", "1", "--metric",
                                  "cosine-distance", "--weights", os.devnull),
                 "ZeroVectorCosine{index=1}", id="zero-row-before-weights"),
])
def test_data_error_is_one_stderr_line(tmp_path, data, argv, error):
    pts = tmp_path / "e.csv"
    pts.write_bytes(data)
    proc = _run_module(*argv, "--embeddings", str(pts))
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("error: " + error)
