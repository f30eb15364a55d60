"""Benchmark of ``duke select``, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
``src/``). ``--workload all`` runs every workload in turn. With ``--trace 0``
the benchmark starts ``duke select`` as a child process, one at a time, for
``--seconds`` seconds and reports the end-to-end metrics. With ``--trace 1``
it alternates untraced and traced in-process calls of ``duke.cli.main`` and
reports per-layer metrics. Every report is checked
independently. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

# One BLAS thread in every process, set before numpy is imported. With
# OpenBLAS's default of one thread per core, cube select times drifted by up
# to 2x between runs on a shared 2-core host, while single-threaded workloads
# stayed within a few percent from run to run.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
GOLDEN = HERE / "golden.json"

from check import check_solution, parse_report  # noqa: E402
from envinfo import environment  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import INSTANCES, WORKLOADS, Inputs, generate  # noqa: E402

SETUP_PROBES = 9        # fresh-interpreter imports per run, after one warm-up
MIN_SELECT_RUNS = 3     # untraced children per run, whatever --seconds says
MIN_TRACED_RUNS = 2     # traced (and untraced) in-process calls per run

END_TO_END_UNITS = {
    "select_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
    "objective_ratio": "ratio", "indices_match": "fraction", "pass_frac": "fraction",
}
PER_LAYER_UNITS = {
    "dataset.load_s": "s", "dataset.input_mb_per_s": "MB/s",
    "dataset.metric_row_calls": "count", "dataset.metric_row_s": "s",
    "dataset.metric_row_ms": "ms", "dataset.row_gb_per_s_computed": "GB/s",
    "dataset.norms_s": "s",
    "wkcenter.bracket_s": "s", "wkcenter.bracket_rows": "count",
    "wkcenter.grid_runs": "count", "wkcenter.grid_s": "s",
    "wkcenter.grid_rows": "count", "wkcenter.grid_distinct_ratio": "fraction",
    "wkcenter.far_rounds": "count", "wkcenter.fill_rounds": "count",
    "wkcenter.selector_self_s": "s", "wkcenter.evaluate_s": "s",
    "wkcenter.evaluate_rows": "count",
    "report.render_s": "s", "report.bytes": "bytes",
    "cli.self_s": "s", "trace_overhead_frac": "fraction",
}


class SourceMissing(Exception):
    pass


class Launcher:
    """Client of launcher.py, which starts every child; see there for why.

    Children inherit its environment, with ``src/`` first on PYTHONPATH.
    """

    def __init__(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)

    def run(self, argv: list[str], stderr_path: Path) -> tuple[float, int, float]:
        """Run argv to completion: (wall seconds, exit code, peak RSS in MiB)."""
        self.proc.stdin.write(json.dumps({"argv": argv, "stderr": str(stderr_path)}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("launcher exited early")
        reply = json.loads(line)
        return reply["wall"], reply["code"], reply["maxrss_kib"] / 1024.0

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            self.proc.terminate()
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def measure_setup(launcher: Launcher, work: Path) -> list[float]:
    """Wall seconds for a fresh interpreter to import duke.cli (numpy included)."""
    argv = [sys.executable, "-c", "import duke.cli"]
    walls = []
    for i in range(SETUP_PROBES + 1):
        wall, code, _ = launcher.run(argv, work / "setup.stderr")
        if code != 0:
            raise SourceMissing(f"'import duke.cli' exited {code}: "
                                + (work / "setup.stderr").read_text()[-400:])
        if i:   # the first import may compile bytecode; users pay that once
            walls.append(wall)
    return walls


@dataclass
class SelectRun:
    wall: float
    peak_rss_mb: float | None
    problems: list[str]
    indices: str | None = None
    objective: str | None = None


def finish_run(report_path: Path, inputs: Inputs, wall: float,
               rss: float | None, problems: list[str]) -> SelectRun:
    """Parse and check the report a run wrote."""
    run = SelectRun(wall, rss, problems)
    if problems:
        return run
    try:
        report = parse_report(report_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        run.problems.append(f"report unreadable: {exc}")
        return run
    run.problems.extend(check_solution(report, inputs))
    sol = report.get("solution", {})
    run.indices, run.objective = sol.get("indices"), sol.get("objective")
    return run


def select_child(inputs: Inputs, launcher: Launcher, work: Path) -> SelectRun:
    out = work / "report.txt"
    out.unlink(missing_ok=True)
    argv = [sys.executable, "-m", "duke", "select", *inputs.argv, "--out", str(out)]
    wall, code, rss = launcher.run(argv, work / "select.stderr")
    problems = []
    if code != 0:
        tail = (work / "select.stderr").read_text(errors="replace")[-400:]
        problems.append(f"exit code {code}: {tail.strip()}")
    return finish_run(out, inputs, wall, rss, problems)


def select_in_process(inputs: Inputs, work: Path) -> SelectRun:
    """One call of duke.cli.main in this process, traced if a tracer is installed."""
    import duke.cli
    out = work / "report-in-process.txt"
    out.unlink(missing_ok=True)
    problems = []
    start = time.perf_counter()
    try:
        code = duke.cli.main(["select", *inputs.argv, "--out", str(out)])
    except Exception:   # a crash in the program is a failed run, not ours
        code, problems = -1, [traceback.format_exc(limit=3)]
    wall = time.perf_counter() - start
    if code != 0 and not problems:
        problems.append(f"main returned {code}")
    return finish_run(out, inputs, wall, None, problems)


def load_golden() -> dict:
    try:
        return json.loads(GOLDEN.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return {}


def import_duke_in_process() -> None:
    sys.path.insert(0, str(SRC))
    import duke.cli
    where = Path(duke.cli.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SourceMissing(f"duke imported from {where}, not from {SRC}")


def median(values):
    """Median; inf when no run passed, so a crash never reads as a speed-up."""
    return statistics.median(values) if values else math.inf


@dataclass
class Result:
    workload: str
    correct: bool = True
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, tuple[float, str, int]] = field(default_factory=dict)
    shown: dict[str, tuple[float, str, int]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    record: dict = field(default_factory=dict)   # input provenance, environment

    def add_runs(self, runs: list[SelectRun]) -> None:
        self.attempted += len(runs)
        self.failed += sum(bool(r.problems) for r in runs)
        self.correct = self.correct and not self.failed
        self.notes += [f"FAILED run ({r.wall:.2f} s): {p}"
                       for r in runs for p in r.problems]

    def json(self, prefix: str = "") -> dict:
        return {f"{prefix}{name}": {"value": value, "unit": unit}
                for name, (value, unit, _) in self.metrics.items()}


def end_to_end(res: Result, runs: list[SelectRun], setup: list[float],
               golden: dict | None) -> None:
    ok = [r for r in runs if not r.problems]
    objectives = {r.objective for r in ok}
    if len(objectives) > 1:
        res.correct = False
        res.notes.append(f"objective differs between runs: {sorted(objectives)}")
    objective = float(ok[0].objective) if ok else math.inf
    if golden is None:   # every instance has one; a missing entry is a bug
        res.correct = False
        res.notes.append("no golden selection for this instance")
        golden = {"indices": None, "objective": "inf"}
    matched = sum(r.indices == golden["indices"] for r in runs)
    values = {
        "select_s": median([r.wall for r in ok]),
        "setup_s": median(setup),
        "peak_rss_mb": median([r.peak_rss_mb for r in ok]),
        "objective_ratio": objective / float(golden["objective"]),
        "indices_match": matched / len(runs),
        "pass_frac": len(ok) / len(runs),
    }
    samples = {"setup_s": len(setup), "select_s": len(ok), "peak_rss_mb": len(ok),
               "objective_ratio": len(ok)}
    res.metrics = {k: (v, END_TO_END_UNITS[k], samples.get(k, len(runs)))
                   for k, v in values.items()}
    res.shown = {"objective": (objective, "1", len(ok)),
                 "failed_frac": (res.failed / res.attempted, "fraction", res.attempted)}
    res.notes += [
        "select_s samples (passing runs): " + ", ".join(f"{r.wall:.3f}" for r in ok),
        "setup_s samples: " + ", ".join(f"{s:.3f}" for s in setup),
        "no tail percentile: a percentile needs ten samples beyond it, and a "
        f"run holds {len(runs)} selects of several seconds each",
        "select_s, peak_rss_mb and objective_ratio are over passing runs only; "
        "inf when none passed",
        f"objective_ratio base: golden objective {golden['objective']}",
        f"indices_match base: {matched} of {len(runs)} runs equal the golden indices",
        f"failed_frac base: {res.failed} failed of {res.attempted} attempted",
    ]


def per_layer(res: Result, traced: list[SelectRun], untraced: list[SelectRun],
              tracer: Tracer, inputs: Inputs, input_bytes: int) -> None:
    n, dim = inputs.features.shape
    per_run = [layer_metrics(tracer.spans, r, inputs.k, n, dim, input_bytes)
               for r in range(len(traced))]
    counts = per_run[0][1]
    for r, (_, c) in enumerate(per_run[1:], start=1):
        if c != counts:
            res.correct = False
            res.notes.append(f"counts of traced run {r} differ from run 0: {c} vs {counts}")
    measured = {k: median([m[k] for m, _ in per_run]) for k in per_run[0][0]}
    untraced_main = median([r.wall for r in untraced])
    traced_main = median([r.wall for r in traced])
    grid_runs = counts["wkcenter.grid_runs"]
    values = dict(measured)
    values.update({k: counts[k] for k in PER_LAYER_UNITS if k in counts})
    values["wkcenter.grid_distinct_ratio"] = (
        counts["wkcenter.grid_distinct"] / grid_runs if grid_runs else 0.0)
    values["trace_overhead_frac"] = traced_main / untraced_main - 1
    res.metrics = {k: (values[k], u, len(traced)) for k, u in PER_LAYER_UNITS.items()}
    rows = counts["dataset.metric_row_calls"]
    res.notes += [
        f"in-process calls of main: {len(traced)} traced, {len(untraced)} untraced",
        f"dataset.input_mb_per_s base: {input_bytes} input bytes over dataset.load_s",
        f"dataset.metric_row_ms base: {rows} metric_row calls",
        f"dataset.row_gb_per_s_computed base: {rows} rows x n={n} x dim={dim} x 8 B, "
        "computed, not measured bandwidth",
        f"wkcenter.grid_distinct_ratio base: {counts['wkcenter.grid_distinct']} "
        f"distinct selections / {grid_runs} grid runs"
        + ("" if grid_runs else " (no grid: gamma pinned, reported as 0)"),
        f"wkcenter.far_rounds/fill_rounds: derived as rows per selector call minus "
        f"k={inputs.k}, over {counts['wkcenter.selector_calls']} selector calls",
        f"trace_overhead_frac base: untraced in-process main = {untraced_main:.4f} s; "
        f"traced main = {traced_main:.4f} s (medians of wall time around the call)",
        "untraced main samples: " + ", ".join(f"{r.wall:.3f}" for r in untraced),
        "traced main samples: " + ", ".join(f"{r.wall:.3f}" for r in traced),
        "report.bytes includes the [timing] section, whose printed length varies",
    ]


def run_workload(launcher: Launcher, name: str, seed: int, seconds: float,
                 trace: bool) -> Result:
    res = Result(name)
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    instance, inputs = generate(name, seed, work / "inputs")
    provenance = inputs.provenance()
    golden = load_golden().get(name, {}).get(str(instance))
    if golden is not None and golden["inputs"] != provenance:
        res.correct = False
        res.notes.append("inputs differ from those the golden selection was recorded on")
    res.record = {"seed": seed, "instance": instance, "inputs": provenance,
                  "env": environment(inputs.matrix_bytes)}
    print(f"## {name} seed={seed} instance={instance} (seed % {INSTANCES})")
    print("# inputs " + json.dumps(provenance, sort_keys=True))
    print("# env " + json.dumps(res.record["env"], sort_keys=True))
    untraced: list[SelectRun] = []
    traced: list[SelectRun] = []
    tracer = Tracer()
    if trace:
        import_duke_in_process()
    else:
        setup = measure_setup(launcher, work)
    start = time.perf_counter()
    try:
        while True:
            elapsed = time.perf_counter() - start
            if trace:
                enough = len(traced) >= MIN_TRACED_RUNS
                step = (untraced[-1].wall + traced[-1].wall) if traced else 0.0
            else:
                enough = len(untraced) >= MIN_SELECT_RUNS
                step = untraced[-1].wall if untraced else 0.0
            if enough and elapsed + step > seconds:
                break
            if not trace:
                untraced.append(select_child(inputs, launcher, work))
                continue
            # Both calls run in this process, so the untraced one is the base
            # of trace_overhead_frac with the same warm state as the traced one.
            untraced.append(select_in_process(inputs, work))
            tracer.run = len(traced)
            tracer.install()
            try:
                traced.append(select_in_process(inputs, work))
            finally:
                tracer.uninstall()
    finally:
        shutil.rmtree(work / "inputs", ignore_errors=True)

    res.add_runs(untraced + traced)
    if trace:
        tracer.write_jsonl(work / f"spans-seed{seed}.jsonl")
        if res.correct:
            per_layer(res, traced, untraced, tracer, inputs,
                      sum(f["bytes"] for f in provenance.values()))
        else:
            res.metrics = {k: (math.nan, u, 0) for k, u in PER_LAYER_UNITS.items()}
    else:
        end_to_end(res, untraced, setup, golden)
    return res


def print_table(res: Result) -> None:
    print(f"# {res.workload}: correct={res.correct} attempted={res.attempted} "
          f"failed={res.failed}")
    for name, (value, unit, samples) in res.metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit:9s} n={samples}")
    for name, (value, unit, samples) in res.shown.items():
        print(f"  {name:34s} {value:14.9g} {unit:9s} n={samples} (table only)")
    for note in res.notes:
        print(f"  - {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if not (SRC / "duke" / "cli.py").is_file():
        print(f"error: no duke source at {SRC / 'duke'}; run from a checkout",
              file=sys.stderr)
        return 2
    try:
        with Launcher() as launcher:
            results = [run_workload(launcher, n, args.seed, args.seconds,
                                    bool(args.trace)) for n in names]
    except SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for res in results:
        print_table(res)
        (WORK / res.workload / f"result-seed{args.seed}-trace{args.trace}.json"
         ).write_text(json.dumps({**res.record, "correct": res.correct,
                                  "metrics": res.json()}, indent=1))
    prefix = len(results) > 1
    metrics = {}
    for res in results:
        metrics.update(res.json(f"{res.workload}/" if prefix else ""))
    print(json.dumps({
        "correct": all(r.correct for r in results),
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
