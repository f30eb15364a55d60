"""Command-line front end.

Subcommands: select, oracle, verify, gen, graph. Reports go to the
--out file or stdout; diagnostics go to stderr as a single machine-parsable
line. Exit codes: 0 success, 1 usage error, 2 data error, 3 verification
failure. A process runs :func:`run`; callers in a process call :func:`main`.
"""

from __future__ import annotations

import argparse
import gc
import math
import sys
import time

# these compile before .dataset loads numpy; numpy first adds 0.5 MiB of RSS
from .errors import (DukeError, InstanceTooLarge, InvalidArgument,
                     MissingFile, SizeMismatch, TooManyWorkers, UsageError)
from .report import Report, fmt_float
from .dataset import (
    EmbeddingSet,
    WeightVector,
    load_embeddings,
    load_probabilities,
    load_weights,
    margin_weights,
    METRICS,
)
from .instances import KINDS, SyntheticSpec, gen_clusters
from .parallel import STRATEGIES, make_partition, parallel_weighted_kcenter
from .wkcenter import (
    SubsetSolution,
    check_lambda,
    check_selection,
    default_lambda,
    evaluate_solution,
    gamma_search,
    greedy_kcenter,
    weighted_kcenter,
)

import numpy as np

METHODS = ("duke", "parallel", "greedy-kcenter", "random", "margin",
           "submodular")


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; the contract wants 1
    def error(self, message):
        raise UsageError(message=message.replace(",", ";"))


def _now_ms() -> float:
    return time.perf_counter() * 1000.0


def _load_inputs(args) -> tuple[EmbeddingSet, WeightVector]:
    try:
        emb = load_embeddings(args.embeddings, args.metric, fmt=args.format,
                              dim=args.dim, header=args.header)
    except (FileNotFoundError, IsADirectoryError, PermissionError):
        raise MissingFile(path=args.embeddings) from None
    try:
        if args.weights:
            weights = load_weights(args.weights, fmt=args.format,
                                   header=args.header)
        elif args.probs:
            probs = load_probabilities(args.probs, fmt=args.format,
                                       classes=args.classes,
                                       header=args.header)
            weights = margin_weights(probs)
        else:
            weights = WeightVector(np.zeros(emb.n))
    except (FileNotFoundError, IsADirectoryError, PermissionError):
        raise MissingFile(path=args.weights or args.probs) from None
    if weights.n != emb.n:
        raise SizeMismatch(expected=emb.n, got=weights.n)
    return emb, weights


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--embeddings", required=True)
    p.add_argument("--format", default="csv", choices=("csv", "raw-float32"))
    p.add_argument("--dim", type=int, default=None,
                   help="row width for raw-float32 embeddings")
    p.add_argument("--header", action="store_true")
    p.add_argument("--weights", default=None)
    p.add_argument("--probs", default=None)
    p.add_argument("--classes", type=int, default=None,
                   help="row width for raw-float32 probabilities")
    p.add_argument("--metric", default="cosine-distance", choices=METRICS)


def _emit(report: Report, out: str | None) -> None:
    text = report.to_text()
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _config_echo(rep: Report, pairs) -> None:
    for key, value in pairs:
        rep.add("config", key, value)


def _solution_block(rep: Report, sol: SubsetSolution) -> None:
    rep.add("solution", "algorithm", sol.algorithm)
    rep.add("solution", "indices", sol.indices)
    rep.add("solution", "radius_term", sol.radius_term)
    rep.add("solution", "weight_term", sol.weight_term)
    rep.add("solution", "objective", sol.objective)
    rep.add("solution", "gamma_used", sol.gamma_used)
    for key in sorted(sol.extra):
        rep.add("solution", key, sol.extra[key])


def cmd_select(args) -> tuple[Report, int]:
    t0 = _now_ms()
    emb, weights = _load_inputs(args)
    t_load = _now_ms() - t0

    k = args.k
    lam = args.lambda_ if args.lambda_ is not None else default_lambda(k)
    rep = Report()
    _config_echo(rep, [
        ("command", "select"), ("method", args.method), ("k", k),
        ("lambda", lam), ("metric", emb.metric), ("seed", args.seed),
        ("n", emb.n), ("dim", emb.dim),
        ("gamma", "search" if args.gamma is None else fmt_float(args.gamma)),
        ("gamma_grid", args.gamma_grid), ("machines", args.machines),
        ("partition", args.partition), ("knn", args.knn),
        ("lambda_s", args.lambda_s),
    ])

    # every method echoes every flag, so each is checked first, as the
    # method that reads it would check it
    check_selection(emb, weights, k, lam, args.gamma or 0.0)
    if args.gamma_grid < 1:
        raise InvalidArgument(grid_size=args.gamma_grid)
    if not 1 <= args.machines <= emb.n:
        raise TooManyWorkers(m=args.machines, n=emb.n)
    if args.knn < 1:
        raise InvalidArgument(k_nn=args.knn)
    if not (math.isfinite(args.lambda_s) and args.lambda_s >= 0.0):
        raise InvalidArgument(lambda_s=args.lambda_s)

    t1 = _now_ms()
    graph_ms = 0.0
    method = args.method

    if method == "parallel":
        parts = make_partition(emb.n, args.machines, seed=args.seed,
                               strategy=args.partition)

    def run_fixed(gamma: float) -> SubsetSolution:
        if method == "duke":
            return weighted_kcenter(emb, weights, k, lam, gamma)
        return parallel_weighted_kcenter(emb, weights, k, lam, gamma, parts)

    if method in ("duke", "parallel"):
        if args.gamma is not None:
            sol = run_fixed(args.gamma)
        else:
            # duke searches with the default runner, which skips all-fill runs
            sol, trace = gamma_search(
                emb, weights, k, lam, args.gamma_grid,
                runner=None if method == "duke" else run_fixed)
            for g, objective in trace:
                rep.add("trace", f"gamma_{fmt_float(g)}", objective)
    elif method == "greedy-kcenter":
        sol = greedy_kcenter(emb, weights, k, lam)
    else:
        from . import baselines
        extra = {}
        if method == "random":
            picks = baselines.random_select(emb.n, k, args.seed)
        elif method == "margin":
            picks = baselines.margin_select(weights, k)
        else:
            from .nngraph import build_knn_graph
            g0 = _now_ms()
            graph = build_knn_graph(emb, args.knn)
            graph_ms = _now_ms() - g0
            picks, extra = baselines.submodular_greedy(graph, weights,
                                                       args.lambda_s, k)
        sol = evaluate_solution(emb, weights, lam, picks, method, extra=extra)
    select_ms = _now_ms() - t1
    _solution_block(rep, sol)
    rep.add("timing", "load_ms", t_load)
    rep.add("timing", "graph_ms", graph_ms)
    rep.add("timing", "select_ms", select_ms)
    rep.add("timing", "total_ms", _now_ms() - t0)
    return rep, 0


def cmd_oracle(args) -> tuple[Report, int]:
    from .oracle import brute_force_kcenter, brute_force_weighted
    t0 = _now_ms()
    emb, weights = _load_inputs(args)
    k = args.k
    lam = args.lambda_ if args.lambda_ is not None else default_lambda(k)
    check_lambda(lam)
    rep = Report()
    _config_echo(rep, [
        ("command", "oracle"), ("k", k), ("lambda", lam),
        ("metric", args.metric), ("kcenter", args.kcenter),
        ("n", emb.n), ("dim", emb.dim),
    ])
    if args.kcenter:
        res = brute_force_kcenter(emb, k, weights=weights)
    else:
        res = brute_force_weighted(emb, weights, k, lam)
    rep.add("oracle", "best_subset", list(res.best_subset))
    rep.add("oracle", "radius_term", res.radius_term)
    rep.add("oracle", "weight_term", res.weight_term)
    rep.add("oracle", "objective", res.objective)
    rep.add("oracle", "enumerated", res.enumerated)
    rep.add("timing", "total_ms", _now_ms() - t0)
    return rep, 0


def cmd_verify(args) -> tuple[Report, int]:
    from . import verify
    t0 = _now_ms()
    summary = verify.run_full(trials=args.trials,
                              parallel_trials=args.parallel_trials,
                              seed=args.seed, n_max=args.n_max,
                              k_max=args.k_max)
    rep = Report()
    _config_echo(rep, [
        ("command", "verify"), ("trials", args.trials),
        ("parallel_trials", args.parallel_trials),
        ("n_max", args.n_max), ("k_max", args.k_max), ("seed", args.seed),
    ])
    for stat in summary.stats:
        worst = "n/a" if stat.worst == float("-inf") else fmt_float(stat.worst)
        status = "pass" if stat.passed else "FAIL"
        rep.add("verify", stat.name,
                f"{status} checks={stat.checks} violations={len(stat.violations)} worst={worst}")
    rep.add("verify", "overall", "pass" if summary.passed else "FAIL")
    for name, ms in summary.ms.items():
        rep.add("timing", f"{name}_ms", ms)
    rep.add("timing", "total_ms", _now_ms() - t0)
    if not summary.passed:
        rep.add("verify", "replay_out", args.replay_out)
        with open(args.replay_out, "w", encoding="utf-8") as fh:
            for v in summary.all_violations():
                fh.write(v + "\n\n")
        return rep, 3
    return rep, 0


def cmd_gen(args) -> tuple[Report, int]:
    spec = SyntheticSpec(kind=args.kind, n=args.n, dim=args.gen_dim,
                         clusters=args.clusters, spread=args.spread,
                         seed=args.seed, weight_scheme=args.weight_scheme)
    points, weights = gen_clusters(spec)
    np.savetxt(args.points_out, points, delimiter=",", fmt="%.17g")
    if args.weights_out:
        np.savetxt(args.weights_out, weights.values, fmt="%.17g")
    rep = Report()
    _config_echo(rep, [
        ("command", "gen"), ("kind", args.kind), ("n", points.shape[0]),
        ("dim", points.shape[1]), ("clusters", args.clusters),
        ("spread", args.spread), ("seed", args.seed),
        ("weight_scheme", args.weight_scheme),
        ("points_out", args.points_out),
        ("weights_out", args.weights_out or ""),
    ])
    return rep, 0


def cmd_graph(args) -> tuple[Report, int]:
    from .nngraph import build_knn_graph, export_graph
    t0 = _now_ms()
    emb, _ = _load_inputs(args)
    graph = build_knn_graph(emb, args.knn)
    with open(args.graph_out, "w", encoding="utf-8") as fh:
        export_graph(graph, fh)
    rep = Report()
    _config_echo(rep, [
        ("command", "graph"), ("knn", args.knn), ("metric", args.metric),
        ("n", emb.n), ("k_effective", graph.k_effective),
        ("graph_out", args.graph_out),
    ])
    rep.add("timing", "total_ms", _now_ms() - t0)
    return rep, 0


def build_parser() -> _Parser:
    parser = _Parser(prog="duke",
                     description="weighted k-center subset selection")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_sel = sub.add_parser("select", help="run a selection method")
    _add_data_flags(p_sel)
    p_sel.add_argument("--k", type=int, required=True)
    p_sel.add_argument("--method", default="duke", choices=METHODS)
    p_sel.add_argument("--lambda", dest="lambda_", type=float, default=None)
    p_sel.add_argument("--gamma", type=float, default=None)
    p_sel.add_argument("--gamma-grid", type=int, default=8)
    p_sel.add_argument("--machines", type=int, default=1)
    p_sel.add_argument("--partition", default="round-robin",
                       choices=STRATEGIES)
    p_sel.add_argument("--seed", type=int, default=0)
    p_sel.add_argument("--knn", type=int, default=10)
    p_sel.add_argument("--lambda-s", dest="lambda_s", type=float, default=0.9)
    p_sel.add_argument("--out", default=None)
    p_sel.set_defaults(fn=cmd_select)

    p_or = sub.add_parser("oracle", help="exact optimum by enumeration")
    _add_data_flags(p_or)
    p_or.add_argument("--k", type=int, required=True)
    p_or.add_argument("--lambda", dest="lambda_", type=float, default=None)
    p_or.add_argument("--kcenter", action="store_true",
                      help="optimize the radius alone (lambda = 0)")
    p_or.add_argument("--out", default=None)
    p_or.set_defaults(fn=cmd_oracle)

    p_ver = sub.add_parser("verify", help="randomized property suites")
    p_ver.add_argument("--trials", type=int, default=200)
    p_ver.add_argument("--parallel-trials", type=int, default=60)
    p_ver.add_argument("--n-max", type=int, default=14)
    p_ver.add_argument("--k-max", type=int, default=6)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--out", default=None)
    p_ver.add_argument("--replay-out", default="duke-replay.txt")
    p_ver.set_defaults(fn=cmd_verify)

    p_gen = sub.add_parser("gen", help="write a synthetic instance")
    p_gen.add_argument("--kind", default="clusters", choices=KINDS)
    p_gen.add_argument("--n", type=int, default=100)
    p_gen.add_argument("--dim", dest="gen_dim", type=int, default=2)
    p_gen.add_argument("--clusters", type=int, default=4)
    p_gen.add_argument("--spread", type=float, default=1.0)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--weight-scheme", default="uniform",
                       choices=("uniform", "per-cluster", "distance-proxy"))
    p_gen.add_argument("--points-out", required=True)
    p_gen.add_argument("--weights-out", default=None)
    p_gen.add_argument("--out", default=None)
    p_gen.set_defaults(fn=cmd_gen)

    p_gr = sub.add_parser("graph", help="export the kNN graph")
    _add_data_flags(p_gr)
    p_gr.add_argument("--knn", type=int, default=10)
    p_gr.add_argument("--graph-out", required=True)
    p_gr.add_argument("--out", default=None)
    p_gr.set_defaults(fn=cmd_graph)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        report, code = args.fn(args)
        _emit(report, args.out)
        return code
    except DukeError as exc:
        error = exc
    except MemoryError:
        # a backstop for an input that outgrows memory where no budget
        # refused it first
        error = InstanceTooLarge(memory="exhausted")
    print(f"error: {error}", file=sys.stderr)
    return error.exit_code


def run() -> None:
    """The process entry: the ``duke`` script, ``python -m duke`` and
    ``python -m duke.cli`` all start here.

    The imports leave about 21,000 objects (numpy's among them) tracked by
    the collector, and CPython's shutdown runs full collections over all
    of them, at 5-9 ms a pass on a 2-core x86_64 VM. None of them is
    garbage, so they are frozen once the imports are done and collections
    skip them. A ``select`` on 50k x 32 raw float32 inputs then ends about
    17 ms sooner (198 -> 181 ms), about as soon as with ``os._exit`` after
    :func:`main`. The collector stays on during the imports: turning it
    off there as well saves about 5 ms more, but the import garbage then
    frozen with them adds about 0.2 MiB of peak RSS. :func:`main` freezes
    nothing, so a caller in a process keeps its collector as it was.
    """
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
