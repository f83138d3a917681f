"""The repository benchmark: one named workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(every end-to-end metric with ``--trace 0``; every per-layer metric,
and the tracing overhead, with ``--trace 1``).  ``--smoke`` shortens
the run to one cold start and one round; ``--corrupt`` falsifies one
answer before the checks, to show that they fail.  Workloads and
metrics are listed in ``BENCHMARK.json`` and described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Dict, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402

WORKLOADS = ("cli_cold", "serve_warm", "serve_mixed", "regime_sweep")

END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "error_bound_geomean": "1",
}

#: Every per-layer metric and its unit; a workload that does not reach
#: a layer reports it as 0 (see the README's layer map).
PER_LAYER = {
    "serve.server.transport_ms": "ms/op",
    "serve.admission.wait_ms": "ms/op",
    "serve.handlers.coalesce_wait_ms": "ms/op",
    "serve.handlers.coalesce_batch": "points/call",
    "batch.tables.fetch_ms": "ms/op",
    "batch.tables.builds": "count/op",
    "cache.hits": "count/op",
    "cache.misses": "count/op",
    "batch.compile.kernel_ms": "ms/op",
    "serve.degrade.exact_ms": "ms/op",
    "serve.degrade.exact_calls": "count/op",
    "serve.handlers.other_ms": "ms/op",
    "serve.tier.certified": "count/op",
    "serve.tier.exact": "count/op",
    "serve.tier.asymptotic": "count/op",
    "serve.tier.degraded": "count/op",
    "core.asymptotic.mixture_ms": "ms/op",
    "core.winning.frontend_ms": "ms/op",
    "core.winning.exact_ms": "ms/op",
    "core.winning.exact_calls": "count/op",
    "probability.regimes.exact_ms": "ms/op",
    "probability.regimes.exact_calls": "count/op",
    "probability.regimes.certified_ms": "ms/op",
    "probability.regimes.certified_calls": "count/op",
    "probability.asymptotics.value_bound_ms": "ms/op",
    "probability.asymptotics.value_bound_calls": "count/op",
    "optimize.threshold_opt.ms": "ms/op",
    "optimize.asymptotic_opt.ms": "ms/op",
    "optimize.asymptotic_opt.evaluations": "count/call",
    "regime_sweep.band.exact_s": "s/round",
    "regime_sweep.band.mixture_s": "s/round",
    "regime_sweep.band.crossover_s": "s/round",
    "regime_sweep.band.large_s": "s/round",
    "import.repro_cli_s": "s",
    "import.networkx_s": "s",
    "import.numpy_s": "s",
    "cli.all_compute_s": "s",
    "simulation.engine.trials_per_s": "1/s",
    "trace.overhead_pct": "%",
}


def _module(workload: str):
    if workload == "cli_cold":
        import cli_cold as module
    elif workload == "regime_sweep":
        import sweep as module
    else:
        import serve_load as module
    return module


def measure(ctx: harness.Context, workload: str) -> Tuple[harness.Tally, Dict]:
    """One untraced run: its tally and every end-to-end metric."""
    module = _module(workload)
    setup_s = module.setup_seconds(ctx, workload)
    tally, summary = module.run(ctx, workload, trace=False)
    summary["setup_s"] = setup_s
    return tally, summary


def trace(ctx: harness.Context, workload: str) -> Tuple[harness.Tally, Dict]:
    """The traced run, preceded by an untraced one with the same seed;
    their ``latency_p50_ms`` ratio is the tracing overhead."""
    module = _module(workload)
    _, plain = module.run(ctx, workload, trace=False)
    tally, traced = module.run(ctx, workload, trace=True)
    layers = {name: 0.0 for name in PER_LAYER}
    layers.update(traced["layers"])
    layers.update(harness.import_times(ctx))
    layers["trace.overhead_pct"] = 100.0 * (
        traced["latency_p50_ms"] / plain["latency_p50_ms"] - 1.0
    )
    return tally, layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--corrupt", action="store_true")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    try:
        ctx = harness.Context(
            root=Path.cwd(), seed=args.seed, seconds=args.seconds,
            smoke=args.smoke, corrupt=args.corrupt,
        )
    except harness.SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    try:
        ctx.compile_bytecode()
        if args.trace:
            tally, values = trace(ctx, args.workload)
            metrics = {name: (values[name], PER_LAYER[name]) for name in PER_LAYER}
        else:
            tally, values = measure(ctx, args.workload)
            metrics = {name: (values[name], END_TO_END[name]) for name in END_TO_END}
    except harness.SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        ctx.cleanup()
    for problem in tally.problems[:20]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    for fault, count in tally.faults.items():
        print(f"perfbench: known fault {fault}: {count} operation(s)", file=sys.stderr)
    print(
        f"perfbench: {args.workload} seed {args.seed}: {tally.attempted} attempted, "
        f"{tally.failed} failed, {time.perf_counter() - started:.1f}s",
        file=sys.stderr,
    )
    print(harness.result_line(tally, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
