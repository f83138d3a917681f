"""Child process of the ``regime_sweep`` workload.

Usage: ``python sweep_worker.py INPUTS.json OUT.json SECONDS TRACE``

Imports the library, answers the untimed warm-up queries, then answers
whole rounds of queries until SECONDS have passed, timing each query.
It receives generated inputs only; the parent checks the answers.
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction

import repro.cache as cache
import repro.core.winning as winning
import repro.optimize.asymptotic_opt as asymptotic_opt
import repro.optimize.threshold_opt as threshold_opt
from repro.model.algorithms import ObliviousCoin, SingleThresholdRule


def answer(query):
    """Ask the library one query; return what it answered."""
    n, delta = query["n"], Fraction(query["delta"])
    op = query["op"]
    if op == "opt":
        # A fixed Section 5.2 case: the memo would answer every repeat,
        # so the optimiser runs with it bypassed.
        with cache.bypass_cache():
            optimum = threshold_opt.optimal_symmetric_threshold(n, delta)
        return {"beta": str(optimum.beta), "probability": str(optimum.probability)}
    if op == "near_opt":
        optimum = asymptotic_opt.near_optimal_symmetric_threshold(n, delta)
        floor, ceiling = optimum.bracket
        return {
            "beta": optimum.beta, "value": optimum.value,
            "error_bound": optimum.error_bound, "gap_bound": optimum.gap_bound,
            "floor": floor, "ceiling": ceiling, "evaluations": optimum.evaluations,
        }
    x = Fraction(query["x"])
    rule = SingleThresholdRule(x) if query["kind"] == "threshold" else ObliviousCoin(x)
    profile = [rule] * n
    result = winning.winning_probability(profile, delta)
    floor, ceiling = result.bracket
    return {
        "value": result.value, "error_bound": result.error_bound,
        "floor": floor, "ceiling": ceiling, "regime": result.regime,
        "exact": None if result.exact is None else str(result.exact),
    }


def main(argv) -> int:
    inputs_path, out_path, seconds, trace = argv[1], argv[2], float(argv[3]), argv[4] == "1"
    with open(inputs_path) as handle:
        inputs = json.load(handle)
    recorder = None
    if trace:
        from layers import Recorder, wrap_regime_layers

        recorder = Recorder()
        wrap_regime_layers(recorder)
        recorder.wrap(threshold_opt, "optimal_symmetric_threshold", "optimize.threshold_opt")
        recorder.wrap(
            asymptotic_opt, "near_optimal_symmetric_threshold",
            "optimize.asymptotic_opt",
        )
    for query in inputs["warmup"]:
        answer(query)
    if recorder is not None:
        recorder.reset()

    answers = []
    started = time.perf_counter()
    for round_queries in inputs["rounds"]:
        for query in round_queries:
            t0 = time.perf_counter()
            result = answer(query)
            result["seconds"] = time.perf_counter() - t0
            result["id"] = query["id"]
            answers.append(result)
        if time.perf_counter() - started >= seconds:
            break
    wall = time.perf_counter() - started
    out = {"answers": answers, "wall": wall}
    if recorder is not None:
        out["layers"] = recorder.snapshot()
    with open(out_path, "w") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
