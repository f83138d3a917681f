"""``regime_sweep``: the regime-dispatched library path, in process.

A worker process (``sweep_worker.py``) answers whole rounds of distinct
queries; this side makes the inputs, checks every answer and reduces
the timings.  One round holds, in four n bands:

* exact (n <= 14): Thm 5.1 thresholds and Thm 4.1 coins, plus the
  optimal symmetric threshold at the two Section 5.2 cases;
* mixture (n = 21-160) and crossover (n = 161-2000): thresholds and
  coins on both sides of the m = 160/161 tier boundary;
* large (n = 10^4-10^6): thresholds and coins, two pairs that differ
  only in delta, and the near-optimal threshold at the pairs' (n, delta).

Every winning-probability query sits near beta = alpha-balance with
delta within Theta(sqrt(n)) of n/4, where the answer is neither ~0 nor
~1.  beta and delta are jittered per query, so no two queries repeat
and the kernel memo never answers.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from fractions import Fraction
from typing import Dict, List, Tuple

import numpy as np

import harness
import reference

#: slot, band, operation, profile kind, n.  The slots' costs climb
#: roughly geometrically from ~1 ms to ~0.4 s (one ~1.3 s query at
#: n = 10^6 sits above them), so no large gap in the sorted per-query
#: times falls at the median or the 90th percentile.
SLOTS: List[Tuple[str, str, str, str, int]] = [
    ("E1", "exact", "wp", "coin", 6),
    ("E2", "exact", "wp", "coin", 13),
    ("E3", "exact", "wp", "threshold", 4),
    ("E4", "exact", "wp", "threshold", 6),
    ("E5", "exact", "wp", "threshold", 7),
    ("E6", "exact", "wp", "threshold", 8),
    ("E7", "exact", "wp", "threshold", 9),
    ("E8", "exact", "wp", "threshold", 10),
    ("E9", "exact", "wp", "threshold", 12),
    ("O1", "exact", "opt", "threshold", 3),
    ("O2", "exact", "opt", "threshold", 4),
    ("M1", "mixture", "wp", "threshold", 24),
    ("M2", "mixture", "wp", "threshold", 32),
    ("M3", "mixture", "wp", "threshold", 80),
    ("M4", "mixture", "wp", "threshold", 100),
    ("M5", "mixture", "wp", "coin", 60),
    ("M6", "mixture", "wp", "coin", 80),
    ("M7", "mixture", "wp", "coin", 100),
    ("M8", "mixture", "wp", "coin", 160),
    ("C1", "crossover", "wp", "coin", 200),
    ("C2", "crossover", "wp", "coin", 300),
    ("C3", "crossover", "wp", "threshold", 400),
    ("C4", "crossover", "wp", "threshold", 900),
    ("C5", "crossover", "wp", "coin", 2000),
    ("L1", "large", "wp", "threshold", 10_000),
    ("L2", "large", "wp", "threshold", 10_000),  # L1 with a larger delta
    ("N1", "large", "near_opt", "threshold", 10_000),  # at L1's delta
    ("L3", "large", "wp", "coin", 10_000),
    ("L4", "large", "wp", "threshold", 30_000),
    ("L5", "large", "wp", "threshold", 100_000),
    ("L6", "large", "wp", "threshold", 100_000),  # L5 with a larger delta
    ("N2", "large", "near_opt", "threshold", 100_000),  # at L5's delta
    ("L7", "large", "wp", "coin", 100_000),
    ("L8", "large", "wp", "coin", 300_000),
    ("L9", "large", "wp", "coin", 1_000_000),
]
BANDS = ("exact", "mixture", "crossover", "large")
#: Untimed first calls into every band and optimiser.
WARMUP_SLOTS = {"E1", "E3", "O1", "M1", "M5", "C4", "C5", "L1", "L3", "N1"}
#: (pair member, its partner with the smaller delta, near-optimum slot)
PAIRS = (("L2", "L1", "N1"), ("L6", "L5", "N2"))
#: Past this n the exact reference is too slow; Monte Carlo checks instead.
EXACT_REFERENCE_MAX_N = 300
#: Uniform draws spent on one Monte Carlo check.
MC_DRAWS = 2_000_000
#: z for the Monte Carlo checks: a false alarm is ~2e-9 per test.
MC_Z = 6.0
SECTION_52 = {3: Fraction(1), 4: Fraction(4, 3)}
IMPORTS = (
    "import repro.cache, repro.core.winning, repro.optimize.asymptotic_opt, "
    "repro.optimize.threshold_opt, repro.model.algorithms"
)


def _dyadic(value: float, bits: int) -> Fraction:
    return Fraction(round(value * (1 << bits)), 1 << bits)


def make_round(rng: np.random.Generator, round_index: int, seen: set) -> List[Dict]:
    """One round: every slot once, with fresh jittered inputs."""
    queries: List[Dict] = []
    deltas: Dict[str, Fraction] = {}
    xs: Dict[str, Fraction] = {}
    for slot, band, op, kind, n in SLOTS:
        root = math.sqrt(n)
        if op == "opt":
            delta, x = SECTION_52[n], None
        elif op == "near_opt":
            partner = {"N1": "L1", "N2": "L5"}[slot]
            delta, x = deltas[partner], None
        else:
            partner = {"L2": "L1", "L6": "L5"}.get(slot)
            while True:
                if partner is None:
                    centre = 1 / math.sqrt(2) if kind == "threshold" else 0.5
                    x = _dyadic(min(0.95, max(0.05, centre + rng.uniform(-0.5, 0.5) / root)), 20)
                    delta = _dyadic(n / 4 + rng.uniform(0.25, 0.75) * root, 10)
                else:
                    x = xs[partner]
                    delta = deltas[partner] + _dyadic(root / 8 + rng.uniform(0, 0.01), 10)
                if (slot, n, x, delta) not in seen:
                    break
            seen.add((slot, n, x, delta))
            xs[slot], deltas[slot] = x, delta
        queries.append({
            "id": f"{round_index}:{slot}", "slot": slot, "band": band, "op": op,
            "kind": kind, "n": n, "delta": str(delta),
            "x": None if x is None else str(x),
        })
    return queries


def make_inputs(seed: int, rounds: int) -> Dict:
    rng = np.random.default_rng([seed, 0x5EED])
    seen: set = set()
    # The warm-up queries (the round's cheap slots) use their own
    # inputs, so they fill no memo entry that a timed query could hit.
    warmup = [
        q for q in make_round(np.random.default_rng([seed, 0xA11]), -1, seen)
        if q["slot"] in WARMUP_SLOTS
    ]
    return {
        "warmup": warmup,
        "rounds": [make_round(rng, r, seen) for r in range(rounds)],
    }


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def _bracket_problem(answer: Dict) -> str:
    floor, ceiling, value = answer["floor"], answer["ceiling"], answer["value"]
    if not (0.0 <= floor <= value <= ceiling <= 1.0):
        return f"bracket [{floor}, {ceiling}] around {value} leaves [0, 1]"
    if not math.isfinite(answer["error_bound"]) or answer["error_bound"] < 0:
        return f"error bound {answer['error_bound']}"
    return ""


def _covers(value: float, bound: float, exact: Fraction) -> bool:
    return abs(Fraction(value) - exact) <= Fraction(bound)


def check_answer(query: Dict, answer: Dict) -> str:
    """Empty when the answer is right; else what is wrong with it."""
    n, delta = query["n"], Fraction(query["delta"])
    if query["op"] == "opt":
        beta, probability = Fraction(answer["beta"]), Fraction(answer["probability"])
        if reference.threshold_value(beta, n, delta) != probability:
            return "optimum probability differs from Thm 5.1 at its own beta"
        if n == 3:
            if abs(float(beta) - reference.BETA_STAR_N3) > 1e-9:
                return f"beta* {float(beta)} != 1 - sqrt(1/7)"
            if abs(float(probability) - reference.p_star_n3()) > 1e-9:
                return f"P* {float(probability)} != the Section 5.2.1 cubic"
        elif abs(float(beta) - reference.BETA_STAR_N4) > 5e-4:
            return f"beta* {float(beta)} is not ~0.678"
        for step in (Fraction(1, 10**4), Fraction(-1, 10**4)):
            if reference.threshold_value(beta + step, n, delta) > probability:
                return "a nearby threshold beats the reported optimum"
        return ""
    problem = _bracket_problem(answer)
    if problem or query["op"] == "near_opt":
        return problem
    x = Fraction(query["x"])
    if n <= EXACT_REFERENCE_MAX_N:
        exact = reference.exact_value(query["kind"], x, n, delta)
        if answer["exact"] is not None and Fraction(answer["exact"]) != exact:
            return "exact answer differs from the reference"
        if not _covers(answer["value"], answer["error_bound"], exact):
            return (
                f"|{answer['value']} - {float(exact)}| exceeds the "
                f"reported bound {answer['error_bound']}"
            )
    return ""


def check_properties(queries: Dict[str, Dict], answers: Dict[str, Dict]) -> Dict[str, str]:
    """Monotone in delta, and the near-optimum not below any value seen."""
    problems: Dict[str, str] = {}
    for qid, query in queries.items():
        pair = next((p for p in PAIRS if p[0] == query["slot"]), None)
        if pair is None or qid not in answers:
            continue
        round_prefix = qid.split(":")[0]
        bigger = answers[qid]
        smaller = answers.get(f"{round_prefix}:{pair[1]}")
        optimum = answers.get(f"{round_prefix}:{pair[2]}")
        if smaller is None or optimum is None:
            continue
        if smaller["floor"] > bigger["ceiling"]:
            problems[qid] = "value decreases as delta grows"
        # The near-optimum shares the smaller-delta query's (n, delta).
        if optimum["ceiling"] + optimum["gap_bound"] < smaller["floor"]:
            problems[f"{round_prefix}:{pair[2]}"] = (
                "near-optimum below a value evaluated at the same (n, delta)"
            )
    return problems


def monte_carlo_check(
    queries: Dict[str, Dict], answers: Dict[str, Dict], seed: int
) -> Dict[str, str]:
    """Seeded simulation of every answer past the exact reference: each
    one within its bound plus MC_Z standard errors, and all of them
    pooled."""
    problems: Dict[str, str] = {}
    pooled: List[str] = []
    wins = expected_lo = expected_hi = variance = 0.0
    for index, (qid, query) in enumerate(sorted(queries.items())):
        if query["op"] != "wp" or query["n"] <= EXACT_REFERENCE_MAX_N:
            continue
        answer = answers[qid]
        n, trials = query["n"], max(8, MC_DRAWS // query["n"])
        rng = np.random.default_rng([seed, 0xC0FFEE, index])
        share = reference.monte_carlo(
            query["kind"], float(Fraction(query["x"])), n,
            float(Fraction(query["delta"])), trials, rng,
        )
        p = min(max(answer["value"], 1.0 / trials), 1.0 - 1.0 / trials)
        se = math.sqrt(p * (1 - p) / trials)
        if abs(share - answer["value"]) > answer["error_bound"] + MC_Z * se:
            problems[qid] = (
                f"simulated {share:.4f} from {trials} games is outside "
                f"{answer['value']:.4f} +- {answer['error_bound']:.2e}"
            )
        pooled.append(qid)
        wins += share * trials
        expected_lo += (answer["value"] - answer["error_bound"]) * trials
        expected_hi += (answer["value"] + answer["error_bound"]) * trials
        variance += p * (1 - p) * trials
    slack = MC_Z * math.sqrt(variance)
    if pooled and not (expected_lo - slack <= wins <= expected_hi + slack):
        for qid in pooled:
            problems.setdefault(qid, "pooled simulation disagrees with the answers")
    return problems


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------
def setup_seconds(ctx: harness.Context, workload: str) -> float:
    """Median time from a fresh interpreter to the library imported."""
    return harness.time_starts(ctx, [sys.executable, "-c", IMPORTS], "setup")


def run(ctx: harness.Context, workload: str, trace: bool) -> Tuple[harness.Tally, Dict]:
    inputs = make_inputs(ctx.seed, rounds=1 if ctx.smoke else 200)
    workdir = ctx.fresh_dir(f"sweep-{int(trace)}")
    inputs_path, out_path = workdir / "inputs.json", workdir / "answers.json"
    inputs_path.write_text(json.dumps(inputs))
    code, _, err, _, rss = harness.run_child(
        ctx,
        [sys.executable, str(harness.BENCH_DIR / "sweep_worker.py"), str(inputs_path),
         str(out_path), repr(ctx.seconds), "1" if trace else "0"],
        workdir, timeout=160.0,
    )
    if code != 0:
        raise harness.SetupError(f"sweep worker exited {code}: {err[-600:]}")
    out = json.loads(out_path.read_text())

    queries = {q["id"]: q for r in inputs["rounds"] for q in r}
    answers = {a["id"]: a for a in out["answers"]}
    if ctx.corrupt:
        # The first answer is always an exact-band winning probability.
        first = out["answers"][0]
        first["exact"] = str(Fraction(first["exact"]) + Fraction(1, 4))
        first["value"] = float(Fraction(first["exact"]))
    asked = {qid: queries[qid] for qid in answers}
    problems = check_properties(asked, answers)
    problems.update(monte_carlo_check(asked, answers, ctx.seed))
    tally = harness.Tally()
    for answer in out["answers"]:
        qid = answer["id"]
        problem = check_answer(queries[qid], answer) or problems.get(qid, "")
        tally.record(f"{qid}: {problem}" if problem else None)

    seconds = [a["seconds"] for a in out["answers"]]
    bounds = [a["error_bound"] for a in out["answers"] if "error_bound" in a]
    rounds_done = len(out["answers"]) / len(SLOTS)
    summary = {
        "latency_p50_ms": statistics.median(seconds) * 1e3,
        "latency_p90_ms": harness.p90(seconds) * 1e3,
        "ops_per_s": len(seconds) / out["wall"],
        "peak_rss_mb": rss,
        "error_bound_geomean": harness.geomean(bounds),
        "ops": len(seconds),
    }
    if trace:
        summary["layers"] = _layer_metrics(out, queries, rounds_done)
    return tally, summary


def _layer_metrics(out: Dict, queries: Dict[str, Dict], rounds_done: float) -> Dict[str, float]:
    seconds = out["layers"]["seconds"]
    calls = out["layers"]["calls"]
    ops = len(out["answers"])

    def per_op_ms(name: str) -> float:
        return seconds.get(name, 0.0) * 1e3 / ops

    layers = {
        "core.winning.frontend_ms": per_op_ms("core.winning.frontend.self"),
        "core.winning.exact_ms": per_op_ms("core.winning.exact"),
        "core.winning.exact_calls": calls.get("core.winning.exact", 0) / ops,
        "core.asymptotic.mixture_ms": per_op_ms("core.asymptotic.mixture"),
        "probability.asymptotics.value_bound_ms": per_op_ms("probability.asymptotics.value_bound"),
        "probability.asymptotics.value_bound_calls":
            calls.get("probability.asymptotics.value_bound", 0) / ops,
        "optimize.threshold_opt.ms": per_op_ms("optimize.threshold_opt"),
        "optimize.asymptotic_opt.ms": per_op_ms("optimize.asymptotic_opt"),
    }
    # The dispatcher's asymptotic tier is never reached: above m = 160
    # the mixture calls irwin_hall_asymptotic_value_bound directly.
    for tier in ("exact", "certified"):
        name = f"probability.regimes.{tier}"
        layers[f"{name}_ms"] = per_op_ms(name)
        layers[f"{name}_calls"] = calls.get(name, 0) / ops
    near = [a["evaluations"] for a in out["answers"] if "evaluations" in a]
    layers["optimize.asymptotic_opt.evaluations"] = sum(near) / max(1, len(near))
    for band in BANDS:
        total = sum(
            a["seconds"] for a in out["answers"] if queries[a["id"]]["band"] == band
        )
        layers[f"regime_sweep.band.{band}_s"] = total / rounds_done
    return layers
