"""``cli_cold``: fresh-process ``repro all`` runs, one after another.

Each operation starts a new interpreter in an empty working directory,
so interpreter start and ``import repro.cli`` sit inside every one.
The report is checked line by line, and its Section 5.2 optima against
the independent reference.
"""

from __future__ import annotations

import json
import re
import statistics
import sys
import time
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import harness
import reference

_LINE = re.compile(r"^\[(?P<status>[^\]]+)\] (?P<label>.+?)\s{2,}expected .+?, measured (?P<measured>.+)$")
_PLUS_MINUS = re.compile(r"\+- ([0-9.]+)")
_INTERVAL = re.compile(r"\[([0-9.]+), ([0-9.]+)\]")


def setup_seconds(ctx: harness.Context, workload: str) -> float:
    """Median interpreter start plus ``import repro.cli``."""
    return harness.time_starts(ctx, [sys.executable, "-c", "import repro.cli"], "setup")


def check_report(code: int, stdout: str, beta_n4: float) -> Tuple[Optional[str], List[float]]:
    """(problem, reported Monte Carlo half-widths) of one report."""
    if code != 0 or "REPRODUCTION COMPLETE: all checks passed" not in stdout:
        return f"repro all exited {code} without passing its own checks", []
    measured: Dict[str, str] = {}
    for line in stdout.splitlines():
        match = _LINE.match(line)
        if match:
            if match["status"].strip() != "ok":
                return f"report line not ok: {line}", []
            measured[match["label"]] = match["measured"]
    expected = {
        "5.2.1 beta* (n=3, delta=1)": reference.BETA_STAR_N3,
        "5.2.1 P*": reference.p_star_n3(),
        "5.2.2 beta* (n=4, delta=4/3)": beta_n4,
    }
    for label, value in expected.items():
        if label not in measured:
            return f"report has no line {label!r}", []
        # Printed with six decimals: off by at most half a unit in the last.
        if abs(float(measured[label]) - value) > 5.0000001e-7:
            return f"{label}: printed {measured[label]}, reference {value:.9f}", []
    widths = []
    plus_minus = _PLUS_MINUS.search(measured.get("Prop 2.2 vs Monte Carlo", ""))
    interval = _INTERVAL.search(measured.get("protocol replay (n=3 optimum)", ""))
    if plus_minus is None or interval is None:
        return "report lacks its Monte Carlo intervals", []
    widths.append(float(plus_minus[1]))
    widths.append((float(interval[2]) - float(interval[1])) / 2)
    return None, widths


def run(ctx: harness.Context, workload: str, trace: bool) -> Tuple[harness.Tally, Dict]:
    beta_n4 = reference.optimal_threshold(4, Fraction(4, 3))
    tally = harness.Tally()
    walls: List[float] = []
    rss: List[float] = []
    widths: List[float] = []
    probes: List[Dict] = []
    started = time.perf_counter()
    while not walls or (time.perf_counter() - started < ctx.seconds and not ctx.smoke):
        cwd = ctx.fresh_dir(f"all-{int(trace)}-{len(walls)}")
        if trace:
            args = [sys.executable, str(harness.BENCH_DIR / "cli_probe.py"), str(cwd / "probe.json")]
        else:
            args = [sys.executable, "-m", "repro.cli", "all"]
        code, out, _, wall, peak = harness.run_child(ctx, args, cwd)
        if ctx.corrupt and not walls:
            out = out.replace("measured 0.622036", "measured 0.622136")
        problem, reported = check_report(code, out, beta_n4)
        tally.record(problem)
        walls.append(wall)
        rss.append(peak)
        widths.extend(reported)
        if trace:
            probes.append(json.loads((cwd / "probe.json").read_text()))
    elapsed = time.perf_counter() - started
    summary = {
        "latency_p50_ms": statistics.median(walls) * 1e3,
        "latency_p90_ms": harness.p90(walls) * 1e3,
        "ops_per_s": len(walls) / elapsed,
        "peak_rss_mb": statistics.median(rss),
        "error_bound_geomean": harness.geomean(widths),
    }
    if trace:
        summary["layers"] = {
            "cli.all_compute_s": statistics.median([p["compute_s"] for p in probes]),
            "simulation.engine.trials_per_s": statistics.median(
                [p["trials"] / p["seconds"] for p in probes]
            ),
        }
    return tally, summary
