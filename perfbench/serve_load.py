"""``serve_warm`` and ``serve_mixed``: closed-loop load on ``repro serve``.

The server is started from a fresh working directory with the warm set
below; clients hold keep-alive connections and send each request only
after the previous answer arrived.

* ``serve_warm``: one connection; rounds of winning-probability queries
  on the warmed curves (threshold and coin at each warm pair), each at a
  fresh seeded point.
* ``serve_mixed``: two connections; each round is 12 warm-curve hits
  (two per warmed curve), 3 winning-probability queries on a fresh (n = 3, 4, 4; delta) curve (a table
  build and a memo write), 2 optimal-strategy requests on warmed pairs,
  and 4 asymptotic-tier queries at n = 10^3-10^4 (two pairs differing
  only in delta, which sits within Theta(sqrt(n)) of n/4), shuffled:
  21 requests, 2 of which fail under the named fault.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import json
import math
import re
import statistics
import signal
import socket
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

import numpy as np

import harness
import reference

WARM = ((3, Fraction(1)), (4, Fraction(4, 3)), (5, Fraction(3, 2)))
SERVE_ARGS = ["serve", "--port", "0"] + [
    arg for n, delta in WARM for arg in ("--warm", f"{n}:{delta}")
]
#: Uniform draws spent simulating one asymptotic-tier answer.
MC_DRAWS = 100_000
#: A prime, so fresh-curve deltas never reduce onto each other.
FRESH_DENOMINATOR = 999_983
#: n of the fresh-curve queries.  An n = 5 build under two-connection
#: contention already takes ~190 ms at p90 against the 250 ms deadline,
#: so a miss (and a failure that depends on timing) would be likely.
FRESH_NS = (3, 4, 4)
MC_Z = 6.0
_LISTENING = re.compile(r"listening on http://[\d.]+:(\d+)")


# ----------------------------------------------------------------------
# Server lifecycle
# ----------------------------------------------------------------------
class Server:
    def __init__(self, ctx: harness.Context, name: str, trace_out: Optional[Path] = None):
        self.dir = ctx.fresh_dir(name)
        if trace_out is None:
            args = [sys.executable, "-m", "repro.cli", *SERVE_ARGS]
        else:
            args = [sys.executable, str(harness.BENCH_DIR / "serve_launcher.py"),
                    str(trace_out), *SERVE_ARGS]
        self.stderr_path = self.dir / "stderr.txt"
        started = time.perf_counter()
        with open(self.stderr_path, "w") as err:
            self.proc = subprocess.Popen(
                args, cwd=self.dir, env=ctx.env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=err,
            )
        try:
            self.port = self._wait_port()
            self._wait_ready()
        except BaseException:
            self.stop()
            raise
        self.ready_seconds = time.perf_counter() - started

    def _wait_port(self) -> int:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            match = _LISTENING.search(self.stderr_path.read_text())
            if match:
                return int(match.group(1))
            if self.proc.poll() is not None:
                break
            time.sleep(0.001)
        raise harness.SetupError(f"server never listened: {self.stderr_path.read_text()[-400:]}")

    def _wait_ready(self) -> None:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            with socket.create_connection(("127.0.0.1", self.port)) as sock:
                sock.sendall(b"GET /readyz HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n")
                if sock.recv(64).startswith(b"HTTP/1.1 200"):
                    return
            time.sleep(0.001)
        raise harness.SetupError("server never became ready")

    def stop(self) -> float:
        """SIGTERM, wait for the drain; return the server's peak RSS."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        code, rss = harness.reap(self.proc, timeout=30)
        if code != 0:
            raise harness.SetupError(
                f"server exited {code}: {self.stderr_path.read_text()[-400:]}"
            )
        return rss


def setup_seconds(ctx: harness.Context, workload: str) -> float:
    """Median time from spawning ``repro serve`` to ``/readyz`` 200."""
    walls = []
    for i in range(ctx.setup_starts):
        server = Server(ctx, f"setup-{i}")
        walls.append(server.ready_seconds)
        server.stop()
    return statistics.median(walls)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def _wp(n: int, delta, point: float, algorithm: str = "threshold") -> str:
    name = "alpha" if algorithm == "oblivious" else "beta"
    return (
        f"/v1/winning-probability?n={n}&delta={delta}&algorithm={algorithm}"
        f"&{name}={point!r}"
    )


def _warm_hits(rng: np.random.Generator, per_curve: int) -> List[str]:
    """*per_curve* fresh points on each warmed curve (both families)."""
    return [
        _wp(n, delta, float(rng.uniform(0.02, 0.98)), algorithm)
        for n, delta in WARM
        for algorithm in ("threshold", "oblivious")
        for _ in range(per_curve)
    ]


def warm_round(rng: np.random.Generator) -> List[str]:
    paths = _warm_hits(rng, 1)
    rng.shuffle(paths)
    return paths


def mixed_round(rng: np.random.Generator, connection: int, fresh: set) -> List[str]:
    paths = _warm_hits(rng, 2)
    for n in FRESH_NS:
        # Fresh curves: each connection draws numerators of its own
        # parity over a prime denominator, so no delta repeats.
        while True:
            numerator = int(rng.integers(n * FRESH_DENOMINATOR // 8, n * FRESH_DENOMINATOR // 4))
            delta = Fraction(2 * numerator + connection, FRESH_DENOMINATOR)
            if delta not in fresh:
                break
        fresh.add(delta)
        paths.append(_wp(n, delta, float(rng.uniform(0.02, 0.98))))
    for index in rng.choice(len(WARM), size=2, replace=False):
        n, delta = WARM[index]
        paths.append(f"/v1/optimal-strategy?n={n}&delta={delta}")
    for low in (3.0, 3.5):  # one pair in each half-decade of n
        n = int(round(10 ** rng.uniform(low, low + 0.5)))
        root = math.sqrt(n)
        beta = 1 / math.sqrt(2) + float(rng.uniform(-0.5, 0.5)) / root
        delta = Fraction(round((n / 4 + float(rng.uniform(0.25, 0.75)) * root) * 1024), 1024)
        step = Fraction(round(root / 8 * 1024), 1024)
        paths.append(_wp(n, delta, beta))
        paths.append(_wp(n, delta + step, beta))
    rng.shuffle(paths)
    return paths


def make_rounds(workload: str, seed: int, connection: int) -> Iterator[List[str]]:
    """The endless round sequence of one connection."""
    rng = np.random.default_rng([seed, connection, 0x5E7E])
    fresh: set = set()
    while True:
        if workload == "serve_warm":
            yield warm_round(rng)
        else:
            yield mixed_round(rng, connection, fresh)


def warmup_paths(workload: str) -> List[str]:
    """Untimed requests that let lazy imports and first calls finish;
    their inputs appear in no timed round."""
    paths = [_wp(n, delta, 0.5, a) for n, delta in WARM for a in ("threshold", "oblivious")]
    if workload == "serve_mixed":
        paths += [
            _wp(4, Fraction(7, 5), 0.5),
            "/v1/optimal-strategy?n=3&delta=1",
            _wp(1500, Fraction(1500, 4) + 5, 0.7071),
        ]
    return paths


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------
async def _get(reader, writer, path: str) -> Tuple[int, bytes]:
    writer.write(f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode())
    await writer.drain()
    status = int((await reader.readline()).split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    return status, await reader.readexactly(length)


async def _connection(port: int, rounds: Iterable[List[str]], stop_at: float, results: List) -> None:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        for paths in rounds:
            for path in paths:
                started = time.perf_counter()
                status, body = await _get(reader, writer, path)
                results.append((path, status, body, time.perf_counter() - started))
            if time.perf_counter() >= stop_at:
                break
    finally:
        writer.close()
        await writer.wait_closed()


async def _drive(port: int, workload: str, seed: int, seconds: float, smoke: bool):
    connections = 1 if workload == "serve_warm" else 2
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    for path in warmup_paths(workload):
        await _get(reader, writer, path)
    await _get(reader, writer, "/metrics")  # starts the traced launcher's timers
    writer.close()
    await writer.wait_closed()
    results: List[List] = [[] for _ in range(connections)]
    started = time.perf_counter()
    await asyncio.gather(*(
        _connection(
            port, itertools.islice(make_rounds(workload, seed, c), 1 if smoke else None),
            started + seconds, results[c],
        )
        for c in range(connections)
    ))
    return [r for per in results for r in per], time.perf_counter() - started


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def _threshold_exact(beta: Fraction, n: int, delta: Fraction) -> Fraction:
    return reference.threshold_value(beta, n, delta)


def _check_optimum(n: int, delta: Fraction, body: Dict) -> Tuple[Optional[str], Optional[str]]:
    """(problem, fault) of one optimal-strategy answer."""
    if body.get("tier") != "exact":
        return f"optimal-strategy tier {body.get('tier')}", None
    beta, exact = Fraction(body["beta_exact"]), Fraction(body["probability_exact"])
    if _threshold_exact(beta, n, delta) != exact:
        return "probability_exact differs from Thm 5.1 at beta_exact", None
    if n == 3 and abs(float(beta) - reference.BETA_STAR_N3) > 1e-9:
        return f"beta* {float(beta)} != 1 - sqrt(1/7)", None
    if n == 4 and abs(float(beta) - reference.BETA_STAR_N4) > 5e-4:
        return f"beta* {float(beta)} is not ~0.678", None
    for step in (Fraction(1, 10**4), Fraction(-1, 10**4)):
        if _threshold_exact(beta + step, n, delta) > exact:
            return "a nearby threshold beats the reported optimum", None
    if abs(Fraction(body["probability"]) - exact) > Fraction(body["error_bound"]):
        return None, harness.FAULT_EXACT_TIER_ROUNDING
    return None, None


def check(results: List, seed: int, corrupt: bool) -> Tuple[harness.Tally, List[float]]:
    """Check every answer; return the tally and the bounds of the passed ones."""
    tally = harness.Tally()
    bounds: List[float] = []
    asymptotic: Dict[Tuple, Dict] = {}
    parsed = []
    for path, status, raw, _ in results:
        url = urlsplit(path)
        query = {k: v[0] for k, v in parse_qs(url.query).items()}
        body = json.loads(raw) if status == 200 else {}
        if corrupt and "value" in body:
            body["value"] = min(1.0, body["value"] + 0.25)
            corrupt = False
        parsed.append((url.path, query, status, body))
        if status == 200 and body.get("tier") == "asymptotic":
            asymptotic[(query["n"], query["beta"], query["delta"])] = body

    mc_problems = _monte_carlo(asymptotic, seed)
    for path, query, status, body in parsed:
        problem = fault = None
        n, delta = int(query["n"]), Fraction(query["delta"])
        if status != 200:
            problem = f"HTTP {status} for {path}?{query}"
        elif path == "/v1/optimal-strategy":
            problem, fault = _check_optimum(n, delta, body)
        elif body["tier"] == "asymptotic":
            problem = _check_asymptotic(query, body, asymptotic) or mc_problems.get(
                (query["n"], query["beta"], query["delta"])
            )
        else:
            problem = _check_point(query, body, n, delta)
        if problem is None and fault is None:
            bounds.append(float(body["error_bound"]))
        tally.record(f"{path} {query}: {problem}" if problem else None, fault)
    return tally, bounds


def _check_point(query: Dict, body: Dict, n: int, delta: Fraction) -> Optional[str]:
    if body["tier"] != "certified":
        return f"tier {body['tier']} on a compiled curve"
    algorithm = query.get("algorithm", "threshold")
    x = Fraction(float(query["alpha" if algorithm == "oblivious" else "beta"]))
    exact = reference.exact_value("coin" if algorithm == "oblivious" else "threshold", x, n, delta)
    if abs(Fraction(body["value"]) - exact) > Fraction(body["error_bound"]):
        return f"value {body['value']} misses {float(exact)} by more than {body['error_bound']}"
    return None


def _check_asymptotic(query: Dict, body: Dict, answers: Dict) -> Optional[str]:
    floor, ceiling, value = body["floor"], body["ceiling"], body["value"]
    if not 0.0 <= floor <= value <= ceiling <= 1.0:
        return f"bracket [{floor}, {ceiling}] around {value} leaves [0, 1]"
    # A pair shares (n, beta) and its second delta is the larger one;
    # the value cannot fall as delta grows.
    n, beta, delta = query["n"], query["beta"], Fraction(query["delta"])
    for (other_n, other_beta, other_delta), other in answers.items():
        if (other_n, other_beta) == (n, beta) and Fraction(other_delta) > delta:
            if floor > other["ceiling"]:
                return "value decreases as delta grows"
    return None


def _monte_carlo(answers: Dict[Tuple, Dict], seed: int) -> Dict[Tuple, str]:
    """One pooled test over every asymptotic answer, MC_DRAWS each."""
    wins = lo = hi = variance = 0.0
    for index, ((n, beta, delta), body) in enumerate(sorted(answers.items())):
        trials = max(4, MC_DRAWS // int(n))
        rng = np.random.default_rng([seed, 0xA5, index])
        wins += trials * reference.monte_carlo(
            "threshold", float(beta), int(n), float(Fraction(delta)), trials, rng
        )
        lo += trials * body["floor"]
        hi += trials * body["ceiling"]
        p = min(max(body["value"], 0.01), 0.99)
        variance += trials * p * (1 - p)
    slack = MC_Z * math.sqrt(variance)
    if answers and not lo - slack <= wins <= hi + slack:
        return {key: "pooled simulation disagrees with the asymptotic answers" for key in answers}
    return {}


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------
def run(ctx: harness.Context, workload: str, trace: bool) -> Tuple[harness.Tally, Dict]:
    trace_out = ctx.workdir / f"serve-trace-{time.time_ns()}.json" if trace else None
    server = Server(ctx, f"serve-{int(trace)}-{time.time_ns()}", trace_out)
    try:
        results, wall = asyncio.run(_drive(server.port, workload, ctx.seed, ctx.seconds, ctx.smoke))
    finally:
        rss = server.stop()
    tally, bounds = check(results, ctx.seed, ctx.corrupt)
    latencies = [r[3] for r in results]
    summary = {
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": harness.p90(latencies) * 1e3,
        "ops_per_s": len(results) / wall,
        "peak_rss_mb": rss,
        "error_bound_geomean": harness.geomean(bounds),
    }
    if trace:
        summary["layers"] = _layer_metrics(json.loads(trace_out.read_text()), results)
    return tally, summary


def _layer_metrics(trace: Dict, results: List) -> Dict[str, float]:
    seconds, calls = trace["seconds"], trace["calls"]
    ops = len(results)

    def ms(name: str) -> float:
        return seconds.get(name, 0.0) * 1e3 / ops

    client_ms = sum(r[3] for r in results) * 1e3 / ops
    coalesce_wait = ms("serve.coalesce") - ms("serve.coalesce.kernel_wait")
    layers = {
        "serve.server.transport_ms": client_ms - ms("serve.handle"),
        "serve.admission.wait_ms": ms("serve.admission"),
        "serve.handlers.coalesce_wait_ms": coalesce_wait,
        "serve.handlers.coalesce_batch": (
            calls.get("serve.coalesce.kernel_wait", 0)
            / max(1, calls.get("batch.compile.kernel", 0))
        ),
        "batch.tables.fetch_ms": ms("batch.tables.fetch"),
        "batch.tables.builds": calls.get("batch.tables.build", 0) / ops,
        "cache.hits": trace["cache"]["hits"] / ops,
        "cache.misses": trace["cache"]["misses"] / ops,
        "batch.compile.kernel_ms": ms("batch.compile.kernel"),
        "serve.degrade.exact_ms": ms("serve.degrade.exact"),
        "serve.degrade.exact_calls": calls.get("serve.degrade.exact", 0) / ops,
        "serve.handlers.other_ms": (
            ms("serve.handle") - ms("serve.admission") - ms("serve.coalesce")
            - ms("batch.tables.fetch") - ms("serve.degrade.exact")
        ),
        "core.asymptotic.mixture_ms": ms("core.asymptotic.mixture"),
        "probability.asymptotics.value_bound_ms": ms("probability.asymptotics.value_bound"),
        "probability.asymptotics.value_bound_calls":
            calls.get("probability.asymptotics.value_bound", 0) / ops,
    }
    # The dispatcher's asymptotic tier is never reached: above m = 160
    # the mixture calls irwin_hall_asymptotic_value_bound directly.
    for tier in ("exact", "certified"):
        name = f"probability.regimes.{tier}"
        layers[f"{name}_ms"] = ms(name)
        layers[f"{name}_calls"] = calls.get(name, 0) / ops
    tiers = [json.loads(r[2]).get("tier") for r in results if r[1] == 200]
    for tier in ("certified", "exact", "asymptotic", "degraded"):
        layers[f"serve.tier.{tier}"] = tiers.count(tier) / ops
    return layers
