"""Shared plumbing: the fixed starting state, child processes, statistics
and the tally of checked operations."""

from __future__ import annotations

import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent

#: Environment variables through which a caller could hand the program
#: a warm cache or a run store; every run starts without them.
_STATE_VARIABLES = (
    "REPRO_CACHE_DIR",
    "REPRO_RUNS_DIR",
    "REPRO_NO_CACHE",
    "REPRO_CACHE_MAX_BYTES",
)


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no program, failed start)."""


@dataclass
class Context:
    """One run's settings and its fixed starting state."""

    root: Path
    seed: int
    seconds: float
    smoke: bool
    corrupt: bool
    workdir: Path = field(init=False)
    env: Dict[str, str] = field(init=False)

    def __post_init__(self) -> None:
        src = self.root / "src"
        if not (src / "repro" / "__init__.py").is_file():
            raise SetupError(f"no program source under {src}")
        scratch = self.root / ".bench_tmp"
        scratch.mkdir(exist_ok=True)
        self.workdir = scratch / f"run-{os.getpid()}-{time.time_ns()}"
        self.workdir.mkdir()
        env = {k: v for k, v in os.environ.items() if k not in _STATE_VARIABLES}
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONPATH"] = str(src)
        env["PYTHONUNBUFFERED"] = "1"
        self.env = env

    @property
    def setup_starts(self) -> int:
        """Cold starts timed for ``setup_s`` (their median is reported)."""
        return 1 if self.smoke else 5

    def fresh_dir(self, name: str) -> Path:
        """An empty working directory for one child process."""
        path = self.workdir / name
        path.mkdir()
        return path

    def compile_bytecode(self) -> None:
        """The untimed start: byte-compile the program once, so that no
        timed start pays for it."""
        result = subprocess.run(
            [sys.executable, "-m", "compileall", "-q", str(self.root / "src")],
            cwd=self.workdir, env=self.env,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        if result.returncode != 0:
            raise SetupError(f"byte-compiling the program failed: {result.stderr}")

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def run_child(
    ctx: Context, args: Sequence[str], cwd: Path, timeout: float = 120.0
) -> Tuple[int, str, str, float, float]:
    """Run one child to completion in *cwd*.

    Returns ``(exit code, stdout, stderr, wall seconds, peak RSS MiB)``;
    the peak is the child's own, read from ``wait4``.
    """
    out_path, err_path = cwd / "stdout.txt", cwd / "stderr.txt"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(
            list(args), cwd=cwd, env=ctx.env,
            stdin=subprocess.DEVNULL, stdout=out, stderr=err,
        )
        code, rss = reap(proc, timeout)
        wall = time.perf_counter() - started
    if code < 0:
        raise SetupError(f"{list(args)[:4]} was killed (signal {-code})")
    return code, out_path.read_text(), err_path.read_text(), wall, rss


def reap(proc: subprocess.Popen, timeout: float = 30.0) -> Tuple[int, float]:
    """Wait for *proc* (killing it after *timeout* seconds); return its
    exit code and its peak RSS in MiB."""
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def time_starts(ctx: Context, args: Sequence[str], name: str) -> float:
    """Median wall seconds of ``ctx.setup_starts`` cold starts of *args*."""
    walls = []
    for i in range(ctx.setup_starts):
        code, _, err, wall, _ = run_child(ctx, args, ctx.fresh_dir(f"{name}-{i}"))
        if code != 0:
            raise SetupError(f"cold start failed ({code}): {err[-400:]}")
        walls.append(wall)
    return statistics.median(walls)


def import_times(ctx: Context) -> Dict[str, float]:
    """``python -X importtime -c "import repro.cli"``: the cumulative
    import seconds of the CLI and of its two heavy dependencies
    (medians over three cold starts)."""
    wanted = {"repro.cli": [], "networkx": [], "numpy": []}
    for i in range(1 if ctx.smoke else 3):
        code, _, err, _, _ = run_child(
            ctx, [sys.executable, "-X", "importtime", "-c", "import repro.cli"],
            ctx.fresh_dir(f"importtime-{i}"),
        )
        if code != 0:
            raise SetupError(f"import repro.cli failed: {err[-400:]}")
        for line in err.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() in wanted:
                wanted[fields[2].strip()].append(int(fields[1]) / 1e6)
    return {
        f"import.{name.replace('.', '_')}_s": statistics.median(values) if values else 0.0
        for name, values in wanted.items()
    }


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def p90(values: Sequence[float]) -> float:
    """The 90th percentile (``statistics.quantiles``, exclusive method)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[-1]


def geomean(values: Sequence[float]) -> float:
    positive = [v for v in values if v > 0.0 and math.isfinite(v)]
    if not positive:
        return float("nan")
    return math.exp(sum(math.log(v) for v in positive) / len(positive))


# ----------------------------------------------------------------------
# Checked operations
# ----------------------------------------------------------------------
#: The one fault the benchmark keeps and counts: ``repro serve``'s exact
#: tier reports ``error_bound: 0.0`` for a probability rounded to float,
#: so the reported bracket misses the exact value it prints beside it.
FAULT_EXACT_TIER_ROUNDING = "serve-exact-tier-bound-ignores-rounding"


@dataclass
class Tally:
    """Operations attempted, and the checks each one failed."""

    attempted: int = 0
    failed: int = 0
    faults: Dict[str, int] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)

    def record(self, problem: Optional[str] = None, fault: Optional[str] = None) -> None:
        """Count one operation; *problem* fails it, *fault* names a known
        program fault behind that failure."""
        self.attempted += 1
        if problem is None and fault is None:
            return
        self.failed += 1
        if fault is not None:
            self.faults[fault] = self.faults.get(fault, 0) + 1
        if problem is not None:
            self.problems.append(problem)

    @property
    def correct(self) -> bool:
        """True when every failure is explained by a named fault."""
        return not self.problems


def result_line(tally: Tally, metrics: Dict[str, Tuple[float, str]]) -> str:
    import json

    return json.dumps(
        {
            "correct": tally.correct,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
    )
