"""Smoke tests of the benchmark command and its independent reference.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
Each workload runs in ``--smoke`` mode (one cold start, one round).
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

import reference  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, *extra: str, trace: int = 0, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(completed) -> dict:
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    return result


def assert_metrics(result: dict, specs) -> None:
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for spec in specs:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"], spec["name"]
        assert math.isfinite(metric["value"]), spec["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_prints_with_its_unit(workload):
    result = result_of(bench(workload))
    assert result["correct"], result
    assert_metrics(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_corrupted_answer_is_counted_as_failed(workload):
    clean = result_of(bench(workload))
    corrupted = result_of(bench(workload, "--corrupt"))
    assert corrupted["attempted"] == clean["attempted"]
    assert corrupted["failed"] == clean["failed"] + 1
    assert clean["correct"] and not corrupted["correct"]


def test_the_traced_run_prints_every_per_layer_metric():
    result = result_of(bench("serve_warm", trace=1))
    assert_metrics(result, SPEC["per_layer"])
    assert result["metrics"]["serve.tier.certified"]["value"] == 1.0


def test_a_checkout_without_the_program_is_refused(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    completed = bench("cli_cold", cwd=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""


def test_reference_matches_the_section_5_2_1_cubic():
    # On (1/2, 1] the n = 3, delta = 1 threshold value is this cubic.
    for b in (Fraction(5, 8), Fraction(2, 3), Fraction(9, 10)):
        cubic = Fraction(7, 2) * b**3 - Fraction(21, 2) * b**2 + 9 * b - Fraction(11, 6)
        assert reference.threshold_value(b, 3, Fraction(1)) == cubic


def test_reference_coin_value_at_theorem_4_3():
    # The symmetric optimum alpha = 1/2 at n = 3, delta = 1 wins with 5/12.
    assert reference.coin_value(Fraction(1, 2), 3, Fraction(1)) == Fraction(5, 12)


def test_reference_optimum_at_section_5_2():
    assert abs(reference.optimal_threshold(3, Fraction(1)) - reference.BETA_STAR_N3) < 1e-9
    assert abs(reference.optimal_threshold(4, Fraction(4, 3)) - reference.BETA_STAR_N4) < 5e-4
