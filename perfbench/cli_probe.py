"""Traced ``repro all``.

Usage: ``python cli_probe.py OUT.json``

Times ``import repro.cli``, then ``repro.cli.main(["all"])`` and the
Monte Carlo engine inside it, and writes the timings to OUT.json.  The
report of ``repro all`` goes to standard output as usual.
"""

import json
import sys
import time


def main(out_path: str) -> int:
    started = time.perf_counter()
    import repro.cli

    imported = time.perf_counter()
    from repro.simulation.engine import MonteCarloEngine

    engine = {"trials": 0, "seconds": 0.0}
    estimate = MonteCarloEngine.estimate_winning_probability

    def timed_estimate(self, system, *args, **kwargs):
        t0 = time.perf_counter()
        result = estimate(self, system, *args, **kwargs)
        engine["seconds"] += time.perf_counter() - t0
        engine["trials"] += kwargs.get("trials", args[0] if args else 200_000)
        return result

    MonteCarloEngine.estimate_winning_probability = timed_estimate
    code = repro.cli.main(["all"])
    finished = time.perf_counter()
    with open(out_path, "w") as handle:
        json.dump(
            {"import_s": imported - started, "compute_s": finished - imported, **engine},
            handle,
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
