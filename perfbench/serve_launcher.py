"""Traced ``repro serve``.

Usage: ``python serve_launcher.py OUT.json serve ARGS...``

Wraps the serving path's layers with timers, then hands ARGS to
``repro.cli.main``.  Timing starts at the first ``/metrics`` request
(the client sends one after its untimed warm-up) and the totals are
written to OUT.json when the server has drained and returned.
"""

from __future__ import annotations

import json
import sys
import time

import repro.batch.tables as tables
import repro.cli
import repro.serve.handlers as handlers
import repro.serve.server as server_module
from repro.batch.compile import CompiledPiecewise
from repro.cache import cache_stats
from repro.serve.admission import AdmissionController

from layers import Recorder, wrap_regime_layers


def _install(recorder: Recorder, cache_at_start: dict) -> None:
    handle_request = server_module.handle_request

    async def timed_handle_request(server, method, path, query_string, chaos=None):
        if path == "/metrics" and not recorder.enabled:
            recorder.reset()
            cache_at_start.update(cache_stats()["memory"])
            recorder.enabled = True
        started = time.perf_counter()
        response = await handle_request(server, method, path, query_string, chaos)
        if path.startswith("/v1/"):
            recorder.add("serve.handle", time.perf_counter() - started)
        return response

    server_module.handle_request = timed_handle_request

    flush = handlers.Coalescer._flush

    def timed_flush(self, key):
        bucket = self._buckets.get(key)
        before = recorder.seconds["batch.compile.kernel"]
        flush(self, key)
        if bucket is not None:
            points = len(bucket.xs)
            kernel = recorder.seconds["batch.compile.kernel"] - before
            # Every coalesced caller waits through the one kernel call.
            recorder.add("serve.coalesce.kernel_wait", kernel * points, calls=points)

    handlers.Coalescer._flush = timed_flush
    recorder.wrap(AdmissionController, "acquire", "serve.admission")
    recorder.wrap(handlers.Coalescer, "evaluate", "serve.coalesce")
    recorder.wrap(CompiledPiecewise, "evaluate_with_bound", "batch.compile.kernel")
    recorder.wrap(tables, "compiled_threshold_curve", "batch.tables.fetch")
    recorder.wrap(tables, "compiled_oblivious_curve", "batch.tables.fetch")
    recorder.wrap(tables, "_count_compiled", "batch.tables.build")
    recorder.wrap(handlers, "exact_fallback_with_budget", "serve.degrade.exact")
    wrap_regime_layers(recorder)


def main(argv) -> int:
    out_path = argv[1]
    recorder = Recorder()
    recorder.enabled = False
    cache_at_start: dict = {}
    _install(recorder, cache_at_start)
    code = repro.cli.main(argv[2:])
    out = recorder.snapshot()
    memory = cache_stats()["memory"]
    out["cache"] = {
        key: memory[key] - cache_at_start.get(key, 0) for key in ("hits", "misses")
    }
    with open(out_path, "w") as handle:
        json.dump(out, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
