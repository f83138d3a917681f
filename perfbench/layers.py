"""Per-layer timers for the traced runs.

Each timer wraps one public function of the program, from the
benchmark's side, by replacing the attribute through which its caller
reaches it.  Totals live in memory and are written out once, when the
traced process ends.  Nothing here runs in an untraced run.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, Optional


class Recorder:
    """Seconds and call counts per layer name, shared by all threads."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.enabled = True
        self._lock = threading.Lock()

    def add(self, name: str, seconds: float, calls: int = 1) -> None:
        if not self.enabled:
            return
        with self._lock:
            self.seconds[name] += seconds
            self.calls[name] += calls

    def reset(self) -> None:
        with self._lock:
            self.seconds.clear()
            self.calls.clear()

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        classify: Optional[Callable[[object], str]] = None,
        self_time_minus: Iterable[str] = (),
    ) -> None:
        """Time every call of ``owner.attr`` under *name*.

        *classify* maps the return value to a suffix, so one function
        can feed several names (``name + "." + suffix``).  With
        *self_time_minus*, the time the named inner layers spent during
        the call is also subtracted and recorded as ``name + ".self"``
        (single-threaded callers only).
        """
        original = getattr(owner, attr)
        minus = tuple(self_time_minus)
        recorder = self

        def finish(started: float, before: float, result) -> None:
            elapsed = time.perf_counter() - started
            label = name if classify is None else f"{name}.{classify(result)}"
            recorder.add(label, elapsed)
            if minus:
                inner = sum(recorder.seconds[m] for m in minus) - before
                recorder.add(f"{name}.self", elapsed - inner)

        def inner_total() -> float:
            return sum(recorder.seconds[m] for m in minus) if minus else 0.0

        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                before, started = inner_total(), time.perf_counter()
                result = await original(*args, **kwargs)
                finish(started, before, result)
                return result
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                before, started = inner_total(), time.perf_counter()
                result = original(*args, **kwargs)
                finish(started, before, result)
                return result

        setattr(owner, attr, wrapper)

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            return {
                "seconds": dict(self.seconds),
                "calls": dict(self.calls),
            }


def wrap_regime_layers(recorder: Recorder) -> None:
    """The layers under a winning-probability query: the front end, the
    exact kernel, the binomial mixture and the Irwin-Hall tiers.

    ``repro.core.asymptotic`` and ``repro.optimize.asymptotic_opt``
    bind the functions they call at import, so those bindings are the
    ones replaced.
    """
    import repro.core.asymptotic as asymptotic
    import repro.core.winning as winning
    import repro.optimize.asymptotic_opt as asymptotic_opt

    recorder.wrap(
        asymptotic, "irwin_hall_cdf_regime", "probability.regimes",
        classify=lambda value: value.regime,
    )
    recorder.wrap(
        asymptotic, "irwin_hall_asymptotic_value_bound",
        "probability.asymptotics.value_bound",
    )
    for fn in (
        "symmetric_threshold_winning_regime",
        "symmetric_oblivious_winning_regime",
    ):
        recorder.wrap(asymptotic, fn, "core.asymptotic.mixture")
    recorder.wrap(
        asymptotic_opt, "symmetric_threshold_winning_regime",
        "core.asymptotic.mixture",
    )
    recorder.wrap(winning, "exact_winning_probability", "core.winning.exact")
    recorder.wrap(
        winning, "winning_probability", "core.winning.frontend",
        self_time_minus=("core.winning.exact", "core.asymptotic.mixture"),
    )
