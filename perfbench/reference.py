"""Independent reference answers for the benchmark's checks.

Written from the paper alone; nothing here imports ``repro``.

* ``irwin_hall_cdf`` -- Cor. 2.6 by inclusion-exclusion, exact in
  integers (``P(U_1 + ... + U_m <= t)`` for iid ``U[0, 1]``).
* ``threshold_value`` -- Thm 5.1 for a common threshold ``beta``
  (output 0 iff the input is at most ``beta``): condition on the
  number ``k`` of ones, ``K ~ Bin(n, 1 - beta)``; bin 0 then holds
  ``n - k`` iid ``U[0, beta]`` inputs and bin 1 holds ``k`` iid
  ``U[beta, 1]`` inputs, so
  ``P = sum_k C(n,k) beta^(n-k) (1-beta)^k IH(d/beta; n-k)
  IH((d - k beta)/(1 - beta); k)``.
* ``coin_value`` -- Thm 4.1 for a common coin ``alpha = P(output 0)``:
  ``P = sum_k C(n,k) alpha^k (1-alpha)^(n-k) IH(d; k) IH(d; n-k)``.
* The Section 5.2 closed forms.
* ``monte_carlo`` -- a seeded numpy simulation of the game itself, for
  sizes past the exact reference's reach.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import comb, factorial

import numpy as np

#: Section 5.2.1: n = 3, delta = 1 -> beta* = 1 - sqrt(1/7).
BETA_STAR_N3 = 1.0 - math.sqrt(1.0 / 7.0)
#: Section 5.2.2: n = 4, delta = 4/3 -> beta* ~ 0.678 (three digits).
BETA_STAR_N4 = 0.678


def p_star_n3() -> float:
    """P* at n = 3, delta = 1: the Section 5.2.1 cubic on (1/2, 1],
    ``7/2 b^3 - 21/2 b^2 + 9 b - 11/6``, at ``b = 1 - sqrt(1/7)``."""
    b = BETA_STAR_N3
    return 3.5 * b**3 - 10.5 * b**2 + 9.0 * b - 11.0 / 6.0


def irwin_hall_cdf(t: Fraction, m: int) -> Fraction:
    """``P(S_m <= t)`` exactly, ``S_m`` a sum of *m* iid ``U[0, 1]``."""
    if m == 0:
        return Fraction(1) if t >= 0 else Fraction(0)
    if t <= 0:
        return Fraction(0)
    if t >= m:
        return Fraction(1)
    if 2 * t > m:  # symmetry S_m ~ m - S_m halves the alternating sum
        return 1 - irwin_hall_cdf(m - t, m)
    p, q = t.numerator, t.denominator
    total = 0
    for j in range(math.floor(t) + 1):
        term = comb(m, j) * (p - j * q) ** m
        total += -term if j % 2 else term
    return Fraction(total, q**m * factorial(m))


def threshold_value(beta: Fraction, n: int, delta: Fraction) -> Fraction:
    """Theorem 5.1 at a common threshold, exact."""
    if not 0 < beta < 1:
        raise ValueError("beta must lie in (0, 1)")
    rest = 1 - beta
    total = Fraction(0)
    for k in range(n + 1):
        f0 = irwin_hall_cdf(delta / beta, n - k)
        if f0 == 0:
            continue
        f1 = irwin_hall_cdf((delta - k * beta) / rest, k)
        if f1 == 0:
            continue
        total += comb(n, k) * beta ** (n - k) * rest**k * f0 * f1
    return total


def coin_value(alpha: Fraction, n: int, delta: Fraction) -> Fraction:
    """Theorem 4.1 at a common coin, exact."""
    loads = [irwin_hall_cdf(delta, m) for m in range(n + 1)]
    total = Fraction(0)
    for k in range(n + 1):
        total += comb(n, k) * alpha**k * (1 - alpha) ** (n - k) * loads[k] * loads[n - k]
    return total


def exact_value(kind: str, x: Fraction, n: int, delta: Fraction) -> Fraction:
    """Threshold (``kind="threshold"``) or coin (``"coin"``) value."""
    if kind == "threshold":
        return threshold_value(x, n, delta)
    return coin_value(x, n, delta)


def monte_carlo(
    kind: str, x: float, n: int, delta: float, trials: int,
    rng: np.random.Generator, chunk_elements: int = 2_000_000,
) -> float:
    """Share of *trials* simulated games that both bins win.

    Every player draws ``U[0, 1]``; a threshold player outputs 0 iff
    the input is at most *x*, a coin player outputs 0 with probability
    *x*.  Bin ``b`` wins when the inputs of the players that chose it
    sum to at most *delta*.
    """
    wins = 0
    done = 0
    per_chunk = max(1, chunk_elements // n)
    while done < trials:
        rows = min(per_chunk, trials - done)
        inputs = rng.random((rows, n))
        if kind == "threshold":
            zero = inputs <= x
        else:
            zero = rng.random((rows, n)) < x
        load0 = np.where(zero, inputs, 0.0).sum(axis=1)
        load1 = inputs.sum(axis=1) - load0
        wins += int(np.count_nonzero((load0 <= delta) & (load1 <= delta)))
        done += rows
    return wins / trials


def optimal_threshold(n: int, delta: Fraction, iterations: int = 60) -> float:
    """The maximiser of ``threshold_value`` over ``(0, 1)``: the best of
    a 200-point grid, refined by golden-section search between its
    neighbours (to ~1e-12)."""
    def value(beta: float) -> Fraction:
        return threshold_value(Fraction(beta), n, delta)

    grid = [(i + 0.5) / 200 for i in range(200)]
    best = max(range(len(grid)), key=lambda i: value(grid[i]))
    lo, hi = grid[max(best - 1, 0)], grid[min(best + 1, len(grid) - 1)]
    ratio = (math.sqrt(5) - 1) / 2
    for _ in range(iterations):
        left, right = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
        if value(left) >= value(right):
            hi = right
        else:
            lo = left
    return (lo + hi) / 2
