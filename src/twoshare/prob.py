"""Finite probability mass functions and exact information quantities.

All entropies and mutual informations are in bits (logs base 2) and use the
0 * log 0 = 0 convention.  Probabilities are 64-bit floats; the
information functions take plain probability arrays, validated by their
caller.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

# Probability vectors must sum to 1 within this tolerance.
SUM_TOL = 1e-12


class CapExceededError(Exception):
    """An exact computation would exceed its state cap."""


def as_symbol(value, name: str = "symbol") -> int:
    """A symbol as an int; ValueError naming one that is not an integer
    (2.0, True and numpy integers are; strings are quoted)."""
    try:
        if (symbol := int(value)) == value:
            return symbol
    except (TypeError, ValueError, OverflowError):
        pass
    shown = repr(value) if isinstance(value, (str, bytes)) else value
    raise ValueError(f"{name} {shown} is not an integer")


def _validate_probs(arr: np.ndarray):
    if arr.ndim < 1 or arr.size == 0:
        raise ValueError("probability table must be non-empty")
    if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
        raise ValueError("probabilities must be finite and non-negative")
    total = float(arr.sum())
    if abs(total - 1.0) > SUM_TOL:
        raise ValueError(f"probabilities sum to {total!r}, not 1 within {SUM_TOL}")


@dataclass(frozen=True)
class PMF:
    """A probability mass function over {0, ..., k-1}."""

    probs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.probs, dtype=np.float64)
        _validate_probs(arr)
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    @classmethod
    def from_probs(cls, values: Sequence[float]) -> "PMF":
        return cls(np.asarray(list(values), dtype=np.float64))

    @classmethod
    def uniform(cls, k: int) -> "PMF":
        if k < 1:
            raise ValueError("alphabet size must be positive")
        return cls(np.full(k, 1.0 / k))

    @classmethod
    def point_mass(cls, k: int, at: int) -> "PMF":
        arr = np.zeros(k)
        arr[at] = 1.0
        return cls(arr)

    @classmethod
    def from_text(cls, text: str) -> "PMF":
        """Parse a PMF from external text.

        Accepts either a JSON-style list ("[0.7, 0.3]"), a bare
        comma-separated list ("0.7,0.3"), or "uniform:k".
        """
        text = text.strip()
        if text.startswith("uniform:"):
            return cls.uniform(int(text.split(":", 1)[1]))
        body = text.strip("[]")
        parts = [p for p in body.split(",") if p.strip()]
        if not parts:
            raise ValueError(f"cannot parse PMF from {text!r}")
        return cls.from_probs([float(p) for p in parts])

    @property
    def support_size(self) -> int:
        return int(self.probs.shape[0])

    def __len__(self):
        return self.support_size


def _entropy_bits(arr: np.ndarray) -> float:
    flat = np.asarray(arr, dtype=np.float64).ravel()
    pos = flat[flat > 0.0]
    return float(-(pos * np.log2(pos)).sum())


def entropy(p: PMF) -> float:
    """Shannon entropy in bits."""
    return _entropy_bits(p.probs)


def binary_entropy(q: float) -> float:
    """h(q) = -q log2 q - (1-q) log2 (1-q), with h(0) = h(1) = 0."""
    if q < 0.0 or q > 1.0:
        raise ValueError(f"binary entropy argument {q!r} outside [0, 1]")
    if q == 0.0 or q == 1.0:
        return 0.0
    return float(-q * math.log2(q) - (1.0 - q) * math.log2(1.0 - q))


MI_TOL = 1e-9


def mutual_information(table: np.ndarray) -> float:
    """I(A;B) in bits of a two-axis probability table P(A,B).

    Float rounding can push the sum a hair below zero; values within
    1e-9 of zero are clamped, anything lower is treated as a bug.
    """
    table = np.asarray(table, dtype=np.float64)
    if table.ndim != 2:
        raise ValueError("mutual information needs a two-axis table")
    pa = table.sum(axis=1)
    pb = table.sum(axis=0)
    mask = table > 0.0
    num = table[mask]
    den = np.outer(pa, pb)[mask]
    value = float((num * np.log2(num / den)).sum())
    if value < -MI_TOL:
        raise ArithmeticError(f"mutual information {value} below -{MI_TOL}")
    return max(value, 0.0)


def conditional_entropy(table: np.ndarray, target_axis: int = 0) -> float:
    """H(target | all other axes) = H(table) - H(table summed over target)."""
    table = np.asarray(table, dtype=np.float64)
    return _entropy_bits(table) - _entropy_bits(table.sum(axis=target_axis))


# ---------------------------------------------------------------------------
# Reproducible randomness


class RandomStream:
    """Counter-based random stream with cheap independent substreams.

    Wraps numpy's Philox 4x64 bit generator keyed by (seed, stream).  Philox
    output is specified independent of platform and numpy pins the algorithm,
    so a fixed seed yields the same draws everywhere (numpy >= 1.24).
    Substreams use distinct keys and are statistically independent, which
    makes Monte Carlo work partition-invariant: chunk c always draws from
    substream c no matter which thread runs it.  The generator is built on
    first use, so a stream that only hands out substreams builds none, and
    nor does the substream of a chunk whose outcome is fixed (`_estimate`).
    """

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed)
        self.stream = int(stream)

    @functools.cached_property
    def gen(self) -> np.random.Generator:
        key = np.array([self.seed & 0xFFFFFFFFFFFFFFFF, self.stream & 0xFFFFFFFFFFFFFFFF],
                       dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def substream(self, i: int) -> "RandomStream":
        """Independent child stream i; nesting is collision-free below 2**20."""
        if not 0 <= i < (1 << 20):
            raise ValueError("substream index must lie in [0, 2**20)")
        return RandomStream(self.seed, self.stream * (1 << 20) + i + 1)

    def __repr__(self):
        return f"RandomStream(seed={self.seed}, stream={self.stream})"


def _estimate(trials: int, rng: RandomStream, hit: float, live: float = 0.0,
              draw_live: Callable[[np.random.Generator, int], int] | None = None
              ) -> tuple[float, float]:
    """Monte Carlo rate of an event, with a 95% half-width.

    A trial hits outright with probability `hit`, goes on with probability
    `live`, and misses otherwise; `draw_live(gen, count)` runs `count`
    trials that went on and returns how many hit.  Chunk c of at most
    2**16 trials draws from substream c, so the estimate does not depend
    on execution order.  A chunk splits its trials by one multinomial over
    (hit, live, the rest); when `hit` is 0, by one binomial, and not at all
    when `live` is 1.  With `live` 0 and `hit` 0 or 1 no chunk draws, and
    no generator is built.  The hit count keeps its exact binomial law.
    Zero hits fall back to the rule of three: the half-width is then the
    one-sided 95% upper bound 3/trials; otherwise it is the Wald half-width.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    fixed = not live and hit in (0.0, 1.0)
    pvals = (hit, live, max(1.0 - hit - live, 0.0))
    hits, chunk = 0, 1 << 16
    for c, start in enumerate(range(0, trials, chunk)):
        take = min(chunk, trials - start)
        if fixed:
            hits += take * int(hit)
            continue
        gen = rng.substream(c).gen
        if hit:
            now, go, _ = gen.multinomial(take, pvals).tolist()
        else:
            now, go = 0, take if live == 1.0 else gen.binomial(take, live)
        hits += now + (draw_live(gen, go) if go else 0)
    if hits == 0:
        return 0.0, 3.0 / trials
    est = hits / trials
    return est, 1.96 * math.sqrt(est * (1.0 - est) / trials)
