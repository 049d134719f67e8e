"""Finite probability mass functions, their entropies, and reproducible
randomness for Monte Carlo estimates.

Entropies are in bits (logs base 2) and use the 0 * log 0 = 0 convention.
Probabilities are 64-bit floats.
"""
from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from typing import Sequence

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


# ---------------------------------------------------------------------------
# Reproducible randomness


class RandomStream:
    """Counter-based random stream with cheap independent substreams.

    Wraps numpy's Philox 4x64 bit generator keyed by (seed, stream), each
    a 64-bit word: a seed or stream outside [0, 2**64) is a ValueError,
    never wrapped onto another key.  Philox output is specified independent
    of platform and numpy pins the algorithm, so a fixed seed yields the
    same draws everywhere (numpy >= 1.24).  Substreams use distinct keys
    and are statistically independent, so a task keyed by its place in a
    run draws the same numbers in any order and on any thread.  Child
    stream ids are distinct at every depth; from stream 0, three levels of
    any index fit in 64 bits (the harness nests two: record, task), and
    `substream` raises where a deeper child would not.  The generator is
    built on first use, so a stream that only hands out substreams builds
    none.  `_estimate` builds none either: it re-keys one generator per
    thread to the stream's (seed, stream) key.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed)
        self.stream = int(stream)
        if not (0 <= self.seed < 1 << 64 and 0 <= self.stream < 1 << 64):
            raise ValueError(f"{self!r}: seed and stream must lie in "
                             f"[0, 2**64)")

    @functools.cached_property
    def gen(self) -> np.random.Generator:
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def substream(self, i: int) -> "RandomStream":
        """Independent child stream i of 2**20; ValueError when the child's
        stream id would not fit in 64 bits."""
        if not 0 <= i < (1 << 20):
            raise ValueError("substream index must lie in [0, 2**20)")
        if (child := self.stream * (1 << 20) + i + 1) >= 1 << 64:
            raise ValueError(f"substream {i} of {self!r} passes the 2**64 "
                             f"stream ids")
        return RandomStream(self.seed, child)

    def __repr__(self):
        return f"RandomStream(seed={self.seed}, stream={self.stream})"


# The most trials one estimate runs.  One binomial draws any count in O(1),
# so this is no sampler limit: it keeps the 2**36 that configs have always
# been held to, so that no config changes meaning.
MAX_TRIALS = 1 << 36

# `_estimate`'s generator on each thread
_thread = threading.local()


def _thread_generator() -> np.random.Generator:
    """This thread's one Philox generator, built on the thread's first
    estimate that draws.  Its key and counter carry nothing from one
    estimate to the next: `_estimate` re-keys it before every draw."""
    if (gen := getattr(_thread, "gen", None)) is None:
        gen = _thread.gen = np.random.Generator(np.random.Philox(0))
    return gen


def _estimate(trials: int, rng: RandomStream,
              hit: float) -> tuple[float, float]:
    """Monte Carlo rate of an event of exact mass `hit`, with a 95%
    half-width: hits/trials, where the hit count is Binomial(trials, hit).
    So an estimate is its exact mass plus sampling noise, and no
    independent evidence for it.

    A `hit` that is NaN or outside [0, 1] is a ValueError, before any
    draw, and so is a `trials` past MAX_TRIALS = 2**36, even when the
    outcome is fixed.  With `hit` 0 or 1 every trial's outcome is fixed,
    so nothing is drawn.  Otherwise the hit count is one binomial: this
    thread's one Philox generator is re-keyed to `rng`'s (seed, stream)
    key, counter 0 and empty buffer, so it draws exactly what
    `rng.gen.binomial(trials, hit)` would, on any thread and whatever ran
    before.  Zero hits fall back to the rule of three: the half-width is
    then the one-sided 95% upper bound 3/trials; otherwise it is the Wald
    half-width.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if trials > MAX_TRIALS:
        raise ValueError(f"trials {trials} pass the limit of 2**36 per "
                         "estimate")
    if not 0.0 <= hit <= 1.0:   # NaN fails both comparisons
        raise ValueError(f"hit mass {hit!r} is not a probability in [0, 1]")
    if hit in (0.0, 1.0):
        hits = trials * int(hit)
    else:
        gen = _thread_generator()
        # plain ints: the state setter reads them faster than numpy words
        gen.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": (0, 0, 0, 0), "key": (rng.seed, rng.stream)},
            "buffer": (0,) * 4, "buffer_pos": 4, "has_uint32": 0,
            "uinteger": 0}
        hits = int(gen.binomial(trials, hit))
    if hits == 0:
        return 0.0, 3.0 / trials
    est = hits / trials
    return est, 1.96 * math.sqrt(est * (1.0 - est) / trials)
