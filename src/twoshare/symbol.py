"""Symbolwise two-share scheme: a per-symbol splitter applied i.i.d.

The workhorse splitter is modular masking over {0..M-1}:

    f(s, u) = ((s - u) mod M, u)      g(x, y) = (x + y) mod M, or None
                                       when the sum falls outside the
                                       secret alphabet

with u uniform.  Repeating f over an n-block and accepting only share
pairs whose empirical log-likelihood ratio clears I(X;Y) - gamma_n gives
forgery detection at an exponent approaching the correlation level
ell = log2(M) - H(S).

Any per-symbol splitter with the same secrecy and decodability profile can
be dropped in; `validate_base` checks the profile exactly before use.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .outcome import DecodeOutcome, REJECT, accepted
from .prob import (CapExceededError, JointPMF, PMF, RandomStream, _estimate,
                   conditional_entropy, entropy, induce_joint,
                   mutual_information)
from .typical import composition_lookup, compositions


@dataclass(frozen=True)
class BaseScheme:
    """A per-symbol splitter f: S x U -> X x Y with decoder g."""

    name: str
    secret_size: int
    share_size: int
    rand_size: int
    encode_fn: Callable[[int, int], tuple[int, int]] = field(repr=False)
    decode_fn: Callable[[int, int], int | None] = field(repr=False)

    def __post_init__(self):
        if self.secret_size < 2:
            raise ValueError("secret alphabet needs at least two symbols")
        if self.share_size < 1 or self.rand_size < 1:
            raise ValueError("share and randomness alphabets must be non-empty")


def fstar(share_size: int, s: int, u: int) -> tuple[int, int]:
    """Modular splitter: x = (s - u) mod M, y = u."""
    return (s - u) % share_size, u


def gstar(share_size: int, secret_size: int, x: int, y: int) -> int | None:
    """Modular decoder; None marks a sum outside the secret alphabet."""
    v = (x + y) % share_size
    return v if v < secret_size else None


def modular_scheme(share_size: int, secret_size: int) -> BaseScheme:
    if share_size < secret_size:
        raise ValueError("share alphabet must cover the secret alphabet")
    return BaseScheme(
        name=f"modular(M={share_size},S={secret_size})",
        secret_size=secret_size, share_size=share_size, rand_size=share_size,
        encode_fn=lambda s, u: fstar(share_size, s, u),
        decode_fn=lambda x, y: gstar(share_size, secret_size, x, y))


def modular_correlation_level(share_size: int, source: PMF) -> float:
    """Correlation level log2(M) - H(S) of the modular splitter."""
    if share_size < source.support_size:
        raise ValueError("share alphabet must cover the secret alphabet")
    return math.log2(share_size) - entropy(source)


# deliberately broken splitters, used to exercise the validator

def identity_leak_scheme(share_size: int, secret_size: int) -> BaseScheme:
    """Puts the secret in the clear in share X."""
    return BaseScheme(
        name="identity-leak", secret_size=secret_size,
        share_size=share_size, rand_size=share_size,
        encode_fn=lambda s, u: (s, u),
        decode_fn=lambda x, y: x if x < secret_size else None)


def nondecodable_scheme(share_size: int, secret_size: int) -> BaseScheme:
    """Shares carry the randomness only; the pair never determines s."""
    return BaseScheme(
        name="non-decodable", secret_size=secret_size,
        share_size=share_size, rand_size=share_size,
        encode_fn=lambda s, u: (u, u),
        decode_fn=lambda x, y: gstar(share_size, secret_size, x, y))


def undersized_scheme(share_size: int, secret_size: int) -> BaseScheme:
    """Share alphabet smaller than the secret alphabet."""
    if share_size >= secret_size:
        raise ValueError("this scheme is broken only when M < |S|")
    return BaseScheme(
        name="undersized", secret_size=secret_size,
        share_size=share_size, rand_size=share_size,
        encode_fn=lambda s, u: ((s - u) % share_size, u),
        decode_fn=lambda x, y: gstar(share_size, secret_size, x, y))


SECRECY_TOL = 1e-9

FAIL_SECRECY_X = "share X leaks: H(S|X) < H(S)"
FAIL_SECRECY_Y = "share Y leaks: H(S|Y) < H(S)"
FAIL_DECODE = "share pair does not determine the secret: H(S|XY) > 0"
FAIL_SIZE = "alphabet below the secret size: min(|X|,|Y|,|U|) < |S|"
FAIL_DECODER = "decoder disagrees with the splitter on some (s, u)"


@dataclass(frozen=True)
class ValidationReport:
    h_s: float
    h_s_given_x: float
    h_s_given_y: float
    h_s_given_xy: float
    ell: float
    sizes_ok: bool
    decoder_ok: bool
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def scheme_joint(scheme: BaseScheme, source: PMF) -> JointPMF:
    """Exact joint of (S, U, X, Y) under the splitter."""
    if source.support_size != scheme.secret_size:
        raise ValueError("source alphabet does not match the scheme")
    src = JointPMF.outer(source, PMF.uniform(scheme.rand_size))
    return induce_joint(src, scheme.encode_fn,
                        (scheme.share_size, scheme.share_size))


def validate_base(scheme: BaseScheme, source: PMF,
                  tol: float = SECRECY_TOL) -> ValidationReport:
    """Exact check of per-symbol secrecy, decodability, and sizes."""
    joint = scheme_joint(scheme, source)
    h_s = entropy(source)
    h_s_x = conditional_entropy(joint.marginal(0, 2), 0)
    h_s_y = conditional_entropy(joint.marginal(0, 3), 0)
    h_s_xy = conditional_entropy(joint.marginal(0, 2, 3), 0)
    ell = mutual_information(joint.marginal(2, 3))
    sizes_ok = min(scheme.share_size, scheme.share_size,
                   scheme.rand_size) >= scheme.secret_size
    decoder_ok = all(
        scheme.decode_fn(*scheme.encode_fn(s, u)) == s
        for s in range(scheme.secret_size) for u in range(scheme.rand_size))
    failures = []
    if h_s - h_s_x > tol:
        failures.append(FAIL_SECRECY_X)
    if h_s - h_s_y > tol:
        failures.append(FAIL_SECRECY_Y)
    if h_s_xy > tol:
        failures.append(FAIL_DECODE)
    if not sizes_ok:
        failures.append(FAIL_SIZE)
    if not decoder_ok:
        failures.append(FAIL_DECODER)
    return ValidationReport(
        h_s=h_s, h_s_given_x=h_s_x, h_s_given_y=h_s_y, h_s_given_xy=h_s_xy,
        ell=ell, sizes_ok=sizes_ok, decoder_ok=decoder_ok,
        failures=tuple(failures))


class SchemeValidationError(Exception):
    pass


@dataclass(frozen=True)
class SymbolwiseCodec:
    """A validated per-symbol splitter repeated over n-blocks.

    Carries the exact per-symbol joints and the log-likelihood-ratio score
    table used by the acceptance test.  `threshold` is the per-symbol
    acceptance cutoff I(X;Y) - gamma; a pair is accepted when its mean
    score strictly exceeds it, decided exactly on `lattice`.
    """

    scheme: BaseScheme
    source: PMF
    n: int
    gamma: float
    joint: JointPMF = field(repr=False)
    p_xy: JointPMF = field(repr=False)
    p_x: PMF = field(repr=False)
    p_y: PMF = field(repr=False)
    score_table: np.ndarray = field(repr=False)
    i_xy: float
    lattice: "ScoreLattice" = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # derived, so dataclasses.replace (of gamma, say) rebuilds it
        object.__setattr__(self, "lattice", score_lattice(self))

    @property
    def threshold(self) -> float:
        return self.i_xy - self.gamma


def make_codec(scheme: BaseScheme, source: PMF, n: int, gamma: float,
               require_valid: bool = True) -> SymbolwiseCodec:
    if n < 1:
        raise ValueError("blocklength must be positive")
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    if require_valid:
        report = validate_base(scheme, source)
        if not report.passed:
            raise SchemeValidationError("; ".join(report.failures))
    joint = scheme_joint(scheme, source)
    p_xy = joint.marginal(2, 3)
    p_x = p_xy.marginal(0)
    p_y = p_xy.marginal(1)
    table = p_xy.probs
    denom = np.outer(p_x.probs, p_y.probs)
    with np.errstate(divide="ignore"):
        score = np.where(table > 0.0, np.log2(np.where(table > 0.0, table, 1.0) /
                                              denom), -np.inf)
    i_xy = mutual_information(p_xy)
    return SymbolwiseCodec(scheme=scheme, source=source, n=n, gamma=gamma,
                           joint=joint, p_xy=p_xy, p_x=p_x, p_y=p_y,
                           score_table=score, i_xy=i_xy)


def encode_n(codec: SymbolwiseCodec, secret, rand) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Apply the splitter position by position."""
    secret = tuple(int(v) for v in secret)
    rand = tuple(int(v) for v in rand)
    if len(secret) != codec.n or len(rand) != codec.n:
        raise ValueError(f"secret and randomness must have length {codec.n}")
    xs, ys = [], []
    for s, u in zip(secret, rand):
        if not 0 <= s < codec.scheme.secret_size:
            raise ValueError(f"secret symbol {s} outside the alphabet")
        if not 0 <= u < codec.scheme.rand_size:
            raise ValueError(f"randomness symbol {u} outside the alphabet")
        x, y = codec.scheme.encode_fn(s, u)
        xs.append(x)
        ys.append(y)
    return tuple(xs), tuple(ys)


def draw_randomness_n(codec: SymbolwiseCodec, rng: RandomStream) -> tuple[int, ...]:
    return tuple(int(v) for v in rng.gen.integers(codec.scheme.rand_size,
                                                  size=codec.n))


def _value_counts(codec: SymbolwiseCodec, xs, ys) -> list[int] | None:
    """How many positions of a share pair score each lattice value, in
    the order of `codec.lattice.values`; None when a position scores -inf.
    Raises ValueError on shares of the wrong length or symbols outside
    [0, M)."""
    xs, ys = tuple(xs), tuple(ys)
    if len(xs) != codec.n or len(ys) != codec.n:
        raise ValueError(f"shares must have length {codec.n}")
    pair = np.array((xs, ys), dtype=np.int64)
    m = codec.scheme.share_size
    if pair.min() < 0 or pair.max() >= m:
        bad = pair[(pair < 0) | (pair >= m)][0]
        raise ValueError(f"share symbol {bad} outside [0, {m})")
    scores = codec.score_table[pair[0], pair[1]]
    if scores.min() == -np.inf:
        return None
    values = codec.lattice.values
    return np.bincount(np.searchsorted(values, scores),
                       minlength=len(values)).tolist()


def llr_score(codec: SymbolwiseCodec, xs, ys) -> float:
    """Mean per-symbol log-likelihood ratio; -inf on zero-probability pairs.
    Summed from the value counts, so it does not depend on position order;
    `accepts_n` decides on the counts exactly, not on this float."""
    counts = _value_counts(codec, xs, ys)
    if counts is None:
        return float("-inf")
    return math.fsum(map(operator.mul, counts, codec.lattice.values)) / codec.n


def accepts_n(codec: SymbolwiseCodec, xs, ys) -> bool:
    """Strict threshold test on the score lattice; ties are rejected."""
    counts = _value_counts(codec, xs, ys)
    return counts is not None and codec.lattice.accepts(counts)


def decode_n(codec: SymbolwiseCodec, xs, ys) -> DecodeOutcome:
    if not accepts_n(codec, xs, ys):
        return REJECT
    out = []
    for x, y in zip(xs, ys):
        s = codec.scheme.decode_fn(int(x), int(y))
        if s is None:
            raise RuntimeError("decoder undefined on an accepted share pair")
        out.append(s)
    return accepted(out)


# ---------------------------------------------------------------------------
# Score lattice: exact sums over count vectors


LATTICE_CAP = 1 << 20


class LatticeCapError(CapExceededError):
    """An exact score-lattice sum would visit more points than its cap."""


def check_lattice_points(n: int, points: int, cap: int = LATTICE_CAP):
    if points > cap:
        raise LatticeCapError(f"n={n}: {points} score-lattice points exceed "
                              f"the cap {cap}; lower n")


@dataclass(frozen=True)
class ScoreLattice:
    """The acceptance test of an n-block, decided on count vectors.

    The per-symbol score takes only the values in `values`, the distinct
    finite entries of the score table (a -inf entry is never accepted), so
    a block's mean score is fixed by how many positions take each value.
    Scores and the threshold are binary fractions; `weights` and `bar`
    are them scaled to one common denominator, so the strict test (ties
    rejected) is an exact integer comparison for blocks of n positions.
    """

    values: tuple[float, ...]
    weights: tuple[int, ...]
    bar: int
    n: int

    def accepts(self, counts) -> bool:
        return sum(map(operator.mul, counts, self.weights)) > self.bar

    def masses(self, scores: np.ndarray, probs: np.ndarray) -> tuple[float, ...]:
        """Mass that probs puts on each value; mass on -inf is dropped."""
        return tuple(math.fsum(probs[scores == v]) for v in self.values)

    def buckets(self, scores: np.ndarray, probs: np.ndarray) -> np.ndarray:
        """Mass on -inf, then on each value: one position's score law."""
        return np.array((math.fsum(probs[scores == -np.inf]),)
                        + self.masses(scores, probs))

    @functools.cached_property
    def accepted(self) -> Callable[[np.ndarray], np.ndarray]:
        """`accepts` over rows of count vectors over `values`.  Each of
        the C(n+c-1, c-1) vectors is decided once, on first use."""
        parts = len(self.values)
        check_lattice_points(self.n, math.comb(self.n + parts - 1, parts - 1))
        return composition_lookup(
            [c for c in compositions(self.n, parts) if self.accepts(c)],
            self.n, parts)

    def count_test(self, n: int) -> Callable[[np.ndarray], np.ndarray]:
        """`accepted` over rows of n-block bucket counts, -inf count first:
        a row with any -inf count is rejected."""
        if n != self.n:
            raise ValueError(f"the lattice decides blocks of n={self.n}, "
                             f"not n={n}")
        return lambda counts: (counts[:, 0] == 0) & self.accepted(counts[:, 1:])

    def accepted_mass(self, dist: dict[tuple[int, ...], float]) -> float:
        return math.fsum(p for c, p in dist.items() if self.accepts(c))


def score_lattice(codec: SymbolwiseCodec) -> ScoreLattice:
    table = codec.score_table
    values = tuple(sorted(set(table[np.isfinite(table)].tolist())))
    ratios = [v.as_integer_ratio() for v in values + (float(codec.threshold),)]
    den = max(d for _, d in ratios)
    *weights, bar = (num * (den // d) for num, d in ratios)
    return ScoreLattice(values, tuple(weights), codec.n * bar, codec.n)


def count_distribution(masses: tuple[float, ...],
                       m: int) -> dict[tuple[int, ...], float]:
    """Law of the count vector of m i.i.d. scores with per-value masses.

    Each vector weighs multinomial(m; c) * prod q_j**c_j.  The multinomial
    is built exactly, one binomial factor per value, and the product is
    summed in the exponent so that large m cannot overflow.  Vectors that
    use a zero-mass value are left out, and so is any mass off the lattice.
    Raises LatticeCapError when the vectors would outnumber LATTICE_CAP.
    """
    support = [j for j, q in enumerate(masses) if q > 0.0]
    if not support:
        return {(0,) * len(masses): 1.0} if m == 0 else {}
    check_lattice_points(m, math.comb(m + len(support) - 1, len(support) - 1))
    logs = [math.log2(masses[j]) for j in support]
    # grow the count vectors one value at a time; each partial vector
    # carries the positions left, its exact arrangements and log2 mass
    partial = [((), m, 1, 0.0)]
    for lg in logs[:-1]:
        grown = []
        for head, rem, ways, logp in partial:
            binom = 1  # comb(rem, c), stepped exactly
            for c in range(rem + 1):
                grown.append((head + (c,), rem - c, ways * binom, logp + c * lg))
                binom = binom * (rem - c) // (c + 1)
        partial = grown
    out = {head + (rem,): 2.0 ** (math.log2(ways) + logp + rem * logs[-1])
           for head, rem, ways, logp in partial}
    if len(support) < len(masses):
        at = {j: i for i, j in enumerate(support)}
        out = {tuple(c[at[j]] if j in at else 0 for j in range(len(masses))): p
               for c, p in out.items()}
    return out


def rejection_probability(codec: SymbolwiseCodec) -> float:
    """Exact probability that a legitimate share pair is rejected.

    Legitimate pairs never score -inf, so the rejected mass is the sum
    over the count vectors the test rejects.
    """
    lat = codec.lattice
    dist = count_distribution(
        lat.masses(codec.score_table, codec.p_xy.probs), codec.n)
    return min(math.fsum(p for c, p in dist.items() if not lat.accepts(c)),
               1.0)


@dataclass(frozen=True)
class SymbolQuantities:
    """Exact per-configuration quantities; i.i.d. structure makes n-fold
    information totals n times the per-symbol values."""

    n: int
    gamma: float
    p_e: float
    i_xy_per_symbol: float
    i_sx_per_symbol: float
    i_sy_per_symbol: float
    h_s_given_x: float
    h_s_given_y: float
    h_s_given_xy: float
    rate: float


def exact_symbolwise_quantities(codec: SymbolwiseCodec) -> SymbolQuantities:
    """Error probability on the score lattice, the rest from the
    per-symbol joint."""
    joint = codec.joint
    return SymbolQuantities(
        n=codec.n, gamma=codec.gamma, p_e=rejection_probability(codec),
        i_xy_per_symbol=codec.i_xy,
        i_sx_per_symbol=mutual_information(joint.marginal(0, 2)),
        i_sy_per_symbol=mutual_information(joint.marginal(0, 3)),
        h_s_given_x=conditional_entropy(joint.marginal(0, 2), 0),
        h_s_given_y=conditional_entropy(joint.marginal(0, 3), 0),
        h_s_given_xy=conditional_entropy(joint.marginal(0, 2, 3), 0),
        rate=math.log2(codec.scheme.share_size))


def monte_carlo_error(codec: SymbolwiseCodec, trials: int, rng: RandomStream,
                      chunk: int = 1 << 16) -> tuple[float, float]:
    """MC estimate of the rejection probability for legitimate pairs.

    Each trial draws one block's count vector over the score buckets and
    is decided on the score lattice.
    """
    lat = codec.lattice
    law = lat.buckets(codec.score_table, codec.p_xy.probs)
    accepts = lat.count_test(codec.n)
    return _estimate(trials, rng, chunk, lambda gen, take: take - int(
        np.count_nonzero(accepts(gen.multinomial(codec.n, law, size=take)))))
