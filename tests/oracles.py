"""Test oracles that live outside the package: the mutual information and
conditional entropy of a dense table, dense joints, induced joints and
pushforwards, the dense (S, U, X, Y) joint of a per-symbol
splitter with its validation profile, its dense per-symbol share laws and
score table, dense i.i.d. extensions and inverse-CDF sampling,
brute-force attacks and the dense alpha/beta, exact rationals,
alpha/beta composed from the library's lattice sums, and the blockwise
type classes listed one by one with the exact M, delta and H(Z) they sum
to.  The dense ones are
for small instances only; the library calls none of them.
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

import mpmath
import numpy as np

from twoshare import typical
from twoshare._comb import compositions, multinomial
from twoshare.attack import symbolwise_beta
from twoshare.prob import (CapExceededError, PMF, RandomStream,
                           _entropy_bits, _validate_probs, entropy)
from twoshare.symbol import (FAIL_DECODE, FAIL_DECODER, FAIL_SECRECY_X,
                             FAIL_SECRECY_Y, FAIL_SIZE, SECRECY_TOL,
                             BaseScheme, SymbolwiseCodec,
                             rejection_probability)

# Largest number of states any dense table may hold.
DENSE_CAP = 1 << 24
# Largest number of states the exact-rational mode accepts.
RATIONAL_CAP = 1 << 16


# ---------------------------------------------------------------------------
# Information quantities of dense tables


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
# Dense enumeration


@dataclass(frozen=True)
class JointPMF:
    """A joint PMF over a product of finite alphabets, stored densely.
    Reads as its probability array wherever numpy takes one."""

    probs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.probs, dtype=np.float64)
        if arr.ndim < 2:
            raise ValueError("a joint needs at least two axes")
        if arr.size > DENSE_CAP:
            raise CapExceededError(f"{arr.size} states exceed the dense cap {DENSE_CAP}")
        _validate_probs(arr)
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    def __array__(self, dtype=None, copy=None):
        arr = self.probs if dtype is None else self.probs.astype(dtype)
        return arr.copy() if copy else arr

    @classmethod
    def outer(cls, *pmfs: PMF) -> "JointPMF":
        """Product joint of independent PMFs."""
        size = math.prod(p.support_size for p in pmfs)
        if size > DENSE_CAP:
            raise CapExceededError(f"{size} states exceed the dense cap {DENSE_CAP}")
        arr = pmfs[0].probs
        for p in pmfs[1:]:
            arr = np.multiply.outer(arr, p.probs)
        return cls(arr)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(self.probs.shape)

    def marginal(self, *axes: int) -> "PMF | JointPMF":
        """Marginal over the named axes (all others summed out)."""
        keep = tuple(axes)
        if len(set(keep)) != len(keep):
            raise ValueError("marginal axes must be distinct")
        drop = tuple(i for i in range(self.probs.ndim) if i not in keep)
        arr = self.probs.sum(axis=drop) if drop else self.probs
        # after the sum the axes sit in sorted order; restore the requested one
        perm = np.argsort(np.argsort(keep))
        arr = np.transpose(arr, perm)
        if arr.ndim == 1:
            return PMF(arr)
        return JointPMF(arr)


def induce_joint(src: JointPMF | PMF, fn: Callable, out_dims: tuple[int, ...]) -> JointPMF:
    """Joint of (inputs, outputs) under a deterministic map of the inputs.

    `fn` takes one index per input axis and returns an index tuple (or a
    bare int when there is a single output axis) into `out_dims`; it must
    be defined on every support point.  The result has one axis per input
    followed by one per output.
    """
    in_arr = src.probs
    in_dims = tuple(in_arr.shape)
    total = math.prod(in_dims) * math.prod(out_dims)
    if total > DENSE_CAP:
        raise CapExceededError(f"{total} states exceed the dense cap {DENSE_CAP}")
    out = np.zeros(in_dims + tuple(out_dims))
    for idx in np.ndindex(*in_dims):
        mass = in_arr[idx]
        if mass == 0.0:
            continue
        try:
            mapped = fn(*idx)
        except Exception as exc:
            raise ValueError(f"map undefined on support point {idx}") from exc
        if not isinstance(mapped, tuple):
            mapped = (mapped,)
        out[idx + tuple(int(v) for v in mapped)] += mass
    return JointPMF(out)


def scheme_joint(scheme: BaseScheme, source: PMF) -> JointPMF:
    """Exact dense joint of (S, U, X, Y) under a per-symbol splitter."""
    if source.support_size != scheme.secret_size:
        raise ValueError("source alphabet does not match the scheme")
    src = JointPMF.outer(source, PMF.uniform(scheme.rand_size))
    return induce_joint(src, scheme.encode_fn,
                        (scheme.share_size, scheme.share_size))


@dataclass(frozen=True)
class SplitterProfile:
    """A splitter's entropies, informations and validation failures, read
    off its dense (S, U, X, Y) joint by marginal chains."""

    h_s: float
    h_s_given_x: float
    h_s_given_y: float
    h_s_given_xy: float
    i_xy: float
    i_sx: float
    i_sy: float
    failures: tuple[str, ...]


def splitter_profile(scheme: BaseScheme, source: PMF,
                     tol: float = SECRECY_TOL) -> SplitterProfile:
    """The dense route of `symbol.validate_base` and `symbol.make_codec`:
    every quantity from a marginal of the full joint, and the decoder
    checked on every (s, u), support or not."""
    joint = scheme_joint(scheme, source)
    h_s = entropy(source)
    h_s_x = conditional_entropy(joint.marginal(0, 2), 0)
    h_s_y = conditional_entropy(joint.marginal(0, 3), 0)
    h_s_xy = conditional_entropy(joint.marginal(0, 2, 3), 0)
    failures = []
    if h_s - h_s_x > tol:
        failures.append(FAIL_SECRECY_X)
    if h_s - h_s_y > tol:
        failures.append(FAIL_SECRECY_Y)
    if h_s_xy > tol:
        failures.append(FAIL_DECODE)
    if min(scheme.share_size, scheme.rand_size) < scheme.secret_size:
        failures.append(FAIL_SIZE)
    if not all(scheme.decode_fn(*scheme.encode_fn(s, u)) == s
               for s in range(scheme.secret_size)
               for u in range(scheme.rand_size)):
        failures.append(FAIL_DECODER)
    return SplitterProfile(
        h_s=h_s, h_s_given_x=h_s_x, h_s_given_y=h_s_y, h_s_given_xy=h_s_xy,
        i_xy=mutual_information(joint.marginal(2, 3)),
        i_sx=mutual_information(joint.marginal(0, 2)),
        i_sy=mutual_information(joint.marginal(0, 3)),
        failures=tuple(failures))


class ShareLaws(NamedTuple):
    """A splitter's per-symbol share laws, dense: the exact rationals
    P(X,Y) (by cell, positive cells only), P(X) and P(Y), and as floats
    `p_xy`, `p_x` and `p_y`, each entry rounded once, with the score table
    log2 P(X,Y) / (P(X) P(Y)), -inf off the support of P(X,Y)."""

    exact_xy: dict
    exact_x: list
    exact_y: list
    p_xy: np.ndarray
    p_x: np.ndarray
    p_y: np.ndarray
    score_table: np.ndarray


def share_laws(codec: SymbolwiseCodec) -> ShareLaws:
    """The dense per-symbol laws of a codec's splitter, rebuilt from the
    splitter and the source in exact rationals: every support point (s, u)
    carries p(s) / (sum of p) / |U|.  M x M floats: small M only."""
    scheme, probs = codec.scheme, codec.source.probs.tolist()
    m, total = scheme.share_size, sum(map(Fraction, probs))
    xy: dict[tuple[int, int], Fraction] = {}
    for s, p in enumerate(probs):
        for u in range(scheme.rand_size) if p > 0.0 else ():
            cell = tuple(int(v) for v in scheme.encode_fn(s, u))
            xy[cell] = xy.get(cell, 0) + Fraction(p) / total / scheme.rand_size
    px, py = [Fraction(0)] * m, [Fraction(0)] * m
    for (x, y), q in xy.items():
        px[x] += q
        py[y] += q
    p_xy, score = np.zeros((m, m)), np.full((m, m), -np.inf)
    for (x, y), q in xy.items():
        p_xy[x, y] = float(q)
        score[x, y] = math.log2(q / (px[x] * py[y]))
    return ShareLaws(xy, px, py, p_xy, np.array([float(q) for q in px]),
                     np.array([float(q) for q in py]), score)


def pushforward(src: JointPMF | PMF, fn: Callable, out_dims: tuple[int, ...]) -> JointPMF | PMF:
    """Distribution of fn(inputs) alone; inputs are summed out on the fly."""
    in_arr = src.probs
    size = math.prod(out_dims)
    if size > DENSE_CAP:
        raise CapExceededError(f"{size} states exceed the dense cap {DENSE_CAP}")
    out = np.zeros(tuple(out_dims))
    for idx in np.ndindex(*in_arr.shape):
        mass = in_arr[idx]
        if mass == 0.0:
            continue
        mapped = fn(*idx)
        if not isinstance(mapped, tuple):
            mapped = (mapped,)
        out[tuple(int(v) for v in mapped)] += mass
    if out.ndim == 1:
        return PMF(out)
    return JointPMF(out)


@dataclass(frozen=True)
class IIDExtension:
    """n independent copies of a source, evaluated lazily.

    Sequences are identified with their lexicographic index (first symbol
    most significant).  Per-sequence probabilities and surprisals accumulate
    left to right so that scalar and vectorized paths agree bit for bit.
    """

    source: PMF
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("extension length must be positive")

    @property
    def k(self) -> int:
        return self.source.support_size

    @property
    def size(self) -> int:
        return self.k ** self.n

    def seq_to_index(self, seq) -> int:
        code = 0
        for s in seq:
            s = int(s)
            if not 0 <= s < self.k:
                raise ValueError(f"symbol {s} outside alphabet of size {self.k}")
            code = code * self.k + s
        return code

    def index_to_seq(self, code: int) -> tuple[int, ...]:
        digits = []
        for _ in range(self.n):
            code, d = divmod(code, self.k)
            digits.append(d)
        return tuple(reversed(digits))

    def prob(self, seq) -> float:
        p = self.source.probs
        total = 1.0
        for s in seq:
            total = total * p[int(s)]
        return float(total)

    def all_probs(self, cap: int = DENSE_CAP) -> np.ndarray:
        """Probabilities of every length-n sequence, in lexicographic order."""
        if self.size > cap:
            raise CapExceededError(f"{self.size} sequences exceed the cap {cap}")
        p = self.source.probs
        total = p.copy()
        for _ in range(self.n - 1):
            total = (total[:, None] * p[None, :]).ravel()
        return total

    def dense(self, cap: int = DENSE_CAP) -> PMF:
        return PMF(self.all_probs(cap))


def iid_extension(source: PMF, n: int) -> IIDExtension:
    return IIDExtension(source, n)


def sample(p: PMF, rng: RandomStream, size=None) -> int | np.ndarray:
    """Inverse-CDF sampling; deterministic given the stream state."""
    cdf = np.cumsum(p.probs)
    u = rng.gen.random(size)
    idx = np.searchsorted(cdf, u, side="right")
    idx = np.minimum(idx, p.support_size - 1)
    if size is None:
        return int(idx)
    return idx.astype(np.int64)


# ---------------------------------------------------------------------------
# Attacks and test quantities


class AlphaBeta(NamedTuple):
    alpha: float   # P{legitimate pair rejected}
    beta: float    # P{independent pair accepted}


def attack_bruteforce(accept_fn: Callable[[int, int], bool], forged_size: int,
                      honest_probs: np.ndarray) -> tuple[float, int]:
    """Scan every forged value against every honest value.

    accept_fn takes (forged_flat, honest_flat) indices.  Returns the best
    success probability and the smallest forged index attaining it.
    Intended as a small-instance oracle; cost is forged_size * |honest|.
    """
    best = -1.0
    best_at = 0
    honest_idx = range(honest_probs.shape[0])
    for f in range(forged_size):
        p = 0.0
        for h in honest_idx:
            if honest_probs[h] > 0.0 and accept_fn(f, h):
                p += honest_probs[h]
        if p > best:
            best = p
            best_at = f
    return best, best_at


def test_quantities(joint_xy: JointPMF, accept_fn: Callable[[int, int], bool]) -> AlphaBeta:
    """Dense evaluation of alpha and beta for an arbitrary acceptance set."""
    table = joint_xy.probs
    if table.ndim != 2:
        raise ValueError("need a two-axis share joint")
    px = table.sum(axis=1)
    py = table.sum(axis=0)
    alpha = 0.0
    beta = 0.0
    for x in range(table.shape[0]):
        for y in range(table.shape[1]):
            if accept_fn(x, y):
                beta += px[x] * py[y]
            else:
                alpha += table[x, y]
    return AlphaBeta(alpha=alpha, beta=beta)


def symbolwise_test_quantities(codec: SymbolwiseCodec) -> AlphaBeta:
    """Exact alpha and beta on the score lattice."""
    return AlphaBeta(alpha=rejection_probability(codec),
                     beta=symbolwise_beta(codec))


def gamma_for_threshold(i_xy: float, target: float) -> float:
    """The gamma whose float threshold i_xy - gamma is exactly `target`:
    gamma steps one unit in the last place at a time from i_xy - target
    toward the tie; AssertionError if the threshold steps over it."""
    gamma = i_xy - target
    above = i_xy - gamma > target
    while i_xy - gamma != target:
        gamma = math.nextafter(gamma, math.inf if above else -math.inf)
        if i_xy - gamma != target and (i_xy - gamma > target) != above:
            raise AssertionError(f"no gamma puts the threshold on {target!r}")
    return gamma


# ---------------------------------------------------------------------------
# Exact-rational oracle mode


class RationalJoint:
    """Dense joint with exact Fraction entries, for use as a test oracle.

    Capped at RATIONAL_CAP states.  Entropy-style quantities are evaluated
    with mpmath at `prec` bits (default 120) since logs of rationals are
    irrational.
    """

    def __init__(self, dims: tuple[int, ...], probs: list[Fraction]):
        self.dims = tuple(int(d) for d in dims)
        size = math.prod(self.dims)
        if size > RATIONAL_CAP:
            raise CapExceededError(f"{size} states exceed the rational cap {RATIONAL_CAP}")
        if len(probs) != size:
            raise ValueError("probability list does not match dims")
        if any(p < 0 for p in probs):
            raise ValueError("negative probability")
        if sum(probs) != 1:
            raise ValueError("rational joint must sum to exactly 1")
        self.probs = list(probs)

    @classmethod
    def outer(cls, *pmfs: Sequence[Fraction]) -> "RationalJoint":
        dims = tuple(len(p) for p in pmfs)
        probs = [Fraction(1)]
        for p in pmfs:
            probs = [a * b for a in probs for b in p]
        return cls(dims, probs)

    def _flat(self, idx: tuple[int, ...]) -> int:
        code = 0
        for d, i in zip(self.dims, idx):
            code = code * d + i
        return code

    def pushforward(self, fn: Callable, out_dims: tuple[int, ...]) -> "RationalJoint":
        size = math.prod(out_dims)
        out = [Fraction(0)] * size
        for flat, mass in enumerate(self.probs):
            if mass == 0:
                continue
            idx = []
            rem = flat
            for d in reversed(self.dims):
                rem, r = divmod(rem, d)
                idx.append(r)
            idx = tuple(reversed(idx))
            mapped = fn(*idx)
            if not isinstance(mapped, tuple):
                mapped = (mapped,)
            code = 0
            for d, i in zip(out_dims, mapped):
                code = code * d + i
            out[code] += mass
        return RationalJoint(tuple(out_dims), out)

    def marginal(self, *axes: int) -> "RationalJoint":
        keep = tuple(axes)
        out_dims = tuple(self.dims[a] for a in keep)
        out = [Fraction(0)] * math.prod(out_dims)
        for flat, mass in enumerate(self.probs):
            if mass == 0:
                continue
            idx = []
            rem = flat
            for d in reversed(self.dims):
                rem, r = divmod(rem, d)
                idx.append(r)
            idx = tuple(reversed(idx))
            code = 0
            for a in keep:
                code = code * self.dims[a] + idx[a]
            out[code] += mass
        return RationalJoint(out_dims, out)

    def entropy_bits(self, prec: int = 120) -> mpmath.mpf:
        with mpmath.workprec(prec):
            total = mpmath.mpf(0)
            for p in self.probs:
                if p == 0:
                    continue
                x = mpmath.mpf(p.numerator) / mpmath.mpf(p.denominator)
                total -= x * mpmath.log(x, 2)
            return +total

    def mutual_information(self, axis_a: int = 0, axis_b: int = 1,
                           prec: int = 120) -> mpmath.mpf:
        j = self.marginal(axis_a, axis_b)
        ha = j.marginal(0).entropy_bits(prec)
        hb = j.marginal(1).entropy_bits(prec)
        return ha + hb - j.entropy_bits(prec)

    def to_float(self) -> JointPMF:
        arr = np.array([float(p) for p in self.probs]).reshape(self.dims)
        return JointPMF(arr)


def entropy_mp(probs, prec: int = 120) -> mpmath.mpf:
    """High-precision entropy in bits; accepts floats or exact rationals."""
    with mpmath.workprec(prec):
        total = mpmath.mpf(0)
        for p in probs:
            if p == 0:
                continue
            if isinstance(p, Fraction):
                x = mpmath.mpf(p.numerator) / mpmath.mpf(p.denominator)
            else:
                x = mpmath.mpf(p)
            total -= x * mpmath.log(x, 2)
        return +total


# ---------------------------------------------------------------------------
# Blockwise type classes, one by one, and the exact sums over them


class TypeClasses(NamedTuple):
    """The type classes of a length-n block, one entry per class in each
    array: a class holds all sequences of one composition."""

    counts: np.ndarray   # int64 rows, per support symbol in alphabet order
    sizes: np.ndarray    # members: exact multinomials, as Python ints
    logp: np.ndarray     # log2 probability of each member
    mass: np.ndarray     # sizes * 2**logp, summed in the exponent
    typical: np.ndarray  # bool


def type_classes(source: PMF, n: int, gamma: float) -> TypeClasses:
    """Every composition of a length-n block over the source's support, in
    lexicographic order: the class list the typical-set index once kept,
    C(n+k-1, k-1) entries.  Each class is decided by the library's integer
    window (`typical._window`); its mass is log2 of its exact multinomial
    plus fsum of its c_j log2 p_j, raised in the exponent."""
    weights, lo, hi = typical._window(source, n, gamma)
    logs = [math.log2(p) for p in source.probs.tolist() if p > 0.0]
    counts = compositions(n, len(logs))
    rows = counts.tolist()
    sizes = [multinomial(c) for c in rows]
    logp = [math.fsum(map(operator.mul, c, logs)) for c in rows]
    mass = [2.0 ** (math.log2(m) + lp) for m, lp in zip(sizes, logp)]
    inside = [lo <= sum(map(operator.mul, c, weights)) <= hi for c in rows]
    return TypeClasses(counts, np.array(sizes, dtype=object), np.array(logp),
                       np.array(mass), np.array(inside))


def class_quantities(classes: TypeClasses) -> tuple[int, float, float]:
    """(M, delta, H(Z)) summed over the class list, each class one term."""
    typ = classes.typical
    delta = math.fsum(classes.mass[~typ])
    h_z = math.fsum((-classes.mass * classes.logp)[typ])
    if delta > 0.0:
        h_z -= delta * math.log2(delta)
    return int(classes.sizes[typ].sum()), delta, h_z


def class_row(classes: TypeClasses, support, prefix, t: int) -> tuple:
    """A rank-map row from the class list: running sums, over the chunks
    of t support symbols in lexicographic order, of the typical blocks
    that extend a prefix of the given composition with the chunk."""
    typ = classes.counts[classes.typical].tolist()
    out = [0]
    for chunk in itertools.product(range(len(support)), repeat=t):
        head = [p + chunk.count(j) for j, p in enumerate(prefix)]
        out.append(out[-1] + sum(
            multinomial([c - h for c, h in zip(counts, head)])
            for counts in typ if all(map(operator.ge, counts, head))))
    return tuple(out)


class ExactBlockwise(NamedTuple):
    m_count: int
    delta: Fraction
    h_z: mpmath.mpf


def exact_blockwise(source: PMF, n: int, gamma: float,
                    prec: int = 256) -> ExactBlockwise:
    """M, delta and H(Z) of the typical set, from exact class masses.

    Every float is a binary fraction, so the probabilities, the float
    surprisals, H(S) and gamma are exact Fractions: the window
    |sum_j c_j w_j / n - H(S)| <= gamma is decided in Fractions, a class's
    mass multinomial(c) prod_j p_j^c_j is exact, and so is delta, their sum
    over the atypical classes.  H(Z), the typical classes' sum of
    -mass log2 prod_j p_j^c_j minus delta log2 delta, is summed in mpmath
    at `prec` bits from those exact masses and log2 p_j.

    Over one denominator D the probabilities are ints A_j, and every
    class's mass is an int over D**n.  The classes are walked per prefix of
    all counts but the last two, i and j; along a prefix of r the terms
    T(a) = C(r, a) A_i^a A_j^(r-a) follow one another by small exact
    products and divisions, so n=2000 takes a fraction of a second."""
    probs = [Fraction(p) for p in source.probs.tolist() if p > 0.0]
    k = len(probs)
    den = max(p.denominator for p in probs)
    ints = [int(p * den) for p in probs]
    w = [Fraction(v) for v in (-np.log2([float(p) for p in probs])).tolist()]
    h, g = Fraction(entropy(source)), Fraction(gamma)
    with mpmath.workprec(prec):
        lp = [mpmath.log(mpmath.mpf(p.numerator) / p.denominator, 2)
              for p in probs]
        if k == 1:
            inside = abs(n * w[0] / n - h) <= g
            return ExactBlockwise(int(inside), Fraction(int(not inside)),
                                  mpmath.mpf(0))
        m_count, atypical, h_sum = 0, 0, mpmath.mpf(0)
        for prefix in compositions(n, k - 1).tolist():
            r, head = prefix[0], prefix[1:]
            size = multinomial(prefix) * math.prod(
                map(pow, ints[:k - 2], head))
            score = sum(map(operator.mul, head, w[:k - 2])) + r * w[k - 1]
            info = -(sum(map(operator.mul, head, lp[:k - 2])) + r * lp[k - 1])
            binom, term = 1, ints[k - 1] ** r
            inside_count, inside_terms, inside_first = 0, 0, 0
            outside = 0
            for a in range(r + 1):
                if abs(score / n - h) <= g:
                    inside_count += binom
                    inside_terms += term
                    inside_first += a * term
                else:
                    outside += term
                if a < r:
                    binom = binom * (r - a) // (a + 1)
                    term = term * (r - a) * ints[k - 2] // (
                        (a + 1) * ints[k - 1])
                    score += w[k - 2] - w[k - 1]
            m_count += multinomial(prefix) * inside_count
            atypical += size * outside
            # sum over the typical a of T(a) (info - a (lp_i - lp_j))
            h_sum += size * (inside_terms * info
                             - inside_first * (lp[k - 2] - lp[k - 1]))
        delta = Fraction(atypical, den ** n)
        h_z = h_sum / mpmath.mpf(den) ** n
        if delta:
            d = mpmath.mpf(delta.numerator) / delta.denominator
            h_z -= d * mpmath.log(d, 2)
        return ExactBlockwise(m_count, delta, +h_z)
