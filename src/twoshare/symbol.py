"""Symbolwise two-share scheme: a per-symbol splitter applied i.i.d.

The paper's splitter is modular masking over {0..M-1}:

    f(s, u) = ((s - u) mod M, u)      g(x, y) = (x + y) mod M, or None
                                       when the sum falls outside the
                                       secret alphabet

with u uniform.  Repeating f over an n-block and accepting only share
pairs whose empirical log-likelihood ratio clears I(X;Y) - gamma_n gives
forgery detection at an exponent approaching the correlation level
ell = log2(M) - H(S).

`make_codec` builds the codec of this splitter from closed forms, in O(k)
whatever M.  `validate_base` checks the secrecy and decodability profile
of any per-symbol splitter exactly, by calling it on its support points.
"""
from __future__ import annotations

import collections
import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from ._comb import (composition_count, cuts, log2_factorials,
                    over_one_denominator)
from .outcome import DecodeOutcome, REJECT
from .prob import CapExceededError, PMF, RandomStream, as_symbol


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


# the largest M: past it M p(s) can overflow a float, and a forged mass
# count / M falls below the normal floats
MAX_SHARE_SIZE = 1 << 1022
# the most support points (s, u) that `validate_base` walks
VALIDATION_CAP = 1 << 20


@dataclass(frozen=True)
class ModularScheme(BaseScheme):
    """`fstar` and `gstar` over M = `share_size` symbols with |U| = M: the
    one splitter `make_codec` builds a codec for.  Its name, |U| and maps
    follow from its two sizes, so `dataclasses.replace` cannot give it
    others, and two schemes of equal sizes compare equal."""

    name: str = field(init=False)
    rand_size: int = field(init=False)
    encode_fn: Callable[[int, int], tuple[int, int]] = field(
        init=False, repr=False, compare=False)
    decode_fn: Callable[[int, int], int | None] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        m, k = self.share_size, self.secret_size
        if m < k:
            raise ValueError(f"share alphabet M={m} is smaller than |S|={k}")
        if m > MAX_SHARE_SIZE:
            raise ValueError(f"share alphabet M of {m.bit_length()} bits "
                             "exceeds 2**1022: M p(s) could overflow a float")
        for key, value in (("name", f"modular(M={m},S={k})"), ("rand_size", m),
                           ("encode_fn", functools.partial(fstar, m)),
                           ("decode_fn", functools.partial(gstar, m, k))):
            object.__setattr__(self, key, value)
        super().__post_init__()


def modular_scheme(share_size: int, secret_size: int) -> ModularScheme:
    return ModularScheme(secret_size=secret_size, share_size=share_size)


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


class ImageLaw(NamedTuple):
    """P(S,X,Y) of a splitter on its image and its marginals, exactly:
    each mass is an int over one denominator, `total`.  Every p(s) is a
    binary fraction, so weight_s = p(s) 2^e is an int for one e, and
    p(s) / sum(p) = weight_s / sum(weights).  A support point (s, u)
    carries weight_s, and total = |U| sum(weights).  Each table lists only
    cells of positive mass: at most k |U| of them."""

    total: int
    sxy: dict   # (s, x, y) -> mass
    xy: dict    # (x, y) -> mass
    sx: dict
    sy: dict
    x: dict
    y: dict


def _image_law(scheme: BaseScheme, source: PMF) -> ImageLaw:
    """The splitter on every support point (s, u), p(s) > 0, one call of
    `encode_fn` each, and the exact law of the cells (s, x, y) it gives.
    Raises CapExceededError past VALIDATION_CAP support points, before the
    first call."""
    if source.support_size != scheme.secret_size:
        raise ValueError("source alphabet does not match the scheme")
    weight = over_one_denominator(source.probs)
    m, r = scheme.share_size, scheme.rand_size
    if (points := sum(map(bool, weight)) * r) > VALIDATION_CAP:
        raise CapExceededError(f"{points} support points exceed the "
                               f"validation cap {VALIDATION_CAP}; lower m")
    sxy = collections.defaultdict(int)
    for s, w in enumerate(weight):
        for u in range(r) if w else ():
            try:
                x, y = map(operator.index, scheme.encode_fn(s, u))
            except Exception as exc:
                raise ValueError(
                    f"map undefined on support point {(s, u)}") from exc
            if not (0 <= x < m and 0 <= y < m):
                raise ValueError("splitter maps a support point outside the "
                                 "share alphabet")
            sxy[s, x, y] += w
    xy, sx, sy, xs, ys = (collections.defaultdict(int) for _ in range(5))
    for (s, x, y), c in sxy.items():
        xy[x, y] += c
        sx[s, x] += c
        sy[s, y] += c
        xs[x] += c
        ys[y] += c
    return ImageLaw(sum(weight) * r, sxy, xy, sx, sy, xs, ys)


class _Logs(dict):
    """log2(num / den) by (num, den), each from the correctly rounded
    quotient and taken once: equal ratios give equal floats."""

    def __missing__(self, key):
        v = self[key] = math.log2(key[0] / key[1])
        return v


def _bits(z: int, logs: _Logs, cells) -> float:
    """Sum of mass * log2(num / den) / z over (mass, num, den) cells: the
    masses are summed exactly per distinct log, then each group is rounded
    once."""
    groups = collections.defaultdict(int)
    for c, num, den in cells:
        groups[logs[num, den]] += c
    return math.fsum(c / z * v for v, c in groups.items())


def validate_base(scheme: BaseScheme, source: PMF) -> ValidationReport:
    """Exact check of per-symbol secrecy, decodability, and sizes.  H(S|X),
    H(S|Y), H(S|XY) and I(X;Y) come from the splitter's exact law
    (`_image_law`), its cells grouped by their exact ratio.  The decoder is
    checked where the splitter can send the secret: on each cell (s, x, y)
    of its image.  Raises CapExceededError past VALIDATION_CAP support
    points."""
    law, logs = _image_law(scheme, source), _Logs()
    z, p_x, p_y, p_xy = law.total, law.x, law.y, law.xy
    h_s = source.entropy
    h_s_x = _bits(z, logs, ((c, p_x[a], c) for (_, a), c in law.sx.items()))
    h_s_y = _bits(z, logs, ((c, p_y[b], c) for (_, b), c in law.sy.items()))
    h_s_xy = _bits(z, logs, ((c, p_xy[a, b], c)
                             for (_, a, b), c in law.sxy.items()))
    ell = max(_bits(z, logs, ((c, c * z, p_x[a] * p_y[b])
                              for (a, b), c in p_xy.items())), 0.0)
    sizes_ok = min(scheme.share_size, scheme.rand_size) >= scheme.secret_size
    decoder_ok = all(scheme.decode_fn(x, y) == s for s, x, y in law.sxy)
    failures = []
    if h_s - h_s_x > SECRECY_TOL:
        failures.append(FAIL_SECRECY_X)
    if h_s - h_s_y > SECRECY_TOL:
        failures.append(FAIL_SECRECY_Y)
    if h_s_xy > SECRECY_TOL:
        failures.append(FAIL_DECODE)
    if not sizes_ok:
        failures.append(FAIL_SIZE)
    if not decoder_ok:
        failures.append(FAIL_DECODER)
    return ValidationReport(
        h_s=h_s, h_s_given_x=h_s_x, h_s_given_y=h_s_y, h_s_given_xy=h_s_xy,
        ell=ell, sizes_ok=sizes_ok, decoder_ok=decoder_ok,
        failures=tuple(failures))


class LatticeLaws(NamedTuple):
    """Mass on each of `values`, the distinct finite scores ascending, of a
    legitimate pair (`legit`) and of the honest share against a forged
    symbol (`forged`: the same row for every symbol on either side, and
    the law of an independent pair, whose shares are uniform like any
    forgery); a row's mass short of 1 is on -inf.  `column[s]` is the
    index in `values` of secret symbol s's score, None where p(s) = 0.
    Each mass is summed exactly and rounded once."""

    values: tuple[float, ...]
    legit: tuple[float, ...]
    forged: tuple[float, ...]
    column: tuple[int | None, ...]


@functools.lru_cache(maxsize=64)
def modular_laws(source: PMF, share_size: int) -> tuple[LatticeLaws, float]:
    """The `LatticeLaws` and I(X;Y) of `modular_scheme(M, k)` over
    `source`, from closed forms in O(k), each float as the splitter's
    exact law (`validate_base`) gives it.  With weight_s and total z = W M
    as in `ImageLaw`, W the sum of the weights, each cell (x, y) of
    s = (x + y) mod M < k, p(s) > 0, carries weight_s, and each share
    symbol W: the cell scores log2(weight_s W M / W^2), the M cells of s
    hold legitimate mass M weight_s, and a forged symbol of either side
    meets each s once against honest mass W.  Memoised per (source, M),
    so every codec of a sweep reads one computation."""
    weight = over_one_denominator(source.probs)
    m, w_all = share_size, sum(weight)
    z, logs = w_all * m, _Logs()
    score = [logs[w * z, w_all * w_all] if w else None for w in weight]
    values = tuple(sorted({v for v in score if v is not None}))
    column = tuple(v if v is None else values.index(v) for v in score)
    legit, count = [0] * len(values), [0] * len(values)
    for w, j in zip(weight, column):
        if j is not None:
            legit[j] += m * w
            count[j] += 1
    laws = LatticeLaws(values, tuple(c / z for c in legit),
                       tuple(c * w_all / z for c in count), column)
    return laws, max(math.fsum(map(operator.mul, laws.legit, values)), 0.0)


# a key byte's `value` past every value index: a -inf score
_MINUS_INF = 255


class _ByteTables(NamedTuple):
    """The byte kernel of a codec with M <= 128: `ones` is M at each of n
    bytes, `mod` maps a byte t to t mod M, `secret` fixes [0, k) and
    moves every other byte, and `value` maps x + y to its lattice value
    index (`_MINUS_INF` at a -inf score).  The n counts of a finite block
    sum to n, so its score is `base`, n times the last lattice weight,
    plus each other value's count times its weight less the last:
    `weights` holds those (index, weight - last) that are not 0."""

    ones: int
    mod: bytes
    secret: bytes
    value: bytes
    base: int
    weights: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class SymbolwiseCodec:
    """The modular splitter repeated over n-blocks.

    Carries the `laws` of the acceptance test and I(X;Y), both from the
    closed forms of `modular_laws`, none of size M.  Neither depends on n
    or gamma, so `dataclasses.replace(codec, n=..., gamma=...)` gives the
    codec of another blocklength.  `threshold` is the per-symbol
    acceptance cutoff I(X;Y) - gamma; a pair is accepted when its mean
    score strictly exceeds it, decided exactly on `lattice`.
    """

    scheme: ModularScheme
    source: PMF
    n: int
    gamma: float
    laws: LatticeLaws = field(repr=False)
    i_xy: float
    lattice: "ScoreLattice" = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("blocklength must be positive")
        # gamma = 0 puts the threshold on I(X;Y) itself, the tie edge the
        # lattice decides exactly; `make_codec` asks for a positive slack
        if not 0.0 <= self.gamma < math.inf:
            raise ValueError("gamma must be non-negative and finite")
        # derived, so dataclasses.replace (of gamma, say) rebuilds it
        object.__setattr__(self, "lattice", score_lattice(self))

    @property
    def threshold(self) -> float:
        return self.i_xy - self.gamma

    @functools.cached_property
    def _bytes(self) -> _ByteTables | None:
        """The byte kernel's tables (`_ByteTables`), for M <= 128, where
        each position's s + M - u and x + y fit in a byte, built on first
        use from `laws.column`; None past M=128."""
        m, k, column = (self.scheme.share_size, self.scheme.secret_size,
                        self.laws.column)
        if m > 128:
            return None
        mod = bytes(t % m for t in range(256))
        value = bytes(_MINUS_INF if s >= len(column) or column[s] is None
                      else column[s] for s in mod)
        *weights, last = self.lattice.weights
        return _ByteTables(
            int.from_bytes(bytes([m]) * self.n, "big"), mod,
            bytes(t if t < k else 0 for t in range(256)), value,
            self.n * last,
            tuple((j, w - last) for j, w in enumerate(weights) if w != last))


def make_codec(scheme: ModularScheme, source: PMF, n: int,
               gamma: float) -> SymbolwiseCodec:
    """The codec of `modular_scheme(M, k)` over `source` by `modular_laws`:
    O(k), with no call of the splitter.  ValueError for any other
    splitter; `validate_base` checks one."""
    if not 0.0 < gamma < math.inf:
        raise ValueError("gamma must be positive and finite")
    if not isinstance(scheme, ModularScheme):
        raise ValueError("make_codec builds the codec of modular_scheme(M, k) "
                         "only; check another splitter with validate_base")
    if source.support_size != scheme.secret_size:
        raise ValueError("source alphabet does not match the scheme")
    laws, i_xy = modular_laws(source, scheme.share_size)
    return SymbolwiseCodec(scheme=scheme, source=source, n=n, gamma=gamma,
                           laws=laws, i_xy=i_xy)


# the inputs read as they are: bytes() of an ndarray or an array.array
# would read its raw buffer, not its elements, so those are read by `tolist`
_SEQUENCES = (tuple, list)


def _read(v):
    """v as a sequence, read once: a tuple or list as it is, an ndarray or
    array.array by `tolist`, any other iterable as a tuple."""
    if type(v) not in _SEQUENCES:
        v = v.tolist() if hasattr(v, "tolist") else tuple(v)
    return v


def _symbol(v, name: str, size: int, alphabet: str) -> int:
    """v as an int in [0, size); ValueError naming it otherwise."""
    if type(v) is not int:
        v = as_symbol(v, name)
    if not 0 <= v < size:
        raise ValueError(f"{name} {v} outside {alphabet}")
    return v


def _ints(values, size: int) -> bool:
    """Whether n >= 1 `values` are all ints in [0, size): the check that
    lets a call skip `_symbol` at every position."""
    return ({*map(type, values)} == {int}
            and 0 <= min(values) and max(values) < size)


def _pack(v, fix: bytes) -> bytes | None:
    """The symbols of a sequence `_read` gave as bytes, or None unless
    they are integers in the range that the table `fix` maps to itself."""
    try:
        v = bytes(v)
    except (TypeError, ValueError):   # not integers in range(256)
        return None
    return v if v.translate(fix) == v else None


def encode_n(codec: SymbolwiseCodec, secret, rand) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """x = (s - u) mod M and y = u at each position, each input read once
    by `_read`: by the byte kernel if every symbol fits the codec's
    tables, else position by position, secret then randomness symbol,
    each checked: ValueError naming the first outside its alphabet or not
    an integer."""
    n, secret, rand = codec.n, _read(secret), _read(rand)
    if len(secret) != n or len(rand) != n:
        raise ValueError(f"secret and randomness must have length {n}")
    if ((kernel := codec._bytes) and (s := _pack(secret, kernel.secret))
            and (u := _pack(rand, kernel.mod))):
        # each byte of s + M - u lies in [1, 2M): none borrows
        x = int.from_bytes(s, "big") + kernel.ones - int.from_bytes(u, "big")
        return tuple(x.to_bytes(n, "big").translate(kernel.mod)), tuple(u)
    k, m = codec.scheme.secret_size, codec.scheme.share_size
    if not (_ints(secret, k) and _ints(rand, m)):
        secret, rand = zip(*[(_symbol(s, "secret symbol", k, "the alphabet"),
                              _symbol(u, "randomness symbol", m, "the alphabet"))
                             for s, u in zip(secret, rand)])
    return tuple([(s - u) % m for s, u in zip(secret, rand)]), tuple(rand)


def draw_randomness_n(codec: SymbolwiseCodec, rng: RandomStream) -> tuple[int, ...]:
    return rng.integers(codec.scheme.rand_size, size=codec.n)


def _cells(codec: SymbolwiseCodec, xs, ys):
    """The secret symbols of a share pair the strict test accepts, None
    when it rejects the pair: its integer score, the sum of its
    positions' lattice weights, must exceed the lattice's `bar`, and a
    position that scores -inf rejects it.  Read as `encode_n` reads, by
    the kernel as its key x + y, a byte per position, else by
    s = (x + y) mod M after checking every x symbol, then every y symbol:
    ValueError naming the first outside [0, M) or not an integer.  A cell
    scores -inf when s >= k or p(s) = 0."""
    n, lat, xs, ys = codec.n, codec.lattice, _read(xs), _read(ys)
    if len(xs) != n or len(ys) != n:
        raise ValueError(f"shares must have length {n}")
    if ((kernel := codec._bytes) and (a := _pack(xs, kernel.mod))
            and (b := _pack(ys, kernel.mod))):
        # the key x + y, unreduced until decode_n: each byte lies in
        # [0, 2M - 1), so none carries
        symbols = (int.from_bytes(a, "big")
                   + int.from_bytes(b, "big")).to_bytes(n, "big")
        v = symbols.translate(kernel.value)
        if _MINUS_INF in v:
            return None
        score = kernel.base
        for j, w in kernel.weights:
            score += v.count(j) * w
    else:
        k, m = codec.scheme.secret_size, codec.scheme.share_size
        if not (_ints(xs, m) and _ints(ys, m)):
            xs, ys = ([_symbol(v, "share symbol", m, f"[0, {m})")
                       for v in side] for side in (xs, ys))
        symbols = [(x + y) % m for x, y in zip(xs, ys)]
        if max(symbols) >= k:
            return None
        weights = [None if j is None else lat.weights[j]
                   for j in codec.laws.column]
        found = [weights[s] for s in symbols]
        if None in found:
            return None
        score = sum(found)
    return symbols if score > lat.bar else None


def accepts_n(codec: SymbolwiseCodec, xs, ys) -> bool:
    """Strict threshold test on the score lattice; ties are rejected.  The
    positions' weights sum to the integer score compared with the
    lattice's `bar`: by the byte kernel, the count of each value times
    its weight."""
    return _cells(codec, xs, ys) is not None


def decode_n(codec: SymbolwiseCodec, xs, ys) -> DecodeOutcome:
    """The secret of an accepted share pair, read by `_cells`."""
    found = _cells(codec, xs, ys)
    if found is None:
        return REJECT
    if type(found) is bytes:   # the kernel's key x + y, a byte per position
        found = found.translate(codec._bytes.mod)
    return tuple.__new__(DecodeOutcome, (tuple(found),))


# ---------------------------------------------------------------------------
# Score lattice: exact sums over count vectors, by intervals


LATTICE_CAP = 1 << 20


class LatticeCapError(CapExceededError):
    """An exact score-lattice sum would visit more points than its cap."""


# floats in one block of binomial rows that `ScoreLattice.mass` builds at
# once; a row longer than this still makes a block of its own
MASS_BLOCK = 1 << 14


def _row_tails(lf: np.ndarray, lq_i: float, lq_j: float, r: np.ndarray,
               cut: np.ndarray, accepted: bool) -> tuple[np.ndarray, np.ndarray]:
    """Per prefix, the top term of its log2 binomial row r, a (lq_i - lq_j)
    + r lq_j - log2 a! - log2 (r-a)!, and the sum of the row's terms
    scaled by that top over a < cut (accepted) or a >= cut (rejected).

    `r` ascends; the rows for r0..r1 are built as one block of at most
    MASS_BLOCK floats, r1 - r0 + 1 rows by r1 + 2 columns.  Column t holds
    a = t - 1 when accepted and a = t when rejected, and the terms with a
    outside [0, r] read 0, so the running sum from the side asked for
    holds each prefix's tail at column cut, an empty one included.  Each
    term is rounded in the order a row built on its own had, so the sums
    match it bit for bit.
    """
    tops, tails, lo, last = [], [], 0, int(r[-1])
    while lo < r.size:
        r0 = int(r[lo])
        # the widest block: (w - r0) (w + 1) <= MASS_BLOCK for w = r1 + 1
        w = (r0 - 1 + math.isqrt((r0 + 1) ** 2 + 4 * MASS_BLOCK)) // 2
        r1 = max(r0, min(w - 1, last))
        hi = r.size if r1 == last else lo + int(r[lo:].searchsorted(r1, "right"))
        a = np.arange(-1, r1 + 1) if accepted else np.arange(r1 + 2)
        rr = np.arange(r0, r1 + 1)[:, None]
        rows = a * (lq_i - lq_j) + rr * lq_j
        rows -= lf[a]
        rows -= lf[rr - a]
        top = rows.max(axis=1, keepdims=True)
        rows -= top
        side = np.exp2(rows, out=rows)
        # the running sum, in place, from the side asked for
        run = side if accepted else side[:, ::-1]
        np.add.accumulate(run, axis=1, out=run)
        pick = r[lo:hi] - r0
        tops.append(top[pick, 0])
        tails.append(side[pick, cut[lo:hi]])
        lo = hi
    return np.concatenate(tops), np.concatenate(tails)


@dataclass(frozen=True)
class ScoreLattice:
    """The acceptance test of an n-block, decided on count vectors.

    The per-symbol score takes only the values in `values`, the distinct
    finite scores of the image cells (a -inf cell is never accepted), so
    a block's mean score is fixed by how many positions take each value.
    Scores and the threshold are binary fractions; `weights` and `bar`
    are them scaled to one common denominator, so the strict test (ties
    rejected) is an exact integer comparison for blocks of n positions.
    """

    values: tuple[float, ...]
    weights: tuple[int, ...]
    bar: int
    n: int

    @functools.cached_property
    def _walk(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """`cuts` of n positions over every value; the values ascend, so a
        prefix accepts the a below its cut.  Every `mass` of two values or
        more reads them.  Raises LatticeCapError past LATTICE_CAP
        prefixes, C(n+c-2, c-2) of them over c values."""
        points = composition_count(self.n, len(self.values) - 1)
        if points > LATTICE_CAP:
            raise LatticeCapError(f"n={self.n}: {points} score-lattice points "
                                  f"exceed the cap {LATTICE_CAP}; lower n")
        heads, r, (cut,) = cuts(self.weights, (self.bar,), self.n,
                                range(len(self.values)))
        return heads, r, cut

    def mass(self, masses, accepted: bool = True) -> float:
        """Accepted (or rejected) mass of the count vectors of n i.i.d.
        scores with per-value `masses`, each positive (ValueError
        otherwise); mass off the lattice is in neither side.

        Sums over the `cuts` of the values: each prefix adds one interval
        of a binomial row, multinomial(n; head, r) times the terms
        C(r, a) q_i^a q_j^(r-a) with a below the cut (or from it on).  The
        rows are built in log2, in blocks (`_row_tails`), each scaled by
        its largest term and summed from the side asked for, so a tiny
        tail is never 1 minus the rest.  Every sum shares the lattice's
        cut table (`_walk`).  Raises LatticeCapError past LATTICE_CAP
        prefixes.
        """
        n = self.n
        if min(masses) <= 0.0:
            raise ValueError("every lattice value needs a positive mass")
        if len(masses) == 1:
            hit = (n * self.weights[0] > self.bar) == accepted
            return masses[0] ** n if hit else 0.0
        heads, r, cut = self._walk
        lf = log2_factorials(n)
        *head_logs, lq_i, lq_j = map(math.log2, masses)
        tops, tails = _row_tails(lf, lq_i, lq_j, r, cut, accepted)
        logw = lf[n] + tops
        if head_logs:
            # added left to right: for up to two head terms (four values)
            # that is the correctly rounded sum fsum gave one prefix at a time
            terms = [c * lg - lf[c] for c, lg in zip(heads.T, head_logs)]
            logw = logw + functools.reduce(operator.add, terms)
        # libm's pow, as one prefix at a time had it: numpy's exp2 can
        # differ from it in the last bit
        weights = map((2.0).__pow__, logw.tolist())
        return min(math.fsum(map(operator.mul, weights, tails.tolist())), 1.0)


def score_lattice(codec: SymbolwiseCodec) -> ScoreLattice:
    values = codec.laws.values
    *weights, bar = over_one_denominator(values + (float(codec.threshold),))
    return ScoreLattice(values, tuple(weights), codec.n * bar, codec.n)


def rejection_probability(codec: SymbolwiseCodec) -> float:
    """Exact probability that a legitimate share pair (never -inf) is
    rejected: the lattice mass the test rejects, summed on that side."""
    return codec.lattice.mass(codec.laws.legit, accepted=False)
