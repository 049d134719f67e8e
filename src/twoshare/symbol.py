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

import collections
import functools
import itertools
import math
import operator
import types
from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple

import numpy as np

from ._comb import (composition_count, cuts, log2_factorials,
                    over_one_denominator)
from .outcome import DecodeOutcome, REJECT
from .prob import (CapExceededError, PMF, RandomStream, _estimate, as_symbol,
                   entropy)


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
    s: dict     # s -> its mass |U| weight_s
    sxy: dict   # (s, x, y) -> mass
    xy: dict    # (x, y) -> mass
    sx: dict
    sy: dict
    x: dict
    y: dict


def _image_law(scheme: BaseScheme, source: PMF) -> ImageLaw:
    """The splitter on every support point (s, u), p(s) > 0, one call of
    `encode_fn` each, and the exact law of the cells (s, x, y) it gives."""
    if source.support_size != scheme.secret_size:
        raise ValueError("source alphabet does not match the scheme")
    weight = over_one_denominator(source.probs.tolist())
    m, r = scheme.share_size, scheme.rand_size
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
    return ImageLaw(sum(weight) * r, {s: w * r for s, w in enumerate(weight)},
                    sxy, xy, sx, sy, xs, ys)


class _Logs(dict):
    """log2(num / den) by (num, den), each from the correctly rounded
    quotient and taken once: equal ratios give equal floats."""

    def __missing__(self, key):
        v = self[key] = math.log2(key[0] / key[1])
        return v


def _bits(law: ImageLaw, logs: _Logs, cells) -> float:
    """Sum of mass * log2(num / den) / total over (mass, num, den) cells:
    the masses are summed exactly per distinct log, then each group is
    rounded once."""
    groups = collections.defaultdict(int)
    for c, num, den in cells:
        groups[logs[num, den]] += c
    z = law.total
    return math.fsum(c / z * v for v, c in groups.items())


def _information(source: PMF, law: ImageLaw,
                 logs: _Logs) -> tuple[float, ...]:
    """H(S), H(S|X), H(S|Y), H(S|XY), I(X;Y), I(S;X) and I(S;Y) of a
    splitter's law, each from its cells grouped by their exact ratio."""
    z, p_s, p_x, p_y, p_xy = law.total, law.s, law.x, law.y, law.xy
    return (
        entropy(source),
        _bits(law, logs, ((c, p_x[a], c) for (_, a), c in law.sx.items())),
        _bits(law, logs, ((c, p_y[b], c) for (_, b), c in law.sy.items())),
        _bits(law, logs, ((c, p_xy[a, b], c)
                          for (_, a, b), c in law.sxy.items())),
        max(_bits(law, logs, ((c, c * z, p_x[a] * p_y[b])
                              for (a, b), c in p_xy.items())), 0.0),
        max(_bits(law, logs, ((c, c * z, p_s[t] * p_x[a])
                              for (t, a), c in law.sx.items())), 0.0),
        max(_bits(law, logs, ((c, c * z, p_s[t] * p_y[b])
                              for (t, b), c in law.sy.items())), 0.0))


def _report(scheme: BaseScheme, information: tuple[float, ...],
            law: ImageLaw) -> ValidationReport:
    """`validate_base` on the `_information` of the splitter's law; the
    decoder is checked on each cell (s, x, y) of its image."""
    h_s, h_s_x, h_s_y, h_s_xy, ell = information[:5]
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


def validate_base(scheme: BaseScheme, source: PMF) -> ValidationReport:
    """Exact check of per-symbol secrecy, decodability, and sizes.  The
    decoder is checked where the splitter can send the secret: on the
    support points."""
    law = _image_law(scheme, source)
    return _report(scheme, _information(source, law, _Logs()), law)


class SchemeValidationError(Exception):
    pass


@dataclass(frozen=True)
class SymbolwiseCodec:
    """A validated per-symbol splitter repeated over n-blocks.

    Carries the finite score of each cell (x, y) of the splitter's image
    (`scores`; every other cell scores -inf), the entropies and
    informations of the splitter (each computed once, from the exact law
    the validation used) and the `laws` of the acceptance test, none of
    size M^2.  None of these depends on n or gamma, so
    `dataclasses.replace(codec, n=..., gamma=...)` gives the codec of
    another blocklength without calling the splitter.  `threshold` is the
    per-symbol acceptance cutoff I(X;Y) - gamma; a pair is accepted when
    its mean score strictly exceeds it, decided exactly on `lattice`.
    """

    scheme: BaseScheme
    source: PMF
    n: int
    gamma: float
    scores: Mapping[tuple[int, int], float] = field(repr=False)
    laws: "LatticeLaws" = field(repr=False)
    i_xy: float
    h_s: float = field(repr=False)
    h_s_given_x: float = field(repr=False)
    h_s_given_y: float = field(repr=False)
    h_s_given_xy: float = field(repr=False)
    i_sx: float = field(repr=False)
    i_sy: float = field(repr=False)
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
    def tables(self) -> "SplitterTables":
        """The lookup tables of `encode_n` and `decode_n`, built on first
        use (a codec that only evaluates never needs them): at most 2 k |U|
        calls."""
        scheme, lat = self.scheme, self.lattice
        shares, cells, weight = {}, {}, dict(zip(lat.values, lat.weights))
        for s, u in itertools.product(range(scheme.secret_size),
                                      range(scheme.rand_size)):
            try:
                x, y = scheme.encode_fn(s, u)
                shares[s, u] = operator.index(x), operator.index(y)
            except Exception:
                pass
        for (x, y), score in self.scores.items():
            try:
                cells[x, y] = weight[score], int(scheme.decode_fn(x, y))
            except Exception:  # a hole fails int()
                pass
        return SplitterTables(shares, cells)

    @functools.cached_property
    def _bytes(self) -> "ByteTables | None":
        """`tables` as `ByteTables`, built on first use from them, the
        scores and the lattice (no splitter call), or None when a cell or
        a symbol does not fit in a byte."""
        (shares, cells), lat = self.tables, self.lattice
        k, r, m = (self.scheme.secret_size, self.scheme.rand_size,
                   self.scheme.share_size)
        # the dicts return a share as the splitter gave it: a bool is no byte
        if (k * r > 256 or m * m > 256 or len(lat.values) >= _MISS
                or not all(type(v) is int and 0 <= v < 256
                           for pair in shares.values() for v in pair)
                or not all(0 <= s < 256 for _, s in cells.values())):
            return None
        x, y = bytearray(256), bytearray(256)
        for (s, u), (a, b) in shares.items():
            x[s * r + u], y[s * r + u] = a, b
        raised = bytes(s * r + u for s in range(k) for u in range(r)
                       if (s, u) not in shares)
        value, secret = bytearray([_MINUS_INF]) * 256, bytearray(256)
        col = {v: j for j, v in enumerate(lat.values)}
        # every score cell is an image cell, in [0, M)^2: no two share a code
        for (a, b), score in self.scores.items():
            cell = cells.get((a, b))
            value[a * m + b] = _MISS if cell is None else col[score]
            secret[a * m + b] = 0 if cell is None else cell[1]
        return ByteTables(self.n, bytes(range(k)), bytes(range(r)),
                          bytes(range(m)), bytes(x), bytes(y), raised,
                          bytes(value), bytes(secret), lat.weights, lat.bar)


def make_codec(scheme: BaseScheme, source: PMF, n: int, gamma: float,
               require_valid: bool = True) -> SymbolwiseCodec:
    if not 0.0 < gamma < math.inf:
        raise ValueError("gamma must be positive and finite")
    # one pass of the splitter over the support points and one exact law
    # serve the validation, the codec and its exact quantities
    law = _image_law(scheme, source)
    logs = _Logs()
    information = _information(source, law, logs)
    if require_valid:
        report = _report(scheme, information, law)
        if not report.passed:
            raise SchemeValidationError("; ".join(report.failures))
    h_s, h_s_x, h_s_y, h_s_xy, i_xy, i_sx, i_sy = information
    laws, scores = lattice_laws(law, scheme.share_size, logs)
    return SymbolwiseCodec(scheme=scheme, source=source, n=n, gamma=gamma,
                           scores=types.MappingProxyType(scores), laws=laws,
                           i_xy=i_xy, h_s=h_s, h_s_given_x=h_s_x,
                           h_s_given_y=h_s_y, h_s_given_xy=h_s_xy,
                           i_sx=i_sx, i_sy=i_sy)


def encode_n(codec: SymbolwiseCodec, secret, rand) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Apply the splitter by the byte kernel (`ByteTables`) on a tuple or
    list of each when it fits the codec, or by lookups in `codec.tables`.
    A call both miss goes position by position: ValueError on a wrong
    length or naming the first symbol outside its alphabet or not an
    integer, secret first, and a cell the table lacks calls the splitter
    again, so it raises there."""
    kernel, shares, n = codec._bytes, codec.tables.shares, codec.n
    if kernel and type(secret) in _SEQUENCES and type(rand) in _SEQUENCES:
        out = kernel.encode(secret, rand)
        if out:
            return out
    try:
        if len(secret) == len(rand) == n:
            return tuple(zip(*map(shares.__getitem__, zip(secret, rand))))
    except (KeyError, TypeError):
        pass
    secret, rand = tuple(secret), tuple(rand)
    if len(secret) != n or len(rand) != n:
        raise ValueError(f"secret and randomness must have length {n}")
    out = []
    for s, u in zip(secret, rand):
        s = as_symbol(s, "secret symbol")
        if not 0 <= s < codec.scheme.secret_size:
            raise ValueError(f"secret symbol {s} outside the alphabet")
        u = as_symbol(u, "randomness symbol")
        if not 0 <= u < codec.scheme.rand_size:
            raise ValueError(f"randomness symbol {u} outside the alphabet")
        x, y = shares.get((s, u)) or codec.scheme.encode_fn(s, u)
        out.append((x, y))
    return tuple(zip(*out))


def draw_randomness_n(codec: SymbolwiseCodec, rng: RandomStream) -> tuple[int, ...]:
    return tuple(int(v) for v in rng.gen.integers(codec.scheme.rand_size,
                                                  size=codec.n))


def _cells(codec: SymbolwiseCodec, xs, ys, decode: bool = False):
    """(score, symbols) of a share pair: the integer score the strict test
    compares with the lattice's `bar`, the sum of its positions' lattice
    weights, and their secret symbols; None when a position scores -inf.
    A tuple or list of each is read by the byte kernel (`ByteTables`) when
    it fits the codec, which gives the symbols only with `decode`, of an
    accepted pair; a pair it misses or does not read, by lookups in
    `codec.tables`.  A pair both miss goes position by position:
    ValueError on a wrong length or naming the first symbol, of xs then
    ys, outside [0, M) or not an integer; a missed finite cell reads as
    its own symbol, or with `decode`, on an accepted pair, calls the
    decoder again, so a hole raises RuntimeError."""
    n, m, cells = codec.n, codec.scheme.share_size, codec.tables.cells
    kernel = codec._bytes
    if kernel and type(xs) in _SEQUENCES and type(ys) in _SEQUENCES:
        found = kernel.cells(xs, ys, decode)
        if found is not False:
            return found
    try:
        if len(xs) == len(ys) == n:
            weights, symbols = zip(*map(cells.__getitem__, zip(xs, ys)))
            return sum(weights), symbols
    except (KeyError, TypeError):
        pass
    xs, ys = tuple(xs), tuple(ys)
    if len(xs) != n or len(ys) != n:
        raise ValueError(f"shares must have length {n}")
    found = list(map(cells.get, zip(xs, ys)))
    # a symbol at fault is in no key, so it sits at a miss
    miss = [i for i, hit in enumerate(found) if hit is None]
    for v in [xs[i] for i in miss] + [ys[i] for i in miss]:
        v = as_symbol(v, "share symbol")
        if not 0 <= v < m:
            raise ValueError(f"share symbol {v} outside [0, {m})")
    lat = codec.lattice
    for i in miss:
        cell = int(xs[i]), int(ys[i])
        score = codec.scores.get(cell)
        if score is None:
            return None
        found[i] = lat.weights[lat.values.index(score)], cell
    weights, symbols = zip(*found)
    score = sum(weights)
    if decode and score > lat.bar:
        symbols = list(symbols)
        for i in miss:
            symbols[i] = codec.scheme.decode_fn(*symbols[i])
            if symbols[i] is None:
                raise RuntimeError("decoder undefined on an accepted share pair")
            symbols[i] = int(symbols[i])
    return score, tuple(symbols)


def accepts_n(codec: SymbolwiseCodec, xs, ys) -> bool:
    """Strict threshold test on the score lattice; ties are rejected.  The
    positions' weights sum to the integer score compared with the
    lattice's `bar`: by the byte kernel, the count of each value times
    its weight."""
    found = _cells(codec, xs, ys)
    return found is not None and found[0] > codec.lattice.bar


def decode_n(codec: SymbolwiseCodec, xs, ys) -> DecodeOutcome:
    """The secret of an accepted share pair, by the byte kernel or by
    lookups in `codec.tables`; RuntimeError when an accepted pair hits a
    hole of the decoder."""
    found = _cells(codec, xs, ys, decode=True)
    if found is None or found[0] <= codec.lattice.bar:
        return REJECT
    return DecodeOutcome(found[1])


class SplitterTables(NamedTuple):
    """`shares[s, u]` is (x, y) wherever the splitter returned integers;
    `cells[x, y]` is (lattice weight of its score, s) on each finite-score
    cell, the splitter's image, where the decoder returned an int.  Neither
    exceeds k |U| entries.  The splitter must be deterministic."""

    shares: dict
    cells: dict


# a decode cell's byte in `ByteTables.value` past every value index: a
# finite score with no decoded symbol, and a -inf score
_MISS, _MINUS_INF = 254, 255
# the inputs the byte kernel reads: bytes() of an ndarray or an array.array
# would read its raw buffer, not its elements
_SEQUENCES = (tuple, list)


class ByteTables(NamedTuple):
    """`SplitterTables` as `bytes.translate` tables, for a splitter whose
    cells and symbols fit in a byte: k |U| <= 256, M^2 <= 256, every share
    and decoded symbol in range(256), and under 254 lattice values.

    A block's two symbol tuples become one key of n cells by one big-int
    multiply-add, s |U| + u to encode and x M + y to decode; each symbol
    is checked against its alphabet first, so no cell carries into the
    next.  `x` and `y` read an encode cell's shares; `value` reads a
    decode cell's lattice value index, and `secret` its decoded symbol.
    A symbol that is not an int or lies outside its alphabet, a cell the
    splitter raised on (`raised`) and a finite cell with no decoded symbol
    are misses, which the caller reads by the dict lookups instead."""

    n: int
    secrets: bytes   # each alphabet's symbols: range(k), range(|U|), range(M)
    rands: bytes
    shares: bytes
    x: bytes
    y: bytes
    raised: bytes
    value: bytes
    secret: bytes
    weights: tuple[int, ...]
    bar: int

    def _key(self, a, b, a_set: bytes, b_set: bytes):
        """The key of cells a |b_set| + b, or None unless a and b are n
        integers each, in `a_set` and in `b_set`: [0, k) and [0, |U|) to
        encode, [0, M) to decode."""
        try:
            a, b = bytes(a), bytes(b)
        except (TypeError, ValueError):   # not integers in range(256)
            return None
        # translate deletes the symbols of each alphabet: none may be left
        n = self.n
        if (len(a) != n or len(b) != n or a.translate(None, a_set)
                or b.translate(None, b_set)):
            return None
        return (int.from_bytes(a, "big") * len(b_set)
                + int.from_bytes(b, "big")).to_bytes(n, "big")

    def encode(self, secret, rand):
        """(xs, ys), or None on a miss."""
        key = self._key(secret, rand, self.secrets, self.rands)
        if key is None or (self.raised and len(
                key.translate(None, self.raised)) < self.n):
            return None
        return tuple(key.translate(self.x)), tuple(key.translate(self.y))

    def cells(self, xs, ys, decode: bool):
        """As `_cells`: (integer score, symbols of an accepted pair with
        `decode`) or None at a -inf cell; False on a miss."""
        key = self._key(xs, ys, self.shares, self.shares)
        if key is None:
            return False
        v = key.translate(self.value)
        if _MINUS_INF in v:
            return None
        if _MISS in v:
            return False
        score = sum(map(operator.mul, map(v.count, range(len(self.weights))),
                        self.weights))
        if decode and score > self.bar:
            return score, tuple(key.translate(self.secret))
        return score, None


class LatticeLaws(NamedTuple):
    """Mass on each of `values`, the distinct finite scores ascending, of a
    legitimate pair (`legit`), an independent one (`indep`) and, per side,
    the honest share against each forged symbol (`forged["x"][a]`: Y
    against x = a); a row's mass short of 1 is on -inf.  Each is summed
    exactly and rounded once."""

    values: tuple[float, ...]
    legit: tuple[float, ...]
    indep: tuple[float, ...]
    forged: dict[str, tuple[tuple[float, ...], ...]]


def lattice_laws(law: ImageLaw, share_size: int,
                 logs: _Logs) -> tuple[LatticeLaws, dict]:
    """The `LatticeLaws` of a splitter's exact law and the score of each
    image cell, log2 p(x,y) / (p(x) p(y)), from one pass over the image:
    at most k |U| cells."""
    z, p_x, p_y = law.total, law.x, law.y
    scores = {(a, b): logs[c * z, p_x[a] * p_y[b]]
              for (a, b), c in law.xy.items()}
    values = tuple(sorted(set(scores.values())))
    col = {v: j for j, v in enumerate(values)}
    legit, indep = [0] * len(values), [0] * len(values)
    # per forged symbol of each side, the honest mass on each value
    rows_x, rows_y = (collections.defaultdict(lambda: [0] * len(values))
                      for _ in range(2))
    for (a, b), c in law.xy.items():
        j = col[scores[a, b]]
        legit[j] += c
        indep[j] += p_x[a] * p_y[b]
        rows_x[a][j] += p_y[b]
        rows_y[b][j] += p_x[a]
    rounded = {}   # each distinct row once: a modular splitter has one

    def round_row(row):
        if row not in rounded:
            rounded[row] = tuple(c / z for c in row)
        return rounded[row]
    forged = {side: tuple(round_row(tuple(rows.get(a, [0] * len(values))))
                          for a in range(share_size))
              for side, rows in (("x", rows_x), ("y", rows_y))}
    return LatticeLaws(values, tuple(c / z for c in legit),
                       tuple(c / (z * z) for c in indep), forged), scores


# ---------------------------------------------------------------------------
# Score lattice: exact sums over count vectors, by intervals


LATTICE_CAP = 1 << 20


class LatticeCapError(CapExceededError):
    """An exact score-lattice sum would visit more points than its cap."""


def check_lattice_points(n: int, points: int):
    if points > LATTICE_CAP:
        raise LatticeCapError(f"n={n}: {points} score-lattice points exceed "
                              f"the cap {LATTICE_CAP}; lower n")


def walk_size(m: int, values: int) -> int:
    """Prefixes `ScoreLattice.mass` walks for m positions over `values`
    values of positive mass: C(m+c-2, c-2), and one below two values."""
    return composition_count(m, values - 1) if values >= 2 else 1


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
        """`cuts` of n positions over every value, with no offset; the
        values ascend, so a prefix accepts the a below its cut.  Every
        `mass` over n positions whose masses are all positive reads them.
        Raises LatticeCapError past LATTICE_CAP prefixes."""
        check_lattice_points(self.n, walk_size(self.n, len(self.values)))
        heads, r, (cut,) = cuts(self.weights, (self.bar,), self.n,
                                range(len(self.values)))
        return heads, r, cut

    @functools.cached_property
    def _sums(self) -> dict:
        """`mass` results by (masses, m, accepted, offset); it lives and
        dies with the lattice, one per codec of a blocklength."""
        return {}

    def mass(self, masses, m: int, accepted: bool = True,
             offset: int = 0) -> float:
        """Accepted (or rejected) mass of the count vectors of m i.i.d.
        scores with per-value `masses`, on top of an integer score `offset`
        already collected; mass off the lattice is in neither side.

        Sums over the `cuts` of the values of positive mass: each prefix
        adds one interval of a binomial row, multinomial(m; head, r) times
        the terms C(r, a) q_i^a q_j^(r-a) with a below the cut (or from it
        on).  The rows are built in log2, in blocks (`_row_tails`), each
        scaled by its largest term and summed from the side asked for, so
        a tiny tail is never 1 minus the rest.  Sums over n positions and
        every value share the lattice's cut table (`_walk`), and each
        distinct sum is taken once per lattice: against the modular
        splitter both attacks, and often beta, ask for the same one.
        Raises LatticeCapError past LATTICE_CAP prefixes.
        """
        key = (tuple(masses), m, accepted, offset)
        sums = self._sums
        if key not in sums:
            sums[key] = self._mass(*key)
        return sums[key]

    def _mass(self, masses: tuple[float, ...], m: int, accepted: bool,
              offset: int) -> float:
        idx = [j for j, q in enumerate(masses) if q > 0.0]
        if not idx:
            return float(m == 0 and (offset > self.bar) == accepted)
        if len(idx) == 1:
            j = idx[0]
            hit = (offset + m * self.weights[j] > self.bar) == accepted
            return masses[j] ** m if hit else 0.0
        if (m, offset, len(idx)) == (self.n, 0, len(self.values)):
            heads, r, cut = self._walk
        else:
            check_lattice_points(m, walk_size(m, len(idx)))
            heads, r, (cut,) = cuts(self.weights, (self.bar,), m, idx,
                                    offset)
        lf = log2_factorials(m)
        *head_logs, lq_i, lq_j = (math.log2(masses[j]) for j in idx)
        tops, tails = _row_tails(lf, lq_i, lq_j, r, cut, accepted)
        logw = lf[m] + tops
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
    return codec.lattice.mass(codec.laws.legit, codec.n, accepted=False)


def monte_carlo_error(codec: SymbolwiseCodec, trials: int,
                      rng: RandomStream) -> tuple[float, float]:
    """MC estimate of the rejection probability for legitimate pairs, with
    a 95% half-width: `trials` Bernoulli trials of the exact mass
    `rejection_probability` (`prob._estimate`), which the lattice already
    holds when the record computed p_e."""
    return _estimate(trials, rng, rejection_probability(codec))
