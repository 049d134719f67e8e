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

from .outcome import DecodeOutcome, REJECT
from .prob import (CapExceededError, PMF, RandomStream, _estimate, as_symbol,
                   entropy)
from .typical import prefix_lookup


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
    ratios = [p.as_integer_ratio() for p in source.probs.tolist()]
    den = max(d for _, d in ratios)
    weight = [num * (den // d) for num, d in ratios]
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
            law: ImageLaw, tol: float) -> ValidationReport:
    """`validate_base` on the `_information` of the splitter's law; the
    decoder is checked on each cell (s, x, y) of its image."""
    h_s, h_s_x, h_s_y, h_s_xy, ell = information[:5]
    sizes_ok = min(scheme.share_size, scheme.share_size,
                   scheme.rand_size) >= scheme.secret_size
    decoder_ok = all(scheme.decode_fn(x, y) == s for s, x, y in law.sxy)
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


def validate_base(scheme: BaseScheme, source: PMF,
                  tol: float = SECRECY_TOL) -> ValidationReport:
    """Exact check of per-symbol secrecy, decodability, and sizes.  The
    decoder is checked where the splitter can send the secret: on the
    support points."""
    law = _image_law(scheme, source)
    return _report(scheme, _information(source, law, _Logs()), law, tol)


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
        report = _report(scheme, information, law, SECRECY_TOL)
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
    """Apply the splitter by lookups in `codec.tables`.  A call they miss
    goes position by position: ValueError on a wrong length or naming the
    first symbol outside its alphabet or not an integer, secret first, and
    a cell the table lacks calls the splitter again, so it raises there."""
    shares, n = codec.tables.shares, codec.n
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
    """(weights, symbols) of a share pair: per position the lattice weight
    of its score and its secret symbol, by lookups in `codec.tables`; None
    when a position scores -inf.  A pair they miss goes position by
    position: ValueError on a wrong length or naming the first symbol, of
    xs then ys, outside [0, M) or not an integer; a missed finite cell
    reads as its own symbol, or with `decode`, on an accepted pair, calls
    the decoder again, so a hole raises RuntimeError."""
    n, m, cells = codec.n, codec.scheme.share_size, codec.tables.cells
    try:
        if len(xs) == len(ys) == n:
            return tuple(zip(*map(cells.__getitem__, zip(xs, ys))))
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
    if decode and sum(weights) > lat.bar:
        symbols = list(symbols)
        for i in miss:
            symbols[i] = codec.scheme.decode_fn(*symbols[i])
            if symbols[i] is None:
                raise RuntimeError("decoder undefined on an accepted share pair")
            symbols[i] = int(symbols[i])
    return weights, tuple(symbols)


def llr_score(codec: SymbolwiseCodec, xs, ys) -> float:
    """Mean per-symbol log-likelihood ratio; -inf on zero-probability pairs.
    Summed from the value counts, so it does not depend on position order;
    `accepts_n` decides on the weights exactly, not on this float."""
    found = _cells(codec, xs, ys)
    if found is None:
        return float("-inf")
    counts = map(found[0].count, codec.lattice.weights)
    return math.fsum(map(operator.mul, counts, codec.lattice.values)) / codec.n


def accepts_n(codec: SymbolwiseCodec, xs, ys) -> bool:
    """Strict threshold test on the score lattice; ties are rejected.  The
    positions' weights sum to the integer score `ScoreLattice.accepts`
    compares with `bar`."""
    found = _cells(codec, xs, ys)
    return found is not None and sum(found[0]) > codec.lattice.bar


def decode_n(codec: SymbolwiseCodec, xs, ys) -> DecodeOutcome:
    """The secret of an accepted share pair, by lookups in `codec.tables`;
    RuntimeError when an accepted pair hits a hole of the decoder."""
    found = _cells(codec, xs, ys, decode=True)
    if found is None or sum(found[0]) <= codec.lattice.bar:
        return REJECT
    return DecodeOutcome(found[1])


class SplitterTables(NamedTuple):
    """`shares[s, u]` is (x, y) wherever the splitter returned integers;
    `cells[x, y]` is (lattice weight of its score, s) on each finite-score
    cell, the splitter's image, where the decoder returned an int.  Neither
    exceeds k |U| entries.  The splitter must be deterministic."""

    shares: dict
    cells: dict


class LatticeLaws(NamedTuple):
    """Mass on each of `values`, the distinct finite scores ascending, of a
    legitimate pair (`legit`), an independent one (`indep`) and, per side,
    the honest share against each forged symbol (`forged["x"][a]`: Y
    against x = a), with the honest mass on -inf against each forged
    symbol in `minus_inf`.  Each is summed exactly and rounded once."""

    values: tuple[float, ...]
    legit: tuple[float, ...]
    indep: tuple[float, ...]
    forged: dict[str, tuple[tuple[float, ...], ...]]
    minus_inf: dict[str, tuple[float, ...]]


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

    def round_row(row):   # per-value masses and the mass on -inf
        if row not in rounded:
            rounded[row] = tuple(c / z for c in row), (z - sum(row)) / z
        return rounded[row]
    forged, minus_inf = {}, {}
    for side, rows in (("x", rows_x), ("y", rows_y)):
        forged[side], minus_inf[side] = zip(*(
            round_row(tuple(rows.get(a, [0] * len(values))))
            for a in range(share_size)))
    return LatticeLaws(values, tuple(c / z for c in legit),
                       tuple(c / (z * z) for c in indep), forged,
                       minus_inf), scores


# ---------------------------------------------------------------------------
# Score lattice: exact sums over count vectors, by intervals


LATTICE_CAP = 1 << 20


class LatticeCapError(CapExceededError):
    """An exact score-lattice sum would visit more points than its cap."""


def check_lattice_points(n: int, points: int, cap: int = LATTICE_CAP):
    if points > cap:
        raise LatticeCapError(f"n={n}: {points} score-lattice points exceed "
                              f"the cap {cap}; lower n")


def walk_size(m: int, values: int) -> int:
    """Prefixes `ScoreLattice.mass` walks for m positions over `values`
    values of positive mass: C(m+c-2, c-2), and one below two values."""
    return math.comb(m + values - 2, values - 2) if values >= 2 else 1


# floats in one block of binomial rows that `ScoreLattice.mass` builds at
# once; a row longer than this still makes a block of its own
MASS_BLOCK = 1 << 14


@functools.lru_cache(maxsize=16)
def _log2_factorials(m: int) -> np.ndarray:
    """log2(t!) for t = 0..m, each rounded once from the exact integer,
    then m+1 entries of +inf, so t = -1..-(m+1) reads +inf: a binomial
    term C(r, a) with a > r gets log2 weight -inf."""
    out, f = [0.0], 1
    for t in range(1, m + 1):
        f *= t
        out.append(math.log2(f))
    table = np.array(out + [math.inf] * (m + 1))
    table.flags.writeable = False
    return table


def _compositions(total: int, parts: int) -> np.ndarray:
    """Every way to split `total` into `parts` ordered counts, one per
    row; the first count ascends and the last takes the rest."""
    cols, rest = [], np.array([total])
    for _ in range(parts - 1):
        size = rest + 1
        col = np.arange(size.sum()) - np.repeat(size.cumsum() - size, size)
        cols = [np.repeat(c, size) for c in cols] + [col]
        rest = np.repeat(rest, size) - col
    return np.array(cols + [rest]).T


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

    def accepts(self, counts) -> bool:
        return sum(map(operator.mul, counts, self.weights)) > self.bar

    def cuts(self, m: int, idx, offset: int = 0):
        """Every prefix of an m-position count vector over the values at
        `idx` (ascending, at least two), as int64 arrays (heads, r, cut),
        one entry per prefix, r ascending: heads[p] counts the values
        idx[:-2] and r[p] positions are left to the last two values i < j.
        With a of them at i the score is x - a (w_j - w_i), x = offset +
        head.w + r w_j - bar, so the strict test accepts head + (a, r - a)
        exactly when a < cut = ceil(x / (w_j - w_i)), clamped to [0, r+1];
        a tie is rejected.  The weights reach 2**60 at n=96, so x, with
        r w_j = (m - sum(head)) w_j, is summed in int64 only when a bound
        keeps it below 2**63, and in Python ints otherwise: exact either way.
        """
        *head_idx, i, j = idx
        w = self.weights
        prefixes = _compositions(m, len(head_idx) + 1)
        heads, r = prefixes[:, 1:], prefixes[:, 0]
        span = w[j] - w[i]
        # x + span - 1 = base + heads.steps; its floor over span is the ceil
        base = offset + m * w[j] - self.bar + span - 1
        steps = [w[h] - w[j] for h in head_idx]
        bound = max(abs(base) + m * sum(map(abs, steps)), span)
        dtype = np.int64 if bound < 1 << 63 else object
        x = base
        for step, col in zip(steps, heads.T):
            x = x + col.astype(dtype) * step
        cut = np.minimum(np.asarray(x // span, dtype=dtype), r + 1)
        return heads, r, np.maximum(cut, 0).astype(np.int64, copy=False)

    @functools.cached_property
    def _walk(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """`cuts` of n positions over every value, with no offset: the
        Monte Carlo table reads them, and so does every `mass` over n
        positions whose masses are all positive.  Raises LatticeCapError
        past LATTICE_CAP prefixes."""
        check_lattice_points(self.n, walk_size(self.n, len(self.values)))
        return self.cuts(self.n, range(len(self.values)))

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
            heads, r, cut = self.cuts(m, idx, offset)
        lf = _log2_factorials(m)
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

    @functools.cached_property
    def accepted(self) -> Callable[[np.ndarray], np.ndarray]:
        """`accepts` over rows of count vectors over `values`: a row is
        accepted when its count of the second-last value is below its
        prefix's cut, read off `_walk`."""
        parts = len(self.values)
        if parts == 1:
            hit = self.n * self.weights[0] > self.bar
            return lambda counts: np.full(len(counts), hit)
        heads, _, cuts = self._walk
        cut_of = prefix_lookup(heads, cuts, self.n)
        return lambda counts: counts[:, -2] < cut_of(counts)


def score_lattice(codec: SymbolwiseCodec) -> ScoreLattice:
    values = codec.laws.values
    ratios = [v.as_integer_ratio() for v in values + (float(codec.threshold),)]
    den = max(d for _, d in ratios)
    *weights, bar = (num * (den // d) for num, d in ratios)
    return ScoreLattice(values, tuple(weights), codec.n * bar, codec.n)


def rejection_probability(codec: SymbolwiseCodec) -> float:
    """Exact probability that a legitimate share pair (never -inf) is
    rejected: the lattice mass the test rejects, summed on that side."""
    return codec.lattice.mass(codec.laws.legit, codec.n, accepted=False)


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
    """Error probability on the score lattice, and the informations and
    entropies the codec already holds."""
    return SymbolQuantities(
        n=codec.n, gamma=codec.gamma, p_e=rejection_probability(codec),
        i_xy_per_symbol=codec.i_xy, i_sx_per_symbol=codec.i_sx,
        i_sy_per_symbol=codec.i_sy,
        h_s_given_x=codec.h_s_given_x, h_s_given_y=codec.h_s_given_y,
        h_s_given_xy=codec.h_s_given_xy,
        rate=math.log2(codec.scheme.share_size))


def monte_carlo_error(codec: SymbolwiseCodec, trials: int,
                      rng: RandomStream) -> tuple[float, float]:
    """MC estimate of the rejection probability for legitimate pairs.

    Each trial draws one block's count vector over the lattice values (no
    legitimate pair scores -inf) and is decided on the lattice.  When one
    value holds all the mass, every trial draws the same vector, so none
    is drawn.
    """
    accepted, law = codec.lattice.accepted, np.array(codec.laws.legit)
    if np.count_nonzero(law) == 1:
        miss = not accepted(np.where(law > 0.0, codec.n, 0)[None])[0]
        return _estimate(trials, rng, float(miss))
    return _estimate(trials, rng, 0.0, 1.0, lambda gen, take: take - int(
        np.count_nonzero(accepted(gen.multinomial(codec.n, law, size=take)))))
