"""Float-keyed score-sum convolution, kept as a test oracle for the
symbolwise scheme.

These are the library's former `iidsum` module and its former exact
symbolwise routines, unchanged: n sequential dict convolutions keyed by
float score sums, tail masses read off by dividing each key by n, an
attack scan over forged-sequence types whose classes are grouped by
12-digit rounded keys, and the integer count of accepted recombined
sequences that cross-checks the modular splitter's attack.  They serve
only to certify the score-lattice engine on small blocks.

The count-vector routines at the end are the library's former exact
symbolwise engine, also unchanged: `count_distribution` lists the law of
every count vector, and the accepted and rejected masses are summed over
the whole list, vector by vector, with the scalar `accepts`.
They certify the interval sums of `ScoreLattice.mass`.  Their per-value
masses come from `reference_laws`, which sums the dense share laws of
`oracles.share_laws` cell by cell in exact rationals, and also certifies
the codec's `LatticeLaws`.
"""
from __future__ import annotations

import itertools
import math
import operator

from fractions import Fraction

import numpy as np

from oracles import AlphaBeta, share_laws
from twoshare._comb import compositions
from twoshare.attack import AttackResult, _check_side
from twoshare.prob import CapExceededError
from twoshare.symbol import LatticeLaws, ScoreLattice, SymbolwiseCodec

TYPE_CAP = 1 << 20

DIST_CAP = 1 << 20


def accepts(lat: ScoreLattice, counts) -> bool:
    """The strict test of a count vector on the score lattice: its integer
    score, the counts times the lattice weights, above `bar`; ties are
    rejected."""
    return sum(map(operator.mul, counts, lat.weights)) > lat.bar


class SumDistCapError(CapExceededError):
    """A convolution grew past DIST_CAP support points; switch to Monte Carlo."""


def merge_values(values, probs, tol: float = 1e-12) -> dict[float, float]:
    """Group (value, prob) pairs whose values coincide within tol."""
    pairs = sorted((float(v), float(p)) for v, p in zip(values, probs) if p > 0.0)
    out: dict[float, float] = {}
    anchor = None
    for v, p in pairs:
        if anchor is not None and (v == anchor or v - anchor <= tol):
            out[anchor] += p
        else:
            anchor = v
            out[anchor] = out.get(anchor, 0.0) + p
    return out


def convolve(a: dict[float, float], b: dict[float, float],
             cap: int = DIST_CAP) -> dict[float, float]:
    out: dict[float, float] = {}
    for va, pa in a.items():
        for vb, pb in b.items():
            s = va + vb
            out[s] = out.get(s, 0.0) + pa * pb
    if len(out) > cap:
        raise SumDistCapError(f"{len(out)} support points exceed {cap}")
    return out


def power_convolve(dist: dict[float, float], n: int,
                   cap: int = DIST_CAP) -> dict[float, float]:
    """Distribution of the sum of n i.i.d. draws from dist."""
    if n < 0:
        raise ValueError("power must be non-negative")
    out = {0.0: 1.0}
    for _ in range(n):
        out = convolve(out, dist, cap)
    return out


def tail_mass_strict(dist: dict[float, float], threshold: float) -> float:
    """Probability that the sum is strictly above the threshold."""
    total = 0.0
    for v, p in sorted(dist.items()):
        if v > threshold:
            total += p
    return total


def mean_tail_strict(dist: dict[float, float], n: int, per_symbol_threshold: float) -> float:
    """Probability that (sum / n) strictly exceeds the per-symbol threshold.

    Divides each support point by n before comparing, matching the scalar
    acceptance test applied to sampled share pairs.
    """
    total = 0.0
    for v, p in sorted(dist.items()):
        if math.isinf(v) and v < 0:
            continue
        if v / n > per_symbol_threshold:
            total += p
    return total


def legit_score_distribution(codec: SymbolwiseCodec) -> dict[float, float]:
    """Per-symbol score distribution under legitimate share pairs."""
    dense = share_laws(codec)
    mask = dense.p_xy > 0.0
    return merge_values(dense.score_table[mask], dense.p_xy[mask])


def rejection_probability(codec: SymbolwiseCodec) -> float:
    """Error probability by score-sum convolution."""
    dist = power_convolve(legit_score_distribution(codec), codec.n)
    acc = mean_tail_strict(dist, codec.n, codec.threshold)
    return min(max(1.0 - acc, 0.0), 1.0)


def _forged_symbol_dists(codec: SymbolwiseCodec, side: str) -> list[dict[float, float]]:
    """Score distribution per forged symbol value against the honest marginal."""
    rows, marginal = forged_rows(codec, side)
    return [merge_values(row, marginal) for row in rows]


def _compositions(total: int, parts: int):
    for cuts in itertools.combinations(range(total + parts - 1), parts - 1):
        prev = -1
        out = []
        for c in cuts:
            out.append(c - prev - 1)
            prev = c
        out.append(total + parts - 2 - prev)
        yield tuple(out)


def symbolwise_attack(codec: SymbolwiseCodec, side: str = "x",
                      type_cap: int = TYPE_CAP) -> AttackResult:
    """Exact optimal forged sequence by score-distribution convolution.

    Success depends only on how many positions carry each distinct
    per-symbol score distribution, so the scan runs over forged-sequence
    types rather than all sequences.
    """
    _check_side(side)
    n = codec.n
    dists = _forged_symbol_dists(codec, side)
    # group forged symbols with identical score distributions
    keys: dict[tuple, int] = {}
    classes: list[dict[float, float]] = []
    class_min: list[int] = []
    for a, d in enumerate(dists):
        key = tuple(sorted((round(v, 12), round(p, 12)) for v, p in d.items()))
        if key in keys:
            continue
        keys[key] = len(classes)
        classes.append(d)
        class_min.append(a)
    kc = len(classes)
    n_types = math.comb(n + kc - 1, kc - 1)
    if n_types > type_cap:
        raise CapExceededError(f"{n_types} forged-sequence types exceed the "
                               f"cap {type_cap}; use the Monte Carlo path")
    # lazily memoized per-class convolution powers
    powers: dict[tuple[int, int], dict[float, float]] = {}

    def class_power(ci: int, count: int) -> dict[float, float]:
        key = (ci, count)
        if key not in powers:
            powers[key] = power_convolve(classes[ci], count)
        return powers[key]

    best_prob = -1.0
    best_seq: tuple[int, ...] | None = None
    for counts in _compositions(n, kc):
        dist = {0.0: 1.0}
        for ci, cnt in enumerate(counts):
            if cnt:
                dist = convolve(dist, class_power(ci, cnt))
        prob = mean_tail_strict(dist, n, codec.threshold)
        seq = tuple(sorted(sym for ci, cnt in enumerate(counts)
                           for sym in [class_min[ci]] * cnt))
        if prob > best_prob or (prob == best_prob and best_seq is not None
                                and seq < best_seq):
            best_prob = prob
            best_seq = seq
    return AttackResult(success_prob=float(best_prob), optimal_forgery=best_seq,
                        side=side, mode="exact")


def symbolwise_test_quantities(codec: SymbolwiseCodec) -> AlphaBeta:
    """Exact alpha and beta by score-sum convolution."""
    legit = power_convolve(legit_score_distribution(codec), codec.n)
    alpha = 1.0 - mean_tail_strict(legit, codec.n, codec.threshold)
    dense = share_laws(codec)
    indep = merge_values(dense.score_table.ravel(),
                         np.outer(dense.p_x, dense.p_y).ravel())
    beta = mean_tail_strict(power_convolve(indep, codec.n), codec.n,
                            codec.threshold)
    return AlphaBeta(alpha=min(max(alpha, 0.0), 1.0), beta=beta)


def modular_attack_success(codec: SymbolwiseCodec, side: str = "x") -> float:
    """Success probability of any fixed forgery against the modular splitter.

    Against a uniform honest share the reconstructed symbols are uniform
    over the share alphabet whatever the forgery, so the success mass is
    the count of accepted reconstructed sequences over M**n, accumulated
    by secret-type counting.  Serves as an independent cross-check for
    `symbolwise_attack`.
    """
    _check_side(side)
    m = codec.scheme.share_size
    p_s = codec.source.probs
    n = codec.n
    values = [math.log2(m * p) if p > 0.0 else -math.inf for p in p_s]
    total = 0.0
    k = codec.source.support_size
    for counts in _compositions(n, k):
        if any(p_s[i] == 0.0 and c > 0 for i, c in enumerate(counts)):
            continue
        score = 0.0
        for v, cnt in zip(values, counts):
            score += v * cnt
        if score / n > codec.threshold:
            ways = math.comb(n, counts[0])
            rem = n - counts[0]
            for cnt in counts[1:]:
                ways *= math.comb(rem, cnt)
                rem -= cnt
            total += ways
    return total / float(m) ** n


# ---------------------------------------------------------------------------
# Count-vector sums


def count_distribution(masses: tuple[float, ...],
                       m: int) -> dict[tuple[int, ...], float]:
    """Law of the count vector of m i.i.d. scores with per-value masses.

    Each vector weighs multinomial(m; c) * prod q_j**c_j.  The multinomial
    is built exactly, one binomial factor per value, and the product is
    summed in the exponent so that large m cannot overflow.  Vectors that
    use a zero-mass value are left out, and so is any mass off the lattice.
    """
    support = [j for j, q in enumerate(masses) if q > 0.0]
    if not support:
        return {(0,) * len(masses): 1.0} if m == 0 else {}
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


def count_vector_mass(lat: ScoreLattice, masses, m: int,
                      accepted: bool = True, offset: int = 0) -> float:
    """Accepted (or rejected) mass, one exact integer test per count
    vector, on top of an integer score `offset`."""
    return math.fsum(
        p for c, p in count_distribution(masses, m).items()
        if (offset + sum(map(operator.mul, c, lat.weights)) > lat.bar)
        == accepted)


def _convolve_counts(a: dict, b: dict) -> dict:
    out: dict[tuple[int, ...], float] = {}
    for ca, pa in a.items():
        for cb, pb in b.items():
            c = tuple(x + y for x, y in zip(ca, cb))
            out[c] = out.get(c, 0.0) + pa * pb
    return out


def forged_rows(codec: SymbolwiseCodec, side: str):
    """Score rows indexed by the forged symbol, and the honest marginal,
    from the dense share laws."""
    dense = share_laws(codec)
    return ((dense.score_table, dense.p_y) if side == "x"
            else (dense.score_table.T, dense.p_x))


def reference_laws(codec: SymbolwiseCodec) -> LatticeLaws:
    """The codec's `LatticeLaws`, rebuilt cell by cell from the dense share
    laws: per value, the exact rational mass of its cells, rounded once.
    Every forged row is masked against its honest marginal on its own,
    and the independent law sums the dense outer product."""
    dense = share_laws(codec)
    table, m = dense.score_table.tolist(), codec.scheme.share_size
    finite = [(a, b) for a in range(m) for b in range(m)
              if table[a][b] != -math.inf]
    values = tuple(sorted({table[a][b] for a, b in finite}))

    def masses(cells):   # (score, exact mass) -> per-value floats
        out = dict.fromkeys(values, Fraction(0))
        for v, q in cells:
            out[v] += q
        return tuple(map(float, out.values()))

    rows = {"x": [[] for _ in range(m)], "y": [[] for _ in range(m)]}
    for a, b in finite:
        rows["x"][a].append((table[a][b], dense.exact_y[b]))
        rows["y"][b].append((table[a][b], dense.exact_x[a]))
    return LatticeLaws(
        values,
        masses((table[a][b], q) for (a, b), q in dense.exact_xy.items()),
        masses((table[a][b], dense.exact_x[a] * dense.exact_y[b])
               for a, b in finite),
        {side: tuple(map(masses, row)) for side, row in rows.items()})


def count_vector_attack(codec: SymbolwiseCodec, side: str = "x") -> AttackResult:
    """Exact optimal forgery: per forged-class composition, the classes'
    count-vector laws convolved on integer keys, then tested per vector."""
    _check_side(side)
    n = codec.n
    lat = codec.lattice
    classes: dict[tuple[float, ...], int] = {}
    for a, row in enumerate(reference_laws(codec).forged[side]):
        classes.setdefault(row, a)
    masses, class_min = list(classes), list(classes.values())
    best_prob = -1.0
    best_seq = None
    for counts in compositions(n, len(masses)).tolist():
        dist = None
        for ci, cnt in enumerate(counts):
            if cnt:
                part = count_distribution(masses[ci], cnt)
                dist = part if dist is None else _convolve_counts(dist, part)
        prob = math.fsum(p for c, p in dist.items() if accepts(lat, c))
        seq = tuple(sorted(sym for ci, cnt in enumerate(counts)
                           for sym in [class_min[ci]] * cnt))
        if prob > best_prob or (prob == best_prob and best_seq is not None
                                and seq < best_seq):
            best_prob = prob
            best_seq = seq
    return AttackResult(success_prob=float(best_prob), optimal_forgery=best_seq,
                        side=side, mode="exact")
