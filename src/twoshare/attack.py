"""Impersonation attacks and information-theoretic bound checkers.

The attacker hands the combiner a forged share and hopes the legitimate
counterpart share makes the pair acceptable.  Success probability is linear
in the forgery distribution, so an optimal attack sits on a point mass and
exact search only needs to scan forged share values; ties resolve to the
lexicographically smallest forgery.

Bound checkers operate on exact or estimated test quantities:
  alpha = P{legitimate pair rejected},  beta = P{independent pair accepted}.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .block import BlockwiseParams
from .prob import JointPMF, PMF, RandomStream, _estimate, binary_entropy
from .symbol import (LATTICE_CAP, SymbolwiseCodec, check_lattice_points,
                     count_distribution, rejection_probability)
from .typical import compositions


@dataclass(frozen=True)
class AttackResult:
    success_prob: float
    optimal_forgery: tuple
    side: str
    mode: str
    trials: int | None = None
    ci_halfwidth: float | None = None


def _check_side(side: str):
    if side not in ("x", "y"):
        raise ValueError("side must be 'x' or 'y'")


# ---------------------------------------------------------------------------
# Blockwise attacks


def _blockwise_forgery_success(params: BlockwiseParams) -> float:
    # a forged share matches the uniform honest u_l with mass 1/L, and its
    # masked component is rejected by exactly one of the M+1 honest masked
    # values, each of which has mass 1/(M+1) whichever share is honest
    return params.m_count / (params.m_count + 1) / params.l_count


def blockwise_attack(params: BlockwiseParams, side: str = "x") -> AttackResult:
    """Exact optimal forgery against the blockwise acceptance test.

    Both components of either honest share are uniform (the masked X
    component is the rank shifted by a uniform mask), so every forged
    share succeeds with the same mass M / ((M+1) L).  The tie resolves to
    the lexicographically least forgery (0, 0).
    """
    _check_side(side)
    return AttackResult(success_prob=_blockwise_forgery_success(params),
                        optimal_forgery=(0, 0), side=side, mode="exact")


# ---------------------------------------------------------------------------
# Symbolwise attacks


def symbolwise_attack(codec: SymbolwiseCodec, side: str = "x",
                      type_cap: int = LATTICE_CAP) -> AttackResult:
    """Exact optimal forged sequence on the score lattice.

    A forged symbol fixes the mass the honest share puts on each lattice
    value, so forged symbols with equal mass vectors are interchangeable
    and success depends only on how many positions each such class fills.
    Per class the count vector is multinomial; the classes' count-vector
    laws are convolved on integer keys.  `type_cap` bounds the forged
    compositions times the lattice points.  Against the modular splitter
    every forged symbol falls in one class, so this is one lattice sum.
    """
    _check_side(side)
    n = codec.n
    lat = codec.lattice
    table, honest = _forged_rows(codec, side)
    classes: dict[tuple[float, ...], int] = {}   # mass vector -> least symbol
    for a, row in enumerate(table):
        classes.setdefault(lat.masses(row, honest), a)
    masses, class_min = list(classes), list(classes.values())
    kc, kv = len(masses), len(lat.values)
    check_lattice_points(n, math.comb(n + kc - 1, kc - 1)
                         * math.comb(n + kv - 1, kv - 1), type_cap)
    powers: dict[tuple[int, int], dict] = {}

    def class_power(ci: int, count: int) -> dict:
        if (ci, count) not in powers:
            powers[ci, count] = count_distribution(masses[ci], count)
        return powers[ci, count]

    best_prob = -1.0
    best_seq: tuple[int, ...] | None = None
    for counts in compositions(n, kc):
        dist = None
        for ci, cnt in enumerate(counts):
            if cnt:
                part = class_power(ci, cnt)
                dist = part if dist is None else _convolve_counts(dist, part)
        prob = lat.accepted_mass(dist)
        seq = tuple(sorted(sym for ci, cnt in enumerate(counts)
                           for sym in [class_min[ci]] * cnt))
        if prob > best_prob or (prob == best_prob and best_seq is not None
                                and seq < best_seq):
            best_prob = prob
            best_seq = seq
    return AttackResult(success_prob=float(best_prob), optimal_forgery=best_seq,
                        side=side, mode="exact")


def _forged_rows(codec: SymbolwiseCodec,
                 side: str) -> tuple[np.ndarray, np.ndarray]:
    """Score rows indexed by the forged symbol, and the honest marginal."""
    return ((codec.score_table, codec.p_y.probs) if side == "x"
            else (codec.score_table.T, codec.p_x.probs))


def _convolve_counts(a: dict, b: dict) -> dict:
    out: dict[tuple[int, ...], float] = {}
    for ca, pa in a.items():
        for cb, pb in b.items():
            c = tuple(x + y for x, y in zip(ca, cb))
            out[c] = out.get(c, 0.0) + pa * pb
    return out


# ---------------------------------------------------------------------------
# Brute-force oracle and Monte Carlo


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


def _clear_gate(groups) -> tuple[float, list]:
    """The -inf gate of a forged block, from (bucket row, positions) groups
    whose rows put the -inf mass first.  Returns the probability that no
    position scores -inf, prod (1 - q_inf)**c, and each group's finite law
    given that.  A row with no finite mass closes the gate."""
    if any(row[0] >= 1.0 or not row[1:].any() for row, _ in groups):
        return 0.0, []
    clear = math.exp(math.fsum(c * math.log1p(-row[0]) for row, c in groups))
    return clear, [(row[1:] / math.fsum(row[1:]), c) for row, c in groups]


def monte_carlo_attack(scheme, side: str, forgery, trials: int,
                       rng: RandomStream, chunk: int = 1 << 16) -> AttackResult:
    """Estimate a forgery's acceptance probability by sampling honest shares.

    `forgery` is a concrete share (blockwise: (l, m) pair; symbolwise: a
    symbol sequence) or a PMF sampled per trial (blockwise: over the flat
    share alphabet; symbolwise: per position over symbols).  Blockwise,
    either honest share is uniform in both components, whatever z is.
    Symbolwise, a trial draws one score-bucket count vector: one multinomial
    per distinct forged symbol against its row, or one from the
    forgery-weighted mixture of the rows.  A trial with any -inf score
    fails, so each chunk first draws how many trials have none, one
    binomial, and only those draw their finite counts from the rows
    conditioned on no -inf score; the hit count keeps its exact law.
    """
    _check_side(side)
    if isinstance(scheme, BlockwiseParams):
        l_count, m, mp1 = scheme.l_count, scheme.m_count, scheme.mask_range()

        def draw(gen, take):
            if isinstance(forgery, PMF):
                flat = np.repeat(np.arange(forgery.support_size),
                                 gen.multinomial(take, forgery.probs))
                f_l, f_m = np.divmod(flat, mp1)
            else:
                f_l, f_m = int(forgery[0]), int(forgery[1])
            h_l = gen.integers(l_count, size=take)
            h_m = gen.integers(mp1, size=take)
            # the one rejected honest value; f_m + h_m could overflow int64
            ok = (f_l == h_l) & (h_m != (m - f_m) % mp1)
            return int(np.count_nonzero(ok))
    elif isinstance(scheme, SymbolwiseCodec):
        n = scheme.n
        lat = scheme.lattice
        table, honest = _forged_rows(scheme, side)
        rows = np.array([lat.buckets(row, honest) for row in table])
        if isinstance(forgery, PMF):
            groups = [(forgery.probs @ rows, n)]
        else:
            seq = np.asarray(forgery, dtype=np.int64)
            if seq.shape != (n,):
                raise ValueError(f"forged sequence must have length {n}")
            symbols, positions = np.unique(seq, return_counts=True)
            groups = [(rows[a], int(c)) for a, c in zip(symbols, positions)]
        clear, laws = _clear_gate(groups)

        def draw(gen, take):
            live = gen.binomial(take, clear)
            if not live:
                return 0
            counts = sum(gen.multinomial(c, law, size=live) for law, c in laws)
            return int(np.count_nonzero(lat.accepted(counts)))
    else:
        raise TypeError(f"unsupported scheme object {type(scheme)!r}")
    est, half = _estimate(trials, rng, chunk, draw)
    forged = tuple(forgery) if not isinstance(forgery, PMF) else ("sampled",)
    return AttackResult(success_prob=est, optimal_forgery=forged, side=side,
                        mode="mc", trials=trials, ci_halfwidth=half)


# ---------------------------------------------------------------------------
# Exponents


@dataclass(frozen=True)
class ExponentFit:
    """Least-squares fits of -log2(P) against n.

    `slope` is the through-origin fit; the affine fit is reported alongside
    because a through-origin fit picks up an n-independent bias at small n.
    Points with zero probability are excluded and listed in `excluded`.
    """

    slope: float
    affine_slope: float
    affine_intercept: float
    points: tuple[tuple[int, float], ...]
    excluded: tuple[int, ...]


def exponent_points(pairs: Sequence[tuple[int, float]]) -> list[tuple[int, float]]:
    """Per-point exponents -(1/n) log2 P; zero probabilities map to inf."""
    out = []
    for n, p in pairs:
        if p < 0.0 or p > 1.0:
            raise ValueError(f"probability {p!r} outside [0, 1]")
        out.append((n, math.inf if p == 0.0 else -math.log2(p) / n))
    return out


def exponent_fit(pairs: Sequence[tuple[int, float]]) -> ExponentFit:
    used = [(n, p) for n, p in pairs if p > 0.0]
    excluded = tuple(n for n, p in pairs if p == 0.0)
    if len(used) < 2:
        raise ValueError("need at least two positive-probability points")
    ns = np.array([n for n, _ in used], dtype=np.float64)
    ys = np.array([-math.log2(p) for _, p in used])
    slope = float(np.dot(ns, ys) / np.dot(ns, ns))
    affine_slope, affine_intercept = (float(v) for v in np.polyfit(ns, ys, 1))
    points = tuple((int(n), float(y / n)) for n, y in zip(ns, ys))
    return ExponentFit(slope=slope, affine_slope=affine_slope,
                       affine_intercept=affine_intercept, points=points,
                       excluded=excluded)


# ---------------------------------------------------------------------------
# Test quantities and converse checkers


@dataclass(frozen=True)
class TestQuantities:
    alpha: float   # P{legitimate pair rejected}
    beta: float    # P{independent pair accepted}


def test_quantities(joint_xy: JointPMF, accept_fn: Callable[[int, int], bool]) -> TestQuantities:
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
    return TestQuantities(alpha=alpha, beta=beta)


def blockwise_test_quantities(params: BlockwiseParams) -> TestQuantities:
    """Exact alpha and beta from the type classes.

    A legitimate pair is rejected exactly when the secret is atypical, so
    alpha is the atypical mass.  An independent X is uniform like any
    forged share, so beta equals the forgery success M / ((M+1) L).
    """
    return TestQuantities(alpha=params.index.delta,
                          beta=_blockwise_forgery_success(params))


def symbolwise_beta(codec: SymbolwiseCodec) -> float:
    """Exact beta: the lattice mass of accepted independent pairs."""
    lat = codec.lattice
    indep = np.outer(codec.p_x.probs, codec.p_y.probs)
    return lat.accepted_mass(
        count_distribution(lat.masses(codec.score_table, indep), codec.n))


def symbolwise_test_quantities(codec: SymbolwiseCodec) -> TestQuantities:
    """Exact alpha and beta on the score lattice."""
    return TestQuantities(alpha=rejection_probability(codec),
                          beta=symbolwise_beta(codec))


@dataclass(frozen=True)
class BoundCheck:
    lhs: float
    rhs: float
    holds: bool
    vacuous: bool = False


LOGSUM_TOL = 1e-9


def logsum_bound_check(i_xy_bits: float, tq: TestQuantities,
                       tol: float = LOGSUM_TOL) -> BoundCheck:
    """Correlation lower bound I(X;Y) >= -h(alpha) - (1-alpha) log2 beta.

    beta = 0 makes the right side infinite in principle but the acceptance
    region then has no independent mass at all and the bound is vacuous.
    """
    if tq.beta <= 0.0:
        return BoundCheck(lhs=i_xy_bits, rhs=math.inf, holds=True, vacuous=True)
    rhs = -binary_entropy(min(max(tq.alpha, 0.0), 1.0)) \
        - (1.0 - tq.alpha) * math.log2(tq.beta)
    return BoundCheck(lhs=i_xy_bits, rhs=rhs, holds=i_xy_bits >= rhs - tol)


def fano_check(p_e: float, h_s_given_xy_bits: float, n: int,
               secret_size: int, tol: float = LOGSUM_TOL) -> BoundCheck:
    """(1/n) H(S^n | X Y) <= (1/n) h(P_e) + P_e log2 |S|."""
    lhs = h_s_given_xy_bits / n
    rhs = binary_entropy(min(max(p_e, 0.0), 1.0)) / n + p_e * math.log2(secret_size)
    return BoundCheck(lhs=lhs, rhs=rhs, holds=lhs <= rhs + tol)


def converse_exponent_check(i_xy_bits: float, alpha: float, p_x: float,
                            p_y: float, n: int,
                            tol: float = LOGSUM_TOL) -> BoundCheck:
    """Attack exponents cannot outrun the correlation rate.

    Rearranges the correlation lower bound into
    max exponent <= [ (1/n) I(X;Y) + (1/n) h(alpha) ] / (1 - alpha).
    """
    if alpha >= 1.0 - 1e-12:
        return BoundCheck(lhs=math.inf, rhs=math.inf, holds=True, vacuous=True)
    if p_x <= 0.0 or p_y <= 0.0:
        # a zero attack probability has no finite exponent to bound
        return BoundCheck(lhs=math.inf, rhs=math.inf, holds=True, vacuous=True)
    lhs = max(-math.log2(p_x) / n, -math.log2(p_y) / n)
    rhs = (i_xy_bits / n + binary_entropy(min(max(alpha, 0.0), 1.0)) / n) \
        / (1.0 - alpha)
    return BoundCheck(lhs=lhs, rhs=rhs, holds=lhs <= rhs + tol)
