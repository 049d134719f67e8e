"""Dense grid evaluator of the blockwise scheme, kept as a test oracle.

These are the library's former exact routines: they walk every one of the
k**n secret blocks, and the error pass walks every (secret, u_m) pair.
Their cost grows as k**n * (M+1), so they serve only to certify the
type-class engine on small blocks.  `typical_mask` and `member_codes`
are the former dense typical-set index: every sequence's surprisals,
summed and screened by the window, list the members' lexicographic codes.
The rank map `xi_plus_all`, the member masses `member_probs`, M
(`dense_m_count`) and every routine here read those codes, never the
library's index; the index supplies only source, n and gamma.  The
surprisals, H(S) and gamma are floats, and the screen sums and compares
them as exact Fractions, so a total within rounding of a window end is
decided as the library's exact window decides it.
"""
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from twoshare.attack import AttackResult
from twoshare.block import BlockShare, BlockwiseParams
from oracles import AlphaBeta, _entropy_bits, iid_extension
from twoshare.prob import PMF, entropy
from twoshare.typical import TypicalIndex


def share_to_flat(params: BlockwiseParams, share: BlockShare) -> int:
    """A share's position among the L (M+1) share values."""
    return share.l * params.mp1 + share.m


def flat_to_share(params: BlockwiseParams, flat: int) -> BlockShare:
    return BlockShare(*divmod(int(flat), params.mp1))


def _surprisal_table(source: PMF) -> np.ndarray:
    """-log2 p per symbol by `math.log2`, the library's log, +inf where
    p = 0."""
    return np.array([-math.log2(p) if p > 0.0 else math.inf
                     for p in source.probs])


def typical_mask(source: PMF, n: int, gamma: float) -> np.ndarray:
    """Window verdict of every length-n sequence, lexicographic order:
    |sum of its surprisals / n - H(S)| <= gamma, each float taken as its
    exact Fraction.  Sequences with equal symbol counts have equal exact
    sums, so each count vector is summed once."""
    w = _surprisal_table(source)
    k = w.size
    counts = np.zeros((1, k), dtype=np.int64)
    for _ in range(n):
        counts = (counts[:, None, :] + np.eye(k, dtype=np.int64)).reshape(-1, k)
    vectors, inverse = np.unique(counts, axis=0, return_inverse=True)
    exact = [Fraction(v) if math.isfinite(v) else None for v in w.tolist()]
    h, g = Fraction(entropy(source)), Fraction(gamma)

    def inside(row) -> bool:
        if any(c and f is None for c, f in zip(row, exact)):
            return False   # a zero-probability symbol
        total = sum(c * f for c, f in zip(row, exact) if c)
        return abs(total / n - h) <= g
    verdicts = np.array([inside(row) for row in vectors.tolist()])
    return verdicts[inverse.reshape(-1)]


def member_codes(source: PMF, n: int, gamma: float) -> np.ndarray:
    """Lexicographic codes of the typical sequences, in increasing order."""
    return np.nonzero(typical_mask(source, n, gamma))[0].astype(np.int64)


def xi_plus_all(idx: TypicalIndex) -> np.ndarray:
    """xi_plus over all k**n sequences in lexicographic order, from the
    dense member codes of the index's source, n and gamma."""
    codes = member_codes(idx.source, idx.n, idx.gamma)
    out = np.full(idx.k ** idx.n, codes.shape[0], dtype=np.int64)
    out[codes] = np.arange(codes.shape[0], dtype=np.int64)
    return out


def dense_m_count(idx: TypicalIndex) -> int:
    """Typical-set size M counted over the dense member codes."""
    return int(member_codes(idx.source, idx.n, idx.gamma).shape[0])


def member_probs(idx: TypicalIndex) -> np.ndarray:
    """Probabilities of the typical members, in rank order."""
    return iid_extension(idx.source, idx.n).all_probs()[
        member_codes(idx.source, idx.n, idx.gamma)]


def _check_side(side: str):
    if side not in ("x", "y"):
        raise ValueError("side must be 'x' or 'y'")


def atypical_mass(source: PMF, n: int, gamma: float) -> float:
    """Exact probability of the complement of the typical set."""
    mask = typical_mask(source, n, gamma)
    probs = iid_extension(source, n).all_probs()
    return float(np.dot(probs, (~mask).astype(np.float64)))


def _mask_part_entropy(l_count: int) -> float:
    # entropy of the uniform mask component; summed explicitly while the
    # table is small, closed form beyond that
    if l_count <= (1 << 20):
        return _entropy_bits(np.full(l_count, 1.0 / l_count))
    return math.log2(l_count)


def _clamp_mi(value: float) -> float:
    # mutual information is nonnegative; differences of entropies pick up
    # rounding noise of order 1e-15
    if value < -1e-9:
        raise ArithmeticError(f"mutual information came out {value}")
    return max(value, 0.0)


@dataclass(frozen=True)
class DenseQuantities:
    """Every quantity the dense grid yields: those of
    `block.BlockQuantities` and the ones a record spells as constants or
    copies (p_e = delta, I(S;X) = I(S;Y) = 0, every rate alike)."""

    n: int
    gamma: float
    l_count: int
    m_count: int
    h_s: float
    delta: float
    p_e: float
    i_sx: float
    i_sy: float
    i_xy: float
    rate_x: float
    rate_y: float
    rate_u: float
    h_s_given_xy: float
    sandwich_lo: float
    sandwich_hi: float


def exact_quantities(params: BlockwiseParams) -> DenseQuantities:
    """Exhaustive evaluation of error, secrecy, and correlation.

    The error probability runs the acceptance test over every
    (secret, mask) pair, chunked over secrets to bound memory.
    Information quantities are assembled exactly from entropies of
    small distributions: the common component u_l is drawn
    independently of everything else and appears identically in both
    shares, so it contributes log2(L) to I(X;Y) and nothing to I(S;X)
    or I(S;Y); the masked components see the block only through its
    rank z, so the rank distribution p_z carries the rest.
    """
    n = params.n
    idx = params.index
    source = idx.source
    m = dense_m_count(idx)
    mp1 = m + 1
    ext = iid_extension(source, n)
    p_sn = ext.all_probs()
    ns = p_sn.shape[0]
    z_all = xi_plus_all(idx)
    um = np.arange(mp1, dtype=np.int64)

    # one pass over the (secret, u_m) grid: acceptance of the legitimate
    # pair, the exact marginal of the masked X component, and the
    # conditional entropy H(X_m | S^n); legitimate shares always carry
    # matching u_l components, so none of this depends on u_l
    err_frac = np.empty(ns)
    p_xm = np.zeros(mp1)
    h_xm_given_s = 0.0
    chunk = max(1, (1 << 22) // mp1)
    for lo in range(0, ns, chunk):
        hi = min(ns, lo + chunk)
        z = z_all[lo:hi]
        rows = hi - lo
        xm = (z[:, None] - um[None, :]) % mp1
        t = (xm + um[None, :]) % mp1
        ok = (t != m) & (t == z[:, None])
        err_frac[lo:hi] = (mp1 - ok.sum(axis=1)) / float(mp1)
        w = p_sn[lo:hi] / mp1
        flat = (np.arange(rows, dtype=np.int64)[:, None] * mp1 + xm).ravel()
        counts = np.bincount(flat, minlength=rows * mp1).reshape(rows, mp1)
        cond = counts / float(mp1)
        p_xm += np.bincount(xm.ravel(), weights=np.repeat(w, mp1),
                            minlength=mp1)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(cond > 0.0, cond * np.log2(cond), 0.0)
        h_xm_given_s += float(np.dot(p_sn[lo:hi], -terms.sum(axis=1)))
    p_e = float(np.dot(p_sn, err_frac))

    atypical = (z_all == m).astype(np.float64)
    delta = float(np.dot(p_sn, atypical))

    i_sx = _clamp_mi(_entropy_bits(p_xm) - h_xm_given_s)
    # the masked Y component is the mask itself, so its conditional
    # distribution given any secret is the same uniform law
    p_ym = np.full(mp1, float(p_sn.sum()) / mp1)
    i_sy = _clamp_mi(_entropy_bits(p_ym) - _entropy_bits(np.full(mp1, 1.0 / mp1)))

    # correlation: common component plus the masked-component pair; the
    # joint of the masked components is the circulant p_z[(x+y) mod (M+1)]
    # / (M+1), so every row is a permutation of p_z/(M+1) and both
    # marginals equal the full mass over M+1
    p_z = np.bincount(z_all, weights=p_sn, minlength=mp1)
    with np.errstate(divide="ignore", invalid="ignore"):
        cells = np.where(p_z > 0.0, p_z / mp1 * np.log2(p_z / mp1), 0.0)
    h_joint_mm = -mp1 * float(cells.sum())
    h_marg = _entropy_bits(np.full(mp1, float(p_z.sum()) / mp1))
    i_l = _mask_part_entropy(params.l_count)
    i_xy = i_l + _clamp_mi(2.0 * h_marg - h_joint_mm)

    # residual secret uncertainty given both shares: the pair determines
    # exactly (u_l, u_m, z), the mask is independent of the secret, and
    # s^n -> (s^n, z) is a bijection, so H(S^n | X Y) = H(S^n) - H(Z)
    h_s_given_xy = max(_entropy_bits(p_sn) - _entropy_bits(p_z), 0.0)

    rate = math.log2(params.l_count * mp1) / n
    h_s = entropy(source)
    lo = i_l / n
    penalty = (delta * math.log2(delta) if delta > 0.0 else 0.0) + 1.0
    hi = lo + delta * h_s + (2.0 - delta) * params.index.gamma + penalty / n
    return DenseQuantities(
        n=n, gamma=params.index.gamma, l_count=params.l_count,
        m_count=m, h_s=h_s, delta=delta, p_e=p_e,
        i_sx=i_sx, i_sy=i_sy, i_xy=i_xy,
        rate_x=rate, rate_y=rate, rate_u=rate,
        h_s_given_xy=h_s_given_xy, sandwich_lo=lo, sandwich_hi=hi)


def blockwise_attack(params: BlockwiseParams, side: str = "x") -> AttackResult:
    """Exact optimal forgery against the blockwise acceptance test.

    The test is a conjunction of a first-component match and a modular-sum
    condition on the second components, and the two components of the honest
    share are independent, so each forged share's success probability is the
    product of two componentwise acceptance masses.
    """
    _check_side(side)
    m = dense_m_count(params.index)
    mp1 = m + 1
    if side == "x":
        # honest counterpart is Y = (u_l, u_m), both components uniform
        p_m = np.full(mp1, 1.0 / mp1)
    else:
        # honest counterpart is X; its masked component is a uniform mask
        # of the rank, accumulated here by explicit enumeration
        z_all = xi_plus_all(params.index)
        p_sn = iid_extension(params.index.source, params.n).all_probs()
        p_m = np.zeros(mp1)
        for u in range(mp1):
            np.add.at(p_m, (z_all - u) % mp1, p_sn / mp1)
    # success of forged component value c against honest component j:
    # accepted iff (c + j) mod (M+1) != M
    c = np.arange(mp1, dtype=np.int64)
    bad = (m - c) % mp1  # the single rejected honest value per forged c
    comp_m = 1.0 - p_m[bad]
    # the honest first component is uniform, so every forged first value
    # succeeds with probability exactly 1/L; forged value 0 is the
    # lexicographically least maximiser
    best_m = int(np.argmax(comp_m))
    prob = float(comp_m[best_m]) / params.l_count
    return AttackResult(success_prob=prob, optimal_forgery=(0, best_m),
                        side=side)


def blockwise_test_quantities(params: BlockwiseParams) -> AlphaBeta:
    """Exact alpha and beta via the componentwise factorization."""
    m = dense_m_count(params.index)
    mp1 = m + 1
    p_sn = iid_extension(params.index.source, params.n).all_probs()
    z_all = xi_plus_all(params.index)
    alpha = float(np.dot(p_sn, (z_all == m).astype(np.float64)))
    # independent share pair: first components match with mass 1/L, and the
    # modular sum avoids the sentinel for all but one honest value
    p_xm = np.zeros(mp1)
    for u in range(mp1):
        np.add.at(p_xm, (z_all - u) % mp1, p_sn / mp1)
    p_ym = np.full(mp1, 1.0 / mp1)
    c = np.arange(mp1, dtype=np.int64)
    bad = (m - c) % mp1
    beta_m = float(np.dot(p_xm, 1.0 - p_ym[bad]))
    beta = (1.0 / params.l_count) * beta_m
    return AlphaBeta(alpha=alpha, beta=beta)
