"""Score-lattice engine of the symbolwise scheme: parity of its interval
sums with the float-keyed convolution oracle and with the former
count-vector engine, its cuts against the scalar test, the strict-tie rule,
and long-block behaviour."""
import dataclasses
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import broken_splitters
import oracles
import symbolwise_oracle as conv
from twoshare import _comb, attack, harness, symbol
from twoshare._comb import compositions
from twoshare.prob import PMF

SKEW = PMF.from_probs([0.7, 0.3])
K3 = PMF.from_probs([0.5, 0.3, 0.2])
K4 = PMF.from_probs([0.4, 0.3, 0.2, 0.1])
GAP = PMF.from_probs([0.6, 0.0, 0.4])   # a zero-probability symbol
TOL = 1e-12
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def power_gamma(n):
    return n ** (-1.0 / 3.0)


def modular(m, source, n, gamma=None):
    gamma = power_gamma(n) if gamma is None else gamma
    return symbol.make_codec(symbol.modular_scheme(m, source.support_size),
                             source, n, gamma)


def leaky(m, source, n):
    scheme = broken_splitters.identity_leak_scheme(m, source.support_size)
    return symbol.make_codec(scheme, source, n, power_gamma(n),
                             require_valid=False)


CASES = (
    [pytest.param(m, SKEW, n, id=f"skew-m{m}-n{n}")
     for m in (3, 4) for n in (1, 2, 8, 16, 32)]
    + [pytest.param(5, K3, n, id=f"k3-m5-n{n}") for n in (1, 8, 32, 64)]
    + [pytest.param(6, K4, n, id=f"k4-m6-n{n}") for n in (1, 8, 16)]
    # once skipped: float sums split a true score into several values
    + [pytest.param(4, K4, n, id=f"k4-m4-n{n}") for n in (1, 8, 16)]
    + [pytest.param(5, PMF.from_probs([0.6, 0.25, 0.15]), n,
                    id=f"k3b-m5-n{n}") for n in (8, 32)]
    + [pytest.param(4, PMF.uniform(2), n, id=f"uniform2-m4-n{n}")
       for n in (1, 8, 16)]
    + [pytest.param(5, GAP, n, id=f"gap-m5-n{n}") for n in (1, 5, 24)]
)


def legit_and_indep(codec):
    """Per-position score laws of legitimate and of independent pairs, summed
    cell by cell by the oracle, not read off the codec."""
    ref = conv.reference_laws(codec)
    return ref.legit, ref.indep


def assert_parity(codec, float_keyed=True):
    """p_e = alpha, beta and both attacks against the count-vector oracle
    and, unless a vector ties the bar, the float-keyed one: it compares
    float sums to the threshold, so a tie can land on either side."""
    lat = codec.lattice
    legit, indep = legit_and_indep(codec)
    got_t = oracles.symbolwise_test_quantities(codec)
    want_alpha = [conv.count_vector_mass(lat, legit, codec.n, accepted=False)]
    want_beta = [conv.count_vector_mass(lat, indep, codec.n)]
    if float_keyed:
        want_alpha.append(conv.rejection_probability(codec))
        want_beta.append(conv.symbolwise_test_quantities(codec).beta)
    for want in want_alpha:
        assert got_t.alpha == pytest.approx(want, abs=TOL)
    for want in want_beta:
        assert got_t.beta == pytest.approx(want, abs=TOL)
    for side in "xy":
        got = attack.symbolwise_attack(codec, side)
        wants = [conv.count_vector_attack(codec, side)]
        if float_keyed:
            wants.append(conv.symbolwise_attack(codec, side))
        for want in wants:
            assert got.success_prob == pytest.approx(want.success_prob, abs=TOL)
            assert got.optimal_forgery == want.optimal_forgery


@pytest.mark.parametrize("m,source,n", CASES)
def test_modular_matches_convolution_oracle(m, source, n):
    assert_parity(modular(m, source, n))


@pytest.mark.parametrize("m,source", [(3, SKEW), (4, K3)])
@pytest.mark.parametrize("n", (3, 4, 6))
def test_identity_leak_matches_convolution_oracle(m, source, n):
    codec = leaky(m, source, n)
    # the forged symbol outside the secret alphabet forms its own class
    assert len(set(codec.laws.forged["x"])) > 1
    assert_parity(codec)


def test_valid_splitter_can_have_several_forged_classes():
    # a splitter that passes validation can still leave share symbols out
    # of its image: a forged x = 2 or 3 scores -inf everywhere and forms a
    # class of its own, so the multi-class attack is not only for splitters
    # built with require_valid=False
    scheme = symbol.BaseScheme(
        "half-alphabet", secret_size=2, share_size=4, rand_size=2,
        encode_fn=lambda s, u: ((s + u) % 2, u),
        decode_fn=lambda x, y: (x - y) % 2 if max(x, y) < 2 else None)
    for n in (3, 4, 6):
        codec = symbol.make_codec(scheme, SKEW, n, power_gamma(n))
        for side in "xy":
            assert len(set(codec.laws.forged[side])) == 2
        assert_parity(codec)


def test_uniform_source_has_one_lattice_value():
    codec = modular(4, PMF.uniform(2), 8)
    assert symbol.score_lattice(codec).values == (1.0,)


def test_tie_rejects_every_legitimate_pair():
    # uniform source: every legitimate pair scores exactly I(X;Y), so a
    # zero margin rejects all of them
    tied = dataclasses.replace(modular(4, PMF.uniform(2), 6), gamma=0.0)
    assert symbol.rejection_probability(tied) == 1.0
    tq = oracles.symbolwise_test_quantities(tied)
    assert tq.alpha == 1.0
    assert tq.beta == 0.0
    assert attack.symbolwise_attack(tied, "x").success_prob == 0.0


def test_long_block_stays_finite():
    codec = modular(5, K3, 400)
    tq = oracles.symbolwise_test_quantities(codec)
    vals = [symbol.rejection_probability(codec), tq.alpha, tq.beta,
            attack.symbolwise_attack(codec, "x").success_prob,
            attack.symbolwise_attack(codec, "y").success_prob]
    for v in vals:
        assert math.isfinite(v) and 0.0 <= v <= 1.0
    assert vals[3] > 0.0


def test_lattice_cap_names_n_and_the_way_out():
    # four values: the interval sums walk C(1502, 2) prefixes of the first
    # two counts, past the 2**20 cap (three values walk only n+1)
    codec = modular(6, K4, 1500)
    with pytest.raises(symbol.LatticeCapError,
                       match=r"^n=1500: 1127251 score-lattice points .*; lower n$"):
        symbol.rejection_probability(codec)


# one shape per lattice size c = 1, 2, 3, 4, and one with an empty symbol
SHAPES = [pytest.param(4, PMF.uniform(2), id="c1-uniform2-m4"),
          pytest.param(4, SKEW, id="c2-skew-m4"),
          pytest.param(5, K3, id="c3-k3-m5"),
          pytest.param(6, K4, id="c4-k4-m6"),
          pytest.param(5, GAP, id="gap-m5")]


def laws(codec):
    """Every distinct per-position score law the engines sum: legitimate
    pairs, independent pairs, and each forged symbol's honest row."""
    table = codec.laws
    return list(dict.fromkeys([table.legit, table.indep,
                               *table.forged["x"], *table.forged["y"]]))


def lopsided():
    # share Y takes only 0 and 1: a forged y = 2 or 3 scores -inf everywhere
    scheme = symbol.BaseScheme(
        "lopsided", secret_size=3, share_size=4, rand_size=4,
        encode_fn=lambda s, u: ((s + u) % 4, u // 2),
        decode_fn=lambda x, y: None)
    return symbol.make_codec(scheme, K3, 8, 0.3, require_valid=False)


@pytest.mark.parametrize("make", [
    pytest.param(lambda: modular(1024, SKEW, 16), id="k2-m1024"),
    pytest.param(lambda: modular(5, K3, 8), id="k3-m5"),
    pytest.param(lopsided, id="lopsided"),
    # share X is the secret: a forged x = 2 or 3 scores -inf everywhere
    pytest.param(lambda: leaky(4, SKEW, 8), id="identity-leak")])
def test_laws_are_the_per_cell_sums(make):
    codec = make()
    assert codec.laws == conv.reference_laws(codec)
    assert codec.lattice.values == codec.laws.values
    m = codec.scheme.share_size
    assert [len(codec.laws.forged[side]) for side in "xy"] == [m, m]


def test_minus_inf_only_rows_hold_no_mass():
    # the last two cases above do have forged symbols that score -inf
    # against every honest share; their rows keep the lattice's length
    # and hold zeros
    for codec, side in [(leaky(4, SKEW, 8), "x"), (lopsided(), "y")]:
        scores, _ = conv.forged_rows(codec, side)
        dead = np.isneginf(scores).all(axis=1)
        assert 0 < dead.sum() < len(dead)
        for row, is_dead in zip(codec.laws.forged[side], dead):
            assert len(row) == len(codec.laws.values)
            assert (not any(row)) == is_dead


def test_laws_are_built_once_per_sweep(monkeypatch):
    calls, real = [], symbol.lattice_laws
    monkeypatch.setattr(symbol, "lattice_laws",
                        lambda *args: calls.append(1) or real(*args))
    cfg = harness.ExperimentConfig.from_dict({
        "source": [0.5, 0.3, 0.2], "scheme": {"kind": "symbolwise", "m": 5},
        "n_values": [8, 16, 24], "mode": "exact"})
    records = harness.run_experiment(cfg).records
    assert [r.skipped for r in records] == [None] * 3
    assert len(calls) == 1


@pytest.mark.parametrize("name,sums", [("symbolwise_skew", 6),
                                       ("symbolwise_k3_frontier", 4),
                                       ("symbolwise_k4_frontier", 4),
                                       ("symbolwise_wide_m", 4)])
def test_each_distinct_sum_is_taken_once_per_record(monkeypatch, name, sums):
    # against the modular splitter p_y is p_x's sum, and beta is too: two
    # distinct sums a record, alpha's and the accepted side's
    calls, real = [], symbol._row_tails
    monkeypatch.setattr(symbol, "_row_tails",
                        lambda *args: calls.append(1) or real(*args))
    cfg = harness.ExperimentConfig.from_dict(
        json.loads((CONFIG_DIR / f"{name}.json").read_text()))
    for _ in range(2):   # a second sweep builds new lattices and sums again
        calls.clear()
        records = harness.run_experiment(cfg).records
        assert [r.skipped for r in records] == [None] * len(records)
        assert len(calls) == sums


GRID_SOURCES = [SKEW, K3, K4, GAP, PMF.from_probs([0.6, 0.25, 0.15]),
                PMF.from_probs([0.35, 0.25, 0.2, 0.15, 0.05])]


@pytest.mark.parametrize("source,m", [
    pytest.param(source, m, id=f"{'-'.join(map(str, source.probs.tolist()))}-m{m}")
    for source in GRID_SOURCES for m in range(source.support_size, 17)])
def test_modular_laws_are_exact(source, m):
    # equal true masses come out as equal floats: one lattice value per
    # distinct positive p(s), every forged symbol in one class per side,
    # and an independent pair scores as a forged one
    laws = modular(m, source, 16).laws
    assert len(laws.values) == len({p for p in source.probs.tolist() if p > 0})
    for side in "xy":
        assert len(set(laws.forged[side])) == 1
        assert laws.indep == laws.forged[side][0]


def test_memoised_mass_matches_a_fresh_lattice():
    codec = modular(5, K3, 24)
    lat = codec.lattice
    calls = [(masses, m, accepted, offset)
             for masses in laws(codec) + [(0.6, 0.0, 0.4), (0.0, 0.0, 1.0)]
             for m in (0, 1, 24) for accepted in (True, False)
             for offset in (0, lat.bar // 3, -lat.weights[-1])]
    want = [dataclasses.replace(lat).mass(*args) for args in calls]
    for order in (range(len(calls)), range(len(calls))[::-1]):
        memo = dataclasses.replace(lat)
        for _ in range(2):   # the second pass reads the memo
            got = {i: memo.mass(*calls[i]) for i in order}
            assert [got[i] for i in range(len(calls))] == want
        # a list names the same sum as its tuple
        masses, m, accepted, offset = calls[0]
        assert memo.mass(list(masses), m, accepted, offset) == want[0]


def assert_mass_parity(lat, masses, m, offset=0):
    for accepted in (True, False):
        assert lat.mass(masses, m, accepted, offset) == pytest.approx(
            conv.count_vector_mass(lat, masses, m, accepted, offset), abs=TOL)


@pytest.mark.parametrize("m,source", SHAPES)
@pytest.mark.parametrize("n", (1, 2, 7, 32, 64))
def test_mass_matches_count_vectors(m, source, n):
    codec = modular(m, source, n)
    for masses in laws(codec):
        assert_mass_parity(codec.lattice, masses, n)


def test_zero_mass_values():
    lat = modular(5, K3, 24).lattice
    for masses in ((0.6, 0.0, 0.4), (0.0, 0.5, 0.5), (0.0, 0.0, 1.0)):
        assert_mass_parity(lat, masses, 24)


def test_offsets_shift_the_bar():
    # a score already collected elsewhere moves every cut by the same amount
    lat = modular(5, K3, 10).lattice
    masses = (0.2, 0.3, 0.5)
    for m in (0, 1, 4):
        for offset in (-3 * lat.weights[-1], 0, lat.bar // 2, lat.bar):
            assert_mass_parity(lat, masses, m, offset)


def walked_cuts(lat, m, idx, offset=0):
    """The lattice's `_comb.cuts` as (head, r, cut) triples of Python ints."""
    heads, rs, (cuts,) = _comb.cuts(lat.weights, (lat.bar,), m, idx, offset)
    return zip(map(tuple, heads.tolist()), rs.tolist(), cuts.tolist())


def tied_codec(m, source, n, counts):
    """The codec whose threshold equals the mean score of `counts` exactly."""
    codec = modular(m, source, n)
    mean = sum(Fraction(v) * c for v, c in zip(codec.lattice.values, counts)) / n
    assert float(mean) == mean
    tied = modular(m, source, n,
                   oracles.gamma_for_threshold(codec.i_xy, float(mean)))
    assert tied.threshold == mean
    return tied


@pytest.mark.parametrize("m,source,counts", [
    (6, K4, (1, 2, 1, 2)),   # the tie is inside the interval: a = 1
    (5, K3, (3, 0, 3)),      # the tie sits on the clamp: a = 0
])
def test_window_edge_tie_is_rejected(m, source, counts):
    n = sum(counts)
    codec = tied_codec(m, source, n, counts)
    lat = codec.lattice
    assert sum(map(int.__mul__, counts, lat.weights)) == lat.bar
    assert not lat.accepts(counts)
    *head, a, rest = counts
    (cut,) = [cut for h, r, cut in walked_cuts(lat, n, range(len(counts)))
              if h == tuple(head)]
    assert cut == a   # a * (w_j - w_i) == x: the tied count is the cut
    for masses in laws(codec):
        assert_mass_parity(lat, masses, n)
    assert_parity(codec, float_keyed=False)


@pytest.mark.parametrize("m,source", SHAPES)
@pytest.mark.parametrize("n", (1, 3, 9))
def test_cuts_agree_with_scalar_accepts(m, source, n):
    lat = modular(m, source, n).lattice
    parts = len(lat.values)
    vectors = list(map(tuple, compositions(n, parts).tolist()))
    if parts >= 2:
        walked = {h + (a, r - a): a < cut
                  for h, r, cut in walked_cuts(lat, n, range(parts))
                  for a in range(r + 1)}
        assert sorted(walked) == sorted(vectors)
        for c in vectors:
            assert walked[c] == lat.accepts(c)


def test_k3_record_at_n2000_is_exact_and_finite():
    cfg = harness.ExperimentConfig.from_dict({
        "source": [0.5, 0.3, 0.2], "scheme": {"kind": "symbolwise", "m": 5},
        "schedule": {"kind": "power_law", "a": 1.0 / 3.0},
        "n_values": [2000], "mode": "exact"})
    (rec,) = harness.run_experiment(cfg).records
    assert rec.skipped is None
    for v in (rec.p_e, rec.alpha, rec.beta, rec.p_x, rec.p_y):
        assert math.isfinite(v) and 0.0 <= v <= 1.0
    assert 0.0 < rec.p_e < 1e-9


def test_mass_is_the_same_over_many_blocks(monkeypatch):
    # at 40 floats a block holds rows r..r1 with (r1 - r + 1)(r1 + 2) <= 40:
    # five rows at r = 0, one row from r = 18 on, and a row past 40 floats
    # (the single row of a two-value sum at n=48) makes a block of its own
    shapes = [(modular(5, K3, 32), 32), (modular(6, K4, 16), 16),
              (modular(4, SKEW, 48), 48), (leaky(5, K4, 8), 8)]
    calls = [(lat, masses, m, accepted, offset)
             for codec, m in shapes for lat in [codec.lattice]
             for masses in laws(codec) for accepted in (True, False)
             for offset in (0, lat.bar // 3, -lat.weights[-1])]
    one = [lat.mass(*args) for lat, *args in calls]
    monkeypatch.setattr(symbol, "MASS_BLOCK", 40)
    assert [dataclasses.replace(lat).mass(*args)
            for lat, *args in calls] == one


def test_four_values_match_count_vectors_at_n40():
    codec = modular(6, K4, 40)
    lat = codec.lattice
    for masses in laws(codec):
        for offset in (0, -2 * lat.weights[-1], lat.bar // 4, lat.bar // 2,
                       lat.weights[0] - lat.weights[-1]):
            assert_mass_parity(lat, masses, 40, offset)


def assert_cuts_exact(lat, m, idx, offset):
    """Each prefix's cut is where the strict test flips, in Python ints."""
    w = lat.weights
    *head_idx, i, j = idx
    walked = 0
    for head, r, cut in walked_cuts(lat, m, idx, offset):
        x = offset + sum(map(int.__mul__, head, (w[h] for h in head_idx)))
        assert 0 <= cut <= r + 1
        if cut > 0:
            assert x + (cut - 1) * w[i] + (r - cut + 1) * w[j] > lat.bar
        if cut <= r:
            assert x + cut * w[i] + (r - cut) * w[j] <= lat.bar
        walked += 1
    assert walked == symbol.walk_size(m, len(idx))


@pytest.mark.parametrize("m,source,n", [(4, SKEW, 20), (5, K3, 20),
                                        (5, K3, 600), (6, K4, 40),
                                        (5, GAP, 24)])
def test_cuts_are_exact_past_int64(m, source, n):
    # x = offset + head.w + r w_j - bar passes 2**63 at n=600 (weights near
    # 2**54) and for the large offsets; the cuts stay exact
    lat = modular(m, source, n).lattice
    idx = range(len(lat.values))
    for offset in (0, lat.bar // 3, -lat.weights[-1], 1 << 70, -(1 << 70),
                   (1 << 64) - lat.bar):
        assert_cuts_exact(lat, n, idx, offset)
        # fewer positions over the upper values: not the cached walk
        assert_cuts_exact(lat, n // 2, idx[1:] if len(idx) > 2 else idx,
                          offset)
