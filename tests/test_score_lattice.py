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
    cell by cell by the oracles, not read off the codec."""
    return conv.reference_laws(codec).legit, oracles.independent_law(codec)


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
    pairs, and the forged symbols' honest row, which independent pairs
    share."""
    table = codec.laws
    return list(dict.fromkeys([table.legit, table.forged]))


@pytest.mark.parametrize("make", [
    pytest.param(lambda: modular(1024, SKEW, 16), id="k2-m1024"),
    pytest.param(lambda: modular(5, K3, 8), id="k3-m5")])
def test_laws_are_the_per_cell_sums(make):
    codec = make()
    assert codec.laws == conv.reference_laws(codec)
    assert codec.lattice.values == codec.laws.values
    assert len(codec.laws.column) == codec.scheme.secret_size


def test_codecs_of_equal_sources_are_equal():
    # a PMF is a value, so two parses of one source, each with its own
    # scheme object, give one codec
    scheme = symbol.modular_scheme(5, 3)
    a, b = (symbol.make_codec(symbol.modular_scheme(5, 3), source, 8, 0.25)
            for source in (PMF.from_probs([0.5, 0.3, 0.2]),
                           PMF.from_text("[0.5, 0.3, 0.2]")))
    assert a.source is not b.source
    assert a == b and hash(a) == hash(b)
    assert a != symbol.make_codec(scheme, a.source, 9, 0.25)
    assert a != symbol.make_codec(symbol.modular_scheme(6, 3), a.source, 8,
                                  0.25)
    assert a != symbol.make_codec(scheme, PMF.from_probs([0.2, 0.3, 0.5]), 8,
                                  0.25)


def test_laws_are_built_once_per_sweep():
    # each record builds its codec, and every codec of the sweep reads the
    # laws memoised per (source, M): one cache miss, then hits; a second
    # sweep over an equal source, parsed anew, misses nothing
    raw = {"source": [0.5, 0.3, 0.2], "scheme": {"kind": "symbolwise", "m": 5},
           "n_values": [8, 16, 24], "mode": "exact"}
    symbol.modular_laws.cache_clear()
    records = harness.run_experiment(
        harness.ExperimentConfig.from_dict(raw)).records
    assert [r.skipped for r in records] == [None] * 3
    info = symbol.modular_laws.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    harness.run_experiment(harness.ExperimentConfig.from_dict(raw))
    info = symbol.modular_laws.cache_info()
    assert (info.misses, info.hits) == (1, 5)


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
    pytest.param(source, m, id=f"{'-'.join(map(str, source.probs))}-m{m}")
    for source in GRID_SOURCES for m in range(source.support_size, 17)])
def test_modular_laws_are_exact(source, m):
    # equal true masses come out as equal floats: one lattice value per
    # distinct positive p(s), every forged symbol of either side in the
    # one row the codec holds, and the independent-pair row of the dense
    # share laws is that row too, so beta is the attack's sum
    codec = modular(m, source, 16)
    laws = codec.laws
    assert len(laws.values) == len({p for p in source.probs if p > 0})
    assert set(conv.forged_laws(codec, "x") + conv.forged_laws(codec, "y")) \
        == {laws.forged}
    assert oracles.independent_law(codec) == laws.forged


def test_mass_is_the_same_on_repeated_calls():
    # each call sums afresh: in either order, on the codec's lattice or a
    # fresh one, a sum reads the same float every time
    codec = modular(5, K3, 24)
    lat = codec.lattice
    calls = [(masses, accepted)
             for masses in laws(codec) + [(0.6, 0.1, 0.3), (0.2, 0.2, 0.6)]
             for accepted in (True, False)]
    want = [dataclasses.replace(lat).mass(*args) for args in calls]
    for order in (range(len(calls)), range(len(calls))[::-1]):
        for _ in range(2):
            got = {i: lat.mass(*calls[i]) for i in order}
            assert [got[i] for i in range(len(calls))] == want
        # a list names the same sum as its tuple
        masses, accepted = calls[0]
        assert lat.mass(list(masses), accepted) == want[0]


def assert_mass_parity(lat, masses, offset=0):
    """Both sides of `lat.mass` against the count vectors of its n
    positions; an `offset` already collected is the bar moved down by it."""
    shifted = dataclasses.replace(lat, bar=lat.bar - offset)
    for accepted in (True, False):
        assert shifted.mass(masses, accepted) == pytest.approx(
            conv.count_vector_mass(lat, masses, lat.n, accepted, offset),
            abs=TOL)


@pytest.mark.parametrize("m,source", SHAPES)
@pytest.mark.parametrize("n", (1, 2, 7, 32, 64))
def test_mass_matches_count_vectors(m, source, n):
    codec = modular(m, source, n)
    for masses in laws(codec):
        assert_mass_parity(codec.lattice, masses)


def test_zero_mass_values():
    # every value is the score of a symbol of positive mass, so no law the
    # codec sums holds a zero, even with a zero-probability symbol and at
    # M = k; a zero given by hand is refused by name
    for m in (3, 5):
        codec = modular(m, GAP, 24)
        assert all(q > 0.0 for law in laws(codec) for q in law)
        for masses in laws(codec):
            assert_mass_parity(codec.lattice, masses)
    lat = modular(5, K3, 24).lattice
    for masses in ((0.6, 0.0, 0.4), (0.0, 0.5, 0.5), (0.0, 0.0, 1.0)):
        with pytest.raises(ValueError, match="positive mass"):
            lat.mass(masses)


def test_offsets_shift_the_bar():
    # a score already collected elsewhere moves every cut by the same
    # amount: the lattice with its bar moved down by it
    masses = (0.2, 0.3, 0.5)
    for n in (1, 4, 10):
        lat = modular(5, K3, n).lattice
        for offset in (-3 * lat.weights[-1], 0, lat.bar // 2, lat.bar):
            assert_mass_parity(lat, masses, offset)


def walked_cuts(lat, m, idx, offset=0):
    """The lattice's `_comb.cuts` as (head, r, cut) triples of Python ints,
    on top of an integer score `offset`: its bar moved down by it."""
    heads, rs, (cuts,) = _comb.cuts(lat.weights, (lat.bar - offset,), m, idx)
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
    assert not conv.accepts(lat, counts)
    *head, a, rest = counts
    (cut,) = [cut for h, r, cut in walked_cuts(lat, n, range(len(counts)))
              if h == tuple(head)]
    assert cut == a   # a * (w_j - w_i) == x: the tied count is the cut
    for masses in laws(codec):
        assert_mass_parity(lat, masses)
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
            assert walked[c] == conv.accepts(lat, c)


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
    codecs = [modular(5, K3, 32), modular(6, K4, 16), modular(4, SKEW, 48),
              modular(6, K4, 8)]
    calls = [(lat, masses, accepted)
             for codec in codecs for base in [codec.lattice]
             for offset in (0, base.bar // 3, -base.weights[-1])
             for lat in [dataclasses.replace(base, bar=base.bar - offset)]
             for masses in laws(codec) for accepted in (True, False)]
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
            assert_mass_parity(lat, masses, offset)


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
    assert walked == _comb.composition_count(m, len(idx) - 1)


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
