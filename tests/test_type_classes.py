"""Type-class engine of the blockwise scheme: parity of the quantities and
of the rank index with the dense oracle, one index per record, and
long-block behaviour."""
import dataclasses
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import blockwise_oracle as dense
from oracles import class_quantities, type_classes
from twoshare import attack, block, harness, typical
from twoshare.prob import PMF, entropy
from twoshare.typical import TypicalIndex, build_index

SKEW = PMF.from_probs([0.7, 0.3])
K3 = PMF.from_probs([0.5, 0.3, 0.2])


def power_gamma(n):
    return n ** (-1.0 / 3.0)


# at [0.6, 0.25, 0.15] the classes with twice as many 1s as 0s and no 2
# lie a hair past the window's upper end
KNIFE = PMF.from_probs([0.6, 0.25, 0.15])
KNIFE_EDGE = 0.22626433576408078

CASES = (
    [pytest.param(SKEW, n, ell, power_gamma(n), id=f"skew-n{n}-ell{ell}")
     for n in (4, 8, 12, 13) for ell in (0.0, 0.5, 2.0)]
    + [pytest.param(PMF.uniform(2), n, 1.5, 0.4, id=f"uniform2-n{n}")
       for n in (6, 8, 10)]
    + [pytest.param(K3, n, 1.0, power_gamma(n), id=f"k3-n{n}") for n in (6, 8)]
    + [pytest.param(PMF.from_probs([1.0, 0.0]), 6, 0.5, power_gamma(6),
                    id="point-mass")]
    + [pytest.param(KNIFE, n, 0.5, KNIFE_EDGE, id=f"knife-edge-n{n}")
       for n in (3, 6)]
)


@pytest.mark.parametrize("source,n,ell,gamma", CASES)
def test_matches_dense_grid_oracle(source, n, ell, gamma):
    params = block.BlockwiseParams(ell, build_index(source, n, gamma))
    got = block.exact_quantities(params)
    ref = dense.exact_quantities(params)
    assert ref.m_count == params.m_count
    for f in dataclasses.fields(block.BlockQuantities):
        assert getattr(got, f.name) == pytest.approx(
            getattr(ref, f.name), abs=1e-12), f.name

    tq_ref = dense.blockwise_test_quantities(params)
    assert params.index.delta == pytest.approx(tq_ref.alpha, abs=1e-12)
    assert attack.blockwise_attack(params).success_prob == pytest.approx(
        tq_ref.beta, abs=1e-12)
    for side in ("x", "y"):
        res, res_ref = (attack.blockwise_attack(params, side),
                        dense.blockwise_attack(params, side))
        assert res.success_prob == pytest.approx(res_ref.success_prob,
                                                 abs=1e-12)
        assert res.optimal_forgery == res_ref.optimal_forgery

    assert params.index.delta == pytest.approx(
        dense.atypical_mass(source, n, gamma), abs=1e-12)
    assert got.delta == params.index.delta
    # the record's constants: p_e is delta, and a single share tells
    # nothing of the secret
    assert ref.p_e == pytest.approx(got.delta, abs=1e-12)
    assert ref.i_sx == pytest.approx(0.0, abs=1e-9)
    assert ref.i_sy == pytest.approx(0.0, abs=1e-9)


INDEX_CASES = (
    [pytest.param(SKEW, n, power_gamma(n), id=f"skew-n{n}")
     for n in (4, 8, 12, 13)]
    + [pytest.param(K3, n, power_gamma(n), id=f"k3-n{n}") for n in (6, 8)]
    + [pytest.param(PMF.from_probs([0.6, 0.0, 0.4]), 8, power_gamma(8),
                    id="zero-probability-symbol"),
       pytest.param(PMF.uniform(2), 10, 0.4, id="uniform2-n10"),
       pytest.param(PMF.from_probs([1.0, 0.0]), 6, power_gamma(6),
                    id="point-mass")]
    + [pytest.param(KNIFE, n, KNIFE_EDGE, id=f"knife-edge-n{n}")
       for n in (3, 6)]
)


@pytest.mark.parametrize("source,n,gamma", INDEX_CASES)
def test_index_matches_dense_oracle_on_every_sequence(source, n, gamma):
    idx = build_index(source, n, gamma)
    table = dense.xi_plus_all(idx)
    assert idx.m_count == dense.dense_m_count(idx)
    for code, seq in enumerate(itertools.product(range(idx.k), repeat=n)):
        z = int(table[code])
        assert idx.xi_plus(seq) == z
        if z < idx.m_count:
            assert idx.unrank(z) == seq


def test_rank_round_trip_past_64_bits():
    idx = build_index(SKEW, 200, power_gamma(200))
    assert idx.m_count > 2 ** 100
    rng = random.Random(5)
    ranks = ([0, 1, 2 ** 63 - 1, 2 ** 63, 2 ** 64 + 7, idx.m_count - 1]
             + [rng.randrange(idx.m_count) for _ in range(20)])
    seqs = [idx.unrank(m) for m in ranks]
    for m, seq in zip(ranks, seqs):
        assert len(seq) == 200
        assert idx.xi_plus(seq) == m
    # lexicographic order: ranks and sequences sort alike
    assert sorted(ranks) == [idx.xi_plus(q) for q in sorted(seqs)]


@pytest.mark.parametrize("mode", ["exact", "mc"])
def test_index_built_once_per_blockwise_record(mode, monkeypatch):
    calls, real = [], typical.TypicalIndex.__init__
    monkeypatch.setattr(typical.TypicalIndex, "__init__",
                        lambda self, source, n, gamma:
                        calls.append(n) or real(self, source, n, gamma))
    cfg = harness.ExperimentConfig.from_dict(
        {"source": [0.7, 0.3], "scheme": {"kind": "blockwise", "ell": 0.5},
         "n_values": [4, 8, 12], "mode": mode, "trials": 2000, "seed": 0})
    report = harness.run_experiment(cfg)
    assert all(r.skipped is None for r in report.records)
    assert calls == [4, 8, 12]


def blockwise_record(source, n, ell, gamma, mode):
    cfg = harness.ExperimentConfig.from_dict(
        {"source": source, "scheme": {"kind": "blockwise", "ell": ell},
         "schedule": {"kind": "constant", "gamma": gamma},
         "n_values": [n], "mode": mode, "trials": 2000, "seed": 0})
    return harness.run_experiment(cfg).records[0]


def window_verdicts(index, rows):
    """The window of the index's prefixes: a row of support counts is
    typical when its second-last count lies in its prefix's [lo, hi)."""
    _, heads, _, (lo,), (hi,) = index._prefixes(index.n)
    bounds = dict(zip(map(tuple, heads), zip(lo, hi)))
    return [bounds[tuple(row[:-2])][0] <= row[-2] < bounds[tuple(row[:-2])][1]
            for row in rows]


@pytest.mark.parametrize("probs", [[0.7, 0.3], [0.6, 0.25, 0.15],
                                   [0.4, 0.3, 0.2, 0.1]])
def test_class_verdicts_match_the_exact_window(probs):
    # classes are decided from their counts by the window on the floats'
    # exact values: the surprisals, H(S) and gamma as rationals, both in
    # the class list and on the index's interval cuts
    source = PMF.from_probs(probs)
    w = [Fraction(-math.log2(p)) for p in source.probs]
    h = Fraction(entropy(source))
    for n in range(1, 15):
        for gamma in (n ** -0.33, n ** -0.45, KNIFE_EDGE):
            classes = type_classes(source, n, gamma)
            engine = window_verdicts(TypicalIndex(source, n, gamma),
                                     classes.counts.tolist())
            for counts, verdict, got in zip(classes.counts.tolist(),
                                            classes.typical.tolist(),
                                            engine):
                total = sum(c * v for c, v in zip(counts, w))
                assert verdict == got == (abs(total / n - h)
                                          <= Fraction(gamma))


def test_knife_edge_classes_lie_outside_the_window():
    # the classes with twice as many 1s as 0s and no 2 sit a hair past
    # the window's upper end, where a left-to-right float sum puts some of
    # their members inside
    source = PMF.from_probs([0.6, 0.25, 0.15])
    for n in (3, 6, 12):
        classes = type_classes(source, n, KNIFE_EDGE)
        edge = (n // 3, 2 * n // 3, 0)
        row = classes.counts.tolist().index(list(edge))
        assert not classes.typical[row]
        assert not typical.is_typical((0,) * edge[0] + (1,) * edge[1],
                                      source, KNIFE_EDGE)


@pytest.mark.parametrize("mode", ["exact", "mc"])
def test_record_at_a_window_edge_evaluates(mode):
    # the type class (1,2,0) lies a hair outside the exact window, so
    # M = 6
    rec = blockwise_record([0.6, 0.25, 0.15], 3, 0.5, KNIFE_EDGE, mode)
    assert rec.skipped is None
    assert rec.rate_x == pytest.approx(math.log2(2 * 7) / 3)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_zero_probability_symbol_agrees_on_every_block(n):
    # k=4 with a zero-probability symbol: the scalar test, the rank index
    # and the prefix intervals the masses sum over decide every block
    # alike
    source = PMF.from_probs([0.5, 0.0, 0.3, 0.2])
    gamma = 0.35
    classes = type_classes(source, n, gamma)
    assert classes.counts.shape[1] == 3
    assert classes.typical.any() and not classes.typical.all()
    idx = TypicalIndex(source, n, gamma)
    for seq in itertools.product(range(4), repeat=n):
        counts = np.bincount(seq, minlength=4)
        verdict = typical.is_typical(seq, source, gamma)
        assert verdict == (idx.xi_plus(seq) != idx.m_count)
        if counts[1]:
            assert not verdict
        else:
            row = counts[[0, 2, 3]].tolist()
            assert window_verdicts(idx, [row]) == [verdict]
    for counts, cls_typical in zip(classes.counts, classes.typical):
        seq = np.repeat([0, 2, 3], counts).tolist()
        assert typical.is_typical(seq, source, gamma) == cls_typical
        assert (idx.xi_plus(seq) != idx.m_count) == cls_typical


@pytest.mark.parametrize("mode", ["exact", "mc"])
def test_record_past_the_old_dense_wall_evaluates(mode):
    # 2**26 source sequences, past any dense enumeration
    rec = blockwise_record("uniform:2", 26, 1.5, 0.4, mode)
    assert rec.skipped is None
    assert rec.p_e == 0.0
    assert all(v != harness.NOT_APPLICABLE for v in rec.verdicts.values())


def test_long_block_masses_stay_finite():
    # at n=1100 the largest class holds more than 2**1024 members, so a
    # float count would overflow
    classes = type_classes(SKEW, 1100, power_gamma(1100))
    assert max(classes.sizes) > 2 ** 1024
    assert np.isfinite(classes.mass).all()
    assert math.fsum(classes.mass) == pytest.approx(1.0, abs=1e-9)
    idx = TypicalIndex(SKEW, 1100, power_gamma(1100))
    assert 0 < idx.m_count and 0.0 < idx.delta < 1.0 and 0.0 < idx.h_z
    assert (idx.m_count, idx.delta, idx.h_z) == class_quantities(classes)
