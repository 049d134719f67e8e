"""Type-class engine of the blockwise scheme: parity with the dense grid
oracle, the index consistency guard, and long-block behaviour."""
import dataclasses
import math

import pytest

import blockwise_oracle as dense
from twoshare import attack, block, harness
from twoshare.prob import PMF
from twoshare.typical import (TypicalIndex, atypical_mass, build_index,
                              type_classes, typical_set_totals)

SKEW = PMF.from_probs([0.7, 0.3])
K3 = PMF.from_probs([0.5, 0.3, 0.2])


def power_gamma(n):
    return n ** (-1.0 / 3.0)


CASES = (
    [pytest.param(SKEW, n, ell, power_gamma(n), id=f"skew-n{n}-ell{ell}")
     for n in (4, 8, 12, 13) for ell in (0.0, 0.5, 2.0)]
    + [pytest.param(PMF.uniform(2), n, 1.5, 0.4, id=f"uniform2-n{n}")
       for n in (6, 8, 10)]
    + [pytest.param(K3, n, 1.0, power_gamma(n), id=f"k3-n{n}") for n in (6, 8)]
    + [pytest.param(PMF.point_mass(2, 0), 6, 0.5, power_gamma(6),
                    id="point-mass")]
)


@pytest.mark.parametrize("source,n,ell,gamma", CASES)
def test_matches_dense_grid_oracle(source, n, ell, gamma):
    params = block.BlockwiseParams(ell, build_index(source, n, gamma))
    got = block.exact_quantities(params)
    ref = dense.exact_quantities(params)
    assert got.m_count == ref.m_count == params.m_count
    for f in dataclasses.fields(block.BlockQuantities):
        assert getattr(got, f.name) == pytest.approx(
            getattr(ref, f.name), abs=1e-12), f.name

    tq, tq_ref = (attack.blockwise_test_quantities(params),
                  dense.blockwise_test_quantities(params))
    assert tq.alpha == pytest.approx(tq_ref.alpha, abs=1e-12)
    assert tq.beta == pytest.approx(tq_ref.beta, abs=1e-12)
    for side in ("x", "y"):
        res, res_ref = (attack.blockwise_attack(params, side),
                        dense.blockwise_attack(params, side))
        assert res.success_prob == pytest.approx(res_ref.success_prob,
                                                 abs=1e-12)
        assert res.optimal_forgery == res_ref.optimal_forgery

    assert atypical_mass(source, n, gamma) == pytest.approx(
        dense.atypical_mass(source, n, gamma), abs=1e-12)
    assert got.p_e == got.delta == tq.alpha == atypical_mass(source, n, gamma)


def _split_index(n=8):
    # a dense index with one typical member missing, as if float rounding
    # had put it on the other side of the window from the rest of its class
    idx = build_index(SKEW, n, power_gamma(n))
    return TypicalIndex(idx.source, idx.n, idx.gamma, idx.member_codes[1:])


def test_split_type_class_raises():
    params = block.BlockwiseParams(0.5, _split_index())
    with pytest.raises(ArithmeticError, match=r"n=8, gamma="):
        block.exact_quantities(params)


def test_split_type_class_is_not_a_skipped_record(monkeypatch):
    monkeypatch.setattr(harness, "build_index",
                        lambda source, n, gamma: _split_index(n))
    cfg = harness.ExperimentConfig.from_dict(
        {"source": [0.7, 0.3], "scheme": {"kind": "blockwise", "ell": 0.5},
         "n_values": [8], "mode": "exact", "seed": 0})
    with pytest.raises(ArithmeticError):
        harness.run_experiment(cfg)


def test_long_block_masses_stay_finite():
    # at n=1100 the largest class holds more than 2**1024 members, so a
    # float count would overflow
    classes = type_classes(SKEW, 1100, power_gamma(1100))
    assert max(c.count for c in classes) > 2 ** 1024
    masses = [c.mass for c in classes]
    assert all(math.isfinite(m) for m in masses)
    assert math.fsum(masses) == pytest.approx(1.0, abs=1e-9)
    m_count, delta = typical_set_totals(classes)
    assert m_count > 0 and 0.0 < delta < 1.0
