"""Score-lattice engine of the symbolwise scheme: parity with the float-keyed
convolution oracle, the strict-tie rule, and long-block behaviour."""
import dataclasses
import math

import pytest

import symbolwise_oracle as conv
from twoshare import attack, symbol
from twoshare.prob import PMF

SKEW = PMF.from_probs([0.7, 0.3])
K3 = PMF.from_probs([0.5, 0.3, 0.2])
K4 = PMF.from_probs([0.4, 0.3, 0.2, 0.1])
TOL = 1e-12


def power_gamma(n):
    return n ** (-1.0 / 3.0)


def modular(m, source, n, gamma=None):
    gamma = power_gamma(n) if gamma is None else gamma
    return symbol.make_codec(symbol.modular_scheme(m, source.support_size),
                             source, n, gamma)


def leaky(m, source, n):
    scheme = symbol.identity_leak_scheme(m, source.support_size)
    return symbol.make_codec(scheme, source, n, power_gamma(n),
                             require_valid=False)


CASES = (
    [pytest.param(m, SKEW, n, id=f"skew-m{m}-n{n}")
     for m in (3, 4) for n in (1, 2, 8, 16, 32)]
    + [pytest.param(5, K3, n, id=f"k3-m5-n{n}") for n in (8, 32, 64)]
    + [pytest.param(6, K4, n, id=f"k4-m6-n{n}") for n in (8, 16)]
    + [pytest.param(4, PMF.uniform(2), n, id=f"uniform2-m4-n{n}")
       for n in (8, 16)]
)


def assert_parity(codec):
    got_q = symbol.exact_symbolwise_quantities(codec)
    want_q = conv.exact_symbolwise_quantities(codec)
    assert got_q.p_e == pytest.approx(want_q.p_e, abs=TOL)
    got_t = attack.symbolwise_test_quantities(codec)
    want_t = conv.symbolwise_test_quantities(codec)
    assert got_t.alpha == pytest.approx(want_t.alpha, abs=TOL)
    assert got_t.beta == pytest.approx(want_t.beta, abs=TOL)
    assert got_t.alpha == got_q.p_e
    for side in "xy":
        got = attack.symbolwise_attack(codec, side)
        want = conv.symbolwise_attack(codec, side)
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
    lat = symbol.score_lattice(codec)
    rows = {lat.masses(codec.score_table[a, :], codec.p_y.probs)
            for a in range(m)}
    assert len(rows) > 1
    assert_parity(codec)


def test_uniform_source_has_one_lattice_value():
    codec = modular(4, PMF.uniform(2), 8)
    assert symbol.score_lattice(codec).values == (1.0,)


def test_tie_rejects_every_legitimate_pair():
    # uniform source: every legitimate pair scores exactly I(X;Y), so a
    # zero margin rejects all of them
    tied = dataclasses.replace(modular(4, PMF.uniform(2), 6), gamma=0.0)
    assert symbol.exact_symbolwise_quantities(tied).p_e == 1.0
    tq = attack.symbolwise_test_quantities(tied)
    assert tq.alpha == 1.0
    assert tq.beta == 0.0
    assert attack.symbolwise_attack(tied, "x").success_prob == 0.0


def test_long_block_stays_finite():
    codec = modular(5, K3, 400)
    tq = attack.symbolwise_test_quantities(codec)
    vals = [symbol.exact_symbolwise_quantities(codec).p_e, tq.alpha, tq.beta,
            attack.symbolwise_attack(codec, "x").success_prob,
            attack.symbolwise_attack(codec, "y").success_prob]
    for v in vals:
        assert math.isfinite(v) and 0.0 <= v <= 1.0
    assert vals[3] > 0.0


def test_lattice_cap_names_n_and_the_way_out():
    # C(2002, 2) count vectors over three values, past the 2**20 cap
    codec = modular(5, K3, 2000)
    with pytest.raises(symbol.LatticeCapError,
                       match=r"^n=2000: 2003001 score-lattice points .*; lower n$"):
        symbol.exact_symbolwise_quantities(codec)
