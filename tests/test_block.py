"""Blockwise scheme: worked share values, round trips, and exact
quantities cross-checked against a fully mechanical dense-joint oracle."""
import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from oracles import JointPMF, iid_extension, pushforward
from twoshare.block import (
    BlockShare, BlockRandomness, BlockwiseParams, floor_pow2,
    encode, accepts, decode, exact_quantities, monte_carlo_error,
)
from twoshare.prob import (
    PMF, RandomStream, entropy, mutual_information,
    conditional_entropy,
)
from twoshare.typical import build_index

SKEW = PMF.from_probs([0.7, 0.3])
U2 = PMF.uniform(2)


def make_params(source, n, ell, gamma=None):
    if gamma is None:
        gamma = n ** (-1.0 / 3.0)
    return BlockwiseParams(ell, build_index(source, n, gamma))


class TestFloorPow2:
    def test_integer_exponents_exact(self):
        for bits in (0, 1, 10, 20, 40):
            assert floor_pow2(float(bits)) == 1 << bits

    def test_fractional_exponent(self):
        assert floor_pow2(0.5) == 1            # floor(1.414...)
        assert floor_pow2(3.5) == 11           # floor(11.31...)
        assert floor_pow2(16.5) == 92681

    def test_bounds(self):
        with pytest.raises(ValueError):
            floor_pow2(-1.0)
        with pytest.raises(ValueError):
            floor_pow2(41.0)
        with pytest.raises(ValueError, match="must be non-negative"):
            floor_pow2(math.nan)

    @pytest.mark.parametrize("ell", [-1.0, math.nan])
    def test_params_reject_a_negative_or_nan_level(self, ell):
        index = build_index(U2, 2, 0.5)
        with pytest.raises(ValueError, match="must be non-negative"):
            BlockwiseParams(ell, index)

    def test_matches_a_96_bit_mpmath_floor(self):
        rng = random.Random(20)
        exponents = [rng.uniform(0.0, 40.0) for _ in range(4000)]
        exponents += [5e-324, 2.0 ** -60, 1e-9, 40.0 - 2.0 ** -47, 40.0]
        # every n * ell of the shipped blockwise configs
        for path in Path(__file__).resolve().parents[1].glob("configs/*.json"):
            cfg = json.loads(path.read_text())
            if cfg["scheme"]["kind"] == "blockwise":
                exponents += [n * cfg["scheme"]["ell"] for n in cfg["n_values"]
                              if n * cfg["scheme"]["ell"] <= 40.0]
        for bits in exponents:
            with mpmath.workprec(96):
                want = int(mpmath.floor(mpmath.power(2, mpmath.mpf(bits))))
            assert floor_pow2(bits) == want, bits

    def test_package_does_not_import_mpmath(self):
        # mpmath is a test dependency only
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        code = ("import sys, twoshare, twoshare.cli; "
                "sys.exit('mpmath' in sys.modules)")
        assert subprocess.run([sys.executable, "-c", code], env=env,
                              timeout=60).returncode == 0


class TestEncode:
    def test_worked_example_rank_one(self):
        # uniform binary, n=2, ell=0: all four sequences typical, M=4
        p = make_params(U2, 2, 0.0, gamma=0.5)
        assert p.l_count == 1 and p.m_count == 4
        x, y = encode(p, (0, 1), BlockRandomness(0, 0))
        assert (x, y) == (BlockShare(0, 1), BlockShare(0, 0))

    def test_worked_example_mask_wraps(self):
        p = make_params(U2, 2, 0.0, gamma=0.5)
        x, y = encode(p, (0, 0), BlockRandomness(0, 3))
        assert x == BlockShare(0, (0 - 3) % 5) == BlockShare(0, 2)
        assert y == BlockShare(0, 3)

    def test_atypical_secret_masks_the_sentinel(self):
        p = make_params(SKEW, 4, 0.5)
        m = p.m_count
        for u_m in range(m + 1):
            x, _ = encode(p, (1, 1, 1, 1), BlockRandomness(0, u_m))
            assert x.m == (m - u_m) % (m + 1)

    @pytest.mark.parametrize("length", [3, 5])
    def test_secret_of_the_wrong_length_rejected(self, length):
        p = make_params(SKEW, 4, 0.5)
        with pytest.raises(ValueError, match="n=4"):
            encode(p, (0,) * (length - 1) + (1,), BlockRandomness(0, 0))

    @pytest.mark.parametrize("secret,bad", [((1.5, 0, 0.9, 1), "1.5"),
                                            ((0, 0, 0.5, 0), "0.5"),
                                            ((0, np.float64(1.7), 0, 0), "1.7"),
                                            ("0100", "'0'"),
                                            ((0, 1, "a", 0), "'a'"),
                                            ((0, None, 0, 0), "None")])
    def test_non_integral_secret_symbol_raises(self, secret, bad):
        # used to be truncated: (1.5, 0, 0.9, 1) was encoded as (1, 0, 0, 1)
        p = make_params(SKEW, 4, 0.5)
        with pytest.raises(ValueError, match=f"^symbol {bad} is not an integer$"):
            encode(p, secret, BlockRandomness(0, 0))

    def test_secret_symbols_equal_to_integers_encode_alike(self):
        p = make_params(SKEW, 4, 0.5)
        r = BlockRandomness(0, 2)
        want = encode(p, (0, 1, 0, 0), r)
        for secret in [(0.0, 1.0, 0.0, 0.0), (False, True, False, False),
                       np.array([0, 1, 0, 0]), iter((0, 1, 0, 0))]:
            assert encode(p, secret, r) == want

    def test_randomness_range_checked(self):
        p = make_params(U2, 2, 0.0, gamma=0.5)
        with pytest.raises(ValueError):
            encode(p, (0, 0), BlockRandomness(1, 0))
        with pytest.raises(ValueError):
            encode(p, (0, 0), BlockRandomness(0, 5))


class TestAcceptDecode:
    def test_acceptance_table_cases(self):
        p = make_params(U2, 2, 1.0, gamma=0.5)    # L=4, M=4
        assert accepts(p, BlockShare(0, 1), BlockShare(0, 0))
        assert not accepts(p, BlockShare(0, 2), BlockShare(1, 0))
        assert not accepts(p, BlockShare(3, 4), BlockShare(3, 0))

    def test_share_range_validated(self):
        p = make_params(U2, 2, 0.0, gamma=0.5)
        with pytest.raises(ValueError):
            accepts(p, BlockShare(0, 9), BlockShare(0, 0))

    def test_round_trip_every_typical_secret_and_randomness(self):
        p = make_params(SKEW, 4, 0.5)
        for rank in range(p.m_count):
            s = p.index.unrank(rank)
            for u_l in range(p.l_count):
                for u_m in range(p.m_count + 1):
                    x, y = encode(p, s, BlockRandomness(u_l, u_m))
                    out = decode(p, x, y)
                    assert not out.rejected
                    assert out.secret == s

    def test_atypical_secret_always_rejected(self):
        p = make_params(SKEW, 4, 0.5)
        for u_m in range(p.m_count + 1):
            x, y = encode(p, (1, 1, 1, 1), BlockRandomness(1, u_m))
            assert decode(p, x, y).rejected

    def test_mask_mismatch_rejected(self):
        p = make_params(U2, 2, 1.0, gamma=0.5)
        assert decode(p, BlockShare(0, 1), BlockShare(1, 1)).rejected

    def test_flat_share_round_trip(self):
        p = make_params(SKEW, 4, 0.5)
        for flat in range(p.share_size):
            assert p.share_to_flat(p.flat_to_share(flat)) == flat


def oracle_quantities(params, source):
    """Dense mechanical evaluation of every exact quantity.

    Builds the full joint of (secret block, share X, share Y) by
    enumerating all (s^n, u_l, u_m) and running the real encoder, then
    reads every quantity off that joint with generic information tools.
    Only feasible for small n; used to certify the streaming evaluators.
    """
    ext = iid_extension(source, params.n)
    p_sn = ext.all_probs()
    L, mp1 = params.l_count, params.m_count + 1
    grid = JointPMF(np.einsum("s,l,m->slm",
                              p_sn, np.full(L, 1.0 / L), np.full(mp1, 1.0 / mp1)))
    secrets = [ext.index_to_seq(i) for i in range(ext.size)]

    def to_shares(si, ul, um):
        x, y = encode(params, secrets[si], BlockRandomness(ul, um))
        return si, params.share_to_flat(x), params.share_to_flat(y)

    j = pushforward(grid, to_shares, (ext.size, params.share_size,
                                      params.share_size))
    p_e = 0.0
    for si in range(ext.size):
        for ul in range(L):
            for um in range(mp1):
                x, y = encode(params, secrets[si], BlockRandomness(ul, um))
                out = decode(params, x, y)
                if out.rejected or out.secret != secrets[si]:
                    p_e += p_sn[si] / (L * mp1)
    return {
        "p_e": p_e,
        "i_sx": mutual_information(j.marginal(0, 1)),
        "i_sy": mutual_information(j.marginal(0, 2)),
        "i_xy": mutual_information(j.marginal(1, 2)),
        "h_s_given_xy": conditional_entropy(j, 0),
        "p_y": j.marginal(2).probs,
        "p_x": j.marginal(1).probs,
    }


class TestExactQuantities:
    @pytest.mark.parametrize("source,n,ell", [
        (SKEW, 4, 0.5),
        (SKEW, 6, 0.5),
        (U2, 4, 0.75),
        (SKEW, 4, 0.0),
    ])
    def test_streaming_evaluator_matches_dense_oracle(self, source, n, ell):
        params = make_params(source, n, ell)
        q = exact_quantities(params)
        ref = oracle_quantities(params, source)
        assert q.p_e == pytest.approx(ref["p_e"], abs=1e-12)
        assert q.i_sx == pytest.approx(ref["i_sx"], abs=1e-9)
        assert q.i_sy == pytest.approx(ref["i_sy"], abs=1e-9)
        assert q.i_xy == pytest.approx(ref["i_xy"], abs=1e-9)
        assert q.h_s_given_xy == pytest.approx(ref["h_s_given_xy"], abs=1e-9)

    def test_share_y_uniform_on_alphabet(self):
        params = make_params(SKEW, 4, 0.5)
        ref = oracle_quantities(params, SKEW)
        assert np.allclose(ref["p_y"], 1.0 / params.share_size, atol=1e-12)
        # the masked component of X is uniform too: the mask sweeps all residues
        assert np.allclose(ref["p_x"], 1.0 / params.share_size, atol=1e-12)

    def test_secrecy_within_tolerance(self):
        for ell in (0.0, 0.5):
            for n in (4, 6, 8):
                q = exact_quantities(make_params(SKEW, n, ell))
                assert abs(q.i_sx) <= 1e-9
                assert abs(q.i_sy) <= 1e-9

    def test_uniform_source_zero_error(self):
        q = exact_quantities(make_params(U2, 6, 0.5))
        assert q.p_e == 0.0 and q.delta == 0.0

    def test_error_equals_atypical_mass_bitwise(self):
        for n in (4, 8, 12):
            gamma = n ** (-1.0 / 3.0)
            q = exact_quantities(make_params(SKEW, n, 0.5))
            assert q.p_e == q.delta == build_index(SKEW, n, gamma).delta

    def test_sandwich_brackets_correlation(self):
        for n in (4, 8, 12):
            q = exact_quantities(make_params(SKEW, n, 0.5))
            per = q.i_xy / n
            assert q.sandwich_lo - 1e-9 <= per <= q.sandwich_hi + 1e-9
            assert q.sandwich_lo == pytest.approx(
                math.log2(floor_pow2(n * 0.5)) / n, abs=1e-12)

    def test_uniform_sandwich_with_zero_atypical_mass(self):
        # with no atypical mass the upper slack is 2*gamma + 1/n
        n, gamma = 4, 4 ** (-1.0 / 3.0)
        q = exact_quantities(make_params(U2, n, 0.5))
        lo = math.log2(4) / 4
        assert q.sandwich_lo == pytest.approx(lo, abs=1e-12)
        assert q.sandwich_hi == pytest.approx(lo + 2 * gamma + 0.25, abs=1e-12)
        assert lo <= q.i_xy / n <= q.sandwich_hi

    def test_rate_identity(self):
        q = exact_quantities(make_params(SKEW, 8, 0.5))
        expect = math.log2(16 * 220) / 8
        assert q.rate_x == q.rate_y == q.rate_u == pytest.approx(expect, abs=1e-12)

    def test_point_mass_source_supported(self):
        pm = PMF.point_mass(2, 0)
        params = make_params(pm, 4, 0.5)
        assert params.m_count == 1
        q = exact_quantities(params)
        assert q.p_e == 0.0
        assert q.h_s == 0.0
        assert abs(q.i_sx) <= 1e-9


class TestMonteCarloError:
    def test_estimate_within_interval(self):
        params = make_params(SKEW, 8, 0.5)
        est, half = monte_carlo_error(params, 200_000, RandomStream(3))
        assert abs(est - 0.01129221) <= half

    def test_deterministic(self):
        params = make_params(SKEW, 8, 0.5)
        a = monte_carlo_error(params, 50_000, RandomStream(5))
        b = monte_carlo_error(params, 50_000, RandomStream(5))
        assert a == b

    def test_zero_error_source_rule_of_three(self):
        params = make_params(U2, 6, 0.5)
        est, half = monte_carlo_error(params, 10_000, RandomStream(1))
        assert est == 0.0 and half == pytest.approx(3.0 / 10_000)
