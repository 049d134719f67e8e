"""Blockwise scheme: worked share values, round trips, and exact
quantities cross-checked against a fully mechanical dense-joint oracle."""
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

import blockwise_oracle
from blockwise_oracle import share_to_flat
from oracles import (JointPMF, conditional_entropy, iid_extension,
                     mutual_information, pushforward)
from twoshare import harness
from twoshare.block import (
    BlockShare, BlockRandomness, BlockwiseParams, MaskBitsError,
    floor_pow2,
    encode, accepts, decode, exact_quantities,
)
from twoshare.outcome import DecodeOutcome, REJECT
from twoshare.prob import PMF, RandomStream, _estimate, entropy
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
            floor_pow2(1024.0)
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

    def test_matches_mpmath_up_to_the_cap(self):
        # L = floor(2**bits) divides as a float up to the cap of 1023 bits,
        # and past it the level is refused before any float is formed
        rng = random.Random(21)
        exponents = [rng.uniform(40.0, 1023.0) for _ in range(40)]
        exponents += [400.0, 1022.0, 1022.5, 1023.0, 1023.0 + 1e-9]
        for bits in exponents:
            with mpmath.workprec(1100):
                want = int(mpmath.floor(mpmath.power(2, mpmath.mpf(bits))))
            assert floor_pow2(bits) == want, bits
            assert 0.0 < 1.0 / want and float(want) < math.inf
        for bits in (1023.0 + 1e-8, 1023.5, 1024.0, 5000.0):
            with pytest.raises(MaskBitsError, match="lower n or ell$"):
                floor_pow2(bits)

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

    def test_non_integral_randomness_raises(self):
        # BlockRandomness(5.5, 7) used to give two shares with l = 5.5
        p = make_params(SKEW, 6, 1.0)
        for r, message in [(BlockRandomness(5.5, 7), "u_l 5.5"),
                           (BlockRandomness(5, 7.5), "u_m 7.5"),
                           (BlockRandomness("5", 7), "u_l '5'")]:
            with pytest.raises(ValueError,
                               match=f"^{message} is not an integer$"):
                encode(p, (0, 1, 0, 0, 1, 0), r)

    def test_randomness_equal_to_integers_encodes_alike(self):
        p = make_params(SKEW, 6, 1.0)
        secret = (0, 1, 0, 0, 1, 0)
        want = encode(p, secret, BlockRandomness(5, 7))
        for r in [BlockRandomness(5.0, 7.0), BlockRandomness(np.int64(5), 7),
                  BlockRandomness(np.uint8(5), np.float64(7.0))]:
            x, y = encode(p, secret, r)
            assert (x, y) == want
            assert all(type(v) is int for v in (x.l, x.m, y.l, y.m))

    def test_randomness_range_checked(self):
        p = make_params(U2, 2, 0.0, gamma=0.5)
        with pytest.raises(ValueError):
            encode(p, (0, 0), BlockRandomness(1, 0))
        with pytest.raises(ValueError):
            encode(p, (0, 0), BlockRandomness(0, 5))


class TestDrawRandomness:
    """The only mask draw: u_l and u_m, by `RandomStream.integers`, at any
    L and M + 1."""

    def test_u_l_of_2_to_the_63_values_draws(self):
        # n * ell = 63 bits: the most one 64-bit integer draw covers
        p = make_params(SKEW, 21, 3.0)
        assert p.l_count == 1 << 63
        r = p.draw_randomness(RandomStream(1))
        assert 0 <= r.u_l < p.l_count and 0 <= r.u_m < p.mp1

    @staticmethod
    def _draws_in_range_and_repeat(p, secret):
        r = p.draw_randomness(RandomStream(1))
        assert 0 <= r.u_l < p.l_count and 0 <= r.u_m < p.mp1
        assert p.draw_randomness(RandomStream(1)) == r
        assert p.draw_randomness(RandomStream(2)) != r
        assert decode(p, *encode(p, secret, r)).secret == secret
        return r

    def test_u_l_past_int64_draws(self):
        # n * ell = 70 bits, while M + 1 stays a 64-bit draw: MaskDrawError
        # used to refuse u_l
        p = make_params(SKEW, 35, 2.0)
        assert p.l_count == 1 << 70 and p.mp1 <= 1 << 63
        r = self._draws_in_range_and_repeat(p, (0,) * 25 + (1,) * 10)
        # u_m is still one numpy draw, after the two words of u_l (2**70
        # values take the top 70 bits, so none is drawn again)
        gen = RandomStream(1).gen
        gen.bit_generator.random_raw(2)
        assert r.u_m == int(gen.integers(p.mp1))

    def test_u_m_past_int64_draws(self):
        # every uniform block is typical: M + 1 = 2**70 + 1, L = 2**35;
        # MaskDrawError used to refuse u_m
        p = make_params(U2, 70, 0.5)
        assert p.l_count == 1 << 35 and p.mp1 == (1 << 70) + 1
        r = self._draws_in_range_and_repeat(p, (0, 1) * 35)
        assert r.u_l == int(RandomStream(1).gen.integers(p.l_count))

    @pytest.mark.parametrize("n", [64, 400, 1000])
    def test_blockwise_round_trips_past_a_64_bit_mask(self, n):
        # [0.7,0.3], ell=0.25: M + 1 passes 2**63 from n=64 on, where
        # MaskDrawError ended every encode
        p = make_params(SKEW, n, 0.25)
        assert p.mp1 > 1 << 63
        ones = round(0.3 * n)
        secret = (0,) * (n - ones) + (1,) * ones
        self._draws_in_range_and_repeat(p, secret)


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

    def test_non_integral_mask_component_raises(self):
        # l = 5.5 in both shares used to match and decode the secret
        p = make_params(SKEW, 6, 1.0)
        x, y = encode(p, (0, 1, 0, 0, 1, 0), BlockRandomness(5, 7))
        for check in (accepts, decode):
            with pytest.raises(ValueError, match="^share l 5.5 "
                               "is not an integer$"):
                check(p, BlockShare(5.5, x.m), BlockShare(5.5, y.m))

    def test_share_component_equal_to_an_integer_decodes(self):
        # an m of 11.0 used to reach unrank as a float: a bare TypeError
        p = make_params(SKEW, 6, 1.0)
        secret = (0, 1, 0, 0, 1, 0)
        x, y = encode(p, secret, BlockRandomness(5, 7))
        assert x == BlockShare(5, 11)
        for a, b in [(BlockShare(5, 11.0), y),
                     (BlockShare(5.0, 11.0), BlockShare(np.int64(5), 7.0)),
                     (BlockShare(np.int8(5), np.uint16(11)), y)]:
            assert accepts(p, a, b)
            assert decode(p, a, b).secret == secret
        one = make_params(U2, 2, 1.0, gamma=0.5)
        assert accepts(one, BlockShare(True, 1), BlockShare(1, False))

    @pytest.mark.parametrize("share,message", [
        (BlockShare("a", 11), "share l 'a' is not an integer"),
        (BlockShare(5, "11"), "share m '11' is not an integer"),
        (BlockShare(5, None), "share m None is not an integer"),
        (BlockShare([5], 11), "share l [5] is not an integer"),
        (BlockShare(5, 11.5), "share m 11.5 is not an integer"),
    ])
    def test_share_component_that_is_no_integer_is_named(self, share, message):
        # 'a' used to raise a bare TypeError from a comparison
        p = make_params(SKEW, 6, 1.0)
        y = BlockShare(5, 7)
        for check in (accepts, decode):
            for pair in ((share, y), (y, share)):
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    check(p, *pair)


class TestValueTypes:
    """Shares, randomness and outcomes are values: immutable, equal and
    hashed by their fields, each as the plain tuple of its fields."""

    VALUES = [(BlockShare(5, 11), (5, 11)),
              (BlockRandomness(5, 7), (5, 7)),
              (DecodeOutcome((0, 1, 0)), ((0, 1, 0),)),
              (REJECT, (None,))]

    @pytest.mark.parametrize("value,fields", VALUES)
    def test_assigning_a_field_raises(self, value, fields):
        for name in type(value)._fields:
            with pytest.raises(AttributeError):
                setattr(value, name, 0)
        assert tuple(value) == fields

    @pytest.mark.parametrize("value,fields", VALUES)
    def test_equal_values_hash_alike(self, value, fields):
        twin = type(value)(*fields)
        assert twin == value and hash(twin) == hash(value)
        assert len({value, twin}) == 1
        # the spec since shares became tuples: each equals its fields
        assert value == fields and hash(value) == hash(fields)

    def test_reprs_are_unchanged(self):
        assert repr(REJECT) == "DecodeOutcome(REJECT)"
        assert repr(DecodeOutcome()) == "DecodeOutcome(REJECT)"
        assert repr(DecodeOutcome((0, 1))) == "DecodeOutcome(secret=(0, 1))"
        assert repr(BlockShare(5, 11)) == "BlockShare(l=5, m=11)"
        assert repr(BlockRandomness(5, 7)) == "BlockRandomness(u_l=5, u_m=7)"
        assert REJECT.rejected and not DecodeOutcome((0,)).rejected

    @pytest.mark.parametrize("r", [BlockRandomness(5, 7), (5, 7),
                                   BlockRandomness(np.int64(5), 7.0),
                                   BlockRandomness(True, np.uint8(7))])
    def test_encode_returns_block_shares_of_plain_ints(self, r):
        p = make_params(SKEW, 6, 1.0)
        secret = (0, 1, 0, 0, 1, 0)
        shares = encode(p, secret, r)
        assert [type(v) for v in shares] == [BlockShare, BlockShare]
        assert all(type(v) is int for share in shares for v in share)
        assert shares[1] == tuple(map(int, r))
        out = decode(p, *shares)
        assert type(out) is DecodeOutcome and out.secret == secret
        assert all(type(v) is int for v in out.secret)
        # a share is read as the plain tuple (l, m) it equals
        assert decode(p, *map(tuple, shares)) == out
        assert decode(p, tuple(shares[0]), shares[1]) == out


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
        return si, share_to_flat(params, x), share_to_flat(params, y)

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
        # a record's p_e is delta, and its I(S;X) and I(S;Y) are 0
        assert q.delta == pytest.approx(ref["p_e"], abs=1e-12)
        assert ref["i_sx"] == pytest.approx(0.0, abs=1e-9)
        assert ref["i_sy"] == pytest.approx(0.0, abs=1e-9)
        assert q.i_xy == pytest.approx(ref["i_xy"], abs=1e-9)
        assert q.h_s_given_xy == pytest.approx(ref["h_s_given_xy"], abs=1e-9)

    def test_share_y_uniform_on_alphabet(self):
        params = make_params(SKEW, 4, 0.5)
        ref = oracle_quantities(params, SKEW)
        assert np.allclose(ref["p_y"], 1.0 / params.share_size, atol=1e-12)
        # the masked component of X is uniform too: the mask sweeps all residues
        assert np.allclose(ref["p_x"], 1.0 / params.share_size, atol=1e-12)

    def test_secrecy_within_tolerance(self):
        # on the dense (secret, mask) grid, which a record's 0s stand for
        for ell in (0.0, 0.5):
            for n in (4, 6, 8):
                q = blockwise_oracle.exact_quantities(
                    make_params(SKEW, n, ell))
                assert abs(q.i_sx) <= 1e-9
                assert abs(q.i_sy) <= 1e-9

    def test_uniform_source_zero_error(self):
        q = exact_quantities(make_params(U2, 6, 0.5))
        assert q.delta == 0.0

    def test_error_equals_atypical_mass_bitwise(self):
        for n in (4, 8, 12):
            gamma = n ** (-1.0 / 3.0)
            q = exact_quantities(make_params(SKEW, n, 0.5))
            assert q.delta == build_index(SKEW, n, gamma).delta

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
        assert q.rate_x == pytest.approx(expect, abs=1e-12)
        cfg = harness.ExperimentConfig.from_dict(
            {"source": [0.7, 0.3], "scheme": {"kind": "blockwise", "ell": 0.5},
             "n_values": [8], "mode": "exact"})
        (rec,) = harness.run_experiment(cfg).records
        assert rec.rate_x == rec.rate_y == rec.rate_u == q.rate_x

    def test_point_mass_source_supported(self):
        pm = PMF.from_probs([1.0, 0.0])
        params = make_params(pm, 4, 0.5)
        assert params.m_count == 1
        q = exact_quantities(params)
        assert q.delta == 0.0
        assert q.h_s == 0.0
        assert abs(blockwise_oracle.exact_quantities(params).i_sx) <= 1e-9


class TestMonteCarloError:
    """A legitimate pair is rejected exactly when z = M, so an estimate of
    p_e is `_estimate` of the atypical mass, the exact record's p_e."""

    def test_estimate_within_interval(self):
        params = make_params(SKEW, 8, 0.5)
        est, half = _estimate(200_000, RandomStream(3),
                              exact_quantities(params).delta)
        assert abs(est - 0.01129221) <= half

    def test_deterministic(self):
        p_e = exact_quantities(make_params(SKEW, 8, 0.5)).delta
        a = _estimate(50_000, RandomStream(5), p_e)
        b = _estimate(50_000, RandomStream(5), p_e)
        assert a == b

    def test_zero_error_source_rule_of_three(self):
        params = make_params(U2, 6, 0.5)
        est, half = _estimate(10_000, RandomStream(1),
                              exact_quantities(params).delta)
        assert est == 0.0 and half == pytest.approx(3.0 / 10_000)
