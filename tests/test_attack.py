"""Attack-search tests: brute-force oracles over every forged share, the
closed-form uniform-success facts, Monte Carlo paths, exponents, and the
converse bound checkers."""
import itertools
import math

import numpy as np
import pytest

import blockwise_oracle
from blockwise_oracle import flat_to_share, share_to_flat
from symbolwise_oracle import modular_attack_success
from oracles import (attack_bruteforce, iid_extension, share_laws,
                     symbolwise_test_quantities)
from oracles import test_quantities as dense_test_quantities
from twoshare import cli, symbol
from twoshare.attack import (blockwise_attack, converse_exponent_check,
                             fano_check, logsum_bound_check,
                             symbolwise_attack)
from twoshare.block import (BlockRandomness, BlockwiseParams, accepts, encode,
                            exact_quantities)
from oracles import JointPMF
from twoshare.prob import CapExceededError, PMF, RandomStream, _estimate
from twoshare.symbol import make_codec, modular_scheme
from twoshare.typical import build_index

SKEW = PMF.from_probs([0.7, 0.3])
U2 = PMF.uniform(2)


def small_params(n=4, ell=1.0, gamma=None):
    if gamma is None:
        gamma = float(n) ** (-1.0 / 3.0)
    return BlockwiseParams(ell=ell, index=build_index(SKEW, n, gamma))


def per_forgery_success(accept_fn, forged_size, honest_probs):
    """Success probability of every forged value, by direct scan."""
    out = []
    for f in range(forged_size):
        p = sum(float(honest_probs[h]) for h in range(len(honest_probs))
                if honest_probs[h] > 0.0 and accept_fn(f, h))
        out.append(p)
    return out


def honest_share_probs(params, side):
    """Distribution of the legitimate counterpart share, by enumeration."""
    size = params.share_size
    mp1 = params.m_count + 1
    if side == "x":
        # counterpart is Y = (u_l, u_m), uniform by construction
        return np.full(size, 1.0 / size)
    ext = iid_extension(params.index.source, params.n)
    p_sn = ext.all_probs()
    probs = np.zeros(size)
    for i in range(p_sn.shape[0]):
        seq = ext.index_to_seq(i)
        for u_l in range(params.l_count):
            for u_m in range(mp1):
                x, _ = encode(params, seq, BlockRandomness(u_l, u_m))
                probs[share_to_flat(params, x)] += p_sn[i] / (params.l_count * mp1)
    return probs


class TestBlockwiseAttack:
    def test_matches_bruteforce_both_sides(self):
        params = small_params()

        def fn_x(f, h):
            return accepts(params, flat_to_share(params, f),
                           flat_to_share(params, h))

        def fn_y(f, h):
            return accepts(params, flat_to_share(params, h),
                           flat_to_share(params, f))

        for side, fn in (("x", fn_x), ("y", fn_y)):
            probs = honest_share_probs(params, side)
            best, _ = attack_bruteforce(fn, params.share_size, probs)
            res = blockwise_attack(params, side)
            assert res.success_prob == pytest.approx(best, abs=1e-12)
            assert res.side == side

    def test_every_forgery_equally_good(self):
        # the acceptance test gives an attacker nothing to aim at: all
        # forged shares succeed with mass M / (L (M + 1))
        params = small_params()
        m, l = params.m_count, params.l_count
        expect = m / (l * (m + 1.0))

        def fn(f, h):
            return accepts(params, flat_to_share(params, f),
                           flat_to_share(params, h))

        for side in ("x", "y"):
            probs = honest_share_probs(params, side)
            fn_side = fn if side == "x" else (
                lambda f, h: accepts(params, flat_to_share(params, h),
                                     flat_to_share(params, f)))
            vals = per_forgery_success(fn_side, params.share_size, probs)
            assert max(vals) - min(vals) <= 1e-15
            assert vals[0] == pytest.approx(expect, abs=1e-15)

    def test_closed_form_value(self):
        params = small_params()
        expect = params.m_count / (params.l_count * (params.m_count + 1.0))
        for side in ("x", "y"):
            res = blockwise_attack(params, side)
            assert res.success_prob == pytest.approx(expect, abs=1e-15)

    def test_frozen_value_longer_block(self):
        params = BlockwiseParams(ell=2.0, index=build_index(SKEW, 8, 0.5))
        assert params.m_count == 219 and params.l_count == 65536
        res = blockwise_attack(params, "x")
        assert res.success_prob == pytest.approx(1.5189430930397728e-05,
                                                 rel=1e-12)

    def test_rejects_bad_side(self):
        with pytest.raises(ValueError):
            blockwise_attack(small_params(), "z")


def seq_to_flat(seq, base):
    flat = 0
    for d in seq:
        flat = flat * base + d
    return flat


class TestSymbolwiseAttack:
    def test_matches_bruteforce_modular(self):
        codec = make_codec(modular_scheme(3, 2), SKEW, n=4, gamma=0.5)
        m, n = 3, 4
        seqs = list(itertools.product(range(m), repeat=n))
        honest = np.full(len(seqs), 1.0 / len(seqs))  # share marginal uniform

        table = share_laws(codec).score_table

        def fn(f, h):
            score = sum(table[a, b] for a, b in zip(seqs[f], seqs[h])) / n
            return score > codec.threshold

        best, _ = attack_bruteforce(fn, len(seqs), honest)
        res = symbolwise_attack(codec, "x")
        assert res.success_prob == pytest.approx(best, abs=1e-12)

    def test_agrees_with_uniform_recombination_count(self):
        # against the modular splitter the success mass is a pure count of
        # accepted recombined sequences over M**n; verify by enumeration
        codec = make_codec(modular_scheme(4, 2), SKEW, n=8,
                           gamma=8.0 ** (-1.0 / 3.0))
        accepted = 0
        for seq in itertools.product(range(2), repeat=8):
            mean = sum(math.log2(4 * SKEW.probs[s]) for s in seq) / 8
            if mean > codec.threshold:
                accepted += 1
        expect = accepted / 4.0 ** 8
        assert accepted == 219
        assert modular_attack_success(codec, "x") == expect
        assert modular_attack_success(codec, "y") == expect
        assert symbolwise_attack(codec, "x").success_prob == pytest.approx(
            expect, abs=1e-15)
        assert expect == 0.0033416748046875

    def test_modular_success_forgery_independent(self):
        codec = make_codec(modular_scheme(3, 2), SKEW, n=4, gamma=0.5)
        m, n = 3, 4
        seqs = list(itertools.product(range(m), repeat=n))
        honest = np.full(len(seqs), 1.0 / len(seqs))

        table = share_laws(codec).score_table

        def fn(f, h):
            score = sum(table[a, b] for a, b in zip(seqs[f], seqs[h])) / n
            return score > codec.threshold

        vals = per_forgery_success(fn, len(seqs), honest)
        assert max(vals) - min(vals) <= 1e-15
        assert vals[0] == pytest.approx(modular_attack_success(codec, "x"),
                                        abs=1e-12)

    def test_type_cap_enforced(self, monkeypatch):
        # four lattice values give C(8, 2) = 28 prefixes at n=6; Monte
        # Carlo mode calls the exact attack too, so it is no way out
        codec = make_codec(modular_scheme(6, 4),
                           PMF.from_probs([0.4, 0.3, 0.2, 0.1]), n=6, gamma=0.2)
        monkeypatch.setattr(symbol, "LATTICE_CAP", 5)
        for side in "xy":
            with pytest.raises(CapExceededError) as err:
                symbolwise_attack(codec, side)
            msg = str(err.value)
            assert "n=6" in msg and "28 score-lattice points" in msg
            assert "lower n" in msg and "Monte Carlo" not in msg

    def test_rejects_bad_side(self):
        codec = make_codec(modular_scheme(3, 2), SKEW, n=2, gamma=0.5)
        with pytest.raises(ValueError):
            symbolwise_attack(codec, "xy")


class TestMonteCarloAttack:
    """An attack estimate is `_estimate` of the exact optimum's success:
    the CLI's `attack --mode mc` draws one, the harness one per side."""

    def test_blockwise_within_confidence(self):
        # an estimate is one binomial draw, so its 95% half-width covers
        # the exact success on about 95% of streams: fewer than 180 of 200
        # has odds of about 1e-3, where one stream missed with odds 1/20.
        # Every blockwise share hits with the same mass, so both sides
        # estimate the same mass
        params = small_params()
        exact = blockwise_attack(params, "x").success_prob
        assert blockwise_attack(params, "y").success_prob == exact
        covered = 0
        for s in range(200):
            est, half = _estimate(40000, RandomStream(13, s), exact)
            covered += abs(est - exact) <= half + 1e-12
        assert covered >= 180

    def test_symbolwise_within_confidence(self):
        codec = make_codec(modular_scheme(3, 2), SKEW, n=4, gamma=0.5)
        best = symbolwise_attack(codec, "x")
        est, half = _estimate(40000, RandomStream(17), best.success_prob)
        assert abs(est - best.success_prob) <= half + 1e-12

    def test_deterministic_for_fixed_seed(self, capsys):
        argv = ["attack", "--scheme", "blockwise", "--source", "0.7,0.3",
                "--n", "4", "--ell", "1.0", "--side", "y", "--mode", "mc",
                "--trials", "20000", "--seed", "29"]
        outs = []
        for _ in range(2):
            assert cli.main(argv) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_rejects_bad_arguments(self):
        params = small_params()
        with pytest.raises(ValueError):
            _estimate(0, RandomStream(1), blockwise_attack(params).success_prob)
        with pytest.raises(ValueError):
            blockwise_attack(params, "q")
        with pytest.raises(ValueError):
            symbolwise_attack(make_codec(modular_scheme(3, 2), SKEW, n=4,
                                         gamma=0.5), "q")


class TestExponents:
    def test_blockwise_exponents_approach_level_from_above(self):
        es = []
        for n in (4, 8):
            params = small_params(n=n, ell=1.0)
            p = blockwise_attack(params, "x").success_prob
            es.append(-math.log2(p) / n)
        assert es[0] > es[1] > 1.0


class TestDenseQuantities:
    def test_hand_example(self):
        joint = JointPMF(np.array([[0.4, 0.1], [0.2, 0.3]]))
        tq = dense_test_quantities(joint, lambda x, y: x == y)
        assert tq.alpha == pytest.approx(0.3, abs=1e-12)
        # px = (0.5, 0.5), py = (0.6, 0.4): accepted independent mass
        assert tq.beta == pytest.approx(0.5 * 0.6 + 0.5 * 0.4, abs=1e-12)

    def test_requires_two_axes(self):
        with pytest.raises(ValueError):
            dense_test_quantities(JointPMF(np.full((2, 2, 2), 0.125)),
                                  lambda x, y: True)

    def test_blockwise_quantities_match_dense(self):
        params = small_params()
        ext = iid_extension(SKEW, params.n)
        p_sn = ext.all_probs()
        size = params.share_size
        mp1 = params.m_count + 1
        table = np.zeros((size, size))
        for i in range(p_sn.shape[0]):
            seq = ext.index_to_seq(i)
            for u_l in range(params.l_count):
                for u_m in range(mp1):
                    x, y = encode(params, seq, BlockRandomness(u_l, u_m))
                    table[share_to_flat(params, x), share_to_flat(params, y)] \
                        += p_sn[i] / (params.l_count * mp1)
        dense = dense_test_quantities(
            JointPMF(table),
            lambda f, h: accepts(params, flat_to_share(params, f),
                                 flat_to_share(params, h)))
        assert params.index.delta == pytest.approx(dense.alpha, abs=1e-12)
        # every forgery, on either side, succeeds with the dense beta
        for side in "xy":
            assert blockwise_attack(params, side).success_prob == \
                pytest.approx(dense.beta, abs=1e-12)

    def test_blockwise_alpha_is_the_error_probability(self):
        # the record reads delta for both; the dense grid's error agrees
        params = small_params(n=6, ell=0.5)
        dense = blockwise_oracle.exact_quantities(params)
        assert params.index.delta == pytest.approx(dense.p_e, abs=1e-15)

    def test_symbolwise_quantities_match_dense(self):
        codec = make_codec(modular_scheme(3, 2), SKEW, n=3, gamma=0.5)
        dense = share_laws(codec)
        t, table = dense.p_xy, dense.score_table
        full = np.kron(np.kron(t, t), t)
        seqs = list(itertools.product(range(3), repeat=3))

        def fn(xf, yf):
            score = sum(table[a, b] for a, b in zip(seqs[xf], seqs[yf])) / 3
            return score > codec.threshold

        dense = dense_test_quantities(JointPMF(full), fn)
        tq = symbolwise_test_quantities(codec)
        assert tq.alpha == pytest.approx(dense.alpha, abs=1e-12)
        assert tq.beta == pytest.approx(dense.beta, abs=1e-12)

    def test_symbolwise_beta_equals_best_forgery(self):
        # beta sums the dense independent-pair law, the attack the codec's
        # forged row: the rows are equal floats, so the sums are too, and
        # both are the count of accepted recombined sequences over M**n
        codec = make_codec(modular_scheme(3, 2), SKEW, n=5, gamma=0.5)
        tq = symbolwise_test_quantities(codec)
        for side in "xy":
            assert symbolwise_attack(codec, side).success_prob == tq.beta
        assert tq.beta == pytest.approx(modular_attack_success(codec),
                                        abs=1e-12)


class TestBoundCheckers:
    def test_logsum_tight_case_holds(self):
        chk = logsum_bound_check(1.0, alpha=0.0, beta=0.5)
        assert chk.rhs == pytest.approx(1.0, abs=1e-12)
        assert chk.holds and not chk.vacuous

    def test_logsum_detects_violation(self):
        chk = logsum_bound_check(0.5, alpha=0.0, beta=0.5)
        assert not chk.holds

    def test_logsum_vacuous_at_zero_beta(self):
        chk = logsum_bound_check(0.0, alpha=0.3, beta=0.0)
        assert chk.holds and chk.vacuous
        assert chk.rhs == math.inf

    def test_logsum_alpha_one_degenerates(self):
        chk = logsum_bound_check(0.0, alpha=1.0, beta=0.25)
        assert chk.rhs == pytest.approx(0.0, abs=1e-12)
        assert chk.holds

    def test_fano_zero_error_zero_equivocation(self):
        assert fano_check(0.0, 0.0, 4, 2).holds

    def test_fano_detects_violation(self):
        chk = fano_check(0.0, 1.0, 1, 2)
        assert chk.lhs == 1.0 and chk.rhs == 0.0
        assert not chk.holds

    def test_fano_certain_error_bounds_full_entropy(self):
        chk = fano_check(1.0, 3.0, 3, 2)
        assert chk.rhs == pytest.approx(1.0, abs=1e-12)
        assert chk.holds

    def test_converse_equality_case(self):
        chk = converse_exponent_check(2.0, 0.0, 0.25, 0.25, 2)
        assert chk.lhs == pytest.approx(1.0, abs=1e-12)
        assert chk.rhs == pytest.approx(1.0, abs=1e-12)
        assert chk.holds and not chk.vacuous

    def test_converse_detects_violation(self):
        chk = converse_exponent_check(2.0, 0.0, 2.0 ** -6, 0.25, 2)
        assert chk.lhs == pytest.approx(3.0, abs=1e-12)
        assert not chk.holds

    def test_converse_vacuous_branches(self):
        assert converse_exponent_check(1.0, 1.0, 0.5, 0.5, 2).vacuous
        assert converse_exponent_check(1.0, 0.1, 0.0, 0.5, 2).vacuous
        assert converse_exponent_check(1.0, 0.1, 0.5, 0.0, 2).vacuous

    def test_checkers_hold_on_real_scheme(self):
        params = small_params(n=8, ell=1.0)
        q = exact_quantities(params)
        alpha = params.index.delta
        beta = blockwise_oracle.blockwise_test_quantities(params).beta
        px = blockwise_attack(params, "x").success_prob
        py = blockwise_attack(params, "y").success_prob
        assert px == py == pytest.approx(beta, abs=1e-12)
        assert logsum_bound_check(q.i_xy, alpha, beta).holds
        assert fano_check(q.delta, q.h_s_given_xy, params.n, 2).holds
        assert converse_exponent_check(q.i_xy, alpha, px, py,
                                       params.n).holds
