"""Tests for the symbolwise scheme: splitter algebra, validation, the
n-block codec, and its exact error computation."""
import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from twoshare.prob import (JointPMF, PMF, RandomStream, entropy,
                           mutual_information)
from twoshare.symbol import (FAIL_DECODE, FAIL_DECODER, FAIL_SECRECY_X,
                             FAIL_SECRECY_Y, FAIL_SIZE, BaseScheme,
                             SchemeValidationError, SymbolwiseCodec,
                             accepts_n, decode_n, draw_randomness_n, encode_n,
                             exact_symbolwise_quantities, fstar, gstar,
                             identity_leak_scheme, llr_score, make_codec,
                             modular_correlation_level, modular_scheme,
                             monte_carlo_error, nondecodable_scheme,
                             scheme_joint, score_lattice, undersized_scheme,
                             validate_base)

H_73 = 0.88129089923069261822  # frozen H(0.7, 0.3), cross-checked in test_prob

SKEW = PMF.from_probs([0.7, 0.3])
U2 = PMF.uniform(2)
U3 = PMF.uniform(3)


class TestSplitterAlgebra:
    def test_split_worked_example(self):
        assert fstar(3, 1, 2) == (2, 2)

    def test_split_second_share_is_the_mask(self):
        for m in (2, 3, 5):
            for s in range(2):
                for u in range(m):
                    x, y = fstar(m, s, u)
                    assert y == u
                    assert 0 <= x < m

    def test_recombine_worked_examples(self):
        assert gstar(3, 2, 2, 2) == 1
        assert gstar(3, 2, 1, 1) is None

    def test_recombine_inverts_split(self):
        for m, ms in ((2, 2), (3, 2), (4, 2), (5, 3)):
            for s in range(ms):
                for u in range(m):
                    assert gstar(m, ms, *fstar(m, s, u)) == s

    def test_recombine_total_when_alphabets_match(self):
        # with M == |S| every sum lands inside the secret alphabet
        for x in range(3):
            for y in range(3):
                assert gstar(3, 3, x, y) is not None

    def test_scheme_rejects_small_share_alphabet(self):
        with pytest.raises(ValueError):
            modular_scheme(2, 3)

    def test_scheme_rejects_degenerate_secret(self):
        with pytest.raises(ValueError):
            BaseScheme(name="bad", secret_size=1, share_size=2, rand_size=2,
                       encode_fn=lambda s, u: (s, u),
                       decode_fn=lambda x, y: x)


class TestCorrelationLevel:
    def test_matches_share_mutual_information(self):
        # the closed form log2(M) - H(S) must equal I(X;Y) of the induced joint
        for m, source in ((2, U2), (3, SKEW), (4, SKEW), (4, U2)):
            lvl = modular_correlation_level(m, source)
            joint = scheme_joint(modular_scheme(m, source.support_size), source)
            assert mutual_information(joint.marginal(2, 3)) == pytest.approx(
                lvl, abs=1e-9)

    def test_skewed_value(self):
        assert modular_correlation_level(3, SKEW) == pytest.approx(
            math.log2(3) - H_73, abs=1e-12)

    def test_uniform_matched_alphabet_is_zero(self):
        assert modular_correlation_level(2, U2) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_undersized_alphabet(self):
        with pytest.raises(ValueError):
            modular_correlation_level(2, U3)


class TestValidateBase:
    def test_modular_uniform_passes(self):
        report = validate_base(modular_scheme(4, 2), U2)
        assert report.passed
        assert report.failures == ()
        assert report.h_s == pytest.approx(1.0, abs=1e-12)
        assert report.h_s_given_x == pytest.approx(1.0, abs=1e-12)
        assert report.h_s_given_y == pytest.approx(1.0, abs=1e-12)
        assert report.h_s_given_xy == pytest.approx(0.0, abs=1e-12)
        assert report.ell == pytest.approx(1.0, abs=1e-9)
        assert report.sizes_ok and report.decoder_ok

    def test_matched_alphabet_has_zero_correlation(self):
        report = validate_base(modular_scheme(2, 2), U2)
        assert report.passed
        assert report.ell == pytest.approx(0.0, abs=1e-9)

    def test_skewed_source_passes(self):
        report = validate_base(modular_scheme(3, 2), SKEW)
        assert report.passed
        assert report.h_s_given_x == pytest.approx(H_73, abs=1e-9)
        assert report.ell == pytest.approx(math.log2(3) - H_73, abs=1e-9)

    def test_identity_leak_fails_secrecy_only(self):
        report = validate_base(identity_leak_scheme(4, 2), U2)
        assert not report.passed
        assert report.failures == (FAIL_SECRECY_X,)
        assert report.h_s_given_x == pytest.approx(0.0, abs=1e-12)

    def test_nondecodable_fails_decode_and_decoder(self):
        report = validate_base(nondecodable_scheme(4, 2), U2)
        assert FAIL_DECODE in report.failures
        assert FAIL_DECODER in report.failures
        assert FAIL_SECRECY_X not in report.failures
        assert FAIL_SECRECY_Y not in report.failures
        assert report.h_s_given_xy == pytest.approx(1.0, abs=1e-12)

    def test_undersized_fails_size(self):
        report = validate_base(undersized_scheme(2, 3), U3)
        assert FAIL_SIZE in report.failures
        assert FAIL_DECODE in report.failures
        assert not report.sizes_ok

    def test_undersized_builder_refuses_valid_sizes(self):
        with pytest.raises(ValueError):
            undersized_scheme(4, 2)

    def test_second_share_leak_detected(self):
        # mirror of the identity leak, on the Y side
        leaky = BaseScheme(name="leak-y", secret_size=2, share_size=4,
                           rand_size=4,
                           encode_fn=lambda s, u: (u, s),
                           decode_fn=lambda x, y: y if y < 2 else None)
        report = validate_base(leaky, U2)
        assert report.failures == (FAIL_SECRECY_Y,)


class TestCodecConstruction:
    def test_rejects_broken_scheme(self):
        with pytest.raises(SchemeValidationError):
            make_codec(identity_leak_scheme(4, 2), U2, n=4, gamma=0.5)

    def test_require_valid_off_builds_anyway(self):
        codec = make_codec(identity_leak_scheme(4, 2), U2, n=4, gamma=0.5,
                           require_valid=False)
        assert isinstance(codec, SymbolwiseCodec)

    def test_rejects_bad_block_and_gamma(self):
        with pytest.raises(ValueError):
            make_codec(modular_scheme(4, 2), U2, n=0, gamma=0.5)
        with pytest.raises(ValueError):
            make_codec(modular_scheme(4, 2), U2, n=4, gamma=0.0)

    def test_threshold_is_correlation_minus_gamma(self):
        codec = make_codec(modular_scheme(4, 2), U2, n=4, gamma=0.25)
        assert codec.i_xy == pytest.approx(1.0, abs=1e-9)
        assert codec.threshold == codec.i_xy - 0.25

    def test_share_marginals_uniform(self):
        for m, source in ((3, SKEW), (4, U2), (5, SKEW)):
            codec = make_codec(modular_scheme(m, 2), source, n=2, gamma=0.5)
            np.testing.assert_allclose(codec.p_x.probs, np.full(m, 1.0 / m),
                                       atol=1e-12)
            np.testing.assert_allclose(codec.p_y.probs, np.full(m, 1.0 / m),
                                       atol=1e-12)


class TestBlockEncode:
    def test_worked_example(self):
        codec = make_codec(modular_scheme(3, 2), SKEW, n=2, gamma=0.5)
        xs, ys = encode_n(codec, (1, 0), (2, 1))
        assert xs == (2, 2)
        assert ys == (2, 1)

    def test_length_and_range_checks(self):
        codec = make_codec(modular_scheme(3, 2), SKEW, n=2, gamma=0.5)
        with pytest.raises(ValueError):
            encode_n(codec, (1,), (2, 1))
        with pytest.raises(ValueError):
            encode_n(codec, (1, 2), (2, 1))  # secret symbol out of alphabet
        with pytest.raises(ValueError):
            encode_n(codec, (1, 0), (2, 3))

    def test_randomness_draw_shape(self):
        codec = make_codec(modular_scheme(4, 2), U2, n=6, gamma=0.5)
        u = draw_randomness_n(codec, RandomStream(3))
        assert len(u) == 6
        assert all(0 <= v < 4 for v in u)


class TestScoring:
    def test_valid_pair_scores_the_correlation_level(self):
        # dyadic probabilities make this exact, not just approximate
        codec = make_codec(modular_scheme(4, 2), U2, n=3, gamma=0.5)
        xs, ys = encode_n(codec, (0, 1, 0), (3, 2, 1))
        assert llr_score(codec, xs, ys) == 1.0

    def test_impossible_pair_scores_minus_infinity(self):
        codec = make_codec(modular_scheme(4, 2), U2, n=2, gamma=0.5)
        # (1, 1) recombines to 2, outside the secret alphabet
        assert llr_score(codec, (1, 0), (1, 0)) == float("-inf")

    def test_score_depends_only_on_recombined_secret(self):
        codec = make_codec(modular_scheme(3, 2), SKEW, n=1, gamma=0.5)
        scores = {}
        for x in range(3):
            for y in range(3):
                s = (x + y) % 3
                val = llr_score(codec, (x,), (y,))
                scores.setdefault(s, val)
                assert val == scores[s]

    def test_legit_distribution_masses(self):
        codec = make_codec(modular_scheme(3, 2), SKEW, n=4, gamma=0.5)
        lat = score_lattice(codec)
        dist = dict(zip(lat.values,
                        lat.masses(codec.score_table, codec.p_xy.probs)))
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)
        expect = {math.log2(3 * 0.7): 0.7, math.log2(3 * 0.3): 0.3}
        assert len(dist) == 2
        for val, mass in dist.items():
            matched = min(expect, key=lambda k: abs(k - val))
            assert val == pytest.approx(matched, abs=1e-12)
            assert mass == pytest.approx(expect[matched], abs=1e-12)


class TestAcceptance:
    def test_legit_pairs_accepted_uniform(self):
        codec = make_codec(modular_scheme(4, 2), U2, n=4, gamma=0.5)
        for secret in itertools.product(range(2), repeat=4):
            for rand in ((0, 1, 2, 3), (3, 3, 3, 3)):
                xs, ys = encode_n(codec, secret, rand)
                assert accepts_n(codec, xs, ys)

    def test_tie_rejected(self):
        # uniform source: every legit pair scores exactly i_xy, so a zero
        # margin turns the strict test into a rejection
        codec = make_codec(modular_scheme(4, 2), U2, n=3, gamma=0.5)
        tied = dataclasses.replace(codec, gamma=0.0)
        xs, ys = encode_n(codec, (0, 1, 1), (2, 0, 3))
        assert llr_score(tied, xs, ys) == tied.threshold
        assert not accepts_n(tied, xs, ys)
        assert accepts_n(codec, xs, ys)

    def test_zero_correlation_scheme_accepts_legit(self):
        # M == |S| gives threshold -gamma < 0 == every legit score
        codec = make_codec(modular_scheme(2, 2), U2, n=5, gamma=0.25)
        xs, ys = encode_n(codec, (0, 1, 1, 0, 1), (1, 1, 0, 0, 1))
        assert llr_score(codec, xs, ys) == 0.0
        assert accepts_n(codec, xs, ys)

    def test_decode_roundtrip(self):
        codec = make_codec(modular_scheme(3, 2), SKEW, n=5, gamma=1.0)
        secret = (1, 0, 0, 1, 0)
        xs, ys = encode_n(codec, secret, (2, 0, 1, 1, 2))
        out = decode_n(codec, xs, ys)
        assert not out.rejected
        assert out.secret == secret

    def test_decode_rejects_forged_pair(self):
        codec = make_codec(modular_scheme(4, 2), U2, n=3, gamma=0.5)
        out = decode_n(codec, (1, 0, 0), (1, 0, 0))  # first symbol impossible
        assert out.rejected
        assert out.secret is None

    def test_decoder_hole_on_accepted_pair_raises(self):
        # a broken decoder paired with require_valid=False must fail loudly
        # rather than emit a bogus secret
        broken = BaseScheme(name="hole", secret_size=2, share_size=2,
                            rand_size=2,
                            encode_fn=lambda s, u: fstar(2, s, u),
                            decode_fn=lambda x, y: None)
        codec = make_codec(broken, U2, n=1, gamma=0.5, require_valid=False)
        xs, ys = encode_n(codec, (0,), (1,))
        assert accepts_n(codec, xs, ys)
        with pytest.raises(RuntimeError):
            decode_n(codec, xs, ys)


def brute_error_prob(codec):
    """Enumerate every secret sequence and sum the rejected mass.

    Acceptance of a legitimate pair depends only on the secret block, so
    the error probability is a sum over |S|^n sequences.
    """
    p = codec.source.probs
    m = codec.scheme.share_size
    total = 0.0
    for secret in itertools.product(range(codec.source.support_size),
                                    repeat=codec.n):
        xs, ys = encode_n(codec, secret, (0,) * codec.n)
        if not accepts_n(codec, xs, ys):
            total += math.prod(p[s] for s in secret)
    return total


class TestExactQuantities:
    def test_error_prob_matches_enumeration(self):
        codec = make_codec(modular_scheme(3, 2), SKEW, n=8,
                           gamma=8.0 ** (-1.0 / 3.0))
        q = exact_symbolwise_quantities(codec)
        assert q.p_e == pytest.approx(brute_error_prob(codec), abs=1e-12)
        assert 0.0 < q.p_e < 0.05

    def test_error_prob_matches_enumeration_uniform_mismatch(self):
        codec = make_codec(modular_scheme(4, 3), U3, n=5, gamma=0.3)
        q = exact_symbolwise_quantities(codec)
        assert q.p_e == pytest.approx(brute_error_prob(codec), abs=1e-12)

    def test_uniform_matched_source_never_errs(self):
        codec = make_codec(modular_scheme(4, 2), U2, n=6, gamma=0.2)
        q = exact_symbolwise_quantities(codec)
        assert q.p_e == 0.0

    def test_secrecy_and_correlation_fields(self):
        codec = make_codec(modular_scheme(4, 2), U2, n=4, gamma=0.5)
        q = exact_symbolwise_quantities(codec)
        assert q.i_xy_per_symbol == pytest.approx(1.0, abs=1e-9)
        assert q.i_sx_per_symbol == pytest.approx(0.0, abs=1e-9)
        assert q.i_sy_per_symbol == pytest.approx(0.0, abs=1e-9)
        assert q.h_s_given_x == pytest.approx(1.0, abs=1e-12)
        assert q.h_s_given_y == pytest.approx(1.0, abs=1e-12)
        assert q.h_s_given_xy == pytest.approx(0.0, abs=1e-12)
        assert q.rate == pytest.approx(2.0, abs=1e-12)

    def test_skewed_fields(self):
        codec = make_codec(modular_scheme(3, 2), SKEW, n=6, gamma=0.5)
        q = exact_symbolwise_quantities(codec)
        assert q.i_xy_per_symbol == pytest.approx(math.log2(3) - H_73,
                                                  abs=1e-9)
        assert q.h_s_given_x == pytest.approx(H_73, abs=1e-9)
        assert q.rate == pytest.approx(math.log2(3), abs=1e-12)

    def test_error_prob_shrinks_as_margin_grows(self):
        vals = []
        for gamma in (0.25, 0.5, 1.0):
            codec = make_codec(modular_scheme(3, 2), SKEW, n=8, gamma=gamma)
            vals.append(exact_symbolwise_quantities(codec).p_e)
        assert vals[0] >= vals[1] >= vals[2]
        assert vals[0] > vals[2]

    def test_block_information_is_additive(self):
        # product structure over positions: I(X^n;Y^n) = n * I(X;Y)
        codec = make_codec(modular_scheme(3, 2), SKEW, n=3, gamma=0.5)
        table = codec.p_xy.probs
        full = table
        for _ in range(codec.n - 1):
            full = np.kron(full, table)
        n_fold = mutual_information(JointPMF(full))
        assert n_fold == pytest.approx(codec.n * codec.i_xy, abs=1e-8)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.integers(1, 6), st.data())
def test_acceptance_matches_recombined_typicality(m, n, data):
    """Accepting (x, y) is the same as the recombined block looking like a
    plausible source draw with entropy margin gamma."""
    source = SKEW
    codec = make_codec(modular_scheme(m, 2), source, n=n, gamma=0.45)
    xs = data.draw(st.tuples(*[st.integers(0, m - 1)] * n))
    ys = data.draw(st.tuples(*[st.integers(0, m - 1)] * n))
    recombined = [(x + y) % m for x, y in zip(xs, ys)]
    if any(s >= 2 for s in recombined):
        expect = False
        assert accepts_n(codec, xs, ys) == expect
        return
    mean_log = sum(math.log2(source.probs[s]) for s in recombined) / n
    margin = mean_log - (-entropy(source) - codec.gamma)
    assume(abs(margin) > 1e-9)  # knife edge: strictness is tested elsewhere
    assert accepts_n(codec, xs, ys) == (margin > 0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1),
       st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
def test_masking_hides_each_secret(s0, s1, s2, u0, u1, u2):
    # any two secrets produce identically distributed share pairs once the
    # mask is marginalised; spot check via encode table symmetry
    codec = make_codec(modular_scheme(3, 2), SKEW, n=3, gamma=0.5)
    xs, ys = encode_n(codec, (s0, s1, s2), (u0, u1, u2))
    assert all((x + y) % 3 == s for x, y, s in zip(xs, ys, (s0, s1, s2)))


class TestMonteCarlo:
    def test_within_confidence_of_exact(self):
        codec = make_codec(modular_scheme(3, 2), SKEW, n=8,
                           gamma=8.0 ** (-1.0 / 3.0))
        exact = exact_symbolwise_quantities(codec).p_e
        est, half = monte_carlo_error(codec, 100000, RandomStream(11))
        assert abs(est - exact) <= half + 1e-12
        assert half > 0.0

    def test_deterministic_for_fixed_seed(self):
        codec = make_codec(modular_scheme(3, 2), SKEW, n=6, gamma=0.5)
        a = monte_carlo_error(codec, 40000, RandomStream(5))
        b = monte_carlo_error(codec, 40000, RandomStream(5))
        assert a == b

    def test_zero_hits_reports_rule_of_three(self):
        codec = make_codec(modular_scheme(4, 2), U2, n=4, gamma=0.5)
        est, half = monte_carlo_error(codec, 1000, RandomStream(2))
        assert est == 0.0
        assert half == pytest.approx(3.0 / 1000)

    def test_rejects_zero_trials(self):
        codec = make_codec(modular_scheme(4, 2), U2, n=4, gamma=0.5)
        with pytest.raises(ValueError):
            monte_carlo_error(codec, 0, RandomStream(1))
