"""Tests for the symbolwise scheme: splitter algebra, validation, the
n-block codec, and its exact error computation."""
import array
import dataclasses
import itertools
import json
import math
import operator
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from twoshare import harness, symbol
from oracles import (JointPMF, gamma_for_threshold, mutual_information,
                     scheme_joint, share_laws, splitter_profile)
from twoshare.prob import PMF, RandomStream, _estimate, entropy
from twoshare.typical import GammaSchedule
from twoshare.symbol import (FAIL_DECODE, FAIL_DECODER, FAIL_SECRECY_X,
                             FAIL_SECRECY_Y, FAIL_SIZE, BaseScheme,
                             SchemeValidationError, SymbolwiseCodec,
                             accepts_n, decode_n, draw_randomness_n, encode_n,
                             fstar, gstar, make_codec, modular_scheme,
                             rejection_probability, score_lattice,
                             validate_base)
from broken_splitters import (identity_leak_scheme, nondecodable_scheme,
                              undersized_scheme)
from symbolwise_oracle import accepts

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
    """The modular splitter's correlation level is ell = log2(M) - H(S)."""

    def test_matches_share_mutual_information(self):
        # the closed form must equal I(X;Y) of the induced joint
        for m, source in ((2, U2), (3, SKEW), (4, SKEW), (4, U2)):
            lvl = math.log2(m) - entropy(source)
            joint = scheme_joint(modular_scheme(m, source.support_size), source)
            assert mutual_information(joint.marginal(2, 3)) == pytest.approx(
                lvl, abs=1e-9)

    def test_skewed_value(self):
        assert validate_base(modular_scheme(3, 2), SKEW).ell == pytest.approx(
            math.log2(3) - H_73, abs=1e-12)

    def test_uniform_matched_alphabet_is_zero(self):
        assert validate_base(modular_scheme(2, 2), U2).ell == pytest.approx(
            0.0, abs=1e-12)


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

    @pytest.mark.parametrize("splitter,require_valid", [
        (modular_scheme, True), (identity_leak_scheme, False),
        (nondecodable_scheme, False)])
    def test_codec_holds_the_validation_entropies(self, splitter,
                                                  require_valid):
        # one joint and one set of entropies: the codec, the report and the
        # exact quantities read the same floats
        scheme = splitter(5, 3)
        source = PMF.from_probs([0.5, 0.3, 0.2])
        report = validate_base(scheme, source)
        codec = make_codec(scheme, source, n=4, gamma=0.5,
                           require_valid=require_valid)
        assert (codec.h_s, codec.h_s_given_x, codec.h_s_given_y,
                codec.h_s_given_xy, codec.i_xy) == (
            report.h_s, report.h_s_given_x, report.h_s_given_y,
            report.h_s_given_xy, report.ell)
        assert codec.h_s == entropy(source)
        # I(X;Y) is the mean score of a legitimate pair, over the same
        # grouped cells
        assert codec.i_xy == math.fsum(
            map(operator.mul, codec.laws.legit, codec.laws.values))

    def test_rejects_bad_block_and_gamma(self):
        with pytest.raises(ValueError):
            make_codec(modular_scheme(4, 2), U2, n=0, gamma=0.5)
        with pytest.raises(ValueError):
            make_codec(modular_scheme(4, 2), U2, n=4, gamma=0.0)
        for gamma in (math.nan, math.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                make_codec(modular_scheme(4, 2), U2, n=4, gamma=gamma)

    @pytest.mark.parametrize("change", [
        {"n": 0, "gamma": -1.0}, {"n": 0}, {"gamma": -1.0},
        {"gamma": math.nan}, {"gamma": math.inf}])
    def test_replace_checks_blocklength_and_gamma(self, change):
        # a derived codec is checked as a new one is, not only by make_codec
        codec = make_codec(modular_scheme(4, 2), U2, n=4, gamma=0.5)
        with pytest.raises(ValueError):
            dataclasses.replace(codec, **change)

    def test_share_laws_are_read_only(self):
        # the codec holds its laws as tuples and the cell scores behind a
        # read-only view, and no array: nothing of size M^2
        codec = make_codec(modular_scheme(4, 2), SKEW, n=4, gamma=0.5)
        assert not any(isinstance(getattr(codec, f.name), np.ndarray)
                       for f in dataclasses.fields(codec))
        with pytest.raises(TypeError):
            codec.scores[0, 0] = 0.0
        laws = codec.laws
        for law in (laws.values, laws.legit, laws.indep,
                    *laws.forged.values(), *laws.forged["x"],
                    *laws.forged["y"]):
            assert isinstance(law, tuple)
        assert len(codec.scores) == 8 and dict(codec.scores) == {
            c: v for c, v in np.ndenumerate(share_laws(codec).score_table)
            if v != -math.inf}

    def test_splitter_runs_on_support_points_only(self):
        # a zero-probability secret symbol is never split, so a splitter
        # undefined there still builds; one undefined on the support raises
        def encode(bad):
            def fn(s, u):
                if s == bad:
                    raise KeyError(s)
                return fstar(4, s, u)
            return fn
        source = PMF.from_probs([0.6, 0.0, 0.4])
        for bad, ok in ((1, True), (2, False)):
            scheme = dataclasses.replace(modular_scheme(4, 3),
                                         encode_fn=encode(bad))
            if ok:
                assert make_codec(scheme, source, n=4, gamma=0.5).i_xy > 0.0
            else:
                with pytest.raises(ValueError, match="support point"):
                    make_codec(scheme, source, n=4, gamma=0.5)

    def test_shares_outside_the_alphabet_raise(self):
        scheme = dataclasses.replace(modular_scheme(4, 2),
                                     encode_fn=lambda s, u: (s - u, u))
        with pytest.raises(ValueError, match="outside the share alphabet"):
            validate_base(scheme, U2)

    def test_threshold_is_correlation_minus_gamma(self):
        codec = make_codec(modular_scheme(4, 2), U2, n=4, gamma=0.25)
        assert codec.i_xy == pytest.approx(1.0, abs=1e-9)
        assert codec.threshold == codec.i_xy - 0.25

    def test_share_marginals_uniform(self):
        for m, source in ((3, SKEW), (4, U2), (5, SKEW)):
            codec = make_codec(modular_scheme(m, 2), source, n=2, gamma=0.5)
            dense = share_laws(codec)
            np.testing.assert_allclose(dense.p_x, np.full(m, 1.0 / m),
                                       atol=1e-12)
            np.testing.assert_allclose(dense.p_y, np.full(m, 1.0 / m),
                                       atol=1e-12)


SHIPPED_SPLITTERS = [modular_scheme(5, 3), identity_leak_scheme(5, 3),
                     nondecodable_scheme(5, 3), undersized_scheme(2, 3)]


class TestDenseParity:
    """The per-symbol laws against the dense (S, U, X, Y) joint."""

    @pytest.mark.parametrize("probs", [[0.5, 0.3, 0.2], [0.6, 0.0, 0.4],
                                       [1 / 3, 1 / 3, 1 / 3]])
    @pytest.mark.parametrize("scheme", SHIPPED_SPLITTERS,
                             ids=lambda scheme: scheme.name)
    def test_laws_match_the_dense_joint(self, scheme, probs):
        source = PMF.from_probs(probs)
        dense = splitter_profile(scheme, source)
        report = validate_base(scheme, source)
        assert report.failures == dense.failures
        codec = make_codec(scheme, source, n=4, gamma=0.5,
                           require_valid=False)
        got = (codec.h_s, codec.h_s_given_x, codec.h_s_given_y,
               codec.h_s_given_xy, codec.i_xy, codec.i_sx, codec.i_sy)
        want = (dense.h_s, dense.h_s_given_x, dense.h_s_given_y,
                dense.h_s_given_xy, dense.i_xy, dense.i_sx, dense.i_sy)
        assert got == pytest.approx(want, rel=0.0, abs=1e-12)
        joint, laws = scheme_joint(scheme, source), share_laws(codec)
        for law, axes in ((laws.p_xy, (2, 3)), (laws.p_x, (2,)),
                          (laws.p_y, (3,))):
            np.testing.assert_allclose(law, joint.marginal(*axes).probs,
                                       rtol=0.0, atol=1e-15)
        if dense.failures:
            with pytest.raises(SchemeValidationError):
                make_codec(scheme, source, n=4, gamma=0.5)


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
    """The per-cell scores `codec.scores`: a cell outside the splitter's
    image is absent, so it scores -inf."""

    def test_valid_pair_scores_the_correlation_level(self):
        # dyadic probabilities make this exact, not just approximate
        codec = make_codec(modular_scheme(4, 2), U2, n=3, gamma=0.5)
        xs, ys = encode_n(codec, (0, 1, 0), (3, 2, 1))
        assert [codec.scores[cell] for cell in zip(xs, ys)] == [1.0] * 3

    def test_impossible_pair_scores_minus_infinity(self):
        codec = make_codec(modular_scheme(4, 2), U2, n=2, gamma=0.5)
        # (1, 1) recombines to 2, outside the secret alphabet
        assert (1, 1) not in codec.scores
        assert not accepts_n(codec, (1, 0), (1, 0))

    def test_score_depends_only_on_recombined_secret(self):
        codec = make_codec(modular_scheme(3, 2), SKEW, n=1, gamma=0.5)
        scores = {}
        for x in range(3):
            for y in range(3):
                s = (x + y) % 3
                val = codec.scores.get((x, y), -math.inf)
                scores.setdefault(s, val)
                assert val == scores[s]

    def test_legit_distribution_masses(self):
        codec = make_codec(modular_scheme(3, 2), SKEW, n=4, gamma=0.5)
        dist = dict(zip(codec.laws.values, codec.laws.legit))
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
        assert {tied.scores[cell] for cell in zip(xs, ys)} == {tied.threshold}
        assert not accepts_n(tied, xs, ys)
        assert accepts_n(codec, xs, ys)

    def test_zero_correlation_scheme_accepts_legit(self):
        # M == |S| gives threshold -gamma < 0 == every legit score
        codec = make_codec(modular_scheme(2, 2), U2, n=5, gamma=0.25)
        xs, ys = encode_n(codec, (0, 1, 1, 0, 1), (1, 1, 0, 0, 1))
        assert {codec.scores[cell] for cell in zip(xs, ys)} == {0.0}
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


def edge_gamma() -> float:
    """The gamma that puts the threshold of [0.7, 0.3], M=4, n=4 on the
    largest float below the exact mean score of secret composition (2, 2),
    one unit in the last place under it: a left-to-right float mean lands
    on either side of it depending on position order."""
    codec = make_codec(modular_scheme(4, 2), SKEW, n=4, gamma=0.5)
    xs, ys = encode_n(codec, (0, 0, 1, 1), (0, 1, 2, 3))
    mean = sum(Fraction(codec.scores[x, y]) for x, y in zip(xs, ys)) / 4
    below = float(mean)
    if below >= mean:
        below = math.nextafter(below, -math.inf)
    assert Fraction(below) < mean <= Fraction(math.nextafter(below, math.inf))
    return gamma_for_threshold(codec.i_xy, below)


EDGE_GAMMA = edge_gamma()


class TestLatticeDecisions:
    @pytest.mark.parametrize("secret",
                             sorted(set(itertools.permutations((0, 0, 1, 1)))),
                             ids=lambda s: "".join(map(str, s)))
    def test_window_edge_verdict_is_order_free(self, secret):
        codec = make_codec(modular_scheme(4, 2), SKEW, n=4, gamma=EDGE_GAMMA)
        xs, ys = encode_n(codec, secret, (0, 1, 2, 3))
        total = sum(Fraction(codec.scores[x, y]) for x, y in zip(xs, ys))
        assert total > 4 * Fraction(codec.threshold)   # exact: accepted
        assert accepts_n(codec, xs, ys)
        assert decode_n(codec, xs, ys).secret == secret

    @pytest.mark.parametrize("n", [2, 4])
    def test_decode_matches_the_lattice_on_every_share_pair(self, n):
        codec = make_codec(modular_scheme(4, 2), SKEW, n=n, gamma=EDGE_GAMMA)
        lat = codec.lattice
        table = share_laws(codec).score_table.tolist()
        accepted = 0
        for xs in itertools.product(range(4), repeat=n):
            for ys in itertools.product(range(4), repeat=n):
                scores = [table[x][y] for x, y in zip(xs, ys)]
                expect = (-math.inf not in scores and accepts(
                    lat, [scores.count(v) for v in lat.values]))
                assert decode_n(codec, xs, ys).rejected is not expect
                accepted += expect
        assert 0 < accepted < 16 ** n

    @pytest.mark.parametrize("xs,ys,bad", [((-1, 0, 0), (1, 0, 0), -1),
                                           ((4, 0, 0), (0, 0, 0), 4),
                                           ((0, 0, 0), (0, 7, 0), 7)])
    def test_share_symbol_outside_the_alphabet_raises(self, xs, ys, bad):
        # (-1, ...) used to decode to (0, 0, 0); 4 raised a bare IndexError
        codec = make_codec(modular_scheme(4, 2), U2, n=3, gamma=0.5)
        for check in (decode_n, accepts_n):
            with pytest.raises(ValueError,
                               match=rf"^share symbol {bad} outside \[0, 4\)$"):
                check(codec, xs, ys)

    @pytest.mark.parametrize("xs,ys,bad", [
        ((1 << 70, 0, 0), (0, 0, 0), 1 << 70),
        ((0, 0, 0), (0, -(1 << 64), 1 << 80), -(1 << 64)),
        ((0, 1 << 63, 0), (5, 0, 0), 1 << 63)])
    def test_share_symbol_past_int64_is_outside_the_alphabet(self, xs, ys, bad):
        # checked before the int64 array is built: no OverflowError
        codec = make_codec(modular_scheme(4, 2), U2, n=3, gamma=0.5)
        for check in (decode_n, accepts_n):
            with pytest.raises(ValueError,
                               match=rf"^share symbol {bad} outside \[0, 4\)$"):
                check(codec, xs, ys)

    def test_tie_rebuilds_the_lattice(self):
        codec = make_codec(modular_scheme(4, 2), U2, n=3, gamma=0.5)
        tied = dataclasses.replace(codec, gamma=0.0)
        assert tied.lattice == score_lattice(tied) != codec.lattice


K3 = PMF.from_probs([0.5, 0.3, 0.2])


def hole_scheme():
    return BaseScheme(name="hole", secret_size=2, share_size=2, rand_size=2,
                      encode_fn=lambda s, u: fstar(2, s, u),
                      decode_fn=lambda x, y: None)


def leak_y_scheme():
    return BaseScheme(name="leak-y", secret_size=2, share_size=4,
                      rand_size=4, encode_fn=lambda s, u: (u, s),
                      decode_fn=lambda x, y: y if y < 2 else None)


def lopsided_scheme():
    return BaseScheme(name="lopsided", secret_size=3, share_size=4,
                      rand_size=4, encode_fn=lambda s, u: ((s + u) % 4, u // 2),
                      decode_fn=lambda x, y: None)


TABLE_CASES = [
    (modular_scheme(2, 2), U2), (modular_scheme(3, 2), SKEW),
    (modular_scheme(4, 2), SKEW), (modular_scheme(4, 3), K3),
    (modular_scheme(5, 3), K3), (identity_leak_scheme(4, 2), SKEW),
    (nondecodable_scheme(4, 2), SKEW), (undersized_scheme(2, 3), K3),
    (hole_scheme(), U2), (leak_y_scheme(), U2), (lopsided_scheme(), K3),
]


def expected_decode(codec, table, xs, ys):
    """decode_n position by position, on the dense score `table`: None for
    a rejection, RuntimeError for a hole on an accepted pair, else the
    decoder's symbols."""
    scores = [table[x][y] for x, y in zip(xs, ys)]
    lat = codec.lattice
    if -math.inf in scores or not accepts(
            lat, [scores.count(v) for v in lat.values]):
        return None
    out = [codec.scheme.decode_fn(x, y) for x, y in zip(xs, ys)]
    return RuntimeError if None in out else tuple(out)


class TestSplitterTables:
    @pytest.mark.parametrize("scheme,source", TABLE_CASES,
                             ids=[s.name for s, _ in TABLE_CASES])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_codec_matches_the_splitter_position_by_position(
            self, scheme, source, n):
        codec = make_codec(scheme, source, n=n, gamma=0.3,
                           require_valid=False)
        k, r, m = scheme.secret_size, scheme.rand_size, scheme.share_size
        table = share_laws(codec).score_table.tolist()
        for secret in itertools.product(range(k), repeat=n):
            for rand in itertools.product(range(r), repeat=n):
                pairs = [scheme.encode_fn(s, u) for s, u in zip(secret, rand)]
                assert encode_n(codec, secret, rand) == tuple(zip(*pairs))
        for xs in itertools.product(range(m), repeat=n):
            for ys in itertools.product(range(m), repeat=n):
                expect = expected_decode(codec, table, xs, ys)
                if expect is RuntimeError:
                    with pytest.raises(RuntimeError, match="^decoder "
                                       "undefined on an accepted share pair$"):
                        decode_n(codec, xs, ys)
                    continue
                out = decode_n(codec, xs, ys)
                assert out.secret == expect
                assert all(type(s) is int for s in out.secret or ())

    def test_shares_are_python_ints(self):
        codec = make_codec(modular_scheme(5, 3), K3, n=4, gamma=0.3)
        xs, ys = encode_n(codec, np.array([2, 0, 1, 0]), [4, 4, 0, 1])
        assert (xs, ys) == ((3, 1, 1, 4), (4, 4, 0, 1))
        assert all(type(v) is int for v in xs + ys)

    @pytest.mark.parametrize("shift", [-1, 1 << 70, 254, 255])
    def test_decoder_values_are_never_read_as_holes(self, shift):
        # -1 is what a hole marker stored in the table would be, and 2**70
        # does not fit an int64 cell; both are returned as decoded.  The
        # decoder returns shift and shift + 1: the byte kernel packs them
        # only when both fit a byte, and -1, 256 and 2**70 take the dicts
        scheme = BaseScheme(
            name="shifted", secret_size=2, share_size=4, rand_size=4,
            encode_fn=lambda s, u: fstar(4, s, u),
            decode_fn=lambda x, y: None if (x + y) % 4 >= 2 else
            (x + y) % 4 + shift)
        codec = make_codec(scheme, U2, n=3, gamma=0.5, require_valid=False)
        assert bool(codec._bytes) is (0 <= shift < 255)
        xs, ys = encode_n(codec, (0, 1, 0), (3, 2, 1))
        assert decode_n(codec, xs, ys).secret == (shift, shift + 1, shift)
        assert decode_n(codec, xs, (1,) + ys[1:]).rejected   # a -inf cell

    def test_raising_encoder_cell_raises_only_when_hit(self):
        # symbol 2 has zero probability, so building the codec never
        # encodes it
        def encode_fn(s, u):
            if s == 2:
                raise KeyError("no share for 2")
            return fstar(3, s, u)
        scheme = BaseScheme(name="partial", secret_size=3, share_size=3,
                            rand_size=3, encode_fn=encode_fn,
                            decode_fn=lambda x, y: gstar(3, 3, x, y))
        source = PMF.from_probs([0.5, 0.5, 0.0])
        codec = make_codec(scheme, source, n=2, gamma=0.5,
                           require_valid=False)
        assert encode_n(codec, (1, 0), (2, 2)) == ((2, 1), (2, 2))
        with pytest.raises(KeyError, match="no share for 2"):
            encode_n(codec, (0, 2), (0, 0))
        # positions are taken in order: the raising cell comes first
        with pytest.raises(KeyError, match="no share for 2"):
            encode_n(codec, (2, 7), (0, 0))
        with pytest.raises(ValueError,
                           match="^secret symbol 7 outside the alphabet$"):
            encode_n(codec, (7, 2), (0, 0))

    def test_raising_decoder_cell_raises_only_when_hit(self):
        def decode_fn(x, y):
            if (x, y) == (0, 0):
                raise LookupError("cell (0, 0)")
            return gstar(4, 2, x, y)
        scheme = BaseScheme(name="partial", secret_size=2, share_size=4,
                            rand_size=4,
                            encode_fn=lambda s, u: fstar(4, s, u),
                            decode_fn=decode_fn)
        codec = make_codec(scheme, U2, n=2, gamma=0.5, require_valid=False)
        assert decode_n(codec, (1, 2), (0, 3)).secret == (1, 1)
        with pytest.raises(LookupError, match=r"cell \(0, 0\)"):
            decode_n(codec, (1, 0), (0, 0))
        # a rejected pair is never decoded
        assert decode_n(codec, (0, 0), (0, 2)).rejected

    @pytest.mark.parametrize("secret,rand,message", [
        ((1, 0), (2,), "secret and randomness must have length 2"),
        ((1, 0, 1), (2, 1, 0), "secret and randomness must have length 2"),
        ((1, 2), (2, 1), "secret symbol 2 outside the alphabet"),
        ((-1, 0), (2, 1), "secret symbol -1 outside the alphabet"),
        ((1 << 70, 0), (2, 1), f"secret symbol {1 << 70} outside the alphabet"),
        ((1, 0), (2, 3), "randomness symbol 3 outside the alphabet"),
        ((0, 5), (-2, 0), "randomness symbol -2 outside the alphabet"),
        ((5, 0), (-2, 0), "secret symbol 5 outside the alphabet"),
    ])
    def test_encode_errors_keep_their_messages(self, secret, rand, message):
        codec = make_codec(modular_scheme(3, 2), SKEW, n=2, gamma=0.5)
        with pytest.raises(ValueError, match=f"^{message}$"):
            encode_n(codec, secret, rand)

    @pytest.mark.parametrize("xs,ys", [((0, 1), (0, 1)), ((0, 1, 2), (1,)),
                                       ((0, 1, 2, 3), (0, 1, 2, 3))])
    def test_share_length_errors_keep_their_message(self, xs, ys):
        codec = make_codec(modular_scheme(4, 2), U2, n=3, gamma=0.5)
        for check in (decode_n, accepts_n):
            with pytest.raises(ValueError, match="^shares must have length 3$"):
                check(codec, xs, ys)

    def test_tables_are_built_on_first_codec_call_only(self, monkeypatch):
        calls = {"encode": 0, "decode": 0}
        modular = modular_scheme

        def counting(m, k):
            base = modular(m, k)

            def encode_fn(s, u):
                calls["encode"] += 1
                return base.encode_fn(s, u)

            def decode_fn(x, y):
                calls["decode"] += 1
                return base.decode_fn(x, y)
            return dataclasses.replace(base, encode_fn=encode_fn,
                                       decode_fn=decode_fn)

        monkeypatch.setattr(symbol, "modular_scheme", counting)
        # one pass of S x U through the splitter, and the decoder check on
        # the shares it tabulated; the tables add none
        built = {"encode": 3 * 5, "decode": 3 * 5}
        for mode in ("exact", "mc"):
            cfg = harness.ExperimentConfig.from_dict(
                {"source": [0.5, 0.3, 0.2],
                 "scheme": {"kind": "symbolwise", "m": 5},
                 "n_values": [6], "mode": mode, "trials": 1000})
            harness.run_experiment(cfg)
            assert calls == built
            calls.update(encode=0, decode=0)
        codec = make_codec(symbol.modular_scheme(5, 3), K3, n=6, gamma=0.5)
        assert calls == built and "tables" not in vars(codec)
        xs, ys = encode_n(codec, (0, 1, 2, 0, 1, 2), (4, 3, 2, 1, 0, 0))
        # first call: S x U once, and the decoder on the 15 finite cells
        assert calls == {"encode": 30, "decode": 30}
        assert decode_n(codec, xs, ys).secret == (0, 1, 2, 0, 1, 2)
        assert calls == {"encode": 30, "decode": 30}
        tied = dataclasses.replace(codec, gamma=0.25)
        assert "tables" not in vars(tied)


WRAPS = {"tuple": tuple, "list": list, "ndarray": np.array,
         "generator": iter, "floats": lambda v: [float(s) for s in v],
         "numpy floats": lambda v: np.array(v, dtype=float)}


class TestDictCodec:
    @pytest.mark.parametrize("secret,rand,message", [
        ((1.5, 0, 2.9, 1), (0, 1, 2, 3), "secret symbol 1.5 is not an integer"),
        ((1, 0, 2, 1), (0, 0.5, 2, 3), "randomness symbol 0.5 is not an integer"),
        ((1, 2.5, 7, 1), (0, 1, 2, 3), "secret symbol 2.5 is not an integer"),
        ((1, 0, 7, 1.5), (0, 1, 2, 3), "secret symbol 7 outside the alphabet"),
        ((1, 0, 2, 1), (0, 1, np.float64(2.25), 9),
         "randomness symbol 2.25 is not an integer"),
        # '0' used to read "secret symbol 0"; 'a' and None raised int()'s
        # own errors, which do not name the field
        ("0120", (0, 1, 2, 3), "secret symbol '0' is not an integer"),
        ((1, "a", 2, 1), (0, 1, 2, 3), "secret symbol 'a' is not an integer"),
        ((1, 0, b"2", 1), (0, 1, 2, 3), "secret symbol b'2' is not an integer"),
        ((1, 0, 2, 1), (0, None, 2, 3), "randomness symbol None is not an integer"),
        ((1, 0, float("inf"), 1), (0, 1, 2, 3),
         "secret symbol inf is not an integer"),
        # an unhashable symbol misses every lookup, and is named in order
        ((1, [1], 2, 1), (0, 1, 2, 3), "secret symbol [1] is not an integer"),
        ((1, 0, 2, 1), (0, {1}, 2, 3), "randomness symbol {1} is not an integer"),
        ((1, 0, 2.5, 1), ([0], 1, 2, 3), "randomness symbol [0] is not an integer"),
        ((1, 0, 2.5, {1}), (0, 1, 2, 3), "secret symbol 2.5 is not an integer"),
    ])
    def test_non_integral_symbol_raises_in_position_order(self, secret, rand,
                                                          message):
        # (1.5, 0, 2.9, 1) used to be encoded as (1, 0, 2, 1)
        codec = make_codec(modular_scheme(5, 3), K3, n=4, gamma=0.3)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            encode_n(codec, secret, rand)

    @pytest.mark.parametrize("check", [decode_n, accepts_n])
    def test_non_integral_share_symbol_raises(self, check):
        codec = make_codec(modular_scheme(5, 3), K3, n=4, gamma=0.3)
        xs, ys = encode_n(codec, (1, 0, 2, 1), (0, 1, 2, 3))
        assert accepts_n(codec, xs, ys)
        # 1.7 used to be truncated to 1 and the pair decoded
        bad = (xs[0] + 0.7,) + xs[1:]
        with pytest.raises(ValueError,
                           match="^share symbol 1.7 is not an integer$"):
            check(codec, bad, ys)
        # xs are checked before ys, whatever the positions, and before a
        # -inf cell rejects the pair
        with pytest.raises(ValueError,
                           match="^share symbol 0.5 is not an integer$"):
            check(codec, xs[:3] + (0.5,), (7,) + ys[1:])
        with pytest.raises(ValueError, match=r"^share symbol 7 outside \[0, 5\)$"):
            check(codec, (4,) + xs[1:], ys[:3] + (7,))

    @pytest.mark.parametrize("check", [decode_n, accepts_n])
    @pytest.mark.parametrize("bad", [[1], {1}], ids=["list", "set"])
    def test_unhashable_share_symbol_raises(self, check, bad):
        # used to escape as a bare TypeError: unhashable type
        codec = make_codec(modular_scheme(5, 3), K3, n=4, gamma=0.3)
        xs, ys = encode_n(codec, (1, 0, 2, 1), (0, 1, 2, 3))
        named = f"^{re.escape(f'share symbol {bad} is not an integer')}$"
        for shares in ((xs[:2] + (bad,) + xs[3:], ys), (xs, ys[:3] + (bad,))):
            with pytest.raises(ValueError, match=named):
                check(codec, *shares)
        # xs before ys, and before a -inf cell rejects the pair
        with pytest.raises(ValueError,
                           match="^share symbol 0.5 is not an integer$"):
            check(codec, xs[:3] + (0.5,), (bad,) + ys[1:])
        with pytest.raises(ValueError, match=named):
            check(codec, xs, ((4 - xs[0]) % 5,) + ys[1:3] + (bad,))

    @pytest.mark.parametrize("wrap", WRAPS.values(), ids=WRAPS.keys())
    def test_any_sequence_of_integers_round_trips(self, wrap):
        codec = make_codec(modular_scheme(5, 3), K3, n=6, gamma=0.5)
        secret, rand = (0, 1, 2, 0, 1, 0), (4, 3, 2, 1, 0, 0)
        xs, ys = encode_n(codec, secret, rand)
        assert encode_n(codec, wrap(secret), wrap(rand)) == (xs, ys)
        assert all(type(v) is int for v in xs + ys)
        out = decode_n(codec, wrap(xs), wrap(ys))
        assert out.secret == secret
        assert all(type(v) is int for v in out.secret)
        assert accepts_n(codec, wrap(xs), wrap(ys))
        forged = ys[:2] + ((4 - xs[2]) % 5,) + ys[3:]   # a -inf cell
        assert decode_n(codec, wrap(xs), wrap(forged)).rejected
        assert not accepts_n(codec, wrap(xs), wrap(forged))

    def test_tie_is_rejected_by_every_call(self):
        # every legit pair of a uniform source scores exactly I(X;Y): at
        # gamma = 0 its weights sum to the lattice's bar, a tie
        codec = make_codec(modular_scheme(4, 2), U2, n=3, gamma=0.5)
        tied = dataclasses.replace(codec, gamma=0.0)
        xs, ys = encode_n(codec, (0, 1, 1), (2, 0, 3))
        assert not accepts_n(tied, xs, ys)
        assert decode_n(tied, xs, ys).rejected
        assert decode_n(tied, iter(xs), iter(ys)).rejected   # table path
        assert decode_n(codec, xs, ys).secret == (0, 1, 1)
        # a tied pair is never decoded, so a decoder hole does not raise
        holes = make_codec(hole_scheme(), U2, n=3, gamma=0.5,
                           require_valid=False)
        xs, ys = encode_n(holes, (0, 1, 1), (1, 0, 1))
        with pytest.raises(RuntimeError):
            decode_n(holes, xs, ys)
        assert decode_n(dataclasses.replace(holes, gamma=0.0), xs, ys).rejected

    def test_bools_are_symbols(self):
        codec = make_codec(modular_scheme(2, 2), U2, n=3, gamma=0.25)
        secret, rand = (True, False, True), (False, True, True)
        xs, ys = encode_n(codec, secret, rand)
        assert (xs, ys) == encode_n(codec, (1, 0, 1), (0, 1, 1))
        assert decode_n(codec, [bool(v) for v in xs],
                        [bool(v) for v in ys]).secret == (1, 0, 1)

    def test_wide_share_alphabet_tables_hold_k_u_entries_at_most(self):
        # the scheme of configs/symbolwise_wide_m.json: k=2, M=1024
        n = 64
        codec = make_codec(modular_scheme(1024, 2), SKEW, n=n,
                           gamma=GammaSchedule.power_law().gamma_at(n))
        rng = np.random.default_rng(5)
        secret = (0,) * 45 + (1,) * 19
        rand = rng.integers(1024, size=n)
        xs, ys = encode_n(codec, secret, rand)
        assert decode_n(codec, xs, ys).secret == secret
        forged = ys[:5] + ((2 - xs[5]) % 1024,) + ys[6:]
        assert decode_n(codec, xs, forged).rejected
        assert len(codec.tables.shares) == 2 * 1024
        assert len(codec.tables.cells) == 2 * 1024

    def test_codec_calls_run_without_numpy(self, monkeypatch):
        # honest and forged pairs alike: lookups only, no array round trip
        codec = make_codec(modular_scheme(5, 3), K3, n=6, gamma=0.5)
        assert codec.tables
        monkeypatch.setattr(symbol, "np", None)
        secret = (0, 1, 2, 0, 1, 0)
        xs, ys = encode_n(codec, secret, (4, 3, 2, 1, 0, 0))
        assert decode_n(codec, xs, ys).secret == secret
        forged = list(ys)
        forged[1] = (3 - xs[1]) % 5
        assert decode_n(codec, xs, forged).rejected
        assert not accepts_n(codec, xs, forged)


SHIPPED_SYMBOLWISE = sorted(
    (Path(__file__).resolve().parents[1] / "configs").glob("symbolwise_*.json"))
# every shipped symbolwise scheme but M=1024 fits the byte kernel
PACKED = [p for p in SHIPPED_SYMBOLWISE if p.stem != "symbolwise_wide_m"]


def shipped_codec(path):
    """The codec of a shipped config at its first blocklength."""
    cfg = harness.ExperimentConfig.from_dict(json.loads(path.read_text()))
    return harness.make_scheme(cfg, cfg.n_values[0])


def calls_match_the_oracle(codec, table, secret, rand, i):
    """encode_n, then decode_n and accepts_n on the honest pair, on one with
    a -inf cell at position i (another cell where the row has none) and
    on pairs with a share symbol outside [0, M) at i, each on every input
    type in WRAPS, against the splitter and `expected_decode`; encode_n on
    a secret symbol outside the alphabet at i."""
    scheme, m = codec.scheme, codec.scheme.share_size
    pairs = [scheme.encode_fn(s, u) for s, u in zip(secret, rand)]
    xs, ys = tuple(zip(*pairs))
    forged = list(ys)
    forged[i] = next((b for b in range(m) if table[xs[i]][b] == -math.inf),
                     (ys[i] + 1) % m)
    for wrap in WRAPS.values():
        assert encode_n(codec, wrap(secret), wrap(rand)) == (xs, ys)
        for shares in ((xs, ys), (xs, tuple(forged))):
            expect = expected_decode(codec, table, *shares)
            assert decode_n(codec, *map(wrap, shares)).secret == expect
            assert accepts_n(codec, *map(wrap, shares)) is (expect is not None)
        for bad in (m, -1, max(256, m + 1)):   # 256: past a byte
            for side in (0, 1):
                shares = [list(xs), list(forged)]
                shares[side][i] = bad
                for check in (decode_n, accepts_n):
                    with pytest.raises(ValueError, match=rf"^share symbol "
                                       rf"{bad} outside \[0, {m}\)$"):
                        check(codec, *map(wrap, shares))
        wrong = list(secret)
        wrong[i] = scheme.secret_size
        with pytest.raises(ValueError, match=f"^secret symbol "
                           f"{scheme.secret_size} outside the alphabet$"):
            encode_n(codec, wrap(wrong), wrap(rand))


class TestByteKernel:
    def test_the_kernel_runs_on_every_shipped_codec_but_the_widest(self):
        packed = [p for p in SHIPPED_SYMBOLWISE if shipped_codec(p)._bytes]
        assert packed == PACKED and len(PACKED) == len(SHIPPED_SYMBOLWISE) - 1

    @pytest.mark.parametrize("path", PACKED, ids=[p.stem for p in PACKED])
    def test_kernel_matches_the_position_oracle(self, path):
        codec = shipped_codec(path)
        assert codec._bytes
        k, r, n = codec.scheme.secret_size, codec.scheme.rand_size, codec.n
        table = share_laws(codec).score_table.tolist()
        rng = np.random.default_rng(11)
        for _ in range(8):
            secret = tuple(rng.choice(k, size=n, p=codec.source.probs).tolist())
            rand = tuple(rng.integers(r, size=n).tolist())
            calls_match_the_oracle(codec, table, secret, rand,
                                   int(rng.integers(n)))

    def test_raw_buffers_are_never_packed(self):
        # bytes() of an array reads its buffer: 6 bytes of float16 are 3
        # elements, and an array('H') holds 2 bytes per element
        codec = make_codec(modular_scheme(5, 3), K3, n=6, gamma=0.5)
        assert codec._bytes
        half = np.zeros(3, dtype=np.float16)
        assert half.nbytes == codec.n
        with pytest.raises(ValueError, match="^secret and randomness must "
                           "have length 6$"):
            encode_n(codec, half, half)
        for check in (decode_n, accepts_n):
            with pytest.raises(ValueError, match="^shares must have length 6$"):
                check(codec, half, half)
        wide = lambda v: array.array("H", v)   # noqa: E731
        secret, rand = (0, 1, 2, 0, 1, 0), (4, 3, 2, 1, 0, 0)
        xs, ys = encode_n(codec, secret, rand)
        assert encode_n(codec, wide(secret), wide(rand)) == (xs, ys)
        assert decode_n(codec, wide(xs), wide(ys)).secret == secret
        assert accepts_n(codec, wide(xs), wide(ys))
        forged = ys[:2] + ((4 - xs[2]) % 5,) + ys[3:]   # a -inf cell
        assert decode_n(codec, wide(xs), wide(forged)).rejected
        with pytest.raises(ValueError, match=r"^share symbol 7 outside \[0, 5\)$"):
            decode_n(codec, wide(xs[:5] + (7,)), wide(ys))

    @pytest.mark.parametrize("k,packed", [(256, True), (257, False)])
    def test_encode_cells_fit_a_byte_up_to_k_u_256(self, k, packed):
        # |U| = 1: the secret's two hex digits are the shares, M = 16; at
        # k = 257 symbol 256 shares the cell of symbol 0
        scheme = BaseScheme(name=f"digits-{k}", secret_size=k, share_size=16,
                            rand_size=1,
                            encode_fn=lambda s, u: (s % 16, s // 16 % 16),
                            decode_fn=lambda x, y: x + 16 * y)
        codec = make_codec(scheme, PMF.uniform(k), n=4, gamma=0.5,
                           require_valid=False)
        assert bool(codec._bytes) is packed
        table = share_laws(codec).score_table.tolist()
        for secret in [(0, 255, 17, k - 1), (k - 1, 16, 15, 0)]:
            for i in range(4):
                calls_match_the_oracle(codec, table, secret, (0,) * 4, i)

    @pytest.mark.parametrize("m,packed", [(16, True), (17, False)])
    def test_decode_cells_fit_a_byte_up_to_m_16(self, m, packed):
        codec = make_codec(modular_scheme(m, 2), SKEW, n=8, gamma=0.3)
        assert bool(codec._bytes) is packed
        table = share_laws(codec).score_table.tolist()
        rng = np.random.default_rng(3)
        for i in range(8):
            secret = tuple(rng.choice(2, size=8, p=SKEW.probs).tolist())
            rand = tuple(rng.integers(m, size=8).tolist())
            calls_match_the_oracle(codec, table, secret, rand, i)

    def test_shares_outside_the_alphabet_alias_no_image_cell(self):
        # symbol 2 has probability 0, so its shares (0, 4 + u) are in no
        # image cell; read as x M + y, (0, 4) would be image cell (1, 0)
        scheme = BaseScheme(
            name="stray", secret_size=3, share_size=4, rand_size=4,
            encode_fn=lambda s, u: (0, 4 + u) if s == 2 else fstar(4, s, u),
            decode_fn=lambda x, y: gstar(4, 2, x, y))
        codec = make_codec(scheme, PMF.from_probs([0.5, 0.5, 0.0]), n=3,
                           gamma=0.5, require_valid=False)
        assert codec._bytes
        assert encode_n(codec, (2, 1, 0), (0, 0, 1)) == ((0, 1, 3), (4, 0, 1))
        for check in (decode_n, accepts_n):
            with pytest.raises(ValueError, match=r"^share symbol 4 outside \[0, 4\)$"):
                check(codec, (0, 1, 3), (4, 0, 1))
        assert decode_n(codec, (1, 1, 3), (0, 0, 1)).secret == (1, 1, 0)
        table = share_laws(codec).score_table.tolist()
        for i in range(3):
            calls_match_the_oracle(codec, table, (1, 1, 0), (0, 0, 1), i)


class TestTablePath:
    """The codecs the byte kernel does not pack: one pass of lookups in
    `codec.tables`, then checks of the positions it missed."""

    CODECS = {
        "symbolwise_wide_m": lambda: shipped_codec(
            next(p for p in SHIPPED_SYMBOLWISE if p not in PACKED)),
        "modular-17": lambda: make_codec(modular_scheme(17, 2), SKEW, n=16,
                                         gamma=0.3)}

    def test_calls_match_the_oracle_at_m_1024(self):
        # M=17 runs the oracle in test_decode_cells_fit_a_byte_up_to_m_16
        codec = self.CODECS["symbolwise_wide_m"]()
        assert codec._bytes is None
        r, n = codec.scheme.rand_size, codec.n
        # an M x M ndarray, not its list: 10^6 floats at M=1024
        table = share_laws(codec).score_table
        rng = np.random.default_rng(13)
        for _ in range(3):
            secret = tuple(rng.choice(2, size=n, p=codec.source.probs).tolist())
            rand = tuple(rng.integers(r, size=n).tolist())
            calls_match_the_oracle(codec, table, secret, rand,
                                   int(rng.integers(n)))

    @pytest.mark.parametrize("make", CODECS.values(), ids=CODECS.keys())
    @pytest.mark.parametrize("bad", [[1], {1}], ids=["list", "set"])
    def test_unhashable_symbols_are_named(self, make, bad):
        codec = make()
        secret, rand = (0,) * codec.n, (1,) * codec.n
        xs, ys = encode_n(codec, secret, rand)
        for wrap in (tuple, list):
            with pytest.raises(ValueError, match=re.escape(
                    f"randomness symbol {bad} is not an integer")):
                encode_n(codec, wrap(secret), wrap(rand[:-1] + (bad,)))
            for check in (decode_n, accepts_n):
                with pytest.raises(ValueError, match=re.escape(
                        f"share symbol {bad} is not an integer")):
                    check(codec, wrap(xs), wrap((bad,) + ys[1:]))


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
        p_e = rejection_probability(codec)
        assert p_e == pytest.approx(brute_error_prob(codec), abs=1e-12)
        assert 0.0 < p_e < 0.05

    def test_error_prob_matches_enumeration_uniform_mismatch(self):
        codec = make_codec(modular_scheme(4, 3), U3, n=5, gamma=0.3)
        assert rejection_probability(codec) == pytest.approx(
            brute_error_prob(codec), abs=1e-12)

    def test_uniform_matched_source_never_errs(self):
        codec = make_codec(modular_scheme(4, 2), U2, n=6, gamma=0.2)
        assert rejection_probability(codec) == 0.0

    def test_secrecy_and_correlation_fields(self):
        codec = make_codec(modular_scheme(4, 2), U2, n=4, gamma=0.5)
        assert codec.i_xy == pytest.approx(1.0, abs=1e-9)
        assert codec.i_sx == pytest.approx(0.0, abs=1e-9)
        assert codec.i_sy == pytest.approx(0.0, abs=1e-9)
        assert codec.h_s_given_x == pytest.approx(1.0, abs=1e-12)
        assert codec.h_s_given_y == pytest.approx(1.0, abs=1e-12)
        assert codec.h_s_given_xy == pytest.approx(0.0, abs=1e-12)

    def test_skewed_fields(self):
        codec = make_codec(modular_scheme(3, 2), SKEW, n=6, gamma=0.5)
        assert codec.i_xy == pytest.approx(math.log2(3) - H_73, abs=1e-9)
        assert codec.h_s_given_x == pytest.approx(H_73, abs=1e-9)

    def test_error_prob_shrinks_as_margin_grows(self):
        vals = []
        for gamma in (0.25, 0.5, 1.0):
            codec = make_codec(modular_scheme(3, 2), SKEW, n=8, gamma=gamma)
            vals.append(rejection_probability(codec))
        assert vals[0] >= vals[1] >= vals[2]
        assert vals[0] > vals[2]

    def test_block_information_is_additive(self):
        # product structure over positions: I(X^n;Y^n) = n * I(X;Y)
        codec = make_codec(modular_scheme(3, 2), SKEW, n=3, gamma=0.5)
        table = share_laws(codec).p_xy
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
    """An estimate of p_e is `_estimate` of `rejection_probability`, the
    exact mass the record holds."""

    def test_within_confidence_of_exact(self):
        codec = make_codec(modular_scheme(3, 2), SKEW, n=8,
                           gamma=8.0 ** (-1.0 / 3.0))
        exact = rejection_probability(codec)
        est, half = _estimate(100000, RandomStream(11), exact)
        assert abs(est - exact) <= half + 1e-12
        assert half > 0.0

    def test_deterministic_for_fixed_seed(self):
        codec = make_codec(modular_scheme(3, 2), SKEW, n=6, gamma=0.5)
        a = _estimate(40000, RandomStream(5), rejection_probability(codec))
        b = _estimate(40000, RandomStream(5), rejection_probability(codec))
        assert a == b

    def test_zero_hits_reports_rule_of_three(self):
        codec = make_codec(modular_scheme(4, 2), U2, n=4, gamma=0.5)
        est, half = _estimate(1000, RandomStream(2),
                              rejection_probability(codec))
        assert est == 0.0
        assert half == pytest.approx(3.0 / 1000)

    def test_rejects_zero_trials(self):
        codec = make_codec(modular_scheme(4, 2), U2, n=4, gamma=0.5)
        with pytest.raises(ValueError):
            _estimate(0, RandomStream(1), rejection_probability(codec))
