"""Probability core: exact quantities against high-precision and
exact-rational oracles, plus distributional invariants."""
import json
import math
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (JointPMF, RationalJoint, conditional_entropy,
                     entropy_mp, induce_joint, iid_extension,
                     mutual_information, pushforward, sample)
from twoshare import block, harness, prob, symbol, typical
from twoshare.prob import (
    MAX_TRIALS, PMF, RandomStream, CapExceededError, _estimate, entropy,
    binary_entropy,
)

def shipped_config(name):
    path = Path(__file__).parent.parent / "configs" / f"{name}.json"
    return harness.ExperimentConfig.from_dict(json.loads(path.read_text()))


def on_fresh_thread(fn):
    """fn() run on a new thread, which has built no generator yet."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(fn).result()


# 20-digit reference, computed once with mpmath at 50 digits
H_73 = 0.88129089923069261822


def mp_entropy(probs, prec=120):
    """Independent high-precision entropy: mpmath only, no package code."""
    with mpmath.workprec(prec):
        total = mpmath.mpf(0)
        for p in probs:
            if p > 0:
                total -= mpmath.mpf(p) * mpmath.log(mpmath.mpf(p), 2)
        return float(total)


class TestPMF:
    def test_from_probs_validates_total(self):
        with pytest.raises(ValueError):
            PMF.from_probs([0.5, 0.4])

    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError):
            PMF.from_probs([1.2, -0.2])

    def test_uniform_and_point_mass(self):
        u = PMF.uniform(4)
        assert np.allclose(u.probs, 0.25)
        p = PMF.from_probs([0.0, 1.0, 0.0])
        assert p.probs[1] == 1.0 and p.probs[0] == 0.0

    def test_probs_are_read_only(self):
        p = PMF.from_probs([0.7, 0.3])
        with pytest.raises(ValueError):
            p.probs[0] = 0.5

    @pytest.mark.parametrize("text,expect", [
        ("0.7,0.3", [0.7, 0.3]),
        ("[0.5, 0.5]", [0.5, 0.5]),
        ("uniform:4", [0.25] * 4),
    ])
    def test_from_text(self, text, expect):
        assert np.allclose(PMF.from_text(text).probs, expect)

    def test_from_text_garbage(self):
        with pytest.raises(ValueError):
            PMF.from_text("[]")


class TestEntropy:
    def test_known_binary_value(self):
        assert entropy(PMF.from_probs([0.7, 0.3])) == pytest.approx(H_73, abs=1e-15)

    def test_matches_high_precision_oracle(self):
        probs = [0.1, 0.2, 0.3, 0.15, 0.25]
        assert entropy(PMF.from_probs(probs)) == pytest.approx(
            mp_entropy(probs), abs=1e-12)

    def test_entropy_mp_agrees_with_float(self):
        probs = [0.7, 0.3]
        assert float(entropy_mp(probs)) == pytest.approx(H_73, abs=1e-15)

    def test_point_mass_has_zero_entropy(self):
        assert entropy(PMF.from_probs([0.0, 0.0, 1.0, 0.0, 0.0])) == 0.0

    def test_binary_entropy_edges(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)
        with pytest.raises(ValueError):
            binary_entropy(1.5)


class TestJointPMF:
    def test_outer_of_marginals(self):
        j = JointPMF.outer(PMF.from_probs([0.7, 0.3]), PMF.uniform(3))
        assert j.dims == (2, 3)
        assert j.probs[0, 0] == pytest.approx(0.7 / 3)

    def test_marginal_restores_axis_order(self):
        # axis order must follow the request, not sorted order
        arr = np.arange(24, dtype=float).reshape(2, 3, 4)
        arr /= arr.sum()
        j = JointPMF(arr)
        swapped = j.marginal(2, 0)
        assert swapped.dims == (4, 2)
        assert np.allclose(swapped.probs, arr.sum(axis=1).T)

    def test_marginal_three_axes_permutation(self):
        rng = np.random.default_rng(5)
        arr = rng.random((2, 3, 4, 2))
        arr /= arr.sum()
        j = JointPMF(arr)
        m = j.marginal(3, 1, 0)
        assert m.dims == (2, 3, 2)
        assert np.allclose(m.probs, np.transpose(arr.sum(axis=2), (2, 1, 0)))

    def test_marginal_duplicate_axis_rejected(self):
        j = JointPMF.outer(PMF.uniform(2), PMF.uniform(2))
        with pytest.raises(ValueError):
            j.marginal(0, 0)

    def test_dense_cap_enforced(self):
        with pytest.raises(CapExceededError):
            JointPMF.outer(PMF.uniform(1 << 13), PMF.uniform(1 << 13))


class TestMutualInformation:
    def test_independent_axes_give_zero(self):
        j = JointPMF.outer(PMF.from_probs([0.7, 0.3]), PMF.uniform(4))
        assert mutual_information(j) == 0.0

    def test_identical_axes_give_entropy(self):
        p = [0.7, 0.3]
        arr = np.diag(p)
        assert mutual_information(JointPMF(arr)) == pytest.approx(H_73, abs=1e-12)

    def test_against_rational_oracle(self):
        probs = [Fraction(1, 8), Fraction(3, 8), Fraction(1, 4), Fraction(1, 4)]
        r = RationalJoint((2, 2), probs)
        j = r.to_float()
        assert mutual_information(j) == pytest.approx(
            float(r.mutual_information()), abs=1e-12)

    def test_takes_plain_two_axis_arrays(self):
        arr = np.array([[0.4, 0.1], [0.2, 0.3]])
        assert mutual_information(arr) == mutual_information(JointPMF(arr))
        assert conditional_entropy(arr, 1) == conditional_entropy(
            JointPMF(arr), 1)
        with pytest.raises(ValueError, match="two-axis"):
            mutual_information(np.full((2, 2, 2), 0.125))

    def test_conditional_entropy_chain_rule(self):
        rng = np.random.default_rng(11)
        arr = rng.random((3, 4))
        arr /= arr.sum()
        j = JointPMF(arr)
        h_joint = entropy(j)
        h_b = entropy(PMF(arr.sum(axis=0)))
        assert conditional_entropy(j, 0) == pytest.approx(h_joint - h_b, abs=1e-12)


@st.composite
def pmf_arrays(draw, max_k=6):
    k = draw(st.integers(min_value=2, max_value=max_k))
    weights = draw(st.lists(st.floats(min_value=0.01, max_value=1.0),
                            min_size=k, max_size=k))
    arr = np.array(weights)
    return arr / arr.sum()


@settings(max_examples=60, deadline=None)
@given(pa=pmf_arrays(), pb=pmf_arrays())
def test_product_joint_has_zero_mutual_information(pa, pb):
    j = JointPMF.outer(PMF(pa), PMF(pb))
    assert abs(mutual_information(j)) <= 1e-9


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_chain_rule_on_random_joints(data):
    dims = data.draw(st.tuples(st.integers(2, 4), st.integers(2, 4)))
    cells = data.draw(st.lists(st.floats(min_value=0.001, max_value=1.0),
                               min_size=dims[0] * dims[1],
                               max_size=dims[0] * dims[1]))
    arr = np.array(cells).reshape(dims)
    arr /= arr.sum()
    j = JointPMF(arr)
    # H(A,B) = H(A) + H(B|A), and I <= min(H(A), H(B))
    h_a = entropy(PMF(arr.sum(axis=1)))
    h_b = entropy(PMF(arr.sum(axis=0)))
    assert entropy(j) == pytest.approx(h_a + conditional_entropy(j, 1), abs=1e-9)
    mi = mutual_information(j)
    assert -1e-12 <= mi <= min(h_a, h_b) + 1e-9


@settings(max_examples=40, deadline=None)
@given(p=pmf_arrays(max_k=4), n=st.integers(min_value=1, max_value=5))
def test_iid_extension_probs_sum_to_one(p, n):
    ext = iid_extension(PMF(p), n)
    assert ext.all_probs().sum() == pytest.approx(1.0, abs=1e-9)


class TestInducedJoints:
    def test_induce_joint_matches_manual_scatter(self):
        src = JointPMF.outer(PMF.from_probs([0.7, 0.3]), PMF.uniform(3))
        j = induce_joint(src, lambda s, u: (s + u) % 3, (3,))
        manual = np.zeros((2, 3, 3))
        for s in range(2):
            for u in range(3):
                manual[s, u, (s + u) % 3] += src.probs[s, u]
        assert np.allclose(j.probs, manual)

    def test_pushforward_drops_inputs(self):
        src = JointPMF.outer(PMF.uniform(2), PMF.uniform(2))
        out = pushforward(src, lambda a, b: a ^ b, (2,))
        assert isinstance(out, PMF)
        assert np.allclose(out.probs, [0.5, 0.5])

    def test_undefined_map_reported(self):
        src = PMF.uniform(3)
        with pytest.raises(ValueError, match="support point"):
            induce_joint(src, lambda s: [0, 1][s], (2,))

    def test_rational_pushforward_is_exact(self):
        r = RationalJoint.outer([Fraction(7, 10), Fraction(3, 10)],
                                [Fraction(1, 3)] * 3)
        out = r.pushforward(lambda s, u: (s + u) % 3, (3,))
        assert out.probs == [Fraction(1, 3)] * 3


class TestIIDExtension:
    def test_index_round_trip(self):
        ext = iid_extension(PMF.uniform(3), 4)
        for code in (0, 1, 40, 80):
            assert ext.seq_to_index(ext.index_to_seq(code)) == code

    def test_lexicographic_order(self):
        ext = iid_extension(PMF.uniform(2), 3)
        assert ext.index_to_seq(0) == (0, 0, 0)
        assert ext.index_to_seq(1) == (0, 0, 1)
        assert ext.index_to_seq(4) == (1, 0, 0)

    def test_scalar_prob_matches_table(self):
        ext = iid_extension(PMF.from_probs([0.7, 0.3]), 5)
        table = ext.all_probs()
        for code in (0, 7, 19, 31):
            # bit-for-bit: the scalar path accumulates in the same order
            assert ext.prob(ext.index_to_seq(code)) == table[code]

    def test_out_of_range_symbol(self):
        ext = iid_extension(PMF.uniform(2), 3)
        with pytest.raises(ValueError):
            ext.seq_to_index((0, 2, 0))

    def test_cap(self):
        ext = iid_extension(PMF.uniform(2), 30)
        with pytest.raises(CapExceededError):
            ext.all_probs()


class TestRandomStream:
    def test_frozen_sequence_seed_42(self):
        # pinned Philox output; a change here means reproducibility broke
        rng = RandomStream(42)
        draws = rng.gen.random(4)
        assert draws[0] == 0.8201981478608876
        assert draws[1] == 0.18924562408645496
        assert draws[2] == 0.8676608148821462
        assert draws[3] == 0.3945814702827203

    def test_streams_differ(self):
        a = RandomStream(42, 0).gen.random(4)
        b = RandomStream(42, 1).gen.random(4)
        assert not np.array_equal(a, b)
        assert RandomStream(42, 1).gen.random(1)[0] == 0.443746921343274

    def test_substream_determinism_and_separation(self):
        root = RandomStream(7)
        a1 = root.substream(3).gen.random(8)
        a2 = RandomStream(7).substream(3).gen.random(8)
        assert np.array_equal(a1, a2)
        b = root.substream(4).gen.random(8)
        assert not np.array_equal(a1, b)

    def test_nested_substreams_do_not_collide(self):
        root = RandomStream(1)
        seen = set()
        for i in range(3):
            child = root.substream(i)
            seen.add(child.stream)
            for j in range(3):
                seen.add(child.substream(j).stream)
        assert len(seen) == 12

    def test_substream_bounds(self):
        with pytest.raises(ValueError):
            RandomStream(0).substream(1 << 20)

    @pytest.mark.parametrize("seed,stream", [(-1, 0), (1 << 64, 0),
                                             (0, -1), (0, 1 << 64)])
    def test_key_words_outside_64_bits_raise(self, seed, stream):
        # -1 used to draw as 2**64 - 1, and 2**64 as 0
        with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
            RandomStream(seed, stream)

    def test_top_key_words_draw_as_before(self):
        # pinned Philox output at the largest seed and a stream past 2**63
        top = (1 << 64) - 1
        assert RandomStream(top, 1 << 63).gen.random(2).tolist() == [
            0.21062414884101022, 0.5083194060081541]

    def test_substream_past_64_bits_raises(self):
        # child 2**44 * 2**20 + 6 used to wrap onto stream 6, the key of
        # RandomStream(0).substream(5), and draw the same numbers
        with pytest.raises(ValueError, match="passes the 2\\*\\*64"):
            RandomStream(0, 1 << 44).substream(5)
        root, last = RandomStream(0), (1 << 20) - 1
        # three levels of any index fit in 64 bits ...
        assert root.substream(last).substream(last).substream(last).stream \
            == (1 << 60) + (1 << 40) + (1 << 20)
        # ... a fourth fits only for small indices, and a fifth never
        third = root.substream(15).substream(15).substream(15)
        with pytest.raises(ValueError):
            third.substream(0)
        fourth = root.substream(0).substream(0).substream(0).substream(0)
        assert fourth.stream == (1 << 60) + (1 << 40) + (1 << 20) + 1
        with pytest.raises(ValueError):
            fourth.substream(0)

    def test_exact_run_builds_no_generator(self, monkeypatch):
        # a stream builds its Philox only when something draws from it, and
        # an exact sweep draws nothing
        built, philox = [], np.random.Philox
        monkeypatch.setattr(np.random, "Philox",
                            lambda *args, **kw: built.append(1) or philox(*args, **kw))
        for scheme in ({"kind": "blockwise", "ell": 2.0},
                       {"kind": "symbolwise", "m": 5}):
            cfg = harness.ExperimentConfig.from_dict(
                {"source": [0.5, 0.3, 0.2], "scheme": scheme,
                 "n_values": [4, 8], "mode": "exact"})
            records = harness.run_experiment(cfg).records
            assert [r.skipped for r in records] == [None, None]
        assert built == []
        stream = RandomStream(42).substream(3)
        assert built == []
        assert stream.gen is stream.gen and built == [1]

    def test_fixed_outcomes_build_no_generator(self, monkeypatch):
        # an estimate whose exact mass is 0 or 1 fixes every trial's
        # outcome and draws nothing, so a thread that runs only such
        # estimates builds no Philox; an atypical estimate of a mass
        # inside (0, 1) builds the thread's one and re-keys it for its one
        # draw
        built, philox = [], np.random.Philox
        monkeypatch.setattr(np.random, "Philox",
                            lambda *args, **kw: built.append(1) or philox(*args, **kw))

        def run():
            rng, u2 = RandomStream(4), PMF.uniform(2)
            # symbolwise_mc at n=8: one score bucket holds every legitimate
            # pair
            codec = symbol.make_codec(symbol.modular_scheme(4, 2), u2, 8, 0.25)
            assert symbol.monte_carlo_error(codec, 10 ** 6, rng) \
                == (0.0, 3e-06)
            # blockwise_uniform_mc at n=6: every type class is typical
            params = block.BlockwiseParams(1.5, typical.build_index(u2, 6, 0.4))
            assert block.monte_carlo_error(params, 200_000, rng)[0] == 0.0
            # at n=1 every type class of the skewed source is atypical
            skew = PMF.from_probs([0.7, 0.3])
            assert typical.atypical_mass_mc(skew, 1, 0.01, 200_000, rng) \
                == (1.0, 0.0)
            assert built == []
            typical.atypical_mass_mc(skew, 64, 64 ** (-1 / 3), 200_000, rng)
            assert built == [1]
        on_fresh_thread(run)

    def test_mc_pass_builds_one_generator_per_thread(self, monkeypatch):
        # the Monte Carlo benchmark's pass: both shipped Monte Carlo configs
        # (p_x and p_y drawn at each of 3 blocklengths in each; every p_e
        # is 0 exactly, so fixed) and the atypical estimate.  A thread builds
        # one Philox for all 13 estimates that draw (13 when every estimate
        # built its own), and a second thread builds its own
        built, philox = [], np.random.Philox
        monkeypatch.setattr(np.random, "Philox",
                            lambda *args, **kw: built.append(1) or philox(*args, **kw))

        def run():
            for name in ("symbolwise_mc", "blockwise_uniform_mc"):
                harness.run_experiment(shipped_config(name))
            typical.atypical_mass_mc(PMF.from_probs([0.7, 0.3]), 64,
                                     64 ** (-1 / 3), 200_000, RandomStream(1))
            return len(built)
        assert on_fresh_thread(run) == 1
        assert on_fresh_thread(run) == 2

    # BTPE, inversion (a small mean) and a mass past 1/2, which numpy
    # draws as the complement; at 2**36 trials every mass draws by BTPE
    @pytest.mark.parametrize("trials", [2 * (1 << 16) + 1, MAX_TRIALS])
    @pytest.mark.parametrize("hit", [0.3, 1e-04, 0.7])
    def test_estimate_draws_as_the_stream_generator(self, hit, trials):
        # the re-keyed thread generator draws what the stream's own would,
        # after another estimate has drawn from it
        _estimate(1000, RandomStream(3), 0.5)
        hits = int(RandomStream(9, 4).gen.binomial(trials, hit))
        est, _ = _estimate(trials, RandomStream(9, 4), hit)
        assert hits > 0 and est == hits / trials

    def test_trials_past_two_to_the_36_raise_before_drawing(self,
                                                             monkeypatch):
        # the cap configs are held to: even a fixed estimate, which draws
        # nothing, refuses more
        calls = []
        monkeypatch.setattr(prob, "_thread_generator",
                            lambda: calls.append(1))
        assert _estimate(MAX_TRIALS, RandomStream(0), 1.0) == (1.0, 0.0)
        for hit in (1.0, 0.3):
            with pytest.raises(ValueError, match=r"limit of 2\*\*36"):
                _estimate(MAX_TRIALS + 1, RandomStream(0), hit)
        assert calls == []

    @pytest.mark.parametrize("hit", [math.nan, -1e-300, 1.0000000000000002,
                                     math.inf, -math.inf])
    def test_hit_outside_the_unit_interval_raises_before_drawing(
            self, hit, monkeypatch):
        # numpy's binomial would refuse NaN and p > 1 only mid-estimate
        calls = []
        monkeypatch.setattr(prob, "_thread_generator",
                            lambda: calls.append(1))
        with pytest.raises(ValueError, match=rf"^hit mass {hit!r} is not "
                                             r"a probability in \[0, 1\]$"):
            _estimate(1000, RandomStream(0), hit)
        assert calls == []

    def test_sample_follows_cdf(self):
        p = PMF.from_probs([0.7, 0.3])
        draws = sample(p, RandomStream(123), 200_000)
        assert abs(float(np.mean(draws == 1)) - 0.3) < 0.01


class TestSharedGenerator:
    """Every estimate on a thread draws from that thread's one generator,
    so nothing an estimate leaves in it may reach the next."""

    def test_interleaved_configs_rerun_byte_identical(self):
        def records(name):
            text = harness.emit_jsonl(harness.run_experiment(
                shipped_config(name)))
            return [line for line in text.splitlines()
                    if '"type": "record"' in line]
        first = records("symbolwise_mc")
        records("blockwise_uniform_mc")
        typical.atypical_mass_mc(PMF.from_probs([0.5, 0.3, 0.2]), 16,
                                 16 ** (-1 / 3), 200_000, RandomStream(5))
        assert len(first) == 3 and records("symbolwise_mc") == first

    def test_threads_draw_the_sequential_estimates(self):
        def estimate(stream):
            return _estimate(2 * (1 << 16) + 1, RandomStream(9, stream), 0.3)
        streams = range(6)
        want = [estimate(s) for s in streams]
        with ThreadPoolExecutor(max_workers=2) as pool:
            assert list(pool.map(estimate, streams)) == want


class TestRationalJoint:
    def test_requires_exact_total(self):
        with pytest.raises(ValueError):
            RationalJoint((2,), [Fraction(1, 2), Fraction(1, 3)])

    def test_entropy_of_uniform(self):
        r = RationalJoint.outer([Fraction(1, 4)] * 4)
        assert float(r.entropy_bits()) == pytest.approx(2.0, abs=1e-30)

    def test_marginal_exact(self):
        r = RationalJoint.outer([Fraction(7, 10), Fraction(3, 10)],
                                [Fraction(1, 2), Fraction(1, 2)])
        m = r.marginal(0)
        assert m.probs == [Fraction(7, 10), Fraction(3, 10)]

    def test_cap(self):
        with pytest.raises(CapExceededError):
            RationalJoint((1 << 9, 1 << 9), [Fraction(0)] * (1 << 18))
