"""Count-vector Monte Carlo: every estimator against its exact counterpart.

Each trial draws one block's composition (blockwise) or score-bucket count
vector (symbolwise) and is decided on the exact engines' tables, so an
estimate must cover the exact value.  Coverage uses the Wilson score
interval of hits/trials at z = 5, wide enough that a correct estimator
fails with odds of about 3e-7 per check.
"""
import dataclasses
import json
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import oracles
from blockwise_oracle import atypical_mass
import symbolwise_oracle as conv
from twoshare import attack, block, harness, symbol, typical
from twoshare.prob import PMF, RandomStream
from twoshare.typical import build_index

SKEW = PMF.from_probs([0.7, 0.3])
K3 = PMF.from_probs([0.5, 0.3, 0.2])
GAP = PMF.from_probs([0.6, 0.0, 0.4])   # a zero-probability symbol
U2 = PMF.uniform(2)
TRIALS = 40_000
Z = 5.0


def covers(est: float, trials: int, exact: float) -> bool:
    """Whether exact lies in the Wilson interval of est = hits/trials."""
    z2 = Z * Z
    centre = (est + z2 / (2 * trials)) / (1.0 + z2 / trials)
    spread = Z / (1.0 + z2 / trials) * math.sqrt(
        est * (1.0 - est) / trials + z2 / (4 * trials ** 2))
    return centre - spread <= exact + 1e-12 and exact - 1e-12 <= centre + spread


def power_gamma(n):
    return n ** (-1.0 / 3.0)


def blockwise(source, n, ell=0.5):
    return block.BlockwiseParams(ell, build_index(source, n, power_gamma(n)))


def modular(m, source, n, gamma=None):
    gamma = power_gamma(n) if gamma is None else gamma
    return symbol.make_codec(symbol.modular_scheme(m, source.support_size),
                             source, n, gamma)


def lopsided(n):
    """A splitter whose forged symbols differ in their finite score masses
    (side x) and in their -inf masses (side y); the modular splitter puts
    every forged symbol in one class, so it cannot tell a mixture or a
    multi-symbol forgery from a single row."""
    scheme = symbol.BaseScheme(
        "lopsided", secret_size=3, share_size=4, rand_size=4,
        encode_fn=lambda s, u: ((s + u) % 4, u // 2),
        decode_fn=lambda x, y: None)
    return symbol.make_codec(scheme, K3, n, power_gamma(n),
                             require_valid=False)


def forged_success(codec, side, forgery) -> float:
    """Oracle success of a forgery by float-keyed score convolution: a
    concrete sequence convolves its positions' laws, a PMF raises the
    forgery-weighted mixture of the per-symbol laws to the n-th power."""
    dists = conv._forged_symbol_dists(codec, side)
    if isinstance(forgery, PMF):
        mix = conv.merge_values(
            [v for d in dists for v in d],
            [f * p for f, d in zip(forgery.probs, dists) for p in d.values()])
        total = conv.power_convolve(mix, codec.n)
    else:
        total = {0.0: 1.0}
        for a in forgery:
            total = conv.convolve(total, dists[a])
    return conv.mean_tail_strict(total, codec.n, codec.threshold)


# U2 at n=3 has M = 8, small enough that the sentinel's 1/(M+1) shows
BLOCK_CASES = [pytest.param(U2, 3, id="u2-n3"),
               pytest.param(SKEW, 8, id="skew-n8"),
               pytest.param(K3, 8, id="k3-n8"),
               pytest.param(GAP, 8, id="gap-n8")]
CODECS = [pytest.param(modular(3, SKEW, 8), id="skew-m3-n8"),
          pytest.param(modular(5, K3, 8), id="k3-m5-n8"),
          pytest.param(modular(5, K3, 32), id="k3-m5-n32"),
          pytest.param(modular(3, GAP, 8), id="gap-m3-n8"),
          pytest.param(lopsided(8), id="lopsided-n8")]


class TestBlockwiseCoverage:
    @pytest.mark.parametrize("source,n", BLOCK_CASES)
    def test_error_and_atypical_mass(self, source, n):
        params = blockwise(source, n)
        exact = block.exact_quantities(params).p_e
        est, _ = block.monte_carlo_error(params, TRIALS, RandomStream(1))
        assert covers(est, TRIALS, exact)
        est, _ = typical.atypical_mass_mc(source, n, params.index.gamma,
                                          TRIALS, RandomStream(2))
        assert covers(est, TRIALS, exact)

    @pytest.mark.parametrize("source,n", BLOCK_CASES)
    @pytest.mark.parametrize("side", ["x", "y"])
    def test_attack_both_sides(self, source, n, side):
        params = blockwise(source, n)
        best = attack.blockwise_attack(params, side)
        res = attack.monte_carlo_attack(params, side, best.optimal_forgery,
                                        TRIALS, RandomStream(3))
        assert covers(res.success_prob, TRIALS, best.success_prob)

    @pytest.mark.parametrize("side", ["x", "y"])
    def test_pmf_forgery(self, side):
        # every in-range forged share succeeds with M / ((M+1) L), so any
        # mixture does too
        params = blockwise(SKEW, 8)
        weights = np.arange(1, params.share_size + 1, dtype=np.float64)
        mix = PMF(weights / weights.sum())
        res = attack.monte_carlo_attack(params, side, mix, TRIALS,
                                        RandomStream(4))
        exact = attack.blockwise_attack(params, side).success_prob
        assert covers(res.success_prob, TRIALS, exact)

    def test_atypical_mass_beyond_the_dense_index(self):
        # 3**32 sequences: no index can be built, the type classes suffice
        gamma = power_gamma(32)
        est, _ = typical.atypical_mass_mc(K3, 32, gamma, TRIALS,
                                          RandomStream(5))
        exact = typical.TypicalIndex(
            K3, 32, gamma, typical.type_classes(K3, 32, gamma)).delta
        assert covers(est, TRIALS, exact)


class TestSymbolwiseCoverage:
    @pytest.mark.parametrize("codec", CODECS)
    def test_error(self, codec):
        exact = symbol.exact_symbolwise_quantities(codec).p_e
        est, _ = symbol.monte_carlo_error(codec, TRIALS, RandomStream(6))
        assert covers(est, TRIALS, exact)

    @pytest.mark.parametrize("codec", CODECS)
    @pytest.mark.parametrize("side", ["x", "y"])
    def test_optimal_forgery(self, codec, side):
        best = attack.symbolwise_attack(codec, side)
        res = attack.monte_carlo_attack(codec, side, best.optimal_forgery,
                                        TRIALS, RandomStream(7))
        assert covers(res.success_prob, TRIALS, best.success_prob)

    @pytest.mark.parametrize("codec,seq", [
        pytest.param(modular(5, K3, 8), (0, 1, 1, 2, 3, 4, 4, 4), id="k3-m5"),
        pytest.param(lopsided(8), (0, 1, 1, 2, 3, 3, 3, 0), id="lopsided")])
    @pytest.mark.parametrize("side", ["x", "y"])
    def test_mixed_concrete_forgery(self, codec, seq, side):
        # several distinct forged symbols: one multinomial each, summed
        res = attack.monte_carlo_attack(codec, side, seq, TRIALS,
                                        RandomStream(8))
        assert covers(res.success_prob, TRIALS,
                      forged_success(codec, side, seq))

    @pytest.mark.parametrize("codec", CODECS)
    @pytest.mark.parametrize("side", ["x", "y"])
    def test_pmf_forgery(self, codec, side):
        m = codec.scheme.share_size
        weights = np.arange(1, m + 1, dtype=np.float64)
        mix = PMF(weights / weights.sum())
        res = attack.monte_carlo_attack(codec, side, mix, TRIALS,
                                        RandomStream(9))
        assert res.optimal_forgery == ("sampled",)
        assert covers(res.success_prob, TRIALS,
                      forged_success(codec, side, mix))

    def test_forged_sequence_length_checked(self):
        codec = modular(3, SKEW, 4)
        with pytest.raises(ValueError, match="length 4"):
            attack.monte_carlo_attack(codec, "x", (0, 0), 10, RandomStream(1))


class TestExactEndpoints:
    def test_tie_rejects_every_legitimate_pair(self):
        # every finite score equals I(X;Y), so at gamma = 0 the strict test
        # rejects every pair: alpha = 1 exactly
        tied = dataclasses.replace(modular(4, U2, 6), gamma=0.0)
        assert symbol.exact_symbolwise_quantities(tied).p_e == 1.0
        assert symbol.monte_carlo_error(tied, 1000, RandomStream(1)) \
            == (1.0, 0.0)

    def test_zero_error_configs_estimate_exactly_zero(self):
        params = blockwise(U2, 6)
        assert block.exact_quantities(params).p_e == 0.0
        assert block.monte_carlo_error(params, 5000, RandomStream(2))[0] == 0.0
        codec = modular(4, U2, 4, gamma=0.5)
        assert symbol.exact_symbolwise_quantities(codec).p_e == 0.0
        assert symbol.monte_carlo_error(codec, 5000, RandomStream(3))[0] == 0.0

    def test_fixed_outcomes_draw_nothing(self, monkeypatch):
        # one count vector (symbolwise) or one side of the window for every
        # class (blockwise): each trial's outcome is known without a draw
        class Undrawable:
            gen = None   # any draw raises AttributeError

        monkeypatch.setattr(RandomStream, "substream",
                            lambda self, i: Undrawable())
        rng = RandomStream(4)
        tied = dataclasses.replace(modular(4, U2, 6), gamma=0.0)
        assert symbol.monte_carlo_error(tied, 10 ** 6, rng) == (1.0, 0.0)
        assert symbol.monte_carlo_error(modular(4, U2, 6, gamma=0.25),
                                        10 ** 6, rng) == (0.0, 3e-06)
        assert block.monte_carlo_error(blockwise(U2, 6), 5000, rng) \
            == (0.0, 3.0 / 5000)
        # at n=1 both compositions of the skewed source miss a tight window
        assert atypical_mass(SKEW, 1, 0.01) == 1.0
        assert typical.atypical_mass_mc(SKEW, 1, 0.01, 5000, rng) == (1.0, 0.0)


class TestNoDenseIndex:
    def test_blockwise_monte_carlo_skips_the_rank_map(self, monkeypatch):
        params = blockwise(SKEW, 8)

        def dense(*args, **kwargs):
            raise AssertionError("the dense index was used")

        monkeypatch.setattr(typical.TypicalIndex, "xi_plus_all", dense,
                            raising=False)
        for name in ("xi_plus", "rank", "unrank", "contains"):
            monkeypatch.setattr(typical.TypicalIndex, name, dense)
        monkeypatch.setattr(oracles.IIDExtension, "all_probs", dense)
        block.monte_carlo_error(params, 2000, RandomStream(1))
        for side in ("x", "y"):
            attack.monte_carlo_attack(params, side, (0, 0), 2000,
                                      RandomStream(2))


class TestLatticeTables:
    def test_accepted_matches_scalar_accepts(self):
        codec = modular(5, K3, 8)
        lat = codec.lattice
        vectors = list(typical.compositions(8, len(lat.values)))
        got = lat.accepted(np.array(vectors))
        assert got.tolist() == [lat.accepts(c) for c in vectors]
        assert 0 < got.sum() < len(vectors)
        # the error estimate draws over the lattice values alone: no
        # legitimate pair scores -inf
        dense = oracles.share_laws(codec)
        assert math.fsum(dense.p_xy[np.isneginf(dense.score_table)]) == 0.0
        assert len(codec.laws.legit) == len(lat.values)

    def test_count_table_built_once_per_symbolwise_record(self, monkeypatch):
        # the error estimate and both attack estimates share one table
        calls, real = [], symbol.prefix_lookup
        monkeypatch.setattr(symbol, "prefix_lookup",
                            lambda prefixes, values, n:
                            calls.append(n) or real(prefixes, values, n))
        cfg = harness.ExperimentConfig.from_dict(
            {"source": [0.7, 0.3], "scheme": {"kind": "symbolwise", "m": 4},
             "n_values": [4, 8, 12], "mode": "mc", "trials": 2000,
             "seed": 0})
        report = harness.run_experiment(cfg)
        assert all(r.skipped is None for r in report.records)
        assert calls == [4, 8, 12]

    def test_prefix_rank_is_a_bijection(self):
        for n in range(10):
            for digits in range(4):
                rows = np.array(list(typical.compositions(n, digits + 1)))
                ranks = typical._prefix_rank(n, digits)(rows)
                assert sorted(ranks.tolist()) == list(
                    range(math.comb(n + digits, digits)))

    def test_32_part_lookup_answers_past_int64_codes(self):
        # 31 leading counts at n=4: base-5 codes of them would pass 2**63
        rows = np.array(list(typical.compositions(4, 32)))
        lookup = typical.prefix_lookup(rows[:, :31], np.arange(len(rows)), 4)
        order = np.random.default_rng(0).permutation(len(rows))
        assert lookup(rows[order]).tolist() == order.tolist()

    def test_lookup_needs_every_prefix_once(self):
        prefixes = [c[:2] for c in typical.compositions(3, 3)]
        lookup = typical.prefix_lookup(prefixes, range(len(prefixes)), 3)
        assert lookup(np.array([(0, 3, 0), (1, 1, 1)])).tolist() == [
            prefixes.index((0, 3)), prefixes.index((1, 1))]
        for bad in (prefixes[1:], prefixes[:-1] + [prefixes[0]],
                    prefixes[:-1] + [(4, 0)], prefixes[:-1] + [(-1, 2)]):
            with pytest.raises(ValueError, match="each of the 10 prefixes"):
                typical.prefix_lookup(bad, range(len(bad)), 3)


class CountingGenerator:
    """A generator that tallies the count-vector rows and the integers it
    hands out."""

    def __init__(self, gen, rows, values):
        self._gen, self._rows, self._values = gen, rows, values

    def multinomial(self, n, pvals, size=None):
        # one row per entry of an array-valued n, or per size
        out = self._gen.multinomial(n, pvals, size=size)
        self._rows.append(out.shape[0] if out.ndim > 1 else 1)
        return out

    def integers(self, *args, size=None, **kwargs):
        out = self._gen.integers(*args, size=size, **kwargs)
        self._values.append(np.size(out))
        return out

    def __getattr__(self, name):
        return getattr(self._gen, name)


class CountingStream(RandomStream):
    def __init__(self, seed, rows, values=None):
        super().__init__(seed)
        self.rows = rows
        self.values = [] if values is None else values

    def substream(self, i):
        child = super().substream(i)
        child.gen = CountingGenerator(child.gen, self.rows, self.values)
        return child


class TestClearGate:
    """A forged block can hit only with no -inf score, so each chunk draws
    how many trials clear that gate and only those draw count vectors."""

    def test_all_minus_inf_row_estimates_zero(self):
        # share Y of `lopsided` takes only 0 and 1, so a forged 2 on side y
        # scores -inf against every honest X: its finite law has no mass
        codec = lopsided(8)
        rows = []
        res = attack.monte_carlo_attack(codec, "y", (2,) * 8, 5000,
                                        CountingStream(1, rows))
        assert (res.success_prob, res.ci_halfwidth) == (0.0, 3.0 / 5000)
        assert sum(rows) == 0
        mix = PMF.from_probs([0.0, 0.0, 0.5, 0.5])
        res = attack.monte_carlo_attack(codec, "y", mix, 5000,
                                        RandomStream(2))
        assert (res.success_prob, res.ci_halfwidth) == (0.0, 3.0 / 5000)

    def test_row_without_minus_inf_mass_clears(self):
        clear, laws = attack._clear_gate([(np.array([0.0, 0.25, 0.75]), 5),
                                          (np.array([0.0, 1.0, 0.0]), 3)])
        assert clear == 1.0
        assert [law.tolist() for law, _ in laws] == [[0.25, 0.75], [1.0, 0.0]]

    def test_gate_multiplies_the_groups(self):
        clear, laws = attack._clear_gate([(np.array([0.5, 0.25, 0.25]), 2),
                                          (np.array([0.25, 0.0, 0.75]), 1)])
        assert clear == pytest.approx(0.25 * 0.75, rel=1e-15)
        assert [law.tolist() for law, _ in laws] == [[0.5, 0.5], [0.0, 1.0]]

    def test_draws_far_fewer_rows_than_trials(self):
        # uniform:2, M=4: each forged symbol scores -inf with mass 1/2, so
        # a trial clears with probability 2**-32; a row per trial would
        # draw 10**6 rows
        codec = modular(4, U2, 32, gamma=0.25)
        forged = attack.symbolwise_attack(codec, "x").optimal_forgery
        rows = []
        res = attack.monte_carlo_attack(codec, "x", forged, 10 ** 6,
                                        CountingStream(3, rows))
        assert sum(rows) < 100
        assert res.trials == 10 ** 6
        assert covers(res.success_prob, 10 ** 6,
                      attack.symbolwise_attack(codec, "x").success_prob)


def exact_binomial_pmf(n, p):
    """Binomial(n, p) pmf from exact integers: the float p is a dyadic
    fraction a/d, so P(C = c) = C(n, c) a^c (d-a)^(n-c) / d^n, stepped
    from c to c+1 by exact integer division and rounded once."""
    a, d = Fraction(p).as_integer_ratio()
    r, total = d - a, d ** n
    term, out = r ** n, []
    for c in range(n + 1):
        out.append(term / total)
        term = term * (n - c) * a // ((c + 1) * r)
    return np.array(out)


class FirstCountGenerator(CountingGenerator):
    """A counting generator that also keeps the block lengths left to the
    count-vector draws, n minus each open trial's gated count."""

    def __init__(self, gen, rows, lengths):
        super().__init__(gen, rows, [])
        self._lengths = lengths

    def multinomial(self, n, pvals, size=None):
        if np.ndim(n):
            self._lengths.append(np.array(n))
        return super().multinomial(n, pvals, size=size)


def gated_symbol(source, n, classes) -> int:
    """The support symbol whose count leaves the least exact mass open."""
    support = source.probs[source.probs > 0.0]
    return int(np.argmin([
        exact_binomial_pmf(n, float(p))[
            typical._first_count_fates(classes, n, g) == typical.OPEN].sum()
        for g, p in enumerate(support)]))


class TestFirstCountDraw:
    """The atypical estimate gates on the support symbol whose count
    leaves the least mass undecided: each chunk splits its trials into
    hits, open trials and misses, and only an open trial draws its gated
    count, by inversion of the pmf restricted to the open counts, and then
    the other counts."""

    @pytest.mark.parametrize("n", [1, 2, 64, 2000])
    @pytest.mark.parametrize("p", [0.01, 0.3, 0.7, 0.99])
    def test_pmf_matches_exact_rationals(self, n, p):
        got = typical._binomial_pmf(n, p)
        assert got.shape == (n + 1,)
        assert np.abs(got - exact_binomial_pmf(n, p)).max() <= 1e-12

    def test_first_count_frequencies(self):
        # an open trial's gated count follows the exact pmf of that count
        # given that it is open, and never takes a decided value
        n, trials = 32, 200_000
        for probs in ([0.5, 0.3, 0.2], [0.2, 0.3, 0.5]):
            source = PMF.from_probs(probs)
            classes = typical.type_classes(source, n, power_gamma(n))
            g = gated_symbol(source, n, classes)
            pmf = exact_binomial_pmf(n, probs[g])
            pmf[typical._first_count_fates(classes, n, g)
                != typical.OPEN] = 0.0
            pmf /= pmf.sum()
            _, _, draw_open = typical.atypical_draw(source, n, classes)
            lengths = []
            draw_open(FirstCountGenerator(RandomStream(12).gen, [], lengths),
                      trials)
            freq = np.bincount(n - lengths[0], minlength=n + 1) / trials
            assert freq.shape == (n + 1,)
            for c, exact in enumerate(pmf):
                assert covers(freq[c], trials, exact), (probs, c)

    @pytest.mark.parametrize("source,n", BLOCK_CASES + [
        pytest.param(K3, 32, id="k3-n32"),
        pytest.param(PMF.from_probs([0.4, 0.3, 0.2, 0.1]), 12, id="k4-n12")])
    def test_fates_match_a_scan_of_the_classes(self, source, n):
        classes = typical.type_classes(source, n, power_gamma(n))
        for g in range(len(classes[0].counts)):
            fates = typical._first_count_fates(classes, n, g)
            for c0 in range(n + 1):
                flags = {c.typical for c in classes if c.counts[g] == c0}
                want = (typical.OPEN if len(flags) == 2
                        else typical.MISS if flags == {True}
                        else typical.HIT)
                assert fates[c0] == want, (g, c0)

    def test_two_symbols_draw_no_multinomial(self):
        # at k=2 the first count fixes the class, so no trial is undecided:
        # each chunk draws one split of its trials and no count vector
        rows = []
        gamma = power_gamma(64)
        est, _ = typical.atypical_mass_mc(SKEW, 64, gamma, 200_000,
                                          CountingStream(14, rows))
        assert rows == [1] * 4
        exact = build_index(SKEW, 64, gamma).delta
        assert 0.0 < exact and covers(est, 200_000, exact)
        rows.clear()
        block.monte_carlo_error(blockwise(SKEW, 8), TRIALS,
                                CountingStream(15, rows))
        assert rows == [1]

    @pytest.mark.parametrize("n", [8, 32])
    def test_three_symbols_draw_fewer_rows_than_trials(self, n):
        gamma = power_gamma(n)
        for probs in ([0.5, 0.3, 0.2], [0.2, 0.3, 0.5]):
            rows, source = [], PMF.from_probs(probs)
            est, _ = typical.atypical_mass_mc(source, n, gamma, TRIALS,
                                              CountingStream(16, rows))
            # one split of the chunk, then a row for each trial whose gated
            # count is undecided, and no other
            split, drawn = rows
            assert split == 1 and 0 < drawn < TRIALS
            classes = typical.type_classes(source, n, gamma)
            g = gated_symbol(source, n, classes)
            undecided = exact_binomial_pmf(n, probs[g])[
                typical._first_count_fates(classes, n, g)
                == typical.OPEN].sum()
            assert covers(drawn / TRIALS, TRIALS, undecided)
            assert covers(est, TRIALS,
                          typical.TypicalIndex(source, n, gamma, classes).delta)

    def test_either_symbol_order_gates_on_the_same_mass(self):
        # the undecided mass of the first symbol's count is 0.10 in one
        # order and 0.9999997 in the other; the least one is the same
        n = 30
        draws = [typical.atypical_draw(PMF.from_probs(p), n,
                                       typical.type_classes(
                                           PMF.from_probs(p), n,
                                           power_gamma(n)))
                 for p in ([0.5, 0.3, 0.2], [0.2, 0.3, 0.5])]
        (hit_a, open_a, _), (hit_b, open_b, _) = draws
        assert 0.0 < hit_a and 0.0 < open_a < 0.11
        assert hit_a == pytest.approx(hit_b, abs=1e-15)
        assert open_a == pytest.approx(open_b, abs=1e-15)

    @pytest.mark.parametrize("probs", [
        pytest.param([0.5, 0.3, 0.2], id="k3"),
        pytest.param([0.2, 0.3, 0.5], id="k3-reversed")])
    @pytest.mark.parametrize("n", [16, 32])
    def test_gated_estimate_covers_delta(self, probs, n):
        # both a hit and an open trial have positive mass, so a chunk
        # splits three ways
        source, gamma, trials = PMF.from_probs(probs), power_gamma(n), 200_000
        classes = typical.type_classes(source, n, gamma)
        hit, live, _ = typical.atypical_draw(source, n, classes)
        assert hit > 0.0 and live > 0.0
        est, _ = typical.atypical_mass_mc(source, n, gamma, trials,
                                          RandomStream(17))
        assert covers(est, trials,
                      typical.TypicalIndex(source, n, gamma, classes).delta)


class TestShippedMonteCarloStreams:
    """The gated estimator leaves these streams where they were: every
    attack estimate, and a p_e whose outcome is fixed (one score bucket;
    every type class on one side).  Values from the reports before it."""

    PINNED = {
        "symbolwise_mc": {8: (0.0, 0.003847, 0.003944),
                          16: (0.0, 2.4e-05, 1.2e-05),
                          32: (0.0, 0.0, 0.0)},
        "blockwise_uniform_mc": {6: (0.0, 0.002005, 0.00183),
                                 8: (0.0, 0.00025, 0.000265),
                                 10: (0.0, 4e-05, 1.5e-05)},
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_estimates_are_pinned(self, name):
        path = Path(__file__).resolve().parents[1] / "configs" / f"{name}.json"
        cfg = harness.ExperimentConfig.from_dict(json.loads(path.read_text()))
        got = {r.n: (r.p_e, r.p_x, r.p_y)
               for r in harness.run_experiment(cfg).records}
        assert got == self.PINNED[name]


class TestBlockwiseGate:
    """A blockwise forgery can hit only when the honest u_l matches its
    own, with probability 1/L, so each chunk draws how many trials match
    and only those draw the forged masked component and the honest u_m."""

    def test_draws_far_fewer_honest_values_than_trials(self):
        # L = 2**15: about 31 of 10**6 trials match; drawing both honest
        # components per trial would draw 2 * 10**6 values
        params = blockwise(U2, 10, ell=1.5)
        assert params.l_count == 1 << 15
        rows, values = [], []
        res = attack.monte_carlo_attack(params, "x", (0, 0), 10 ** 6,
                                        CountingStream(1, rows, values))
        assert sum(values) < 200
        assert res.trials == 10 ** 6
        m, l_count = params.m_count, params.l_count
        assert covers(res.success_prob, 10 ** 6, m / ((m + 1) * l_count))

    @pytest.mark.parametrize("side", ["x", "y"])
    def test_forgery_off_the_origin(self, side):
        # the match is 1/L whichever u_l the forgery names
        params = blockwise(SKEW, 8)
        exact = attack.blockwise_attack(params, side).success_prob
        forgery = (params.l_count - 3, params.m_count - 7)
        res = attack.monte_carlo_attack(params, side, forgery, TRIALS,
                                        RandomStream(10))
        assert res.optimal_forgery == forgery
        assert covers(res.success_prob, TRIALS, exact)

    @pytest.mark.parametrize("side", ["x", "y"])
    def test_pmf_forgery_on_a_few_shares(self, side):
        params = blockwise(SKEW, 8)
        exact = attack.blockwise_attack(params, side).success_prob
        probs = np.zeros(params.share_size)
        shares = [(0, 0), (1, params.m_count), (params.l_count - 1, 5)]
        for share, p in zip(shares, (0.5, 0.3, 0.2)):
            probs[params.share_to_flat(block.BlockShare(*share))] = p
        res = attack.monte_carlo_attack(params, side, PMF(probs), TRIALS,
                                        RandomStream(11))
        assert covers(res.success_prob, TRIALS, exact)


class TestForgeryOutsideTheAlphabet:
    """Forgeries the acceptance tests reject raise ValueError, not a
    silent estimate or a bare IndexError."""

    def test_blockwise_share(self):
        # L = 16, M = 219: (0, M+5) estimated 0.063, (-1, 0) and (L, 0)
        # estimated 0
        params = blockwise(SKEW, 8)
        assert (params.l_count, params.m_count) == (16, 219)
        for forgery in ((0, params.m_count + 5), (-1, 0),
                        (params.l_count, 0), (0, -1)):
            share = block.BlockShare(*forgery)
            with pytest.raises(ValueError, match="outside the share alphabet"):
                block.accepts(params, share, block.BlockShare(0, 0))
            with pytest.raises(ValueError,
                               match=rf"^share {re.escape(str(share))} "
                                     "outside the share alphabet$"):
                attack.monte_carlo_attack(params, "x", forgery, 100,
                                          RandomStream(1))

    def test_blockwise_pmf_size(self):
        # a PMF over twice the alphabet halved the estimate
        params = blockwise(SKEW, 8)
        size = params.share_size
        for wrong in (2 * size, size - 1):
            with pytest.raises(ValueError,
                               match=rf"^forgery PMF has {wrong} values; the "
                                     rf"share alphabet has {size}$"):
                attack.monte_carlo_attack(params, "y", PMF.uniform(wrong),
                                          100, RandomStream(1))

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_symbolwise_symbol(self, bad):
        # -1 read symbol 2's row (estimate 0.1317), 3 raised IndexError
        codec = modular(3, SKEW, 4)
        forgery = (0, 1, bad, 0)
        with pytest.raises(ValueError,
                           match=rf"^share symbol {bad} outside \[0, 3\)$"):
            symbol.accepts_n(codec, forgery, (0, 0, 0, 0))
        for side in ("x", "y"):
            with pytest.raises(ValueError,
                               match=rf"^share symbol {bad} outside \[0, 3\)$"):
                attack.monte_carlo_attack(codec, side, forgery, 100,
                                          RandomStream(1))

    def test_symbolwise_pmf_size(self):
        # a numpy matmul error before
        codec = modular(3, SKEW, 4)
        with pytest.raises(ValueError,
                           match=r"^forgery PMF has 4 values; the share "
                                 r"alphabet has 3$"):
            attack.monte_carlo_attack(codec, "x", PMF.uniform(4), 100,
                                      RandomStream(1))
