"""Monte Carlo: every estimate against its exact counterpart.

Every estimate is Binomial(trials, p) / trials with p the exact mass of
the same quantity (`prob._estimate`, called by the harness, the CLI's
`attack --mode mc` and `typical.atypical_mass_mc`), so the p it is handed
must be the exact engines' value, and the estimate must cover it.
Coverage uses the Wilson score interval of hits/trials at z = 5, wide
enough that a correct estimator fails with odds of about 3e-7 per check.
"""
import dataclasses
import json
import math
import re
from pathlib import Path

import pytest

import oracles
from blockwise_oracle import atypical_mass
from make_golden import MC_RUNS
import symbolwise_oracle as conv
from twoshare import attack, block, cli, harness, prob, symbol, typical
from twoshare.prob import PMF, RandomStream, _estimate
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


def cli_attack(capsys, *flags) -> dict:
    """The JSON that `twoshare attack` prints for these flags."""
    assert cli.main(["attack", *map(str, flags)]) == 0
    return json.loads(capsys.readouterr().out)


def source_text(source: PMF) -> str:
    return ",".join(map(repr, source.probs))


def scan_success(codec, side, forgery) -> float:
    """The exact success of a forged sequence, as `symbolwise_attack`
    scores it: every forged symbol of either side puts the codec's one
    forged row on the lattice, so any forgery succeeds with its sum."""
    assert len(forgery) == codec.n and side in "xy"
    return codec.lattice.mass(codec.laws.forged)


def forged_success(codec, side, forgery) -> float:
    """Oracle success of a forged sequence by float-keyed score
    convolution of its positions' laws."""
    dists = conv._forged_symbol_dists(codec, side)
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
          pytest.param(modular(3, GAP, 8), id="gap-m3-n8")]


class TestBlockwiseCoverage:
    @pytest.mark.parametrize("source,n", BLOCK_CASES)
    def test_error_and_atypical_mass(self, source, n):
        params = blockwise(source, n)
        exact = block.exact_quantities(params).delta
        est, _ = _estimate(TRIALS, RandomStream(1), exact)
        assert covers(est, TRIALS, exact)
        est, _ = typical.atypical_mass_mc(source, n, params.index.gamma,
                                          TRIALS, RandomStream(2))
        assert covers(est, TRIALS, exact)

    @pytest.mark.parametrize("source,n", BLOCK_CASES)
    @pytest.mark.parametrize("side", ["x", "y"])
    def test_attack_both_sides(self, source, n, side, capsys):
        # the CLI's estimate of the optimum, on the scheme the test builds
        best = attack.blockwise_attack(blockwise(source, n), side)
        res = cli_attack(capsys, "--scheme", "blockwise", "--source",
                         source_text(source), "--n", n, "--ell", 0.5,
                         "--side", side, "--mode", "mc", "--trials", TRIALS,
                         "--seed", 3)
        assert covers(res["success_prob"], TRIALS, best.success_prob)

    @pytest.mark.parametrize("probs", [
        pytest.param([0.5, 0.3, 0.2], id="k3"),
        pytest.param([0.2, 0.3, 0.5], id="k3-reversed")])
    @pytest.mark.parametrize("n", [16, 32])
    def test_atypical_mass_k3(self, probs, n):
        source, gamma, trials = PMF.from_probs(probs), power_gamma(n), 200_000
        est, _ = typical.atypical_mass_mc(source, n, gamma, trials,
                                          RandomStream(17))
        assert covers(est, trials,
                      typical.TypicalIndex(source, n, gamma).delta)

    def test_atypical_mass_beyond_the_dense_index(self):
        # 3**32 sequences: no index can be built, the type classes suffice
        gamma = power_gamma(32)
        est, _ = typical.atypical_mass_mc(K3, 32, gamma, TRIALS,
                                          RandomStream(5))
        exact = typical.TypicalIndex(K3, 32, gamma).delta
        assert covers(est, TRIALS, exact)


class TestSymbolwiseCoverage:
    @pytest.mark.parametrize("codec", CODECS)
    def test_error(self, codec):
        exact = symbol.rejection_probability(codec)
        est, _ = _estimate(TRIALS, RandomStream(6), exact)
        assert covers(est, TRIALS, exact)

    @pytest.mark.parametrize("codec", CODECS)
    @pytest.mark.parametrize("side", ["x", "y"])
    def test_optimal_forgery(self, codec, side):
        # the estimate of the attack's success covers the float-keyed
        # convolution of its optimal forgery's positions
        best = attack.symbolwise_attack(codec, side)
        est, _ = _estimate(TRIALS, RandomStream(7), best.success_prob)
        assert covers(est, TRIALS,
                      forged_success(codec, side, best.optimal_forgery))

    @pytest.mark.parametrize("codec,seq", [
        pytest.param(modular(5, K3, 8), (0, 1, 1, 2, 3, 4, 4, 4), id="k3-m5")])
    @pytest.mark.parametrize("side", ["x", "y"])
    def test_mixed_forgery_exact_success(self, codec, seq, side):
        # a forgery of several symbols, which the attack need not pick,
        # against the float-keyed convolution of its positions
        assert scan_success(codec, side, seq) == pytest.approx(
            forged_success(codec, side, seq), abs=1e-12)

    @pytest.mark.parametrize("codec", CODECS)
    @pytest.mark.parametrize("side", ["x", "y"])
    def test_optimal_forgery_success_is_the_attack(self, codec, side):
        # the optimum's success against the float-keyed convolution of
        # its positions
        best = attack.symbolwise_attack(codec, side)
        assert best.success_prob == pytest.approx(
            forged_success(codec, side, best.optimal_forgery), abs=1e-12)


class TestExactEndpoints:
    def test_tie_rejects_every_legitimate_pair(self):
        # every finite score equals I(X;Y), so at gamma = 0 the strict test
        # rejects every pair: alpha = 1 exactly
        tied = dataclasses.replace(modular(4, U2, 6), gamma=0.0)
        assert symbol.rejection_probability(tied) == 1.0
        assert _estimate(1000, RandomStream(1),
                         symbol.rejection_probability(tied)) == (1.0, 0.0)

    def test_zero_error_configs_estimate_exactly_zero(self):
        p_e = block.exact_quantities(blockwise(U2, 6)).delta
        assert p_e == 0.0
        assert _estimate(5000, RandomStream(2), p_e)[0] == 0.0
        p_e = symbol.rejection_probability(modular(4, U2, 4, gamma=0.5))
        assert p_e == 0.0
        assert _estimate(5000, RandomStream(3), p_e)[0] == 0.0

    def test_fixed_outcomes_draw_nothing(self, tally):
        # an exact mass of 0 or 1 fixes each trial's outcome: nothing is
        # drawn
        rng = RandomStream(4)
        tied = dataclasses.replace(modular(4, U2, 6), gamma=0.0)
        assert _estimate(10 ** 6, rng, symbol.rejection_probability(tied)) \
            == (1.0, 0.0)
        assert _estimate(10 ** 6, rng, symbol.rejection_probability(
            modular(4, U2, 6, gamma=0.25))) == (0.0, 3e-06)
        assert _estimate(5000, rng, blockwise(U2, 6).index.delta) \
            == (0.0, 3.0 / 5000)
        # at n=1 both compositions of the skewed source miss a tight window
        assert atypical_mass(SKEW, 1, 0.01) == 1.0
        assert typical.atypical_mass_mc(SKEW, 1, 0.01, 5000, rng) == (1.0, 0.0)
        assert tally == []


CONFIGS = Path(__file__).resolve().parents[1] / "configs"
# every shipped Monte Carlo config, and the configs the golden Monte Carlo
# runs take to mc mode
MC_CONFIGS = sorted([path for path in CONFIGS.glob("*.json")
                     if json.loads(path.read_text()).get("mode") == "mc"]
                    + list(MC_RUNS.values()))


class TestHitIsTheExactMass:
    """Each estimate is one Bernoulli per trial of the exact mass of the
    quantity it estimates: the `hit` it hands `_estimate` is the exact
    record's field, bit for bit."""

    @pytest.fixture
    def hits(self, monkeypatch):
        seen, real = [], prob._estimate

        def spy(trials, rng, hit):
            seen.append(hit)
            return real(trials, rng, hit)
        for module in (cli, harness, typical):
            monkeypatch.setattr(module, "_estimate", spy)
        return seen

    @pytest.mark.parametrize("path", MC_CONFIGS, ids=lambda p: p.stem)
    def test_record_estimates(self, path, hits):
        cfg = dataclasses.replace(harness.ExperimentConfig.from_dict(
            json.loads(path.read_text())), mode="mc", trials=1000)
        estimated = harness.run_experiment(cfg).records
        exact = harness.run_experiment(
            dataclasses.replace(cfg, mode="exact")).records
        assert all(r.skipped is None for r in estimated)
        assert hits == [v for r in exact for v in (r.p_e, r.p_x, r.p_y)]

    @pytest.mark.parametrize("source,n", BLOCK_CASES)
    def test_atypical_mass(self, source, n, hits):
        gamma = power_gamma(n)
        typical.atypical_mass_mc(source, n, gamma, 1000, RandomStream(1))
        assert hits == [typical.TypicalIndex(source, n, gamma).delta]

    @pytest.mark.parametrize("flags", [
        ("--scheme", "blockwise", "--source", "0.7,0.3", "--n", 8,
         "--ell", 0.5, "--side", "x"),
        ("--scheme", "symbolwise", "--source", "0.5,0.3,0.2", "--m", 5,
         "--n", 8, "--side", "y")], ids=["blockwise", "symbolwise"])
    def test_cli_attack(self, flags, hits, capsys):
        # `attack --mode mc` estimates the exact optimum it prints in
        # exact mode, and prints that forgery
        exact = cli_attack(capsys, *flags)
        sampled = cli_attack(capsys, *flags, "--mode", "mc", "--trials", 1000)
        assert hits == [exact["success_prob"]]
        assert sampled["optimal_forgery"] == exact["optimal_forgery"]


class TestNoDenseIndex:
    def test_blockwise_monte_carlo_skips_the_rank_map(self, monkeypatch,
                                                       capsys):
        def dense(*args, **kwargs):
            raise AssertionError("the dense index was used")

        monkeypatch.setattr(typical.TypicalIndex, "xi_plus_all", dense,
                            raising=False)
        for name in ("xi_plus", "unrank"):
            monkeypatch.setattr(typical.TypicalIndex, name, dense)
        monkeypatch.setattr(oracles.IIDExtension, "all_probs", dense)
        cfg = harness.ExperimentConfig.from_dict(
            {"source": [0.7, 0.3], "scheme": {"kind": "blockwise", "ell": 0.5},
             "n_values": [8], "mode": "mc", "trials": 2000})
        rec, = harness.run_experiment(cfg).records
        assert rec.skipped is None
        for side in ("x", "y"):
            cli_attack(capsys, "--scheme", "blockwise", "--source", "0.7,0.3",
                       "--n", 8, "--ell", 0.5, "--side", side, "--mode", "mc",
                       "--trials", 2000, "--seed", 2)


class CountingGenerator:
    """A generator that tallies its draws, one method name per call."""

    def __init__(self, gen, draws):
        self._gen, self._draws = gen, draws

    def __getattr__(self, name):
        attr = getattr(self._gen, name)
        if name == "bit_generator":
            return attr

        def draw(*args, **kwargs):
            self._draws.append(name)
            return attr(*args, **kwargs)
        return draw


@pytest.fixture
def tally(monkeypatch):
    """What every estimate in the test draws, by a wrapper around the one
    generator that `_estimate` draws from."""
    draws, real = [], prob._thread_generator
    monkeypatch.setattr(prob, "_thread_generator",
                        lambda: CountingGenerator(real(), draws))
    return draws


class TestOneDraw:
    """An estimate draws one binomial from the one generator of its
    thread, whatever its trial count, so a counting wrapper around that
    generator sees exactly one draw."""

    @pytest.mark.parametrize("trials", [2 * (1 << 16) + 1, prob.MAX_TRIALS])
    def test_wrapped_generator_counts_one_binomial(self, trials, tally):
        est, _ = _estimate(trials, RandomStream(9), 0.3)
        hits = int(RandomStream(9).gen.binomial(trials, 0.3))
        assert hits > 0 and est == hits / trials
        assert tally == ["binomial"]


class TestClearGate:
    """A forged block can hit only with no -inf score.  Its exact success
    counts that, so a forgery that never clears it estimates 0 without a
    draw, and one that rarely does draws one binomial."""

    def test_a_forgery_that_never_clears_estimates_zero(self, tally):
        # uniform:2, M=4 at gamma = 0: every finite score ties the bar, so
        # no forged block ever clears the strict test
        tied = dataclasses.replace(modular(4, U2, 8), gamma=0.0)
        hit = attack.symbolwise_attack(tied, "y").success_prob
        assert hit == 0.0 == scan_success(tied, "y", (2,) * 8)
        assert _estimate(5000, RandomStream(1), hit) == (0.0, 3.0 / 5000)
        assert tally == []

    def test_draws_far_fewer_rows_than_trials(self, tally, capsys):
        # uniform:2, M=4: each forged symbol scores -inf with mass 1/2, so
        # a trial clears with probability 2**-32; a row per trial would
        # draw 10**6 rows, and the CLI's estimate draws one binomial
        codec = modular(4, U2, 32, gamma=0.25)
        res = cli_attack(capsys, "--scheme", "symbolwise", "--source",
                         "uniform:2", "--m", 4, "--n", 32, "--gamma",
                         "const:0.25", "--side", "x", "--mode", "mc",
                         "--trials", 10 ** 6, "--seed", 3)
        assert tally == ["binomial"]
        assert res["trials"] == 10 ** 6
        assert covers(res["success_prob"], 10 ** 6,
                      attack.symbolwise_attack(codec, "x").success_prob)


class TestShippedMonteCarloStreams:
    """Record i's estimate of task j (p_e, p_x, p_y) is
    `RandomStream(seed).substream(i).substream(j).gen.binomial(trials,
    exact) / trials`, with the exact value of the same field; these pins
    were computed that way, apart from the harness.  Every p_e is 0
    exactly, so nothing is drawn.  At symbolwise n=32 each attack's exact
    success is 2**-32, and 10**6 trials draw no hit."""

    PINNED = {
        "symbolwise_mc": {8: (0.0, 0.003903, 0.003877),
                          16: (0.0, 2.2e-05, 1.5e-05),
                          32: (0.0, 0.0, 0.0)},
        "blockwise_uniform_mc": {6: (0.0, 0.00176, 0.001905),
                                 8: (0.0, 0.0002, 0.000255),
                                 10: (0.0, 3e-05, 3e-05)},
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_estimates_are_pinned(self, name):
        path = Path(__file__).resolve().parents[1] / "configs" / f"{name}.json"
        cfg = harness.ExperimentConfig.from_dict(json.loads(path.read_text()))
        got = {r.n: (r.p_e, r.p_x, r.p_y)
               for r in harness.run_experiment(cfg).records}
        assert got == self.PINNED[name]


class TestBlockwiseGate:
    """Every blockwise forgery hits with the same mass M / ((M+1) L): the
    honest u_l matches with mass 1/L, and the honest u_m then misses the
    one rejected value.  So a trial is one Bernoulli of it, the estimate
    one binomial, and no honest component is drawn."""

    def test_draws_far_fewer_honest_values_than_trials(self, tally, capsys):
        # L = 2**15: drawing both honest components per trial would draw
        # 2 * 10**6 values; the CLI's estimate draws none, one binomial
        params = blockwise(U2, 10, ell=1.5)
        assert params.l_count == 1 << 15
        res = cli_attack(capsys, "--scheme", "blockwise", "--source",
                         "uniform:2", "--n", 10, "--ell", 1.5, "--side", "x",
                         "--mode", "mc", "--trials", 10 ** 6, "--seed", 1)
        assert tally == ["binomial"]
        assert res["trials"] == 10 ** 6
        m, l_count = params.m_count, params.l_count
        assert covers(res["success_prob"], 10 ** 6, m / ((m + 1) * l_count))


class TestForgeryOutsideTheAlphabet:
    """Forgeries outside the share alphabet raise ValueError in the
    acceptance tests, not a silent verdict or a bare IndexError."""

    def test_blockwise_share(self):
        # L = 16, M = 219
        params = blockwise(SKEW, 8)
        assert (params.l_count, params.m_count) == (16, 219)
        for forgery in ((0, params.m_count + 5), (-1, 0),
                        (params.l_count, 0), (0, -1)):
            share = block.BlockShare(*forgery)
            with pytest.raises(ValueError,
                               match=rf"^share {re.escape(str(share))} "
                                     "outside the share alphabet$"):
                block.accepts(params, share, block.BlockShare(0, 0))

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_symbolwise_symbol(self, bad):
        # -1 must not read symbol 2's row, nor 3 raise IndexError
        codec = modular(3, SKEW, 4)
        with pytest.raises(ValueError,
                           match=rf"^share symbol {bad} outside \[0, 3\)$"):
            symbol.accepts_n(codec, (0, 1, bad, 0), (0, 0, 0, 0))
