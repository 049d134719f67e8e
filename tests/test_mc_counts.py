"""Count-vector Monte Carlo: every estimator against its exact counterpart.

Each trial draws one block's composition (blockwise) or score-bucket count
vector (symbolwise) and is decided on the exact engines' tables, so an
estimate must cover the exact value.  Coverage uses the Wilson score
interval of hits/trials at z = 5, wide enough that a correct estimator
fails with odds of about 3e-7 per check.
"""
import dataclasses
import math

import numpy as np
import pytest

import symbolwise_oracle as conv
from twoshare import attack, block, harness, prob, symbol, typical
from twoshare.prob import CapExceededError, PMF, RandomStream
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
        assert covers(est, TRIALS, typical.atypical_mass(K3, 32, gamma))


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


class TestNoDenseIndex:
    def test_blockwise_monte_carlo_skips_the_rank_map(self, monkeypatch):
        params = blockwise(SKEW, 8)

        def dense(*args, **kwargs):
            raise AssertionError("the dense index was used")

        monkeypatch.setattr(typical.TypicalIndex, "xi_plus_all", dense,
                            raising=False)
        for name in ("xi_plus", "rank", "unrank", "contains"):
            monkeypatch.setattr(typical.TypicalIndex, name, dense)
        monkeypatch.setattr(prob.IIDExtension, "all_probs", dense)
        block.monte_carlo_error(params, 2000, RandomStream(1))
        for side in ("x", "y"):
            attack.monte_carlo_attack(params, side, (0, 0), 2000,
                                      RandomStream(2))


class TestLatticeTables:
    def test_count_test_matches_scalar_accepts(self):
        codec = modular(5, K3, 8)
        lat = symbol.score_lattice(codec)
        vectors = list(typical.compositions(8, len(lat.values)))
        rows = np.array([(0,) + c for c in vectors])
        got = lat.count_test(8)(rows)
        assert got.tolist() == [lat.accepts(c) for c in vectors]
        assert 0 < got.sum() < len(vectors)
        # any -inf count rejects, whatever the finite counts
        rows[:, 0] = 1
        assert not lat.count_test(8)(rows).any()
        # the lattice's threshold is for n=8 blocks only
        with pytest.raises(ValueError, match="n=8, not n=9"):
            lat.count_test(9)

    def test_count_table_built_once_per_symbolwise_record(self, monkeypatch):
        # the error estimate and both attack estimates share one table
        calls, real = [], symbol.composition_lookup
        monkeypatch.setattr(symbol, "composition_lookup",
                            lambda members, n, parts:
                            calls.append(n) or real(members, n, parts))
        cfg = harness.ExperimentConfig.from_dict(
            {"source": [0.7, 0.3], "scheme": {"kind": "symbolwise", "m": 4},
             "n_values": [4, 8, 12], "mode": "mc", "trials": 2000,
             "seed": 0})
        report = harness.run_experiment(cfg)
        assert all(r.skipped is None for r in report.records)
        assert calls == [4, 8, 12]

    def test_code_overflow_is_a_cap(self):
        with pytest.raises(CapExceededError, match="n=4"):
            typical.composition_lookup([], 4, 32)


class CountingGenerator:
    """A generator that tallies the count-vector rows it hands out."""

    def __init__(self, gen, rows):
        self._gen, self._rows = gen, rows

    def multinomial(self, n, pvals, size=None):
        out = self._gen.multinomial(n, pvals, size=size)
        self._rows.append(1 if size is None else out.shape[0])
        return out

    def __getattr__(self, name):
        return getattr(self._gen, name)


class CountingStream(RandomStream):
    def __init__(self, seed, rows):
        super().__init__(seed)
        self.rows = rows

    def substream(self, i):
        child = super().substream(i)
        child.gen = CountingGenerator(child.gen, self.rows)
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
