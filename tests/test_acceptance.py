"""End-to-end acceptance checks for the package's headline guarantees.

Each test is one criterion, so `pytest -v` prints one pass/fail line per
guarantee.  Every derived number is checked against an oracle computed in
this file by an independent mechanical route (dense enumeration, direct
counting, or a closed form evaluated from scratch).
"""
import itertools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

import broken_splitters
import oracles
import blockwise_oracle
from blockwise_oracle import atypical_mass, flat_to_share, xi_plus_all
from oracles import JointPMF, iid_extension, mutual_information

from twoshare import attack as atk
from twoshare import block, harness, symbol
from twoshare.prob import PMF, RandomStream, _estimate, entropy
from twoshare.typical import GammaSchedule, build_index

SKEW = PMF.from_probs([0.7, 0.3])
U2 = PMF.uniform(2)
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
POWER = GammaSchedule.power_law(1.0 / 3.0)


def blockwise_params(source, n, ell, gamma=None):
    if gamma is None:
        gamma = POWER.gamma_at(n)
    return block.BlockwiseParams(ell, build_index(source, n, gamma))


def load_config(name, **over):
    raw = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    raw.update(over)
    return harness.ExperimentConfig.from_dict(raw)


def test_01_blockwise_shares_carry_no_secret_information():
    start = time.monotonic()
    # on the dense (secret, mask) grid; a record spells both as 0
    for n in (4, 6, 8):
        for ell in (0.0, 0.5):
            q = blockwise_oracle.exact_quantities(
                blockwise_params(SKEW, n, ell))
            assert q.i_sx <= 1e-9
            assert q.i_sy <= 1e-9
    assert time.monotonic() - start < 60.0


def symbolwise_joints(m, source):
    scheme = symbol.modular_scheme(m, source.support_size)
    return oracles.scheme_joint(scheme, source)


def test_02_symbolwise_shares_carry_no_secret_information():
    for m in (2, 3, 4):
        for source in (U2, SKEW):
            joint = symbolwise_joints(m, source)
            assert mutual_information(joint.marginal(0, 2)) <= 1e-9
            assert mutual_information(joint.marginal(0, 3)) <= 1e-9
            uniform = np.full(m, 1.0 / m)
            np.testing.assert_allclose(joint.marginal(2).probs, uniform,
                                       atol=1e-12)
            np.testing.assert_allclose(joint.marginal(3).probs, uniform,
                                       atol=1e-12)


def test_03_share_correlation_equals_alphabet_excess():
    # per-symbol value, then block additivity by dense product enumeration
    for m in (2, 3, 4):
        for source in (U2, SKEW):
            joint = symbolwise_joints(m, source)
            p_xy = joint.marginal(2, 3)
            level = math.log2(m) - entropy(source)
            per_symbol = mutual_information(p_xy)
            assert per_symbol == pytest.approx(level, abs=1e-9)
            n = 6 if m < 4 else 5
            full = p_xy.probs
            for _ in range(n - 1):
                full = np.kron(full, p_xy.probs)
            assert mutual_information(JointPMF(full)) == pytest.approx(
                n * per_symbol, abs=1e-8)


def test_04_per_symbol_correlation_sandwiched_by_level():
    for n in (4, 8, 12):
        q = block.exact_quantities(blockwise_params(SKEW, n, 0.5))
        per_symbol = q.i_xy / n
        assert q.sandwich_lo - 1e-9 <= per_symbol <= q.sandwich_hi + 1e-9


def forgery_success_grid(params, side):
    """Success probability of every forged share, by direct evaluation.

    The honest counterpart's mask half and value half are independent, so
    each forged (l, c) scores P{mask match} * P{sum not the sentinel}; the
    value-half distribution is accumulated by enumeration, not assumed.
    """
    mp1 = params.m_count + 1
    if side == "x":
        p_val = np.full(mp1, 1.0 / mp1)  # honest Y carries the raw mask
    else:
        p_sn = iid_extension(params.index.source, params.n).all_probs()
        z = xi_plus_all(params.index)
        p_val = np.zeros(mp1)
        for u in range(mp1):
            p_val += np.bincount((z - u) % mp1, weights=p_sn,
                                 minlength=mp1) / mp1
    c = np.arange(mp1)
    accept = ((c[:, None] + c[None, :]) % mp1) != params.m_count
    succ_val = accept @ p_val
    return np.multiply.outer(np.full(params.l_count, 1.0 / params.l_count),
                             succ_val)


def test_05_blockwise_forgery_never_beats_one_over_l():
    for n in (4, 8, 12):
        params = blockwise_params(SKEW, n, 0.5)
        m, l = params.m_count, params.l_count
        closed_form = m / (l * (m + 1.0))
        for side in ("x", "y"):
            best = atk.blockwise_attack(params, side).success_prob
            assert best <= 1.0 / l + 1e-15
            assert best == pytest.approx(closed_form, rel=1e-12)
            grid = forgery_success_grid(params, side)
            assert grid.size == params.share_size
            assert np.max(grid) == pytest.approx(best, rel=1e-12)
            # no forged share does better or worse than any other
            assert np.ptp(grid) <= 1e-15
        if n == 4:
            # scalar re-check through the real acceptance predicate
            probs = np.full(params.share_size, 1.0 / params.share_size)
            brute, _ = oracles.attack_bruteforce(
                lambda f, h: block.accepts(params, flat_to_share(params, f),
                                           flat_to_share(params, h)),
                params.share_size, probs)
            assert brute == pytest.approx(closed_form, rel=1e-12)


def count_accepted_recombinations(n, gamma):
    """Score-sum DP over honest symbols for the all-zeros forgery, M=4,
    uniform binary secrets.  Counts honest share blocks whose recombined
    sequence clears the threshold."""
    threshold = 1.0 - gamma  # log2(M) - H(S) - gamma with M=4, H=1
    scores = []
    for b in range(4):
        s = b % 4
        scores.append(math.log2(4 * 0.5) if s < 2 else None)
    sums = {0.0: 1}
    for _ in range(n):
        nxt: dict = {}
        for acc, cnt in sums.items():
            for sc in scores:
                if sc is None:
                    continue
                key = round(acc + sc, 9)
                nxt[key] = nxt.get(key, 0) + cnt
        sums = nxt
    return sum(cnt for tot, cnt in sums.items() if tot / n > threshold)


def test_06_symbolwise_forgery_bounded_by_margin_exponent():
    scheme = symbol.modular_scheme(4, 2)
    for n in (4, 6, 8):
        gamma = POWER.gamma_at(n)
        codec = symbol.make_codec(scheme, U2, n, gamma)
        cap = 2.0 ** (-n * (1.0 - gamma)) + 1e-12
        results = {side: atk.symbolwise_attack(codec, side) for side in "xy"}
        for res in results.values():
            assert res.success_prob <= cap
        if n <= 6:
            # full enumeration of forged blocks against the honest marginal
            seqs = np.array(list(itertools.product(range(4), repeat=n)))
            w = oracles.share_laws(codec).score_table
            best = -1.0
            for f in seqs:
                scores = w[np.tile(f, (len(seqs), 1)), seqs].sum(axis=1) / n
                best = max(best, float(np.count_nonzero(
                    scores > codec.threshold)) / len(seqs))
            assert results["x"].success_prob == pytest.approx(best, abs=1e-12)
        else:
            dp = count_accepted_recombinations(n, gamma) / 4.0 ** n
            assert results["x"].success_prob == pytest.approx(dp, abs=1e-15)


def test_07_attack_exponents_converge_to_correlation_level():
    # masked-rank construction: exponents fall toward the level from above
    gaps = []
    for n in (4, 8, 12):
        params = blockwise_params(SKEW, n, 0.5)
        q = block.exact_quantities(params)
        px = atk.blockwise_attack(params, "x").success_prob
        py = atk.blockwise_attack(params, "y").success_prob
        e = -math.log2(px) / n
        gamma = POWER.gamma_at(n)
        assert 0.5 - gamma <= e + 1e-9
        assert e >= 0.5 - 1e-12
        gaps.append(abs(e - 0.5))
        chk = atk.converse_exponent_check(q.i_xy, params.index.delta, px,
                                          py, n)
        assert chk.holds
    assert gaps[0] > gaps[1] > gaps[2]

    # per-symbol construction: exponent pinned at the level exactly
    scheme = symbol.modular_scheme(4, 2)
    for n in (4, 6, 8):
        gamma = POWER.gamma_at(n)
        codec = symbol.make_codec(scheme, U2, n, gamma)
        tq = oracles.symbolwise_test_quantities(codec)
        px = atk.symbolwise_attack(codec, "x").success_prob
        py = atk.symbolwise_attack(codec, "y").success_prob
        e = -math.log2(px) / n
        assert e == pytest.approx(1.0, abs=1e-12)
        assert 1.0 - gamma <= e + 1e-9
        chk = atk.converse_exponent_check(n * codec.i_xy, tq.alpha, px, py,
                                          n)
        assert chk.holds


def test_08_rejection_probability_vanishes_with_blocklength():
    # the exact rejection mass must equal the out-of-index source mass:
    # bit for bit the index's own sum over its type classes, and within
    # 1e-12 a dense enumeration of every block
    exact = {}
    cfg = harness.ExperimentConfig.from_dict(
        {"source": [0.7, 0.3], "scheme": {"kind": "blockwise", "ell": 0.5},
         "n_values": [4, 8, 12], "mode": "exact"})
    for rec in harness.run_experiment(cfg).records:
        n, gamma = rec.n, POWER.gamma_at(rec.n)
        assert rec.p_e == build_index(SKEW, n, gamma).delta
        assert rec.p_e == pytest.approx(atypical_mass(SKEW, n, gamma),
                                        abs=1e-12)
        exact[n] = rec.p_e
    assert exact[8] > exact[12]

    # sampled rejection rate falls with blocklength, clear of sampling noise
    scheme = symbol.modular_scheme(4, 2)
    est = {}
    for i, n in enumerate((8, 16, 32)):
        codec = symbol.make_codec(scheme, SKEW, n, POWER.gamma_at(n))
        est[n] = _estimate(1_000_000, RandomStream(41, i),
                           symbol.rejection_probability(codec))
    assert est[8][0] > est[16][0] > est[32][0]
    assert est[8][0] - est[8][1] > est[32][0] + est[32][1]


def exact_attack_pair(cfg, rec):
    source = cfg.source
    if cfg.scheme_kind == "blockwise":
        params = block.BlockwiseParams(cfg.ell,
                                       build_index(source, rec.n, rec.gamma_n))
        return (atk.blockwise_attack(params, "x").success_prob,
                atk.blockwise_attack(params, "y").success_prob)
    codec = symbol.make_codec(
        symbol.modular_scheme(cfg.share_size, source.support_size),
        source, rec.n, rec.gamma_n)
    return (atk.symbolwise_attack(codec, "x").success_prob,
            atk.symbolwise_attack(codec, "y").success_prob)


def test_09_bound_verdicts_hold_on_every_record():
    for name in ("blockwise_skew", "symbolwise_skew", "blockwise_uniform_mc",
                 "symbolwise_mc"):
        cfg = load_config(name)
        report = harness.run_experiment(cfg)
        assert report.records, name
        for rec in report.records:
            assert rec.skipped is None, (name, rec.n)
            assert rec.verdicts["logsum"] == harness.HOLDS, (name, rec.n)
            assert rec.verdicts["fano"] == harness.HOLDS, (name, rec.n)
            # one forgery mass: beta is the exact attack on either side
            px, py = exact_attack_pair(cfg, rec)
            assert rec.beta == px == py, (name, rec.n)


def test_10_share_rates_stay_inside_entropy_window():
    h_s = entropy(SKEW)
    for n, ell in itertools.product((4, 6, 8, 12), (0.0, 0.5)):
        gamma = POWER.gamma_at(n)
        params = blockwise_params(SKEW, n, ell, gamma)
        q = block.exact_quantities(params)
        hi = h_s + ell + gamma + 1.0 / n
        lo = h_s + ell - gamma - 1.0 / n
        # both shares take the same L (M+1) values: one rate
        assert q.rate_x <= hi + 1e-12
        assert q.rate_x >= lo - 1e-12
        # cardinality floor behind the lower bound, against the exact count
        floor = (1.0 - q.delta) * 2.0 ** (n * (h_s - gamma))
        assert params.m_count >= floor * (1.0 - 1e-9)


def test_11_validator_accepts_good_and_names_broken_schemes():
    rng = RandomStream(2026)
    for i in range(10):
        k = int(rng.gen.integers(2, 5))
        weights = rng.gen.random(k) + 0.05
        source = PMF.from_probs(weights / weights.sum())
        m = k + int(rng.gen.integers(0, 3))
        report = symbol.validate_base(symbol.modular_scheme(m, k), source)
        assert report.passed, (i, k, m)

    leak = symbol.validate_base(broken_splitters.identity_leak_scheme(4, 2), U2)
    assert not leak.passed
    assert symbol.FAIL_SECRECY_X in leak.failures

    opaque = symbol.validate_base(broken_splitters.nondecodable_scheme(4, 2), U2)
    assert not opaque.passed
    assert symbol.FAIL_DECODE in opaque.failures

    cramped = symbol.validate_base(broken_splitters.undersized_scheme(2, 3),
                                   PMF.uniform(3))
    assert not cramped.passed
    assert symbol.FAIL_SIZE in cramped.failures


def test_12_monte_carlo_reports_reproduce_byte_identically():
    for name in ("blockwise_uniform_mc", "symbolwise_mc"):
        cfg = load_config(name, seed=7)
        first = harness.run_experiment(cfg)
        second = harness.run_experiment(cfg)
        assert harness.emit_csv(first) == harness.emit_csv(second)
        # jsonl carries wall-clock metadata on its first line; the records
        # themselves must match byte for byte
        a = harness.emit_jsonl(first).splitlines()
        b = harness.emit_jsonl(second).splitlines()
        assert a[1:] == b[1:]
