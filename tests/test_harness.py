"""Experiment driver and CLI tests: config validation, record evaluation,
report emission round-trips, reproducibility, and exit codes."""
import csv
import dataclasses
import io
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import twoshare
from twoshare import attack, cli, harness, symbol
from twoshare.harness import (CSV_COLUMNS, ConfigError, ExperimentConfig,
                              ExperimentReport, HOLDS, NOT_APPLICABLE,
                              RunRecord, VERDICT_KEYS, VIOLATED, emit_csv,
                              emit_jsonl, emit_report, read_report_jsonl,
                              run_experiment)
from twoshare.symbol import FAIL_SECRECY_X
from broken_splitters import identity_leak_scheme


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def csv_rows(text: str) -> list[dict]:
    """The rows of a CSV emission, parsed by the stdlib reader."""
    return list(csv.DictReader(io.StringIO(text)))


def base_dict(**over):
    d = {"source": [0.7, 0.3],
         "scheme": {"kind": "blockwise", "ell": 1.0},
         "schedule": {"kind": "power_law", "a": 1.0 / 3.0},
         "n_values": [4, 6], "mode": "exact", "seed": 7}
    d.update(over)
    return d


# values the parser must refuse: null, a fraction where a count belongs, a
# boolean, a non-finite float, an unknown key, the other scheme's parameter
MALFORMED = [
    base_dict(scheme={"kind": "blockwise", "ell": None}),
    base_dict(scheme={"kind": "symbolwise", "m": None}),
    base_dict(schedule={"kind": "power_law", "a": None}),
    base_dict(schedule="x"),
    base_dict(n_values=[4.7, 8.2]),
    base_dict(n_values=[True, 8]),
    base_dict(scheme={"kind": "symbolwise", "m": 4.5}),
    base_dict(mode="mc", trials=2.9),
    base_dict(schedule={"kind": "constant", "gamma": math.nan}),
    base_dict(schedule={"kind": "constant", "gamma": math.inf}),
    base_dict(scheme={"kind": "blockwise", "ell": math.nan}),
    dict(base_dict(), schedul={"kind": "constant", "gamma": 0.5}),
    base_dict(scheme={"kind": "symbolwise", "m": 4, "ell": 1.0}),
    base_dict(scheme={"kind": "blockwise", "ell": 10 ** 400}),
    base_dict(seed=-1),
    base_dict(seed=1 << 64),
]

# any JSON value; no string holds "uniform:", whose k would be allocated
_TEXT = st.text(max_size=12).filter(lambda s: "uniform:" not in s)
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _TEXT,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=12)


def _field(valid):
    """A value of one config field: valid three times in four, else any
    JSON value."""
    return st.sampled_from([True, True, True, False]).flatmap(
        lambda ok: valid if ok else JSON)


# a config of valid-looking parts, each one possibly broken or dropped
CONFIG_LIKE = st.fixed_dictionaries(
    {"source": _field(st.sampled_from(
        [[0.7, 0.3], [0.5, 0.3, 0.2], "uniform:2", "0.5,0.5", [1, 0]])),
     "scheme": _field(st.one_of(
         st.fixed_dictionaries({"kind": st.just("blockwise"),
                                "ell": _field(st.floats(0, 4))}),
         st.fixed_dictionaries({"kind": st.just("symbolwise"),
                                "m": _field(st.integers(1, 6))}))),
     "n_values": _field(st.lists(st.integers(1, 40), min_size=1, max_size=3,
                                 unique=True).map(sorted))},
    optional={
        "schedule": _field(st.one_of(
            st.fixed_dictionaries({"kind": st.just("power_law")},
                                  optional={"a": _field(st.floats(0, 0.6))}),
            st.fixed_dictionaries({"kind": st.just("constant"),
                                   "gamma": _field(st.floats(-0.5, 2))}))),
        "mode": _field(st.sampled_from(["exact", "mc"])),
        "trials": _field(st.integers(0, 10) | st.floats(0, 10)),
        "seed": _field(st.integers() | st.floats())})


class TestConfig:
    def test_from_dict_minimal(self):
        cfg = ExperimentConfig.from_dict(
            {"source": [0.5, 0.5],
             "scheme": {"kind": "blockwise", "ell": 0.5},
             "n_values": [4]})
        assert cfg.schedule_kind == "power_law"
        assert cfg.mode == "exact"
        assert cfg.seed == 0
        assert cfg.n_values == (4,)

    def test_string_source(self):
        cfg = ExperimentConfig.from_dict(base_dict(source="uniform:3"))
        assert cfg.source == pytest.approx((1 / 3, 1 / 3, 1 / 3))

    def test_round_trip_blockwise(self):
        cfg = ExperimentConfig.from_dict(base_dict())
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_round_trip_symbolwise_constant(self):
        cfg = ExperimentConfig.from_dict(base_dict(
            scheme={"kind": "symbolwise", "m": 4},
            schedule={"kind": "constant", "gamma": 0.25},
            mode="mc", trials=5000))
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("broken", [
        base_dict(n_values=[]),
        base_dict(n_values=[0, 4]),
        base_dict(n_values=[8, 4]),
        base_dict(n_values=[4, 4]),
        base_dict(scheme={"kind": "triple", "ell": 1.0}),
        base_dict(scheme={"kind": "blockwise"}),
        base_dict(scheme={"kind": "blockwise", "ell": -1.0}),
        base_dict(scheme={"kind": "symbolwise"}),
        base_dict(source=[0.7, 0.3, 0.2], scheme={"kind": "symbolwise", "m": 2}),
        base_dict(schedule={"kind": "geometric"}),
        base_dict(schedule={"kind": "constant"}),
        base_dict(schedule={"kind": "power_law", "a": 0.9}),
        base_dict(mode="approximate"),
        base_dict(mode="mc", trials=0),
        base_dict(source=[0.5, 0.6]),
        {"scheme": {"kind": "blockwise", "ell": 1.0}, "n_values": [4]},
    ] + MALFORMED)
    def test_rejects_malformed(self, broken):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(broken)

    def test_invalid_config_fails_when_built(self):
        # checked once, by whatever builds it; run_experiment checks nothing
        with pytest.raises(ConfigError, match="n_values"):
            ExperimentConfig(source=(0.7, 0.3), scheme_kind="blockwise",
                             n_values=(), seed=0, ell=1.0)
        cfg = ExperimentConfig.from_dict(base_dict())
        with pytest.raises(ConfigError, match="trial count"):
            dataclasses.replace(cfg, mode="mc", trials=0)
        with pytest.raises(ConfigError, match="non-negative"):
            dataclasses.replace(cfg, ell=math.nan)

    def test_mc_trials_stop_at_two_to_the_36(self):
        # an estimate runs 2**36 trials at most; exact mode leaves the
        # count unused
        ExperimentConfig.from_dict(base_dict(mode="mc", trials=2 ** 36))
        ExperimentConfig.from_dict(base_dict(trials=2 ** 36 + 1))
        with pytest.raises(ConfigError, match=r"at most 2\*\*36 trials"):
            ExperimentConfig.from_dict(base_dict(mode="mc",
                                                 trials=2 ** 36 + 1))

    @pytest.mark.parametrize("raw,message", [
        (base_dict(n_values=[4.7, 8.2]),
         "bad config: 'n_values' entry 4.7 is not a whole number"),
        (base_dict(n_values=[True, 8]),
         "bad config: 'n_values' entry true is not a whole number"),
        (base_dict(scheme={"kind": "blockwise", "ell": None}),
         "blockwise scheme needs 'ell'"),
        (base_dict(schedule={"kind": "power_law", "a": None}),
         "bad config: power_law 'a' null is not a finite number"),
        (base_dict(schedule={"kind": "constant", "gamma": math.nan}),
         "bad config: constant 'gamma' NaN is not a finite number"),
        (base_dict(schedule="x"), "bad config: schedule \"x\" is not an "
         "object of kind 'power_law' or 'constant'"),
        (dict(base_dict(), schedul={}),
         "bad config: unknown key 'schedul' in the top level"),
        (base_dict(scheme={"kind": "symbolwise", "m": 4, "ell": 1.0}),
         "bad config: unknown key 'ell' in the symbolwise scheme"),
        (base_dict(source=[0.5, 0.6]),
         "bad config: probabilities sum to 1.1, not 1 within 1e-12"),
        (base_dict(scheme={"kind": "blockwise", "ell": 10 ** 400}),
         f"bad config: blockwise 'ell' {10 ** 400} is not a finite number"),
        (base_dict(seed=-1), "bad config: 'seed' -1 is not in [0, 2**64)"),
        (base_dict(seed=1 << 64),
         f"bad config: 'seed' {1 << 64} is not in [0, 2**64)"),
    ], ids=["fractional-n", "boolean-n", "null-ell", "null-a", "nan-gamma",
            "schedule-text", "typo-key", "other-scheme-key", "source-sum",
            "int-past-float-range", "negative-seed", "seed-past-64-bits"])
    def test_malformed_input_is_named(self, raw, message):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(raw)
        assert str(err.value) == message

    def test_seed_is_one_64_bit_key_word(self):
        # -1 used to run as seed 2**64 - 1; the top word itself is a seed
        top = (1 << 64) - 1
        cfg = ExperimentConfig.from_dict(base_dict(seed=top))
        assert cfg.seed == top
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
        with pytest.raises(ConfigError, match="'seed' -1"):
            dataclasses.replace(cfg, seed=-1)

    @settings(max_examples=300, deadline=None)
    @given(raw=st.one_of(JSON, CONFIG_LIKE))
    def test_from_dict_raises_config_error_or_round_trips(self, raw):
        try:
            cfg = ExperimentConfig.from_dict(raw)
        except ConfigError:
            return
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg


class TestRunExperiment:
    def test_blockwise_exact_all_bounds_hold(self):
        report = run_experiment(ExperimentConfig.from_dict(base_dict(
            scheme={"kind": "blockwise", "ell": 0.5})))
        assert [r.n for r in report.records] == [4, 6]
        assert not report.any_violated
        for rec in report.records:
            assert rec.skipped is None
            assert set(rec.verdicts) == set(VERDICT_KEYS)
            assert all(v == HOLDS for v in rec.verdicts.values())
            assert rec.p_e_ci is None and rec.p_x_ci is None
            assert math.isfinite(rec.exp_x) and math.isfinite(rec.exp_y)

    def test_symbolwise_exact_all_bounds_hold(self):
        report = run_experiment(ExperimentConfig.from_dict(base_dict(
            scheme={"kind": "symbolwise", "m": 3})))
        assert not report.any_violated
        for rec in report.records:
            assert rec.rate_x == pytest.approx(math.log2(3), abs=1e-12)
            assert all(v == HOLDS for v in rec.verdicts.values())

    def test_symbolwise_rate_checked_against_measured_correlation(
            self, monkeypatch):
        # the rate log2(M) must equal H(S) + I(X;Y) as the codec measures
        # it; against H(S) + (log2(M) - H(S)) it held for every codec.  The
        # sandwich I(X;Y) = log2(M) - H(S) is the same equation
        real = harness.make_scheme
        monkeypatch.setattr(harness, "make_scheme", lambda cfg, n: (
            lambda codec: dataclasses.replace(codec, i_xy=codec.i_xy + 0.01)
        )(real(cfg, n)))
        report = run_experiment(ExperimentConfig.from_dict(base_dict(
            scheme={"kind": "symbolwise", "m": 3})))
        for rec in report.records:
            assert rec.skipped is None
            assert rec.verdicts["rate"] == rec.verdicts["sandwich"] == VIOLATED

    def test_mc_mode_reports_intervals(self):
        cfg = ExperimentConfig.from_dict(base_dict(
            scheme={"kind": "symbolwise", "m": 3}, mode="mc", trials=2000))
        report = run_experiment(cfg)
        for rec in report.records:
            assert rec.p_e_ci is not None and rec.p_e_ci > 0.0
            assert rec.p_x_ci is not None and rec.p_y_ci is not None
        assert not report.any_violated

    def test_mc_reruns_identical(self):
        cfg = ExperimentConfig.from_dict(base_dict(
            scheme={"kind": "blockwise", "ell": 0.5}, mode="mc", trials=2000))
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert emit_csv(a) == emit_csv(b)
        # jsonl differs only in the wall-time metadata line
        assert emit_jsonl(a).splitlines()[1:] == emit_jsonl(b).splitlines()[1:]

    def test_empty_typical_set_skips_record(self):
        cfg = ExperimentConfig.from_dict(base_dict(
            schedule={"kind": "constant", "gamma": 0.05}, n_values=[4]))
        report = run_experiment(cfg)
        rec = report.records[0]
        assert rec.skipped is not None
        assert all(v == NOT_APPLICABLE for v in rec.verdicts.values())
        assert math.isnan(rec.p_e)
        assert not report.any_violated

    @pytest.mark.parametrize("mode", ["exact", "mc"])
    def test_mask_values_past_int64_evaluate(self, mode):
        # M + 1 = 2**70 + 1 mask values, past one 64-bit integer draw: no
        # record draws a mask, so Monte Carlo mode evaluates too
        cfg = ExperimentConfig.from_dict(base_dict(
            source="uniform:2", scheme={"kind": "blockwise", "ell": 0.5},
            n_values=[4, 70], mode=mode, trials=1000))
        report = run_experiment(cfg)
        assert report.records[0].skipped is None
        rec = report.records[1]
        assert rec.skipped is None
        assert all(v == HOLDS for v in rec.verdicts.values())
        if mode == "exact":
            assert rec.p_x == pytest.approx(2.0 ** -35)
        else:
            # 1000 trials of a 2**-35 success: no hit
            assert (rec.p_x, rec.p_x_ci) == (0.0, 3.0 / 1000)

    def test_mask_bits_past_the_limit_skip_record(self):
        # n * ell = 1024 masking bits exceed MAX_MASK_BITS = 1023
        cfg = ExperimentConfig.from_dict(base_dict(
            scheme={"kind": "blockwise", "ell": 2.0}, n_values=[511, 512]))
        report = run_experiment(cfg)
        assert report.records[0].skipped is None
        assert "1023" in report.records[1].skipped
        assert not report.any_violated

    @pytest.mark.parametrize("n,mode", [
        pytest.param(n, mode, id=str(n) if mode == "exact" else f"{n}-mc")
        for mode in ("exact", "mc") for n in (200, 511)])
    def test_mask_bits_up_to_the_limit_evaluate(self, n, mode):
        # 400 and 1022 masking bits: L = 2**(2n) divides as a float, so the
        # attacks succeed with M / ((M+1) L) and read exponent ell = 2; a
        # Monte Carlo trial is one Bernoulli of that mass
        cfg = ExperimentConfig.from_dict(base_dict(
            scheme={"kind": "blockwise", "ell": 2.0}, n_values=[n],
            mode=mode, trials=1000))
        (rec,) = run_experiment(cfg).records
        assert rec.skipped is None
        if mode == "exact":
            assert rec.exp_x == rec.exp_y == 2.0
        else:
            assert rec.p_x == rec.p_y == 0.0   # no hit in 1000 trials
        assert all(v == HOLDS for v in rec.verdicts.values())

    @pytest.mark.parametrize("kind", ["blockwise", "symbolwise"])
    def test_unexpected_value_error_propagates(self, kind, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("unexpected")

        monkeypatch.setattr(harness.block, "exact_quantities", broken)
        monkeypatch.setattr(harness.symbol, "rejection_probability", broken)
        scheme = ({"kind": "blockwise", "ell": 1.0} if kind == "blockwise"
                  else {"kind": "symbolwise", "m": 3})
        cfg = ExperimentConfig.from_dict(base_dict(scheme=scheme))
        with pytest.raises(ValueError, match="unexpected"):
            run_experiment(cfg)

    @pytest.mark.parametrize("source,scheme,n,mode", [
        pytest.param([0.7, 0.3], {"kind": "blockwise", "ell": 1.0}, 4,
                     mode, id=f"empty-typical-set-{mode}")
        for mode in ("exact", "mc")
    ] + [
        # 1024 masking bits
        pytest.param("uniform:2", {"kind": "blockwise", "ell": 2.0}, 512,
                     mode, id=f"mask-bits-{mode}") for mode in ("exact", "mc")
    ] + [
        pytest.param([0.4, 0.3, 0.2, 0.1], {"kind": "symbolwise", "m": 6},
                     1500, mode, id=f"lattice-cap-{mode}")
        for mode in ("exact", "mc")
    ])
    def test_typed_skips_share_one_form(self, source, scheme, n, mode):
        # gamma = 0.05 leaves [0.7, 0.3] at n=4 no typical block; the
        # other walls do not depend on gamma
        cfg = ExperimentConfig.from_dict(base_dict(
            source=source, scheme=scheme, n_values=[n], mode=mode,
            schedule={"kind": "constant", "gamma": 0.05}, trials=1000))
        (rec,) = run_experiment(cfg).records
        assert rec.skipped
        assert rec.verdicts == {k: NOT_APPLICABLE for k in VERDICT_KEYS}
        numbers = [f.name for f in dataclasses.fields(RunRecord)
                   if isinstance(f.default, float)]
        assert all(math.isnan(getattr(rec, k)) for k in numbers)
        assert rec.p_e_ci is None and rec.p_x_ci is None \
            and rec.p_y_ci is None

    @pytest.mark.parametrize("source,scheme,n,mode,schedule", [
        # the rate floor 2**(n (H(S) - gamma)) is past the float range
        pytest.param([0.7, 0.3], {"kind": "blockwise", "ell": 0.0}, 2000,
                     "exact", {"kind": "power_law", "a": 1.0 / 3.0},
                     id="blockwise-rate-floor"),
        # Monte Carlo decides rows on the 2001 cuts, not 2003001 vectors
        pytest.param([0.5, 0.3, 0.2], {"kind": "symbolwise", "m": 5}, 2000,
                     "mc", {"kind": "power_law", "a": 1.0 / 3.0},
                     id="symbolwise-mc-cuts"),
        # the direct cap 2**(n (gamma - ell)) is past the float range
        pytest.param("uniform:2", {"kind": "symbolwise", "m": 2}, 1100,
                     "exact", {"kind": "constant", "gamma": 1.0},
                     id="symbolwise-direct-cap"),
    ])
    def test_records_past_float_and_cap_walls_evaluate(self, source, scheme,
                                                       n, mode, schedule):
        cfg = ExperimentConfig.from_dict(base_dict(
            source=source, scheme=scheme, schedule=schedule, n_values=[n],
            mode=mode, trials=1000))
        (rec,) = run_experiment(cfg).records
        assert rec.skipped is None
        assert all(v == HOLDS for v in rec.verdicts.values())
        assert 0.0 <= rec.p_e < 1e-9

    @staticmethod
    def count_splitter_calls(monkeypatch, build=symbol.modular_scheme):
        """Route the harness's splitter through `build`, counting calls of
        its encoder and decoder."""
        calls = {"encode": 0, "decode": 0}

        def counting(m, k):
            base = build(m, k)

            def encode_fn(s, u):
                calls["encode"] += 1
                return base.encode_fn(s, u)

            def decode_fn(x, y):
                calls["decode"] += 1
                return base.decode_fn(x, y)
            return dataclasses.replace(base, encode_fn=encode_fn,
                                       decode_fn=decode_fn)

        monkeypatch.setattr(symbol, "modular_scheme", counting)
        return calls

    @pytest.mark.parametrize("mode", ["exact", "mc"])
    def test_symbolwise_sweep_calls_the_splitter_once(self, mode,
                                                      monkeypatch):
        calls = self.count_splitter_calls(monkeypatch)
        for n_values in ([6], [6, 8, 10, 12]):
            run_experiment(ExperimentConfig.from_dict(base_dict(
                source=[0.5, 0.3, 0.2], scheme={"kind": "symbolwise", "m": 5},
                n_values=n_values, mode=mode, trials=1000)))
            # one pass over the 3 x 5 support points, whatever the sweep
            assert calls == {"encode": 15, "decode": 15}, n_values
            calls.update(encode=0, decode=0)

    @pytest.mark.parametrize("mode", ["exact", "mc"])
    def test_sweep_records_match_one_codec_per_blocklength(self, mode):
        # the codec derived by dataclasses.replace gives the records a codec
        # built at that blocklength gives
        raw = base_dict(source=[0.5, 0.3, 0.2],
                        scheme={"kind": "symbolwise", "m": 5},
                        n_values=[6, 9, 12], mode=mode, trials=2000)
        sweep = run_experiment(ExperimentConfig.from_dict(raw)).records
        for i, n in enumerate(raw["n_values"]):
            # a one-blocklength sweep draws from the stream of record 0,
            # so compare Monte Carlo records at the first blocklength only
            if mode == "mc" and i:
                continue
            (alone,) = run_experiment(ExperimentConfig.from_dict(
                dict(raw, n_values=[n]))).records
            assert vars(alone) == vars(sweep[i]), n

    def test_failed_codec_build_skips_every_record(self, monkeypatch):
        calls = self.count_splitter_calls(monkeypatch, identity_leak_scheme)
        report = run_experiment(ExperimentConfig.from_dict(base_dict(
            scheme={"kind": "symbolwise", "m": 3}, n_values=[4, 6, 8])))
        assert [r.skipped for r in report.records] == [FAIL_SECRECY_X] * 3
        assert all(r.verdicts == {k: NOT_APPLICABLE for k in VERDICT_KEYS}
                   for r in report.records)
        assert calls["encode"] == 2 * 3

    def test_wide_share_alphabet_config_evaluates(self):
        # k=2, M=1024: a share alphabet past the old dense (S,U,X,Y) joint
        raw = json.loads((CONFIG_DIR / "symbolwise_wide_m.json").read_text())
        report = run_experiment(ExperimentConfig.from_dict(raw))
        h_s = twoshare.entropy(twoshare.PMF.from_probs(raw["source"]))
        assert [r.n for r in report.records] == [16, 64]
        for rec in report.records:
            assert rec.skipped is None
            assert rec.i_xy_per_symbol == pytest.approx(
                math.log2(1024) - h_s, rel=0.0, abs=1e-9)
            assert all(v == HOLDS for v in rec.verdicts.values())

    def test_wall_time_recorded(self):
        report = run_experiment(ExperimentConfig.from_dict(
            base_dict(n_values=[4])))
        assert report.wall_time_s >= 0.0


UNIFORM_MC = json.loads((CONFIG_DIR / "blockwise_uniform_mc.json").read_text())


class TestMonteCarloVerdicts:
    # at seeds 0, 9, 21 and 36 the 95% Wald interval of an attack estimate
    # falls below the converse floor, which the uniform source's exact
    # success meets with equality; at 12, 27 and 32 it does not
    @pytest.mark.parametrize("seed", [0, 9, 12, 21, 27, 32, 36])
    def test_tight_converse_not_violated_by_noise(self, seed):
        report = run_experiment(ExperimentConfig.from_dict(
            dict(UNIFORM_MC, seed=seed)))
        assert [r.verdicts["exp"] for r in report.records] == [HOLDS] * 3

    def test_estimate_far_above_one_over_l_violates(self, monkeypatch):
        real, inflated_hits = harness._estimate, []

        def inflated(trials, rng, hit):
            if hit == 0.0:   # p_e: every type class is typical at n=6
                return real(trials, rng, hit)
            # an attack: ten times its exact success M / ((M+1) L), far
            # above the direct cap 1/L, with its Wald half-width
            inflated_hits.append(hit)
            p = 10.0 * hit
            return p, 1.96 * math.sqrt(p * (1.0 - p) / trials)

        monkeypatch.setattr(harness, "_estimate", inflated)
        cfg = ExperimentConfig.from_dict(dict(UNIFORM_MC, n_values=[6]))
        rec = run_experiment(cfg).records[0]
        assert len(inflated_hits) == 2
        assert (rec.p_x, rec.p_y) == tuple(10.0 * h for h in inflated_hits)
        assert rec.verdicts["exp"] == VIOLATED
        assert rec.verdicts["logsum"] == HOLDS


class TestEmission:
    def make_report(self, **over):
        return run_experiment(ExperimentConfig.from_dict(base_dict(**over)))

    def test_csv_round_trip(self):
        report = self.make_report(scheme={"kind": "blockwise", "ell": 0.5})
        rows = csv_rows(emit_csv(report))
        assert len(rows) == len(report.records)
        for row, rec in zip(rows, report.records):
            assert tuple(row) == CSV_COLUMNS
            assert int(row["n"]) == rec.n
            assert float(row["p_e"]) == pytest.approx(rec.p_e, rel=1e-11,
                                                      abs=1e-15)
            assert float(row["rate_x"]) == pytest.approx(rec.rate_x, rel=1e-11)
            assert float(row["exp_x"]) == pytest.approx(rec.exp_x, rel=1e-11)
            for key in VERDICT_KEYS:
                assert row[f"v_{key}"] == rec.verdicts[key]

    def test_csv_header_only_when_no_records(self):
        cfg = ExperimentConfig.from_dict(base_dict())
        text = emit_csv(ExperimentReport(config=cfg, records=[]))
        assert text == ",".join(CSV_COLUMNS) + "\n"
        assert csv_rows(text) == []

    def test_csv_skipped_record_emits_nan(self):
        report = self.make_report(
            schedule={"kind": "constant", "gamma": 0.05}, n_values=[4])
        row = csv_rows(emit_csv(report))[0]
        assert math.isnan(float(row["p_e"])) and math.isnan(float(row["rate_x"]))
        assert row["v_rate"] == NOT_APPLICABLE

    def test_csv_writes_negative_zero_as_zero(self):
        # an attack that always succeeds has exponent -log2(1)/n = -0.0;
        # JSONL keeps it as it is
        report = self.make_report(n_values=[4])
        rec = dataclasses.replace(report.records[0], exp_x=-0.0, exp_y=-0.0)
        report = dataclasses.replace(report, records=[rec])
        row = emit_csv(report).splitlines()[1].split(",")
        assert row[CSV_COLUMNS.index("exp_x")] == "0"
        assert row[CSV_COLUMNS.index("exp_y")] == "0"
        assert '"exp_x": -0.0' in emit_jsonl(report)

    def test_jsonl_round_trip(self):
        report = self.make_report(scheme={"kind": "symbolwise", "m": 3})
        back = read_report_jsonl(emit_jsonl(report))
        assert back.config == report.config
        assert back.records == report.records
        assert back.version == report.version
        assert back.wall_time_s == report.wall_time_s

    def test_jsonl_metadata_carries_package_version(self):
        report = self.make_report(n_values=[4])
        meta = json.loads(emit_jsonl(report).splitlines()[0])
        assert meta["version"] == twoshare.__version__

    def test_jsonl_round_trip_skipped_record(self):
        report = self.make_report(
            schedule={"kind": "constant", "gamma": 0.05}, n_values=[4])
        rec = read_report_jsonl(emit_jsonl(report)).records[0]
        assert rec.skipped == report.records[0].skipped
        assert math.isnan(rec.p_e)

    def test_jsonl_records_match_their_asdict_form(self):
        # records are serialised from their own dict; the output is the
        # deep copy's, byte for byte
        reports = [
            self.make_report(scheme={"kind": "symbolwise", "m": 3}),
            self.make_report(scheme={"kind": "symbolwise", "m": 3},
                             mode="mc", trials=2000),
            self.make_report(schedule={"kind": "constant", "gamma": 0.05},
                             n_values=[4])]
        assert reports[1].records[0].p_e_ci is not None
        assert reports[2].records[0].skipped
        for report in reports:
            lines = emit_jsonl(report).splitlines()[1:]
            assert lines == [json.dumps(dict(dataclasses.asdict(r),
                                             type="record"), sort_keys=True)
                             for r in report.records]

    def test_jsonl_requires_metadata(self):
        with pytest.raises(ConfigError):
            read_report_jsonl('{"type": "record", "n": 4, "gamma_n": 0.5}\n')

    def test_jsonl_rejects_an_unknown_record_key(self):
        # RunRecord(**d) used to raise TypeError
        report = self.make_report(n_values=[4])
        meta, rec = emit_jsonl(report).splitlines()
        rec = json.dumps(dict(json.loads(rec), colour="red"))
        with pytest.raises(ConfigError, match=(
                "^jsonl report line 2: .*unexpected keyword argument "
                "'colour'$")):
            read_report_jsonl(meta + "\n" + rec + "\n")

    def test_unknown_format_rejected(self):
        report = self.make_report(n_values=[4])
        with pytest.raises(ConfigError):
            emit_report(report, "xml")


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(base_dict(
        scheme={"kind": "blockwise", "ell": 0.5}, n_values=[4])))
    return str(path)


class TestCli:
    def run(self, argv, capsys):
        code = cli.main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_encode_blockwise(self, capsys):
        code, out, _ = self.run(
            ["encode", "--scheme", "blockwise", "--source", "0.5,0.5",
             "--n", "2", "--gamma", "const:0.75", "--ell", "0.0",
             "--secret", "0,1", "--seed", "3"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["x"]["l"] == 0  # level 0 leaves a single mask value
        assert 0 <= payload["x"]["m"] <= payload["m_count"]

    def test_encode_past_a_64_bit_u_l_draw_exits_one(self, capsys):
        # n * ell = 70 bits: numpy refused the draw of u_l with a bare
        # "high is out of bounds" ValueError
        secret = ",".join(["0"] * 25 + ["1"] * 10)
        code, out, err = self.run(
            ["encode", "--scheme", "blockwise", "--source", "0.7,0.3",
             "--n", "35", "--ell", "2.0", "--secret", secret], capsys)
        assert code == 1 and out == ""
        assert err == (f"error: n=35: {1 << 70} values of u_l exceed a 64-bit "
                       "integer draw; lower n or ell\n")

    def test_encode_past_a_64_bit_u_m_draw_exits_one(self, capsys):
        # n * ell = 35 bits of u_l, but M + 1 = 2**70 + 1 values of u_m
        secret = ",".join(["0", "1"] * 35)
        code, out, err = self.run(
            ["encode", "--scheme", "blockwise", "--source", "uniform:2",
             "--n", "70", "--ell", "0.5", "--secret", secret], capsys)
        assert code == 1 and out == ""
        assert err == (f"error: n=70: {(1 << 70) + 1} values of u_m exceed a "
                       "64-bit integer draw; lower n\n")

    def test_attack_mc_past_a_64_bit_mask(self, capsys):
        # 2**400 values of u_l and more than 2**63 of u_m: the estimate
        # draws neither, and covers the exact M / ((M+1) L)
        argv = ["attack", "--scheme", "blockwise", "--source", "0.7,0.3",
                "--n", "200", "--ell", "2"]
        code, out, _ = self.run(argv + ["--mode", "exact"], capsys)
        assert code == 0
        exact = json.loads(out)["success_prob"]
        assert exact == pytest.approx(2.0 ** -400)
        code, out, err = self.run(argv + ["--mode", "mc", "--trials", "1000"],
                                  capsys)
        assert code == 0 and err == ""
        sampled = json.loads(out)
        assert harness.VERDICT_Z == 5.0
        lo, hi = harness._verdict_range(sampled["success_prob"],
                                        sampled["ci_halfwidth"], 1000)
        assert lo <= exact <= hi

    def test_encode_decode_round_trip_symbolwise(self, capsys):
        code, out, _ = self.run(
            ["encode", "--scheme", "symbolwise", "--m", "3",
             "--source", "0.7,0.3", "--n", "4", "--gamma", "const:0.5",
             "--secret", "1,0,0,1", "--seed", "5"], capsys)
        assert code == 0
        shares = json.loads(out)
        code, out, _ = self.run(
            ["decode", "--scheme", "symbolwise", "--m", "3",
             "--source", "0.7,0.3", "--n", "4", "--gamma", "const:0.5",
             "--x", ",".join(map(str, shares["x"])),
             "--y", ",".join(map(str, shares["y"]))], capsys)
        assert code == 0
        assert json.loads(out) == {"secret": [1, 0, 0, 1]}

    def test_decode_reports_rejection(self, capsys):
        code, out, _ = self.run(
            ["decode", "--scheme", "blockwise", "--source", "uniform:2",
             "--n", "2", "--gamma", "const:0.75", "--ell", "0.0",
             "--x", "0,3", "--y", "0,1"], capsys)
        assert code == 0
        assert json.loads(out) == {"rejected": True}

    def test_attack_exact_and_sampled(self, capsys):
        argv = ["attack", "--scheme", "blockwise", "--source", "0.7,0.3",
                "--n", "4", "--ell", "1.0", "--side", "x"]
        code, out, _ = self.run(argv, capsys)
        assert code == 0
        exact = json.loads(out)
        assert exact["mode"] == "exact"
        code, out, _ = self.run(argv + ["--mode", "mc", "--trials", "20000",
                                        "--seed", "9"], capsys)
        assert code == 0
        sampled = json.loads(out)
        assert sampled["trials"] == 20000
        assert abs(sampled["success_prob"] - exact["success_prob"]) \
            <= sampled["ci_halfwidth"] + 1e-12

    def test_validate_scheme_passes_and_fails(self, capsys):
        code, out, _ = self.run(
            ["validate-scheme", "--source", "uniform:2", "--m", "4"], capsys)
        assert code == 0
        assert json.loads(out)["passed"] is True
        # the broken splitters are test fixtures, not a CLI option: the
        # validator's failures are tested on them directly
        code, out, err = self.run(
            ["validate-scheme", "--source", "uniform:2", "--m", "4",
             "--variant", "identity-leak"], capsys)
        assert code == 1 and out == ""
        assert "--variant" in err

    def test_experiment_csv_stdout(self, config_path, capsys):
        code, out, _ = self.run(["experiment", "--config", config_path],
                                capsys)
        assert code == 0
        assert out.splitlines()[0] == ",".join(CSV_COLUMNS)

    def test_experiment_jsonl_to_file(self, config_path, tmp_path, capsys):
        out_path = tmp_path / "report.jsonl"
        code, _, _ = self.run(
            ["experiment", "--config", config_path, "--format", "jsonl",
             "--out", str(out_path)], capsys)
        assert code == 0
        report = read_report_jsonl(out_path.read_text())
        assert report.records[0].n == 4

    def test_experiment_exit_two_on_violation(self, config_path, capsys,
                                              monkeypatch):
        def fake(cfg):
            rec = RunRecord(n=4, gamma_n=0.5,
                            verdicts={"rate": VIOLATED})
            return ExperimentReport(config=cfg, records=[rec])

        monkeypatch.setattr(harness, "run_experiment", fake)
        code, _, _ = self.run(["experiment", "--config", config_path], capsys)
        assert code == 2

    def test_experiment_names_skips_on_stderr(self, tmp_path, capsys):
        path = tmp_path / "masks.json"
        path.write_text(json.dumps(base_dict(
            source="uniform:2", scheme={"kind": "blockwise", "ell": 2.0},
            schedule={"kind": "constant", "gamma": 0.3}, n_values=[512, 600])))
        code, out, err = self.run(["experiment", "--config", str(path)],
                                  capsys)
        assert code == 0
        rows = csv_rows(out)
        assert [int(r["n"]) for r in rows] == [512, 600]
        assert all(math.isnan(float(r["p_e"])) for r in rows)
        assert err.splitlines() == [
            "skipped n=512: exponent 1024.0 exceeds the 1023.0-bit limit; "
            "lower n or ell",
            "skipped n=600: exponent 1200.0 exceeds the 1023.0-bit limit; "
            "lower n or ell",
            "2 of 2 records skipped"]

    def test_experiment_without_skips_is_quiet(self, config_path, capsys):
        code, _, err = self.run(["experiment", "--config", config_path],
                                capsys)
        assert code == 0 and err == ""

    def test_experiment_seed_override_changes_mc_output(self, tmp_path,
                                                        capsys):
        path = tmp_path / "mc.json"
        path.write_text(json.dumps(base_dict(
            scheme={"kind": "symbolwise", "m": 3}, n_values=[6],
            mode="mc", trials=2000)))
        code, out_a, _ = self.run(
            ["experiment", "--config", str(path), "--seed", "1"], capsys)
        code_b, out_b, _ = self.run(
            ["experiment", "--config", str(path), "--seed", "1"], capsys)
        assert code == 0 and code_b == 0
        assert out_a == out_b

    @pytest.mark.parametrize("argv", [
        ["experiment", "--config", "/nonexistent/conf.json"],
        ["nonsense"],
        ["encode", "--scheme", "blockwise", "--source", "0.7,0.3"],
        ["encode", "--scheme", "symbolwise", "--source", "0.7,0.3",
         "--n", "4", "--secret", "0,1,0,1"],  # missing --m
        ["encode", "--scheme", "blockwise", "--source", "not-a-pmf",
         "--n", "4", "--secret", "0"],
        ["encode", "--scheme", "blockwise", "--source", "0.7,0.3", "--n", "4",
         "--gamma", "const:0.05", "--secret", "0,0,0,0"],
        # a share alphabet below the secret alphabet
        ["validate-scheme", "--source", "uniform:3", "--m", "2"],
        # "@text" stands for a config file holding text: a top level that
        # is not an object, with an override flag and without one
        ["experiment", "--config", "@[1, 2]", "--seed", "3"],
        ["experiment", "--config", '@"symbolwise"', "--mode", "mc"],
        ["experiment", "--config", "@[1, 2]"],
        # flags argparse once typed itself
        ["encode", "--scheme", "blockwise", "--source", "0.7,0.3", "--n", "4",
         "--secret", "0,0,0,0", "--seed", "x"],
        ["validate-scheme", "--source", "uniform:2", "--m", "4.5"],
    ] + [
        ["encode", "--scheme", "blockwise", "--source", "0.7,0.3", "--n", "4",
         *flags, "--secret", "0,0,0,0"]
        for flags in (["--gamma", "const:nan"], ["--gamma", "const:inf"],
                      ["--ell", "nan"], ["--gamma", "bogus"], ["--n", "0"],
                      ["--gamma", "power_law:0.25"],
                      ["--gamma", "constant:0.5"], ["--gamma", "power_law"])
    ])
    def test_failures_exit_one(self, argv, tmp_path, capsys):
        path = tmp_path / "config.json"
        for i, arg in enumerate(argv):
            if arg.startswith("@"):
                path.write_text(arg[1:])
                argv = argv[:i] + [str(path)] + argv[i + 1:]
        code, _, err = self.run(argv, capsys)
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("argv", [
        ["encode", "--scheme", "blockwise", "--source", "0.7,0.3", "--n", "4",
         "--secret", "0,0,0,0", "--seed", "x"],
        ["attack", "--scheme", "blockwise", "--source", "0.7,0.3", "--n", "4",
         "--mode", "mc", "--trials", "2.5"],
        ["validate-scheme", "--source", "uniform:2", "--m", "4.5"],
        ["validate-scheme", "--source", "uniform:2", "--seed", "x"],
        ["attack", "--scheme", "blockwise", "--source", "0.7,0.3", "--n", "4",
         "--mode", "mc", "--seed", "-1"],
        ["encode", "--scheme", "blockwise", "--source", "0.7,0.3", "--n", "4",
         "--secret", "0,0,0,0", "--seed", str(1 << 64)],
    ])
    def test_number_flags_print_one_error_line(self, argv, capsys):
        # --seed, --trials and validate-scheme's --m are judged as a
        # config's whole numbers, not by argparse's usage block
        code, out, err = self.run(argv, capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: bad config: ") and err.count("\n") == 1

    @pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
    def test_validate_scheme_judges_the_seed_range(self, seed, capsys):
        # as a config and every other subcommand judge it, though the seed
        # goes unused there
        code, out, err = self.run(
            ["validate-scheme", "--source", "uniform:2", "--seed", seed],
            capsys)
        assert (code, out) == (1, "")
        assert err == f"error: bad config: 'seed' {seed} is not in [0, 2**64)\n"

    @pytest.mark.parametrize("raw", MALFORMED)
    def test_malformed_config_prints_one_error_line(self, raw, tmp_path,
                                                    capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))   # NaN and Infinity as json writes them
        code, out, err = self.run(["experiment", "--config", str(path)],
                                  capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("flags,scheme,change", [
        (["--ell", "-1"], {"kind": "blockwise", "ell": -1}, {}),
        (["--ell", "nan"], {"kind": "blockwise", "ell": math.nan}, {}),
        (["--m", "4.5"], {"kind": "symbolwise", "m": 4.5}, {}),
        (["--m", "1"], {"kind": "symbolwise", "m": 1}, {}),
        (["--n", "4.7"], {"kind": "blockwise", "ell": 0.0},
         {"n_values": [4.7]}),
        (["--n", "0"], {"kind": "blockwise", "ell": 0.0}, {"n_values": [0]}),
        (["--gamma", "const:inf"], {"kind": "blockwise", "ell": 0.0},
         {"schedule": {"kind": "constant", "gamma": math.inf}}),
        (["--gamma", "const"], {"kind": "blockwise", "ell": 0.0},
         {"schedule": {"kind": "constant"}}),
        (["--gamma", "const:x"], {"kind": "blockwise", "ell": 0.0},
         {"schedule": {"kind": "constant", "gamma": "x"}}),
        (["--gamma", "power:0.9"], {"kind": "blockwise", "ell": 0.0},
         {"schedule": {"kind": "power_law", "a": 0.9}}),
        # a form the flag does not know is text, not a schedule object
        (["--gamma", "power_law:0.25"], {"kind": "blockwise", "ell": 0.0},
         {"schedule": "power_law:0.25"}),
    ])
    def test_flags_and_config_print_the_same_error(self, flags, scheme, change,
                                                   tmp_path, capsys):
        # the scheme flags parse through the config's own parser
        argv = ["encode", "--scheme", scheme["kind"], "--source", "0.7,0.3",
                "--n", "4", "--secret", "0,0,0,0"] + flags
        code, _, flag_err = self.run(argv, capsys)
        assert code == 1
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(
            {"source": [0.7, 0.3], "scheme": scheme, "n_values": [4]},
            **change)))
        code, _, config_err = self.run(["experiment", "--config", str(path)],
                                       capsys)
        assert code == 1
        assert flag_err == config_err
        assert flag_err.startswith("error: ") and flag_err.count("\n") == 1

    def test_override_flags_parse_as_config_values(self, config_path,
                                                   tmp_path, capsys):
        code, out, _ = self.run(
            ["experiment", "--config", config_path, "--format", "jsonl",
             "--mode", "mc", "--trials", "500", "--seed", "4"], capsys)
        assert code == 0
        cfg = read_report_jsonl(out).config
        assert (cfg.mode, cfg.trials, cfg.seed) == ("mc", 500, 4)
        code, _, flag_err = self.run(
            ["experiment", "--config", config_path, "--mode", "mc",
             "--trials", "2.9"], capsys)
        path = tmp_path / "fractional.json"
        path.write_text(json.dumps(dict(
            json.loads(Path(config_path).read_text()), mode="mc", trials=2.9)))
        code_b, _, config_err = self.run(
            ["experiment", "--config", str(path)], capsys)
        assert code == code_b == 1
        assert flag_err == config_err == (
            "error: bad config: 'trials' 2.9 is not a whole number\n")

    def test_override_flags_replace_file_values_before_the_parse(
            self, tmp_path, capsys):
        # a file invalid on its own runs once an override mends it
        path = tmp_path / "no_trials.json"
        path.write_text(json.dumps(base_dict(n_values=[4], mode="mc",
                                             trials=0)))
        for flags, mode, trials in ((["--trials", "300"], "mc", 300),
                                    (["--mode", "exact"], "exact", 0)):
            code, out, _ = self.run(["experiment", "--config", str(path),
                                     "--format", "jsonl"] + flags, capsys)
            assert code == 0
            cfg = read_report_jsonl(out).config
            assert (cfg.mode, cfg.trials) == (mode, trials)
        code, _, err = self.run(["experiment", "--config", str(path)], capsys)
        assert code == 1
        assert err == "error: mc mode needs a positive trial count\n"

    def test_attack_past_the_trial_limit_fails_up_front(self, capsys):
        # refused as a config error before the exact attack or a draw
        code, out, err = self.run(
            ["attack", "--scheme", "blockwise", "--source", "0.7,0.3",
             "--n", "8", "--ell", "1", "--mode", "mc",
             "--trials", str(2 ** 36 + 1)], capsys)
        assert (code, out) == (1, "")
        assert err == ("error: mc mode runs at most 2**36 trials per "
                       "estimate, not 68719476737\n")

    def test_non_object_config_names_the_top_level(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("[1, 2]")
        code, _, err = self.run(
            ["experiment", "--config", str(path), "--seed", "3"], capsys)
        assert code == 1
        assert err == "error: bad config: the top level is not an object\n"

    def test_key_error_in_a_command_propagates(self, config_path,
                                               monkeypatch, capsys):
        # no input raises a bare KeyError; one from a bug is not an input
        # error and must not read as one
        def broken(cfg):
            raise KeyError("bug")

        monkeypatch.setattr(harness, "run_experiment", broken)
        with pytest.raises(KeyError, match="bug"):
            cli.main(["experiment", "--config", config_path])

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        capsys.readouterr()

    def test_bad_config_json_exits_one(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(base_dict(n_values=[])))
        code, _, err = self.run(["experiment", "--config", str(path)], capsys)
        assert code == 1
        assert "error:" in err
