"""Experiment driver and CLI tests: config validation, record evaluation,
report emission round-trips, reproducibility, and exit codes."""
import csv
import dataclasses
import io
import json
import math
import re
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
        assert cfg.source.probs == pytest.approx((1 / 3, 1 / 3, 1 / 3))

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
        with pytest.raises(ConfigError,
                           match=r"^bad config: 'trials' 0 is not in"):
            dataclasses.replace(cfg, mode="mc", trials=0)
        with pytest.raises(ConfigError, match="non-negative"):
            dataclasses.replace(cfg, ell=math.nan)
        # the splitter owns M's rule, but a config without one is refused
        # before it is asked
        with pytest.raises(ConfigError,
                           match="^bad config: symbolwise scheme needs 'm'$"):
            dataclasses.replace(cfg, scheme_kind="symbolwise")

    @pytest.mark.parametrize("kind,params,keys,message", [
        ("blockwise", dict(ell=1.0, share_size=4), {"ell": 1.0, "m": 4},
         "bad config: unknown key 'm' in the blockwise scheme"),
        ("symbolwise", dict(ell=1.0, share_size=4), {"ell": 1.0, "m": 4},
         "bad config: unknown key 'ell' in the symbolwise scheme"),
        ("blockwise", dict(ell=math.inf), {"ell": math.inf},
         "bad config: blockwise 'ell' Infinity is not a finite number"),
    ], ids=["m-on-blockwise", "ell-on-symbolwise", "infinite-ell"])
    def test_a_value_the_config_would_ignore_is_refused(self, kind, params,
                                                       keys, message):
        # the other scheme's parameter was accepted and dropped by
        # `to_dict`; ell = inf was accepted and then skipped every record.
        # The constructor, `dataclasses.replace` and `from_dict` name the
        # key alike
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(source=(0.7, 0.3), scheme_kind=kind,
                             n_values=(4,), seed=0, **params)
        assert str(err.value) == message
        valid = {"blockwise": {"ell": 1.0}, "symbolwise": {"m": 4}}[kind]
        cfg = ExperimentConfig.from_dict(base_dict(
            scheme={"kind": kind, **valid}))
        with pytest.raises(ConfigError) as err:
            dataclasses.replace(cfg, **params)
        assert str(err.value) == message
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(base_dict(
                scheme={"kind": kind, **keys}))
        assert str(err.value) == message

    def test_mc_trials_stop_at_two_to_the_36(self):
        # an estimate runs 2**36 trials at most; exact mode leaves the
        # count unused
        ExperimentConfig.from_dict(base_dict(mode="mc", trials=2 ** 36))
        ExperimentConfig.from_dict(base_dict(trials=2 ** 36 + 1))
        with pytest.raises(ConfigError, match=(
                r"^bad config: 'trials' 68719476737 is not in \[1, 2\*\*36\]$")):
            ExperimentConfig.from_dict(base_dict(mode="mc",
                                                 trials=2 ** 36 + 1))

    @pytest.mark.parametrize("raw,message", [
        (base_dict(n_values=[4.7, 8.2]),
         "bad config: 'n_values' entry 4.7 is not a whole number"),
        (base_dict(n_values=[True, 8]),
         "bad config: 'n_values' entry true is not a whole number"),
        (base_dict(scheme={"kind": "blockwise", "ell": None}),
         "bad config: blockwise scheme needs 'ell'"),
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
         "bad config: 'source': probabilities sum to 1.1, not 1 within "
         "1e-12"),
        (base_dict(scheme={"kind": "blockwise", "ell": 10 ** 400}),
         f"bad config: blockwise 'ell' {10 ** 400} is not a finite number"),
        (base_dict(seed=-1), "bad config: 'seed' -1 is not in [0, 2**64)"),
        (base_dict(seed=1 << 64),
         f"bad config: 'seed' {1 << 64} is not in [0, 2**64)"),
        ({"scheme": {"kind": "blockwise", "ell": 1.0}, "n_values": [4]},
         "bad config: 'source' null is not an array"),
        (base_dict(source="uniform:0"),
         "bad config: 'source' \"uniform:0\": alphabet size must be positive"),
        (base_dict(schedule={"kind": "power_law", "a": 0.5}),
         "bad config: 'schedule': power-law exponent must lie strictly in "
         "(0, 0.5)"),
        (base_dict(mode="fast"),
         "bad config: 'mode' \"fast\" is not 'exact' or 'mc'"),
        (base_dict(mode="mc", trials=0),
         "bad config: 'trials' 0 is not in [1, 2**36]"),
        (base_dict(n_values=[8, 4]),
         "bad config: 'n_values' must be increasing positive integers"),
        (base_dict(scheme={"kind": "blockwise", "ell": -1}),
         "bad config: blockwise 'ell' must be non-negative, not -1.0"),
        (base_dict(scheme={"kind": "symbolwise", "m": 1}),
         "bad config: symbolwise 'm': share alphabet M=1 is smaller than "
         "|S|=2"),
    ], ids=["fractional-n", "boolean-n", "null-ell", "null-a", "nan-gamma",
            "schedule-text", "typo-key", "other-scheme-key", "source-sum",
            "int-past-float-range", "negative-seed", "seed-past-64-bits",
            "missing-key", "source-text", "schedule-rule", "mode", "trials",
            "n-order", "negative-ell", "small-m"])
    def test_malformed_input_is_named(self, raw, message):
        # each rule reads "bad config:", names its key, and shows no
        # exception repr: a missing key read "bad config: KeyError('source')",
        # and "uniform:0" "bad config: ValueError('alphabet size must be
        # positive')"
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(raw)
        assert str(err.value) == message

    def test_share_alphabet_stops_at_two_to_the_1022(self):
        # at the bound a record evaluates, in both modes, with one forgery
        # mass; one past it is refused by name
        for mode in ("exact", "mc"):
            cfg = ExperimentConfig.from_dict(base_dict(
                scheme={"kind": "symbolwise", "m": 1 << 1022}, n_values=[1, 4],
                mode=mode, trials=1000))
            one, four = run_experiment(cfg).records
            assert one.skipped is None and four.skipped is None
            assert one.beta == 2.0 ** -1021 and four.beta == 0.0
            assert all(v == HOLDS for r in (one, four)
                       for v in r.verdicts.values())
        with pytest.raises(ConfigError, match=(
                r"^bad config: symbolwise 'm': share alphabet M of 1023 bits "
                r"exceeds 2\*\*1022: M p\(s\) could overflow a float$")):
            ExperimentConfig.from_dict(base_dict(
                scheme={"kind": "symbolwise", "m": (1 << 1022) + 1}))

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
    @pytest.mark.parametrize("name", ["blockwise_skew", "symbolwise_skew",
                                      "symbolwise_mc", "blockwise_uniform_mc"])
    def test_a_warm_source_cache_emits_what_a_cold_one_does(self, name):
        # the second run on one config reads the per-source invariants its
        # PMF cached on the first; a fresh parse computes them anew
        raw = json.loads((CONFIG_DIR / f"{name}.json").read_text())
        cfg, fresh = (ExperimentConfig.from_dict(raw) for _ in range(2))
        cold = run_experiment(cfg)
        assert "entropy" in vars(cfg.source)
        warm = run_experiment(cfg)
        assert "entropy" not in vars(fresh.source)
        outs = [emit_jsonl(dataclasses.replace(report, wall_time_s=0.0))
                for report in (cold, warm, run_experiment(fresh))]
        assert outs[0] == outs[1] == outs[2]

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
    def count_splitter_calls(monkeypatch):
        """Count the calls of the modular splitter's encoder and decoder,
        `symbol.fstar` and `symbol.gstar`, that the harness's schemes
        bind."""
        calls = {"encode": 0, "decode": 0}
        for name, fn in (("encode", symbol.fstar), ("decode", symbol.gstar)):
            def counting(*args, name=name, fn=fn):
                calls[name] += 1
                return fn(*args)
            monkeypatch.setattr(symbol, {"encode": "fstar",
                                         "decode": "gstar"}[name], counting)
        return calls

    @pytest.mark.parametrize("mode", ["exact", "mc"])
    def test_symbolwise_sweep_never_calls_the_splitter(self, mode,
                                                       monkeypatch):
        calls = self.count_splitter_calls(monkeypatch)
        assert symbol.modular_scheme(5, 3).encode_fn(1, 2) == (4, 2)
        assert calls == {"encode": 1, "decode": 0}   # the count is live
        calls.update(encode=0)
        for n_values in ([6], [6, 8, 10, 12]):
            run_experiment(ExperimentConfig.from_dict(base_dict(
                source=[0.5, 0.3, 0.2], scheme={"kind": "symbolwise", "m": 5},
                n_values=n_values, mode=mode, trials=1000)))
            # the codec's laws are closed forms: no splitter call at all
            assert calls == {"encode": 0, "decode": 0}, n_values

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

    def test_failed_codec_build_propagates(self, monkeypatch):
        # a codec build that fails is no cap: it is not turned into skipped
        # records but reaches the caller, naming what went wrong
        monkeypatch.setattr(symbol, "modular_scheme", identity_leak_scheme)
        with pytest.raises(ValueError, match="modular_scheme"):
            run_experiment(ExperimentConfig.from_dict(base_dict(
                scheme={"kind": "symbolwise", "m": 3}, n_values=[4, 6, 8])))

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

    def test_estimate_below_the_converse_floor_holds(self, monkeypatch):
        # whatever the streams draw: attack estimates three standard
        # deviations below their exact M / ((M+1) L), which meets the
        # converse floor with equality, so their 95% Wald interval lies
        # below the floor while the z=5 Wilson interval still reaches it
        real, lowered = harness._estimate, []

        def low(trials, rng, hit):
            if hit == 0.0:   # p_e: every type class is typical at n=6
                return real(trials, rng, hit)
            p = hit - 3.0 * math.sqrt(hit * (1.0 - hit) / trials)
            half = 1.96 * math.sqrt(p * (1.0 - p) / trials)
            lowered.append((hit, p, half))
            return p, half

        monkeypatch.setattr(harness, "_estimate", low)
        cfg = ExperimentConfig.from_dict(dict(UNIFORM_MC, n_values=[6]))
        rec = run_experiment(cfg).records[0]
        assert len(lowered) == 2
        for hit, p, half in lowered:
            assert p + half < hit <= harness._verdict_range(
                p, half, cfg.trials)[1]
            # read at the Wald upper end, the converse would be violated
            assert not attack.converse_exponent_check(
                rec.i_xy_per_symbol * rec.n, rec.alpha, p + half, p + half,
                rec.n).holds
        assert rec.verdicts["exp"] == HOLDS


def shipped_exact(name, n):
    """A shipped config at blocklength n, its record and its real `_Exact`."""
    cfg = ExperimentConfig.from_dict(json.loads(
        (CONFIG_DIR / f"{name}.json").read_text()))
    step = {"blockwise": harness._blockwise_exact,
            "symbolwise": harness._symbolwise_exact}[cfg.scheme_kind]
    ev = step(harness.make_scheme(cfg, n))
    return cfg, RunRecord(n=n, gamma_n=cfg.schedule().gamma_at(n),
                          **ev.fields), ev


class TestExactVerdictMargin:
    # the exp verdict of an exact record allows its attacks no more than
    # the direct cap plus BOUND_TOL = 1e-9: raising p_x or p_y only lowers
    # its exponent, so the converse half still holds and only the cap can
    # read violated

    @pytest.mark.parametrize("name,n", [("blockwise_skew", 8),
                                        ("symbolwise_skew", 32)])
    @pytest.mark.parametrize("side", ["p_x", "p_y"])
    def test_success_just_above_the_direct_cap_violates(self, name, n, side):
        cfg, rec, ev = shipped_exact(name, n)
        assert harness._exp_ok(rec, ev.direct_cap, ev.i_xy, cfg.trials)
        forged = dataclasses.replace(rec, **{side: ev.direct_cap + 1e-6})
        assert not harness._exp_ok(forged, ev.direct_cap, ev.i_xy,
                                   cfg.trials)

    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize("side", ["p_x", "p_y"])
    def test_symbolwise_cap_is_one_gamma_below_ell(self, n, side):
        # the cap is 2^(-n (ell - gamma)); a success between it and
        # 2^(-n (ell - 2 gamma)) reads violated
        cfg, rec, ev = shipped_exact("symbolwise_skew", n)
        ell = math.log2(cfg.share_size) - cfg.source.entropy
        tight, loose = (2.0 ** (-n * (ell - t * rec.gamma_n)) for t in (1, 2))
        assert ev.direct_cap == tight < loose < 1.0
        assert harness._exp_ok(rec, ev.direct_cap, ev.i_xy, cfg.trials)
        between = dataclasses.replace(rec, **{side: math.sqrt(tight * loose)})
        assert not harness._exp_ok(between, ev.direct_cap, ev.i_xy,
                                   cfg.trials)


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

    @pytest.mark.parametrize("line,why", [
        ('{"n": 4, "gamma_n": 0.5}', 'not an object of type "metadata" or '
                                     '"record"'),
        ('{"type": "bogus", "n": 4, "gamma_n": 0.5}',
         'not an object of type "metadata" or "record"'),
        ('[{"type": "record"}]', 'not an object of type "metadata" or '
                                 '"record"'),
        ('"record"', 'not an object of type "metadata" or "record"'),
        ('{"type": "metadata", "version": "0", "wall_time_s": 0.0}',
         "metadata lacks 'config'"),
        ('{"type": "record", "n": 4', "Expecting ',' delimiter"),
    ], ids=["no-type", "unknown-type", "list", "string", "no-config",
            "invalid-json"])
    def test_jsonl_rejects_a_malformed_line_by_number(self, line, why):
        meta = emit_jsonl(self.make_report(n_values=[4])).splitlines()[0]
        with pytest.raises(ConfigError, match=(
                "^jsonl report line 3: " + re.escape(why))):
            read_report_jsonl(meta + "\n\n" + line + "\n")

    @pytest.mark.parametrize("fields,why", [
        ({"n": "four", "gamma_n": None, "p_e": "x"}, "'n' is 'four', not int"),
        ({"n": 4, "gamma_n": None}, "'gamma_n' is None, not float"),
        ({"n": 4, "gamma_n": 0.5, "p_e": "x"}, "'p_e' is 'x', not float"),
        ({"n": True, "gamma_n": 0.5}, "'n' is True, not int"),
        ({"n": 4, "gamma_n": 0.5, "p_x_ci": [0.1]},
         "'p_x_ci' is [0.1], not float | None"),
        ({"n": 4, "gamma_n": 0.5, "verdicts": []},
         "'verdicts' is [], not dict"),
        ({"n": 4, "gamma_n": 0.5, "skipped": 3}, "'skipped' is 3, not str"),
        ({"n": 4, "gamma_n": 0.5, "verdicts": {"rate": 1}},
         "verdict 'rate': 1 is not a verdict"),
        ({"n": 4, "gamma_n": 0.5, "verdicts": {"colour": HOLDS}},
         "verdict 'colour': 'holds' is not a verdict"),
    ], ids=["example", "null-float", "text-float", "bool-int", "list-ci",
            "list-verdicts", "int-skipped", "int-verdict", "unknown-check"])
    def test_jsonl_rejects_a_record_value_of_the_wrong_type(self, fields, why):
        # such a record used to be read, and emit_csv then raised a bare
        # TypeError
        meta = emit_jsonl(self.make_report(n_values=[4])).splitlines()[0]
        line = json.dumps(dict(fields, type="record"))
        with pytest.raises(ConfigError, match=(
                "^jsonl report line 2: " + re.escape(why))):
            read_report_jsonl(meta + "\n" + line + "\n")

    def test_jsonl_reads_every_record_field_type(self):
        # every type RunRecord declares has its JSON reading
        assert {f.type for f in dataclasses.fields(RunRecord)} <= set(
            harness._JSON_TYPES)

    def test_jsonl_reads_integral_floats(self):
        # json keeps 0.0 a float, but a report written by hand may not
        meta = emit_jsonl(self.make_report(n_values=[4])).splitlines()[0]
        line = json.dumps({"type": "record", "n": 4, "gamma_n": 1,
                           "p_e": 0, "p_e_ci": 0})
        rec = read_report_jsonl(meta + "\n" + line + "\n").records[0]
        assert (rec.gamma_n, rec.p_e, rec.p_e_ci) == (1, 0, 0)
        emit_csv(dataclasses.replace(self.make_report(n_values=[4]),
                                     records=[rec]))

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

    def round_trip(self, flags, secret, capsys) -> dict:
        """`encode` then `decode` of `secret` under the scheme flags; the
        shares as `encode` printed them."""
        code, out, err = self.run(["encode", *flags, "--secret",
                                   ",".join(map(str, secret)), "--seed", "3"],
                                  capsys)
        assert (code, err) == (0, "")
        shares = json.loads(out)
        x, y = (",".join(map(str, s.values() if isinstance(s, dict) else s))
                for s in (shares["x"], shares["y"]))
        code, out, _ = self.run(["decode", *flags, "--x", x, "--y", y], capsys)
        assert code == 0 and json.loads(out) == {"secret": list(secret)}
        return shares

    def test_encode_past_a_64_bit_u_l_draw_round_trips(self, capsys):
        # n * ell = 70 bits: this exited 1 with MaskDrawError, and before
        # that with numpy's bare "high is out of bounds" ValueError
        shares = self.round_trip(
            ["--scheme", "blockwise", "--source", "0.7,0.3", "--n", "35",
             "--ell", "2.0"], [0] * 25 + [1] * 10, capsys)
        assert shares["l_count"] == 1 << 70 and shares["x"]["l"] < 1 << 70

    def test_encode_past_a_64_bit_u_m_draw_round_trips(self, capsys):
        # n * ell = 35 bits of u_l, but M + 1 = 2**70 + 1 values of u_m
        shares = self.round_trip(
            ["--scheme", "blockwise", "--source", "uniform:2", "--n", "70",
             "--ell", "0.5"], [0, 1] * 35, capsys)
        assert shares["m_count"] == 1 << 70

    @pytest.mark.parametrize("n", [64, 400, 1000])
    def test_blockwise_encode_at_every_evaluated_blocklength(self, n,
                                                            capsys):
        # [0.7,0.3], ell=0.25: M + 1 passes 2**63 from n=64 on, where
        # MaskDrawError ended every encode
        ones = round(0.3 * n)
        shares = self.round_trip(
            ["--scheme", "blockwise", "--source", "0.7,0.3", "--n", str(n),
             "--ell", "0.25"], [0] * (n - ones) + [1] * ones, capsys)
        assert shares["m_count"] >= 1 << 63

    def test_symbolwise_encode_past_2_to_the_63_symbols(self, capsys):
        # M = 2**64: numpy's int64 draw ended the encode with "high is out
        # of bounds for int64"
        shares = self.round_trip(
            ["--scheme", "symbolwise", "--source", "0.7,0.3", "--m",
             str(1 << 64), "--n", "8"], [0] * 6 + [1] * 2, capsys)
        assert all(0 <= u < 1 << 64 for u in shares["y"])
        assert max(shares["y"]) >= 1 << 63

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

    @pytest.mark.parametrize("argv,named", [
        (["experiment", "--config", "@m"], "exceeds 2**1022"),
        (["attack", "--scheme", "symbolwise", "--source", "0.7,0.3",
          "--n", "4", "--m", str(1 << 1100)], "exceeds 2**1022"),
        (["validate-scheme", "--source", "0.7,0.3", "--m", str(1 << 1100)],
         "exceeds 2**1022"),
        (["validate-scheme", "--source", "0.7,0.3", "--m", str(1 << 32)],
         "8589934592 support points exceed the validation cap 1048576"),
    ])
    def test_share_alphabets_past_a_bound_print_one_error_line(
            self, argv, named, tmp_path, capsys):
        # M = 2**1100 once ended in an OverflowError traceback, and
        # validate-scheme at M = 2**32 walked 2**33 support points
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(base_dict(
            scheme={"kind": "symbolwise", "m": 1 << 1100})))
        argv = [str(path) if a == "@m" else a for a in argv]
        code, out, err = self.run(argv, capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err

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

    def test_an_empty_source_field_is_refused(self, capsys):
        # "0.7,,0.3" once ran as the source [0.7, 0.3]
        code, out, err = self.run(
            ["attack", "--scheme", "symbolwise", "--source", "0.7,,0.3",
             "--m", "3", "--n", "4"], capsys)
        assert (code, out) == (1, "")
        assert err == ("error: bad config: 'source' \"0.7,,0.3\": cannot "
                       "parse PMF from '0.7,,0.3'\n")

    def test_unmatched_source_bracket_is_refused(self, capsys):
        # "[0.7,0.3" once ran as the source [0.7, 0.3]
        code, out, err = self.run(
            ["attack", "--scheme", "symbolwise", "--source", "[0.7,0.3",
             "--m", "3", "--n", "4"], capsys)
        assert (code, out) == (1, "")
        assert err == ("error: bad config: 'source' \"[0.7,0.3\": cannot "
                       "parse PMF from '[0.7,0.3'\n")

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

    @pytest.mark.parametrize("flags,err", [
        (["--source", "uniform:0"], "bad config: 'source' \"uniform:0\": "
         "alphabet size must be positive"),
        (["--source", "0.7,0.3", "--m", "1"],
         "bad config: 'm': share alphabet M=1 is smaller than |S|=2"),
    ])
    def test_validate_scheme_flags_read_as_config_values(self, flags, err,
                                                         capsys):
        # the source and M rules are their owners', in the config's form;
        # both once printed the owner's bare message
        code, out, got = self.run(["validate-scheme", *flags], capsys)
        assert (code, out, got) == (1, "", f"error: {err}\n")

    @pytest.mark.parametrize("raw", MALFORMED)
    def test_malformed_config_prints_one_error_line(self, raw, tmp_path,
                                                    capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))   # NaN and Infinity as json writes them
        code, out, err = self.run(["experiment", "--config", str(path)],
                                  capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: bad config: ") and err.count("\n") == 1, err

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
        assert err == "error: bad config: 'trials' 0 is not in [1, 2**36]\n"

    def test_attack_past_the_trial_limit_fails_up_front(self, capsys):
        # refused as a config error before the exact attack or a draw
        code, out, err = self.run(
            ["attack", "--scheme", "blockwise", "--source", "0.7,0.3",
             "--n", "8", "--ell", "1", "--mode", "mc",
             "--trials", str(2 ** 36 + 1)], capsys)
        assert (code, out) == (1, "")
        assert err == ("error: bad config: 'trials' 68719476737 is not in "
                       "[1, 2**36]\n")

    def test_non_object_config_names_the_top_level(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("[1, 2]")
        code, _, err = self.run(
            ["experiment", "--config", str(path), "--seed", "3"], capsys)
        assert code == 1
        assert err == "error: bad config: the top level is not an object\n"

    @pytest.mark.parametrize("argv,flag,text,count", [
        (["decode", "--scheme", "blockwise", "--ell", "1", "--x", "1,2,3",
          "--y", "0,0"], "--x", "1,2,3", "2 "),
        (["decode", "--scheme", "blockwise", "--ell", "1", "--x", "1",
          "--y", "0,0"], "--x", "1", "2 "),
        (["decode", "--scheme", "blockwise", "--ell", "1", "--x", "0,0",
          "--y", "0,b"], "--y", "0,b", "2 "),
        (["decode", "--scheme", "symbolwise", "--m", "3", "--x", "0,1,0,1.5",
          "--y", "0,0,0,0"], "--x", "0,1,0,1.5", "4 "),
        (["encode", "--scheme", "blockwise", "--ell", "1",
          "--secret", "0,a,1,0"], "--secret", "0,a,1,0", "4 "),
        (["encode", "--scheme", "symbolwise", "--m", "3",
          "--secret", "0,a,1,0"], "--secret", "0,a,1,0", "4 "),
        (["encode", "--scheme", "symbolwise", "--m", "3",
          "--secret", "0,1"], "--secret", "0,1", "4 "),
        (["encode", "--scheme", "blockwise", "--ell", "1",
          "--secret", "0,1"], "--secret", "0,1", "4 "),
        (["decode", "--scheme", "symbolwise", "--m", "3", "--x", "0,1",
          "--y", "0,0,0,0"], "--x", "0,1", "4 "),
        (["decode", "--scheme", "symbolwise", "--m", "3", "--x", "0,0,0,0",
          "--y", "0,0,0,0,0"], "--y", "0,0,0,0,0", "4 "),
        # an empty field is no integer: "0,1,,0,1" encoded four symbols,
        # and "1,,2" read as the share (1, 2)
        (["encode", "--scheme", "symbolwise", "--m", "3",
          "--secret", "0,1,,0,1"], "--secret", "0,1,,0,1", "4 "),
        (["encode", "--scheme", "blockwise", "--ell", "1",
          "--secret", "0,1,0,1,"], "--secret", "0,1,0,1,", "4 "),
        (["decode", "--scheme", "blockwise", "--ell", "1", "--x", "1,,2",
          "--y", "0,0"], "--x", "1,,2", "2 "),
        (["decode", "--scheme", "symbolwise", "--m", "3", "--x", "0,0,0,0",
          "--y", ",0,0,0,0"], "--y", ",0,0,0,0", "4 "),
    ], ids=["x-three", "x-one", "y-text", "symbolwise-x", "secret",
            "symbolwise-secret", "symbolwise-secret-length",
            "secret-length", "symbolwise-x-length", "symbolwise-y-length",
            "symbolwise-secret-empty-field", "secret-empty-field",
            "x-empty-field", "symbolwise-y-empty-field"])
    def test_a_bad_symbol_list_names_its_flag(self, argv, flag, text, count,
                                              capsys):
        # it used to print Python's unpacking or int() message alone; a
        # list of the wrong length named the codec's arguments ("secret
        # and randomness must have length 4") or the block, not the flag
        code, out, err = self.run(
            argv + ["--source", "0.7,0.3", "--n", "4"], capsys)
        assert (code, out) == (1, "")
        assert err == (f"error: {flag} {text!r} is not {count}"
                       "comma-separated integers\n")

    @pytest.mark.parametrize("content", [b"not json", b"", b"\xff{"],
                             ids=["text", "empty", "bad-byte"])
    def test_a_config_that_is_not_json_names_its_path(self, content,
                                                      tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(content)
        code, out, err = self.run(["experiment", "--config", str(path)],
                                  capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: config {path} is not JSON: ")
        assert err.count("\n") == 1
        if content == b"not json":
            assert err.endswith(": Expecting value: line 1 column 1 "
                                "(char 0)\n")

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
