"""Experiment driver: sweep blocklengths, check every claimed bound.

A run takes a config (source, scheme, slack schedule, blocklengths, mode,
seed), evaluates one record per blocklength, and attaches a tri-state
verdict (holds / violated / not_applicable) to each of five bound checks:

  rate      share rates inside the claimed window around H(S) + ell, or
            equal to H(S) + I(X;Y) for the symbolwise scheme
  exp       attack exponents above the direct guarantee and below the
            converse ceiling
  logsum    I(X;Y) >= -h(alpha) - (1-alpha) log2 beta
  fano      (1/n) H(S^n|XY) <= (1/n) h(P_e) + P_e log2 |S|
  sandwich  per-symbol I(X;Y) inside the blockwise window, or equal to
            log2(M) - H(S) for the symbolwise scheme

Exact mode computes error and attack probabilities exhaustively.  Monte
Carlo mode puts estimates of p_e, p_x and p_y in their place, each
Binomial(trials, its exact value) / trials: sampling noise on the exact
value, not independent evidence for it; alpha and beta stay exact.
Verdicts that lean on an estimate judge it by the Wilson score interval of
its hits at z = VERDICT_Z, so that sampling noise cannot manufacture a
violation; the records still carry 95% half-widths.  Records
are deterministic given the seed: every sampling task draws from a
substream keyed by (blocklength index, task), independent of execution
order, so reports are byte-identical across runs.

Report formats: CSV with a fixed column set (floats at 12 significant
digits) and JSON lines carrying every field plus metadata.  See
docs/config-schema.md for the config file format.
"""
from __future__ import annotations

import dataclasses
import functools
import io
import json
import math
import time
from dataclasses import dataclass, field

from . import attack as atk
from . import block, symbol
from ._version import __version__
from .prob import (MAX_TRIALS, PMF, CapExceededError, RandomStream,
                   _estimate)
from .typical import EmptyTypicalSetError, GammaSchedule, build_index

HOLDS = "holds"
VIOLATED = "violated"
NOT_APPLICABLE = "not_applicable"

VERDICT_KEYS = ("rate", "exp", "logsum", "fano", "sandwich")

CSV_COLUMNS = ("n", "gamma_n", "rate_x", "rate_y", "rate_u", "p_e", "p_x",
               "p_y", "i_sx", "i_sy", "i_xy_per_symbol", "exp_x", "exp_y",
               "v_rate", "v_exp", "v_logsum", "v_fano", "v_sandwich")

BOUND_TOL = 1e-9
# one-sided z of the interval a Monte Carlo verdict allows an estimate:
# a bound that holds, even with equality, then reads violated with odds
# of about 3e-7 per estimate (normal tail), where 95% gave 2.5e-2
VERDICT_Z = 5.0


class ConfigError(Exception):
    """The experiment configuration is malformed or inconsistent."""


# kind -> (its one parameter's key, whole number?, default; None: required)
_SCHEMES = {"blockwise": ("ell", False, None), "symbolwise": ("m", True, None)}
_SCHEDULES = {"power_law": ("a", False, 1.0 / 3.0),
              "constant": ("gamma", False, None)}
_KEYS = ("source", "scheme", "schedule", "n_values", "mode", "trials", "seed")
_shown = functools.partial(json.dumps, default=repr)   # null, true, NaN


def _number(value, name: str, whole: bool = False):
    """A finite JSON number: an int where `whole`, else a float.  An int
    is finite, but one past the float range cannot be a float."""
    try:
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not (isinstance(value, int) or math.isfinite(value))
                or whole and value != int(value)):
            raise ValueError
        return int(value) if whole else float(value)
    except (ValueError, OverflowError):
        raise ConfigError(f"bad config: {name} {_shown(value)} is not a "
                          f"{'whole' if whole else 'finite'} number") from None


def _check_seed(seed: int):
    if not 0 <= seed < 1 << 64:   # one 64-bit Philox key word
        raise ConfigError(f"bad config: 'seed' {seed} is not in [0, 2**64)")


def _numbers(value, name: str, whole: bool = False) -> tuple:
    if not isinstance(value, list):
        raise ConfigError(f"bad config: {name} {_shown(value)} is not an array")
    return tuple(_number(v, f"{name} entry", whole) for v in value)


def _known_keys(obj: dict, keys, where: str):
    if unknown := [k for k in obj if k not in keys]:
        raise ConfigError(f"bad config: unknown key {unknown[0]!r} in {where}")


def _kind(value, table: dict, where: str) -> tuple:
    """(kind, parameter) of a scheme or schedule {"kind": k, key: v}: the
    table names, for kind k, the one key it may hold besides "kind"."""
    # in a list, an unhashable kind (an array, say) compares, not raises
    if not (isinstance(value, dict) and value.get("kind") in list(table)):
        raise ConfigError(f"bad config: {where} {_shown(value)} is not an "
                          f"object of kind {' or '.join(map(repr, table))}")
    kind = value["kind"]
    key, whole, default = table[kind]
    _known_keys(value, ("kind", key), f"the {kind} {where}")
    if value.get(key) is None and default is None:   # absent or null
        raise ConfigError(f"{kind} {where} needs '{key}'")
    return kind, _number(value.get(key, default), f"{kind} '{key}'", whole)


@dataclass(frozen=True)
class ExperimentConfig:
    """One run spec, checked when it is built (by the constructor,
    `from_dict` or `dataclasses.replace`), so a config that exists is valid."""

    source: tuple[float, ...]
    scheme_kind: str                 # "blockwise" | "symbolwise"
    n_values: tuple[int, ...]
    seed: int
    mode: str = "exact"              # "exact" | "mc"
    trials: int = 100_000
    ell: float | None = None         # blockwise only
    share_size: int | None = None    # symbolwise only
    schedule_kind: str = "power_law"
    schedule_param: float = 1.0 / 3.0

    def __post_init__(self):
        try:
            self.pmf, self.schedule()
        except ValueError as exc:
            raise ConfigError(f"bad config: {exc}") from exc
        if self.mode not in ("exact", "mc"):
            raise ConfigError(f"mode must be 'exact' or 'mc', not {self.mode!r}")
        if self.mode == "mc" and self.trials < 1:
            raise ConfigError("mc mode needs a positive trial count")
        if self.mode == "mc" and self.trials > MAX_TRIALS:
            raise ConfigError(f"mc mode runs at most 2**36 trials per "
                              f"estimate, not {self.trials}")
        _check_seed(self.seed)
        n = self.n_values
        if not n or n[0] < 1 or any(b <= a for a, b in zip(n, n[1:])):
            raise ConfigError("n_values must be increasing positive integers")
        if self.scheme_kind not in _SCHEMES:
            raise ConfigError(f"unknown scheme kind {self.scheme_kind!r}")
        if self.scheme_kind == "blockwise" and (
                self.ell is None or not self.ell >= 0.0):
            raise ConfigError("blockwise 'ell' must be non-negative")
        if self.scheme_kind == "symbolwise" and (
                self.share_size is None or self.share_size < len(self.source)):
            raise ConfigError("symbolwise 'm' must cover the secret alphabet")

    @classmethod
    def from_dict(cls, raw) -> "ExperimentConfig":
        """Parse a config's JSON value: numbers finite, whole where they
        count, and no unknown key (the other scheme's parameter is one)."""
        try:
            if not isinstance(raw, dict):
                raise ConfigError("bad config: the top level is not an object")
            _known_keys(raw, _KEYS, "the top level")
            kind, param = _kind(raw["scheme"], _SCHEMES, "scheme")
            sk, sp = _kind(raw.get("schedule", {"kind": "power_law"}),
                           _SCHEDULES, "schedule")
            source = raw["source"]
            return cls(
                source=(tuple(PMF.from_text(source).probs.tolist())
                        if isinstance(source, str)
                        else _numbers(source, "'source'")),
                scheme_kind=kind,
                n_values=_numbers(raw["n_values"], "'n_values'", whole=True),
                seed=_number(raw.get("seed", 0), "'seed'", whole=True),
                mode=raw.get("mode", "exact"),
                trials=_number(raw.get("trials", 100_000), "'trials'",
                               whole=True),
                **{"ell" if kind == "blockwise" else "share_size": param},
                schedule_kind=sk, schedule_param=sp)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad config: {exc!r}") from exc

    @functools.cached_property
    def pmf(self) -> PMF:
        return PMF.from_probs(self.source)

    def schedule(self) -> GammaSchedule:
        return GammaSchedule(self.schedule_kind, self.schedule_param)

    def to_dict(self) -> dict:
        param = self.ell if self.scheme_kind == "blockwise" else self.share_size
        return {"source": list(self.source),
                "scheme": {"kind": self.scheme_kind,
                           _SCHEMES[self.scheme_kind][0]: param},
                "schedule": {"kind": self.schedule_kind,
                             _SCHEDULES[self.schedule_kind][0]:
                             self.schedule_param},
                "n_values": list(self.n_values),
                "mode": self.mode, "trials": self.trials, "seed": self.seed}


@dataclass
class RunRecord:
    """One blocklength's results.  Estimated fields carry a 95% half-width
    in the matching *_ci slot; exact fields leave it None."""

    n: int
    gamma_n: float
    rate_x: float = math.nan
    rate_y: float = math.nan
    rate_u: float = math.nan
    p_e: float = math.nan
    p_x: float = math.nan
    p_y: float = math.nan
    i_sx: float = math.nan
    i_sy: float = math.nan
    i_xy_per_symbol: float = math.nan
    exp_x: float = math.nan
    exp_y: float = math.nan
    alpha: float = math.nan
    beta: float = math.nan
    p_e_ci: float | None = None
    p_x_ci: float | None = None
    p_y_ci: float | None = None
    verdicts: dict = field(default_factory=dict)
    skipped: str | None = None


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    records: list[RunRecord]
    version: str = __version__
    wall_time_s: float = 0.0

    @property
    def any_violated(self) -> bool:
        return any(v == VIOLATED for r in self.records
                   for v in r.verdicts.values())


def _verdict(ok: bool | None) -> str:
    if ok is None:
        return NOT_APPLICABLE
    return HOLDS if ok else VIOLATED


def _exponent(p: float) -> float:
    return math.inf if p <= 0.0 else -math.log2(p)


def make_scheme(cfg: ExperimentConfig, n: int):
    """The scheme object blocklength n of cfg runs on: blockwise parameters
    over the typical-set index, or the modular symbolwise codec with its
    score lattice."""
    source, gamma = cfg.pmf, cfg.schedule().gamma_at(n)
    if cfg.scheme_kind == "blockwise":
        return block.BlockwiseParams(cfg.ell, build_index(source, n, gamma))
    scheme = symbol.modular_scheme(cfg.share_size, source.support_size)
    return symbol.make_codec(scheme, source, n, gamma)


# what turns a record into a skip: the reason is the exception's text
_SKIPS = (CapExceededError, EmptyTypicalSetError, symbol.SchemeValidationError)


def _builder(cfg: ExperimentConfig):
    """`make_scheme` of a sweep, as build(n).  The blockwise index depends
    on n and gamma, so it is built per record.  The symbolwise codec's
    laws do not: it is built once, at the first blocklength, and each
    record derives its own with `dataclasses.replace`; a build that fails
    skips every record with its reason."""
    if cfg.scheme_kind == "blockwise":
        return functools.partial(make_scheme, cfg)
    try:
        codec = make_scheme(cfg, cfg.n_values[0])
    except _SKIPS as exc:
        def build(n, failure=exc):
            raise failure
        return build
    sched = cfg.schedule()
    return lambda n: dataclasses.replace(codec, n=n, gamma=sched.gamma_at(n))


@dataclass(frozen=True)
class _Exact:
    """One scheme's exact evaluation: record fields in record units (alpha
    and beta among them) and the inputs of the bound checks, informations
    in bits over the whole block."""

    fields: dict
    direct_cap: float     # success every attack must stay under
    i_xy: float
    h_s_given_xy: float
    rate_ok: bool
    sandwich_ok: bool


def _blockwise_exact(params: block.BlockwiseParams) -> _Exact:
    n, gamma, ell = params.n, params.index.gamma, params.ell
    q = block.exact_quantities(params)
    h_s = q.h_s
    # rate window around H(S) + ell, with the floor/sentinel slack 1/n;
    # the typical-set cardinality floor M >= (1 - delta) 2**(n (H(S) -
    # gamma)) backs its lower end, compared in log2 since M is an exact int
    log_floor = (math.log2(1.0 - q.delta) + n * (h_s - gamma)
                 + math.log2(1.0 - 1e-9) if q.delta < 1.0 else -math.inf)
    rate_ok = (h_s + ell - gamma - 1.0 / n - BOUND_TOL <= q.rate_x
               <= h_s + ell + gamma + 1.0 / n + BOUND_TOL
               and math.log2(params.m_count) >= log_floor)
    return _Exact(
        # both shares and the randomness take L (M+1) values; a rejection
        # is an atypical secret, and a single share is independent of it
        fields=dict(rate_x=q.rate_x, rate_y=q.rate_x, rate_u=q.rate_x,
                    p_e=q.delta, i_sx=0.0, i_sy=0.0,
                    i_xy_per_symbol=q.i_xy / n, alpha=q.delta,
                    beta=atk.blockwise_forgery_success(params)),
        direct_cap=1.0 / params.l_count, i_xy=q.i_xy,
        h_s_given_xy=q.h_s_given_xy, rate_ok=rate_ok,
        sandwich_ok=(q.sandwich_lo - BOUND_TOL <= q.i_xy / n
                     <= q.sandwich_hi + BOUND_TOL))


def _symbolwise_exact(codec: symbol.SymbolwiseCodec) -> _Exact:
    n, gamma = codec.n, codec.gamma
    p_e = symbol.rejection_probability(codec)
    # bits per symbol of each share and of the modular splitter's randomness
    rate = math.log2(codec.scheme.share_size)
    # log2(M) - H(S) of the modular splitter, from the codec's H(S)
    ell = rate - codec.h_s
    # rate = H(S) + I(X;Y) and I(X;Y) = ell are one equation: the rate
    # against the correlation level the codec measures
    measured = abs(rate - (codec.h_s + codec.i_xy)) <= BOUND_TOL
    return _Exact(
        # alpha is the legitimate rejection mass p_e: computed once
        fields=dict(rate_x=rate, rate_y=rate, rate_u=rate, p_e=p_e,
                    i_sx=n * codec.i_sx, i_sy=n * codec.i_sy,
                    i_xy_per_symbol=codec.i_xy, alpha=p_e,
                    beta=atk.symbolwise_beta(codec)),
        # success at most 2**(-n (ell - gamma)); past 1 it bounds nothing
        direct_cap=2.0 ** min(-n * (ell - gamma), 0.0),
        i_xy=n * codec.i_xy, h_s_given_xy=n * codec.h_s_given_xy,
        rate_ok=measured, sandwich_ok=measured)


# per scheme: its exact evaluation
_STEPS = {"blockwise": _blockwise_exact, "symbolwise": _symbolwise_exact}


def _record(cfg: ExperimentConfig, n: int, gamma: float, build,
            rng: RandomStream, rec_idx: int) -> RunRecord:
    """One blocklength: exact fields, both optimal attacks, in "mc" mode
    the estimates of p_e, p_x and p_y in their place, then the verdicts.
    A typed skip anywhere leaves only n, gamma_n and the reason."""
    try:
        scheme = build(n)
        ev = _STEPS[cfg.scheme_kind](scheme)
        rec = RunRecord(n=n, gamma_n=gamma, **ev.fields)
        rec.p_x = atk.optimal_attack(scheme, "x").success_prob
        rec.p_y = atk.optimal_attack(scheme, "y").success_prob
        if cfg.mode == "mc":
            # each estimate draws on the exact mass the record holds
            base = rng.substream(rec_idx)
            rec.p_e, rec.p_e_ci = _estimate(cfg.trials, base.substream(0),
                                            rec.p_e)
            rec.p_x, rec.p_x_ci = _estimate(cfg.trials, base.substream(1),
                                            rec.p_x)
            rec.p_y, rec.p_y_ci = _estimate(cfg.trials, base.substream(2),
                                            rec.p_y)
    except _SKIPS as exc:
        return RunRecord(n=n, gamma_n=gamma, skipped=str(exc),
                         verdicts={k: NOT_APPLICABLE for k in VERDICT_KEYS})
    rec.exp_x = _exponent(rec.p_x) / n
    rec.exp_y = _exponent(rec.p_y) / n
    ls = atk.logsum_bound_check(ev.i_xy, rec.alpha, rec.beta)
    fano = atk.fano_check(rec.alpha, ev.h_s_given_xy, n, len(cfg.source))
    rec.verdicts = {
        "rate": _verdict(ev.rate_ok),
        "exp": _verdict(_exp_ok(rec, ev.direct_cap, ev.i_xy, cfg.trials)),
        "logsum": _verdict(ls.holds),
        "fano": _verdict(fano.holds),
        "sandwich": _verdict(ev.sandwich_ok),
    }
    return rec


def _verdict_range(p: float, half: float | None,
                   trials: int) -> tuple[float, float]:
    """Where a verdict lets p lie: p itself when exact; for an estimate,
    the Wilson score interval of its hits/trials at z = VERDICT_Z."""
    if half is None:
        return p, p
    z2 = VERDICT_Z ** 2
    centre = (p + z2 / (2 * trials)) / (1.0 + z2 / trials)
    spread = VERDICT_Z / (1.0 + z2 / trials) * math.sqrt(
        p * (1.0 - p) / trials + z2 / (4 * trials ** 2))
    return max(centre - spread, 0.0), min(centre + spread, 1.0)


def _exp_ok(rec: RunRecord, direct_cap: float, i_xy_bits: float,
            trials: int) -> bool:
    """Both attacks at most the direct cap, and their exponents under the
    converse ceiling.  An estimate passes the cap unless its whole range
    lies above it, and meets the ceiling at its upper end."""
    lo_x, hi_x = _verdict_range(rec.p_x, rec.p_x_ci, trials)
    lo_y, hi_y = _verdict_range(rec.p_y, rec.p_y_ci, trials)
    conv = atk.converse_exponent_check(i_xy_bits, rec.alpha, hi_x, hi_y, rec.n)
    return (max(lo_x, lo_y) <= direct_cap + BOUND_TOL
            and (conv.vacuous or conv.holds))


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Evaluate every blocklength; records are assembled in n order."""
    start = time.monotonic()
    sched = cfg.schedule()
    rng = RandomStream(cfg.seed)
    build = _builder(cfg)
    records = [_record(cfg, n, sched.gamma_at(n), build, rng, i)
               for i, n in enumerate(cfg.n_values)]
    report = ExperimentReport(config=cfg, records=records)
    report.wall_time_s = time.monotonic() - start
    return report


# ---------------------------------------------------------------------------
# Emission


def _fmt(v: float | None) -> str:
    if v is None or (isinstance(v, float) and math.isnan(v)):
        return "nan"
    return f"{v + 0.0:.12g}"   # + 0.0 turns -0.0 into 0.0


def emit_csv(report: ExperimentReport) -> str:
    out = io.StringIO()
    out.write(",".join(CSV_COLUMNS) + "\n")
    for r in report.records:
        row = [str(r.n), _fmt(r.gamma_n), _fmt(r.rate_x), _fmt(r.rate_y),
               _fmt(r.rate_u), _fmt(r.p_e), _fmt(r.p_x), _fmt(r.p_y),
               _fmt(r.i_sx), _fmt(r.i_sy), _fmt(r.i_xy_per_symbol),
               _fmt(r.exp_x), _fmt(r.exp_y)]
        row += [r.verdicts.get(k, NOT_APPLICABLE) for k in VERDICT_KEYS]
        out.write(",".join(row) + "\n")
    return out.getvalue()


def emit_jsonl(report: ExperimentReport) -> str:
    lines = [json.dumps({"type": "metadata", "config": report.config.to_dict(),
                         "version": report.version,
                         "wall_time_s": report.wall_time_s},
                        sort_keys=True)]
    # the record's own dict, not a deep copy: json.dumps only reads it
    lines += [json.dumps(dict(vars(r), type="record"), sort_keys=True)
              for r in report.records]
    return "\n".join(lines) + "\n"


def emit_report(report: ExperimentReport, fmt: str = "csv") -> str:
    if fmt == "csv":
        return emit_csv(report)
    if fmt == "jsonl":
        return emit_jsonl(report)
    raise ConfigError(f"unknown report format {fmt!r}")


def read_report_jsonl(text: str) -> ExperimentReport:
    """Rebuild a report from its JSON-lines emission."""
    config = None
    version = "?"
    wall = 0.0
    records = []
    for i, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        d = json.loads(line)
        kind = d.pop("type")
        if kind == "metadata":
            config = ExperimentConfig.from_dict(d["config"])
            version = d["version"]
            wall = d["wall_time_s"]
        else:
            try:
                records.append(RunRecord(**d))
            except TypeError as exc:   # a key it lacks, or n missing
                raise ConfigError(f"jsonl report line {i}: {exc}") from None
    if config is None:
        raise ConfigError("jsonl report lacks a metadata line")
    return ExperimentReport(config=config, records=records, version=version,
                            wall_time_s=wall)

