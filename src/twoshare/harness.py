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

Exact mode computes error and attack probabilities in closed form or as
exact sums over type classes or score-lattice count vectors.  Monte
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
from .prob import (PMF, CapExceededError, RandomStream, _estimate,
                   check_trials)
from .typical import EmptyTypicalSetError, GammaSchedule, build_index

HOLDS = "holds"
VIOLATED = "violated"
NOT_APPLICABLE = "not_applicable"

VERDICT_KEYS = ("rate", "exp", "logsum", "fano", "sandwich")

CSV_COLUMNS = ("n", "gamma_n", "rate_x", "rate_y", "rate_u", "p_e", "p_x",
               "p_y", "i_sx", "i_sy", "i_xy_per_symbol", "exp_x", "exp_y",
               "v_rate", "v_exp", "v_logsum", "v_fano", "v_sandwich")

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


def _owned(rule, *args, key: str = ""):
    """rule(*args), a config value's rule by its one owner: its ValueError
    as a ConfigError, after `key` where the owner does not name it."""
    try:
        return rule(*args)
    except ValueError as exc:
        raise ConfigError(f"bad config: {key}{exc}") from exc


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
        raise ConfigError(f"bad config: {kind} {where} needs '{key}'")
    return kind, _number(value.get(key, default), f"{kind} '{key}'", whole)


@dataclass(frozen=True)
class ExperimentConfig:
    """One run spec, checked when it is built (by the constructor,
    `from_dict` or `dataclasses.replace`), so a config that exists is valid
    and holds no value it would ignore.  `source` is the parsed PMF; any
    other sequence given for it is parsed once, here."""

    source: PMF
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
        # each rule is its owner's; the owner of 'ell' needs a built index
        if not isinstance(self.source, PMF):
            object.__setattr__(self, "source", _owned(PMF, self.source,
                                                      key="'source': "))
        _owned(self.schedule, key="'schedule': ")
        if self.mode not in ("exact", "mc"):
            raise ConfigError(f"bad config: 'mode' {_shown(self.mode)} is not "
                              "'exact' or 'mc'")
        if self.mode == "mc":
            _owned(check_trials, self.trials)
        _owned(RandomStream, self.seed)
        n = self.n_values
        if not n or n[0] < 1 or any(b <= a for a, b in zip(n, n[1:])):
            raise ConfigError("bad config: 'n_values' must be increasing "
                              "positive integers")
        if (kind := self.scheme_kind) not in _SCHEMES:
            raise ConfigError(f"bad config: unknown scheme kind "
                              f"{_shown(kind)}")
        if kind == "blockwise":
            if not (self.ell is not None and self.ell >= 0.0):
                raise ConfigError(f"bad config: blockwise 'ell' must be "
                                  f"non-negative, not {_shown(self.ell)}")
            _number(self.ell, "blockwise 'ell'")
        elif self.share_size is None:
            raise ConfigError("bad config: symbolwise scheme needs 'm'")
        else:
            _owned(symbol.modular_scheme, self.share_size, len(self.source),
                   key="symbolwise 'm': ")
        # the other scheme's parameter, which `to_dict` would drop
        _known_keys([k for k, v in (("ell", self.ell), ("m", self.share_size))
                     if v is not None], _SCHEMES[kind][:1], f"the {kind} scheme")

    @classmethod
    def from_dict(cls, raw) -> "ExperimentConfig":
        """Parse a config's JSON value: numbers finite, whole where they
        count, and no unknown key (the other scheme's parameter is one)."""
        if not isinstance(raw, dict):
            raise ConfigError("bad config: the top level is not an object")
        _known_keys(raw, _KEYS, "the top level")
        kind, param = _kind(raw.get("scheme"), _SCHEMES, "scheme")
        sk, sp = _kind(raw.get("schedule", {"kind": "power_law"}),
                       _SCHEDULES, "schedule")
        source = raw.get("source")
        return cls(
            source=(_owned(PMF.from_text, source,
                           key=f"'source' {_shown(source)}: ")
                    if isinstance(source, str) else _numbers(source, "'source'")),
            scheme_kind=kind,
            n_values=_numbers(raw.get("n_values"), "'n_values'", whole=True),
            seed=_number(raw.get("seed", 0), "'seed'", whole=True),
            mode=raw.get("mode", "exact"),
            trials=_number(raw.get("trials", 100_000), "'trials'", whole=True),
            **{"ell" if kind == "blockwise" else "share_size": param},
            schedule_kind=sk, schedule_param=sp)

    def schedule(self) -> GammaSchedule:
        return GammaSchedule(self.schedule_kind, self.schedule_param)

    def to_dict(self) -> dict:
        param = self.ell if self.scheme_kind == "blockwise" else self.share_size
        return {"source": list(self.source.probs),
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


def _verdict(ok: bool) -> str:
    return HOLDS if ok else VIOLATED


def _exponent(p: float) -> float:
    return math.inf if p <= 0.0 else -math.log2(p)


def make_scheme(cfg: ExperimentConfig, n: int):
    """The scheme object blocklength n of cfg runs on: blockwise parameters
    over the typical-set index, or the modular symbolwise codec with its
    score lattice, whose per-source laws `symbol.modular_laws` computes
    once per sweep."""
    source, gamma = cfg.source, cfg.schedule().gamma_at(n)
    if cfg.scheme_kind == "blockwise":
        return block.BlockwiseParams(cfg.ell, build_index(source, n, gamma))
    scheme = symbol.modular_scheme(cfg.share_size, source.support_size)
    return symbol.make_codec(scheme, source, n, gamma)


# what turns a record into a skip: the reason is the exception's text
_SKIPS = (CapExceededError, EmptyTypicalSetError)


@dataclass(frozen=True)
class _Exact:
    """One scheme's exact evaluation: record fields in record units (alpha,
    beta, p_x and p_y among them) and the inputs of the bound checks,
    informations in bits over the whole block."""

    fields: dict
    direct_cap: float     # success every attack must stay under
    i_xy: float
    h_s_given_xy: float
    rate_ok: bool
    sandwich_ok: bool


# In both schemes each honest share is uniform and independent of a forged
# one, so a forgery on either side succeeds exactly as often as an
# independent pair is accepted: each step takes the one attack mass as
# p_x, p_y and beta.


def _blockwise_exact(params: block.BlockwiseParams) -> _Exact:
    n, gamma, ell = params.n, params.index.gamma, params.ell
    q = block.exact_quantities(params)
    beta = atk.blockwise_attack(params).success_prob
    h_s = q.h_s
    # rate window around H(S) + ell, with the floor/sentinel slack 1/n;
    # the typical-set cardinality floor M >= (1 - delta) 2**(n (H(S) -
    # gamma)) backs its lower end, compared in log2 since M is an exact int
    log_floor = (math.log2(1.0 - q.delta) + n * (h_s - gamma)
                 + math.log2(1.0 - 1e-9) if q.delta < 1.0 else -math.inf)
    rate_ok = (h_s + ell - gamma - 1.0 / n - atk.BOUND_TOL <= q.rate_x
               <= h_s + ell + gamma + 1.0 / n + atk.BOUND_TOL
               and math.log2(params.m_count) >= log_floor)
    return _Exact(
        # both shares and the randomness take L (M+1) values; a rejection
        # is an atypical secret, and a single share is independent of it
        fields=dict(rate_x=q.rate_x, rate_y=q.rate_x, rate_u=q.rate_x,
                    p_e=q.delta, p_x=beta, p_y=beta, i_sx=0.0, i_sy=0.0,
                    i_xy_per_symbol=q.i_xy / n, alpha=q.delta, beta=beta),
        direct_cap=1.0 / params.l_count, i_xy=q.i_xy,
        h_s_given_xy=q.h_s_given_xy, rate_ok=rate_ok,
        sandwich_ok=(q.sandwich_lo - atk.BOUND_TOL <= q.i_xy / n
                     <= q.sandwich_hi + atk.BOUND_TOL))


def _symbolwise_exact(codec: symbol.SymbolwiseCodec) -> _Exact:
    n, gamma = codec.n, codec.gamma
    p_e = symbol.rejection_probability(codec)
    beta = atk.symbolwise_attack(codec).success_prob
    # bits per symbol of each share and of the modular splitter's randomness
    rate = math.log2(codec.scheme.share_size)
    # log2(M) - H(S) of the modular splitter
    h_s = codec.source.entropy
    ell = rate - h_s
    # rate = H(S) + I(X;Y) and I(X;Y) = ell are one equation: the rate
    # against the correlation level the codec measures
    measured = abs(rate - (h_s + codec.i_xy)) <= atk.BOUND_TOL
    return _Exact(
        # alpha is the legitimate rejection mass p_e: computed once; a
        # share alone is uniform and the pair fixes the secret, so
        # I(S;X) = I(S;Y) = H(S|XY) = 0
        fields=dict(rate_x=rate, rate_y=rate, rate_u=rate, p_e=p_e,
                    p_x=beta, p_y=beta, i_sx=0.0, i_sy=0.0,
                    i_xy_per_symbol=codec.i_xy, alpha=p_e, beta=beta),
        # success at most 2**(-n (ell - gamma)); past 1 it bounds nothing
        direct_cap=2.0 ** min(-n * (ell - gamma), 0.0),
        i_xy=n * codec.i_xy, h_s_given_xy=0.0,
        rate_ok=measured, sandwich_ok=measured)


# per scheme: its exact evaluation
_STEPS = {"blockwise": _blockwise_exact, "symbolwise": _symbolwise_exact}


def _record(cfg: ExperimentConfig, n: int, gamma: float,
            rng: RandomStream, rec_idx: int) -> RunRecord:
    """One blocklength: exact fields, in "mc" mode the estimates of p_e,
    p_x and p_y in their place, then the verdicts.  A typed skip anywhere
    leaves only n, gamma_n and the reason."""
    try:
        ev = _STEPS[cfg.scheme_kind](make_scheme(cfg, n))
        rec = RunRecord(n=n, gamma_n=gamma, **ev.fields)
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
    return (max(lo_x, lo_y) <= direct_cap + atk.BOUND_TOL
            and (conv.vacuous or conv.holds))


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Evaluate every blocklength; records are assembled in n order."""
    start = time.monotonic()
    sched = cfg.schedule()
    rng = RandomStream(cfg.seed)
    records = [_record(cfg, n, sched.gamma_at(n), rng, i)
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


# the JSON values that each declared type of a RunRecord field reads
_JSON_TYPES = {"int": (int,), "float": (int, float), "dict": (dict,),
               "float | None": (int, float, type(None)),
               "str | None": (str, type(None))}


def _read_record(d: dict) -> RunRecord:
    """A record line's object as a RunRecord: TypeError on a missing or
    unknown key, ValueError on the first value that is not of its field's
    declared type, or a verdict that is not one of the three."""
    rec = RunRecord(**d)
    for f in dataclasses.fields(rec):
        v = getattr(rec, f.name)
        if isinstance(v, bool) or not isinstance(v, _JSON_TYPES[f.type]):
            raise ValueError(f"{f.name!r} is {v!r}, not {f.type}")
    for key, v in rec.verdicts.items():
        if key not in VERDICT_KEYS or v not in (HOLDS, VIOLATED,
                                                NOT_APPLICABLE):
            raise ValueError(f"verdict {key!r}: {v!r} is not a verdict of "
                             f"a check in {VERDICT_KEYS}")
    return rec


def read_report_jsonl(text: str) -> ExperimentReport:
    """Rebuild a report from its JSON-lines emission.  ConfigError names
    the line that is not JSON, not an object of type "metadata" or
    "record", lacks a field of its type, or holds a record value that is
    not of the type `RunRecord` declares."""
    config = None
    version = "?"
    wall = 0.0
    records = []
    for i, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            d = json.loads(line)
            kind = d.pop("type", None) if isinstance(d, dict) else None
            if kind == "metadata":
                config = ExperimentConfig.from_dict(d["config"])
                version = d["version"]
                wall = d["wall_time_s"]
            elif kind == "record":
                records.append(_read_record(d))
            else:
                raise ConfigError('not an object of type "metadata" or '
                                  '"record"')
        except KeyError as exc:
            raise ConfigError(f"jsonl report line {i}: metadata lacks "
                              f"{exc}") from None
        except (ConfigError, TypeError, ValueError) as exc:
            raise ConfigError(f"jsonl report line {i}: {exc}") from None
    if config is None:
        raise ConfigError("jsonl report lacks a metadata line")
    return ExperimentReport(config=config, records=records, version=version,
                            wall_time_s=wall)

