"""Command-line front end.

Subcommands: encode, decode, attack, validate-scheme, experiment.  Every
subcommand accepts --seed, --mode, --out and --format; flags that a
subcommand has no use for are accepted and ignored so scripts can pass a
uniform set.  The scheme flags, --seed and --trials are read as a config
file's values and checked as `ExperimentConfig.from_dict` checks them, so
a bad flag prints the error that the same value in a config would.
Exit codes: 0 success, 1 configuration error, 2 a checked bound came back
violated.  `experiment` names each skipped record and its reason on
stderr, then how many were skipped; skips alone leave exit 0.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import attack as atk
from . import block, harness, symbol
from .harness import _number, _owned, _shown
from .prob import PMF, CapExceededError, RandomStream, _estimate
from .typical import EmptyTypicalSetError


# --gamma form -> schedule kind and the key of its parameter
_GAMMA_FORMS = {"power": ("power_law", "a"), "const": ("constant", "gamma")}


def _value(text: str):
    """Flag text as the value a config file would hold: an int, else a
    float, else the text itself; `ExperimentConfig.from_dict` judges it."""
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return text


def _int_list(text: str, flag: str, size: int) -> tuple[int, ...]:
    """The `size` comma-separated integers of `flag`, else a ValueError."""
    try:
        values = tuple(map(int, text.split(",")))
    except ValueError:
        values = ()
    if len(values) != size:
        raise ValueError(f"{flag} {text!r} is not {size} comma-separated "
                         "integers")
    return values


def _common_flags(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=_value, default=0, help="random stream seed")
    p.add_argument("--mode", choices=("exact", "mc"), default="exact")
    p.add_argument("--out", default=None, help="write output to this path")
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv",
                   help="experiment report format")
    p.add_argument("--trials", type=_value, default=100000,
                   help="Monte Carlo trial count")


def _scheme_flags(p: argparse.ArgumentParser):
    p.add_argument("--scheme", choices=("blockwise", "symbolwise"),
                   required=True)
    p.add_argument("--source", required=True,
                   help="PMF: '0.7,0.3', '[0.5,0.5]', or 'uniform:k'")
    p.add_argument("--n", type=_value, required=True, help="blocklength")
    p.add_argument("--gamma", default="power",
                   help="slack schedule, power[:a] or const:gamma")
    p.add_argument("--ell", type=_value, default=0.0,
                   help="blockwise correlation level")
    p.add_argument("--m", type=_value, default=None,
                   help="symbolwise share alphabet size")


def _build_scheme(args):
    """The run config and its scheme: the scheme flags, --seed, --mode and
    --trials as a config dict, which `ExperimentConfig.from_dict` parses
    and checks as it does a config file."""
    param = "ell" if args.scheme == "blockwise" else "m"
    form, _, arg = args.gamma.partition(":")
    kind, key = _GAMMA_FORMS.get(form, (None, None))
    # an unknown form stays text, which the parser refuses as a schedule
    schedule = (args.gamma if kind is None else
                {"kind": kind, key: _value(arg)} if arg else {"kind": kind})
    cfg = harness.ExperimentConfig.from_dict(
        {"source": args.source, "n_values": [args.n],
         "scheme": {"kind": args.scheme, param: getattr(args, param)},
         "schedule": schedule, "seed": args.seed, "mode": args.mode,
         "trials": args.trials})
    return cfg, harness.make_scheme(cfg, cfg.n_values[0])


def _emit(args, text: str):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _cmd_encode(args) -> int:
    cfg, obj = _build_scheme(args)
    secret = _int_list(args.secret, "--secret", obj.n)
    rng = RandomStream(cfg.seed)
    if isinstance(obj, block.BlockwiseParams):
        x, y = block.encode(obj, secret, obj.draw_randomness(rng))
        out = {"x": {"l": x.l, "m": x.m}, "y": {"l": y.l, "m": y.m},
               "l_count": obj.l_count, "m_count": obj.m_count}
    else:
        xs, ys = symbol.encode_n(obj, secret,
                                 symbol.draw_randomness_n(obj, rng))
        out = {"x": list(xs), "y": list(ys)}
    _emit(args, json.dumps(out, sort_keys=True))
    return 0


def _cmd_decode(args) -> int:
    _, obj = _build_scheme(args)
    if isinstance(obj, block.BlockwiseParams):
        xl, xm = _int_list(args.x, "--x", 2)
        yl, ym = _int_list(args.y, "--y", 2)
        outcome = block.decode(obj, block.BlockShare(xl, xm),
                               block.BlockShare(yl, ym))
    else:
        outcome = symbol.decode_n(obj, _int_list(args.x, "--x", obj.n),
                                  _int_list(args.y, "--y", obj.n))
    if outcome.rejected:
        _emit(args, json.dumps({"rejected": True}))
    else:
        _emit(args, json.dumps({"secret": list(outcome.secret)}))
    return 0


def _cmd_attack(args) -> int:
    cfg, obj = _build_scheme(args)
    if isinstance(obj, block.BlockwiseParams):
        res = atk.blockwise_attack(obj, args.side)
    else:
        res = atk.symbolwise_attack(obj, args.side)
    out = {"side": res.side, "mode": cfg.mode,
           "success_prob": res.success_prob,
           "optimal_forgery": list(res.optimal_forgery)}
    if cfg.mode == "mc":
        out["success_prob"], out["ci_halfwidth"] = _estimate(
            cfg.trials, RandomStream(cfg.seed), res.success_prob)
        out["trials"] = cfg.trials
    _emit(args, json.dumps(out, sort_keys=True))
    return 0


def _cmd_validate(args) -> int:
    # each flag judged as a config's value is; --seed and --trials go unused
    source = _owned(PMF.from_text, args.source,
                    key=f"'source' {_shown(args.source)}: ")
    m, seed, _ = [_number(v, f"'{name}'", whole=True) for name, v in (
        ("m", source.support_size if args.m is None else args.m),
        ("seed", args.seed), ("trials", args.trials))]
    _owned(RandomStream, seed)
    scheme = _owned(symbol.modular_scheme, m, source.support_size, key="'m': ")
    report = symbol.validate_base(scheme, source)
    out = {"scheme": scheme.name, "passed": report.passed,
           "h_s": report.h_s, "h_s_given_x": report.h_s_given_x,
           "h_s_given_y": report.h_s_given_y,
           "h_s_given_xy": report.h_s_given_xy,
           "correlation_level": report.ell,
           "failures": list(report.failures)}
    _emit(args, json.dumps(out, sort_keys=True))
    return 0


def _cmd_experiment(args) -> int:
    with open(args.config) as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:   # not JSON, or not UTF-8 text
            raise harness.ConfigError(
                f"config {args.config} is not JSON: {exc}") from None
    # the override flags default to absent: the ones given replace the
    # file's values before the one parse
    overrides = {k: v for k, v in vars(args).items()
                 if k in ("seed", "mode", "trials")}
    cfg = harness.ExperimentConfig.from_dict(
        dict(raw, **overrides) if isinstance(raw, dict) else raw)
    report = harness.run_experiment(cfg)
    _emit(args, harness.emit_report(report, args.format))
    skipped = [r for r in report.records if r.skipped is not None]
    for r in skipped:
        print(f"skipped n={r.n}: {r.skipped}", file=sys.stderr)
    if skipped:
        print(f"{len(skipped)} of {len(report.records)} records skipped",
              file=sys.stderr)
    return 2 if report.any_violated else 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="twoshare",
        description="Two-share threshold schemes with forgery detection")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="split a secret block into two shares")
    _scheme_flags(p)
    p.add_argument("--secret", required=True, help="comma-separated symbols")
    _common_flags(p)
    p.set_defaults(fn=_cmd_encode)

    p = sub.add_parser("decode", help="combine two shares")
    _scheme_flags(p)
    p.add_argument("--x", required=True, help="share X (blockwise: 'l,m')")
    p.add_argument("--y", required=True, help="share Y (blockwise: 'l,m')")
    _common_flags(p)
    p.set_defaults(fn=_cmd_decode)

    p = sub.add_parser("attack", help="optimal or sampled impersonation attack")
    _scheme_flags(p)
    p.add_argument("--side", choices=("x", "y"), default="x")
    _common_flags(p)
    p.set_defaults(fn=_cmd_attack)

    p = sub.add_parser("validate-scheme",
                       help="check the modular splitter's profile")
    p.add_argument("--source", required=True)
    p.add_argument("--m", type=_value, default=None,
                   help="share alphabet size (default |S|)")
    _common_flags(p)
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("experiment", help="run a config file, emit a report")
    p.add_argument("--config", required=True, help="JSON config path")
    p.add_argument("--seed", type=_value, default=argparse.SUPPRESS,
                   help="override the config seed")
    p.add_argument("--mode", choices=("exact", "mc"),
                   default=argparse.SUPPRESS, help="override the config mode")
    p.add_argument("--trials", type=_value, default=argparse.SUPPRESS,
                   help="override the config trial count")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p.set_defaults(fn=_cmd_experiment)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; 2 is reserved for violated
        # bound verdicts, so usage problems report as config errors
        return 0 if exc.code in (0, None) else 1
    try:
        return args.fn(args)
    except (harness.ConfigError, EmptyTypicalSetError,
            CapExceededError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
