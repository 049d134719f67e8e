"""Correctness checks of harness output against `reference.json`.

A record fails when it is skipped where the reference record is not, when a
verdict differs, when an exact field differs by more than EXACT_TOL
absolute, or when a Monte Carlo estimate lies farther than MC_WIDTHS of its
own 95% half-width from the exact value of the same quantity.  A config
that raises fails all of its records (see `workloads.HarnessWorkload`).
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

EXACT_TOL = 1e-12
MC_WIDTHS = 4.0
# fields every record carries; exp_x / exp_y are derived from p_x / p_y
FLOAT_FIELDS = ("gamma_n", "rate_x", "rate_y", "rate_u", "p_e", "p_x", "p_y",
                "i_sx", "i_sy", "i_xy_per_symbol", "exp_x", "exp_y",
                "alpha", "beta")
ESTIMATES = ("p_e", "p_x", "p_y")
DERIVED = ("exp_x", "exp_y")

REFERENCE = Path(__file__).with_name("reference.json")


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def jsonl_records(text: str) -> list[dict]:
    """Record lines of an `emit_jsonl` report, in order."""
    out = []
    for line in text.splitlines():
        if line.strip():
            d = json.loads(line)
            if d.pop("type", None) == "record":
                out.append(d)
    return out


def mc_digest(text: str) -> str:
    """sha256 over the record lines; the metadata line carries wall time."""
    lines = [ln for ln in text.splitlines()
             if ln.strip() and json.loads(ln).get("type") == "record"]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _differs(a, b) -> bool:
    if a is None or b is None:
        return a is not b
    a, b = float(a), float(b)
    if math.isnan(a) or math.isnan(b):
        return not (math.isnan(a) and math.isnan(b))
    if math.isinf(a) or math.isinf(b):
        return a != b
    return abs(a - b) > EXACT_TOL


def record_failures(ref: dict, label: str, text: str) -> list[str]:
    """One reason per failed record of config `label`."""
    expected = ref["records"][label]
    exact = ref.get("exact_of_mc", {}).get(label)
    got = jsonl_records(text)
    reasons = []
    for i, want in enumerate(expected):
        where = f"{label} n={want['n']}"
        if i >= len(got):
            reasons.append(f"{where}: record missing")
            continue
        rec = got[i]
        why = _record_reason(rec, want, exact[i] if exact else None)
        if why:
            reasons.append(f"{where}: {why}")
    return reasons


def _record_reason(rec: dict, want: dict, exact: dict | None) -> str | None:
    if rec.get("n") != want["n"]:
        return f"blocklength {rec.get('n')} where {want['n']} was expected"
    if want["skipped"] is not None:
        # a record the reference could not evaluate has nothing to compare
        return None
    if rec.get("skipped") is not None:
        return f"skipped ({rec['skipped']})"
    if rec.get("verdicts") != want["verdicts"]:
        return f"verdicts {rec.get('verdicts')} differ from {want['verdicts']}"
    for key in FLOAT_FIELDS:
        if exact is not None and key in ESTIMATES + DERIVED:
            continue
        if key not in rec or _differs(rec[key], want[key]):
            return f"{key}={rec.get(key)!r} differs from {want[key]!r}"
    if exact is not None:
        for key in ESTIMATES:
            est, half, true = rec.get(key), rec.get(key + "_ci"), exact[key]
            if est is None or half is None or not math.isfinite(est):
                return f"{key} estimate {est!r} carries no half-width"
            if abs(est - true) > MC_WIDTHS * half:
                return (f"{key} estimate {est!r} lies {abs(est - true) / half:.2f} "
                        f"half-widths from the exact {true!r}")
    return None


def atypical_failures(ref: dict, result) -> list[str]:
    if isinstance(result, str):
        return [f"atypical_mass_mc: raised: {result.strip().splitlines()[-1]}"]
    est, half = result
    true = ref["atypical_mass"]["value"]
    if abs(est - true) > MC_WIDTHS * half:
        return [f"atypical_mass_mc estimate {est!r} lies "
                f"{abs(est - true) / half:.2f} half-widths from the exact {true!r}"]
    return []
