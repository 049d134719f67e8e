"""The four benchmark workloads.

Each workload has `setup(root, seed)`, paid once before timing and counted
in `setup_s`; `prepare(state, i)`, which builds the inputs of pass i outside
the timed region; `run(state, inputs)`, the timed pass; and
`check(state, output, tally)`, which scores the pass (harness output
against `reference.json`; codec round trips against their own inputs).  All clients are single and closed-loop: one call starts
only after the previous one returned.

The seed feeds only inputs the benchmark generates (the codec-ops secrets,
randomness and tampering, and the stream of the stand-alone atypical-mass
estimate).  The shipped configs run verbatim, seed field included: the
exact workloads do not depend on it, and the Monte Carlo records stay
byte-identical from run to run, so their digest can be compared.
"""
from __future__ import annotations

import json
import time
import traceback
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from twoshare import block, harness, prob, symbol, typical

import check

ATYPICAL = {"source": [0.7, 0.3], "n": 64, "trials": 200_000}


@dataclass
class Tally:
    """Operations attempted and failed over a run, plus workload extras."""

    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def fail(self, reason: str):
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(reason)


def _config(root: Path, name: str, **override) -> harness.ExperimentConfig:
    raw = json.loads((root / "configs" / f"{name}.json").read_text())
    raw.update(override)
    return harness.ExperimentConfig.from_dict(raw)


def harness_configs(root: Path, workload: str) -> list[tuple[str, harness.ExperimentConfig]]:
    """(label, config) pairs of a harness workload, in run order."""
    if workload == "exact-block":
        return [("blockwise_skew", _config(root, "blockwise_skew")),
                ("blockwise_skew_n13", _config(root, "blockwise_skew", n_values=[13]))]
    if workload == "exact-symbol":
        return [("symbolwise_skew", _config(root, "symbolwise_skew")),
                ("symbolwise_k3_m5", _config(
                    root, "symbolwise_skew", source=[0.5, 0.3, 0.2],
                    scheme={"kind": "symbolwise", "m": 5}, n_values=[32, 64, 96]))]
    if workload == "mc":
        return [("symbolwise_mc", _config(root, "symbolwise_mc")),
                ("blockwise_uniform_mc", _config(root, "blockwise_uniform_mc"))]
    raise KeyError(workload)


def atypical_gamma() -> float:
    return typical.GammaSchedule.power_law().gamma_at(ATYPICAL["n"])


# ---------------------------------------------------------------------------
# Harness workloads: exact-block, exact-symbol, mc


class HarnessWorkload:
    """Sweeps of shipped configs through `run_experiment` and `emit_jsonl`."""

    def __init__(self, name: str):
        self.name = name

    def setup(self, root: Path, seed: int) -> dict:
        state = {"configs": harness_configs(root, self.name), "reference": None}
        if self.name == "mc":
            state["atypical"] = (prob.PMF.from_probs(ATYPICAL["source"]),
                                 ATYPICAL["n"], atypical_gamma(),
                                 ATYPICAL["trials"], seed)
        return state

    def prepare(self, state: dict, i: int):
        return None

    def run(self, state: dict, inputs) -> list:
        out = []
        for label, cfg in state["configs"]:
            try:
                text = harness.emit_jsonl(harness.run_experiment(cfg))
            except Exception:  # a raising config fails; the run carries on
                out.append((label, None, traceback.format_exc()))
                continue
            out.append((label, text, None))
        if "atypical" in state:
            src, n, gamma, trials, seed = state["atypical"]
            try:
                est = typical.atypical_mass_mc(src, n, gamma, trials,
                                               prob.RandomStream(seed))
            except Exception:
                est = traceback.format_exc()
            out.append(("atypical_mass_mc", est, None))
        return out

    def check(self, state: dict, output: list, tally: Tally):
        if state["reference"] is None:
            state["reference"] = check.load_reference()
        ref = state["reference"]
        for label, result, error in output:
            if label == "atypical_mass_mc":
                tally.attempted += 1
                for reason in check.atypical_failures(ref, result):
                    tally.fail(reason)
                continue
            expected = len(ref["records"][label])
            tally.attempted += expected
            if error is not None:
                for _ in range(expected):
                    tally.fail(f"{label}: raised: {error.strip().splitlines()[-1]}")
                continue
            for reason in check.record_failures(ref, label, result):
                tally.fail(reason)
            if label in ref["mc_digest"]:
                digest = check.mc_digest(result)
                tally.extra.setdefault("mc_digest", {})[label] = digest
                tally.extra.setdefault("mc_digest_matches_reference", {})[label] = (
                    digest == ref["mc_digest"][label])


# ---------------------------------------------------------------------------
# codec-ops: closed loop of encode/decode round trips


BLOCK_SOURCE, BLOCK_N, BLOCK_ELL = [0.7, 0.3], 20, 1.0
SYMBOL_SOURCE, SYMBOL_N, SYMBOL_M = [0.5, 0.3, 0.2], 64, 5
# round trips per pass; 5:2 blockwise to symbolwise, one in five tampered
BLOCK_OPS, SYMBOL_OPS, TAMPER_FRAC = 2500, 1000, 0.2


class CodecWorkload:
    name = "codec-ops"

    def setup(self, root: Path, seed: int) -> dict:
        schedule = typical.GammaSchedule.power_law()
        src_b = prob.PMF.from_probs(BLOCK_SOURCE)
        gamma_b = schedule.gamma_at(BLOCK_N)
        index = typical.build_index(src_b, BLOCK_N, gamma_b)
        params = block.BlockwiseParams(BLOCK_ELL, index)
        src_s = prob.PMF.from_probs(SYMBOL_SOURCE)
        codec = symbol.make_codec(
            symbol.modular_scheme(SYMBOL_M, len(SYMBOL_SOURCE)), src_s,
            SYMBOL_N, schedule.gamma_at(SYMBOL_N))
        return {"seed": seed, "params": params, "codec": codec,
                "src_b": src_b, "gamma_b": gamma_b}

    def prepare(self, state: dict, i: int) -> list:
        """Inputs of pass i: secrets drawn from the sources, uniform
        randomness, and which round trips get a tampered share."""
        rng = np.random.default_rng([state["seed"], i])
        params = state["params"]
        k_s = len(SYMBOL_SOURCE)
        b_sec = rng.choice(len(BLOCK_SOURCE), size=(BLOCK_OPS, BLOCK_N), p=BLOCK_SOURCE)
        b_ul = rng.integers(params.l_count, size=BLOCK_OPS)
        b_um = rng.integers(params.m_count + 1, size=BLOCK_OPS)
        b_tamper = rng.random(BLOCK_OPS) < TAMPER_FRAC
        b_side = rng.integers(2, size=BLOCK_OPS)
        s_sec = rng.choice(k_s, size=(SYMBOL_OPS, SYMBOL_N), p=SYMBOL_SOURCE)
        s_rand = rng.integers(SYMBOL_M, size=(SYMBOL_OPS, SYMBOL_N))
        s_tamper = rng.random(SYMBOL_OPS) < TAMPER_FRAC
        s_pos = rng.integers(SYMBOL_N, size=SYMBOL_OPS)
        s_target = rng.integers(k_s, SYMBOL_M, size=SYMBOL_OPS)
        ops = [("b", tuple(b_sec[j].tolist()),
                block.BlockRandomness(int(b_ul[j]), int(b_um[j])),
                int(b_side[j]) if b_tamper[j] else None)
               for j in range(BLOCK_OPS)]
        ops += [("s", tuple(s_sec[j].tolist()), tuple(s_rand[j].tolist()),
                 (int(s_pos[j]), int(s_target[j])) if s_tamper[j] else None)
                for j in range(SYMBOL_OPS)]
        order = rng.permutation(len(ops))
        return [ops[j] for j in order]

    def run(self, state: dict, ops: list) -> dict:
        params, codec = state["params"], state["codec"]
        clock = time.perf_counter_ns
        lat = {"b": array("q"), "s": array("q")}
        bad: list[str] = []
        honest_rejects = atypical_rejects = 0
        for kind, secret, rand, tamper in ops:
            try:
                if kind == "b":
                    t0 = clock()
                    x, y = block.encode(params, secret, rand)
                    t1 = clock()
                    if tamper == 0:
                        x = block.BlockShare((x.l + 1) % params.l_count, x.m)
                    elif tamper == 1:
                        y = block.BlockShare((y.l + 1) % params.l_count, y.m)
                    t2 = clock()
                    out = block.decode(params, x, y)
                    t3 = clock()
                else:
                    t0 = clock()
                    xs, ys = symbol.encode_n(codec, secret, rand)
                    t1 = clock()
                    if tamper is not None:
                        pos, target = tamper
                        ys = list(ys)
                        ys[pos] = (target - xs[pos]) % SYMBOL_M
                    t2 = clock()
                    out = symbol.decode_n(codec, xs, ys)
                    t3 = clock()
            except Exception:
                bad.append(f"{kind}: raised: {traceback.format_exc().strip().splitlines()[-1]}")
                continue
            lat[kind].append(t1 - t0 + t3 - t2)
            if tamper is not None:
                if not out.rejected:
                    bad.append(f"{kind}: tampered pair accepted")
            elif not out.rejected:
                if out.secret != secret:
                    bad.append(f"{kind}: decoded a different secret")
            elif kind == "s":
                # honest symbolwise pairs are rejected with probability p_e
                honest_rejects += 1
            elif typical.is_typical(secret, state["src_b"], state["gamma_b"]):
                bad.append("b: honest pair of a typical secret rejected")
            else:
                atypical_rejects += 1
        return {"ops": len(ops), "bad": bad, "lat": lat,
                "honest_rejects": honest_rejects,
                "atypical_rejects": atypical_rejects}

    def check(self, state: dict, output: dict, tally: Tally):
        tally.attempted += output["ops"]
        for reason in output["bad"]:
            tally.fail(reason)
        extra = tally.extra
        for kind in ("b", "s"):
            extra.setdefault("lat_" + kind, array("q")).extend(output["lat"][kind])
        for key in ("honest_rejects", "atypical_rejects"):
            extra[key] = extra.get(key, 0) + output[key]


WORKLOADS = {w.name: w for w in (HarnessWorkload("exact-block"),
                                 HarnessWorkload("exact-symbol"),
                                 HarnessWorkload("mc"), CodecWorkload())}
