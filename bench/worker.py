"""One workload in one fresh process: set-up, timed passes, checks.

Started by `run.py`, which passes the monotonic time at which it launched
this process, so that `setup_s` runs from process start (interpreter,
imports, config parsing, input generation, one-time builds) to the first
timed call.  CLOCK_MONOTONIC is shared by every process on the machine.

Passes repeat the workload's fixed unit of work until the time budget is
spent, stopping when one more median pass would end past the budget by
more than half a pass.  With tracing on, the set-up runs again under the
span tracer, and untraced and traced passes alternate, so that the
tracing overhead compares passes that saw the same machine.  Prints one
JSON object as its last line.

The machine this runs on is shared, and its speed drifts by a quarter and
more over seconds to minutes, for every process alike.  Untraced runs
therefore sample a fixed pure-Python kernel (`probe_once`) every
PROBE_INTERVAL_S from a SIGALRM handler while the passes run, and after
each set-up.  The end-to-end times are reported at reference speed: each
pass's raw time times PROBE_REF_S over the median probe taken during that
pass, and each set-up's raw time times PROBE_REF_S over the median of the
probes right after it.  Raw times are printed beside them.  The probe runs in the benchmark's code, so no change to the
library can move it.
"""
from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path


PROBE_INTERVAL_S = 0.02
PROBE_REF_S = 100e-6
SETUP_PROBES = 200


def probe_once() -> float:
    """Seconds taken by a fixed pure-Python kernel, about 0.1 ms."""
    t0 = time.perf_counter()
    s = 0
    d = {}
    for i in range(1000):
        s += i * i
        d[i & 255] = s
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples `probe_once` every PROBE_INTERVAL_S of wall time."""

    def __enter__(self):
        self.samples: list[float] = []
        self.passes: list[tuple[float, list[float]]] = []
        signal.signal(signal.SIGALRM, lambda *_: self.samples.append(probe_once()))
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled_walls(self) -> list[float]:
        """Each pass at reference speed, by the samples taken during it."""
        return [wall * PROBE_REF_S / statistics.median(samples or self.samples)
                for wall, samples in self.passes]


def run_pass(wl, state, i: int, tally, tracer=None) -> float:
    """Wall seconds of pass i, whose output is then checked."""
    inputs = wl.prepare(state, i)
    if tracer is None:
        t0 = time.perf_counter()
        output = wl.run(state, inputs)
        wall = time.perf_counter() - t0
    else:
        with tracer.phase("pass"):
            t0 = time.perf_counter()
            output = wl.run(state, inputs)
            wall = time.perf_counter() - t0
    wl.check(state, output, tally)
    return wall


def measure(wl, state, seconds: float, tally, probe: SpeedProbe) -> list[float]:
    """Raw wall seconds of each pass; the probe keeps its samples per pass."""
    walls: list[float] = []
    begin = time.perf_counter()
    while True:
        first = len(probe.samples)
        walls.append(run_pass(wl, state, len(walls), tally))
        probe.passes.append((walls[-1], probe.samples[first:]))
        if time.perf_counter() - begin + statistics.median(walls) / 2 >= seconds:
            return walls


def measure_traced(wl, state, seconds: float, tally, tracer) -> tuple[list, list]:
    """Untraced and traced passes, alternating on the same inputs so that
    both see the same machine; returns both lists of wall seconds."""
    plain: list[float] = []
    traced: list[float] = []
    begin = time.perf_counter()
    while True:
        tracer.enable(False)
        plain.append(run_pass(wl, state, len(traced), tally))
        tracer.enable(True)
        traced.append(run_pass(wl, state, len(traced), tally, tracer))
        pair = statistics.median(plain) + statistics.median(traced)
        if time.perf_counter() - begin + pair / 2 >= seconds:
            return plain, traced


def codec_metrics(extra: dict, walls: list[float]) -> dict:
    import numpy as np
    out = {}
    for kind, label in (("b", "block"), ("s", "symbol")):
        lat = np.frombuffer(extra.pop("lat_" + kind), dtype=np.int64) / 1e3
        out[f"{label}_op_us_p50"] = (float(np.percentile(lat, 50)), "us", lat.size)
        out[f"{label}_op_us_p99"] = (float(np.percentile(lat, 99)), "us", lat.size)
    ops = extra["ops"]
    out["ops_per_s"] = (ops / sum(walls), "1/s", ops)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() of the launching process")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import numpy
    import workloads
    wl = workloads.WORKLOADS[args.workload]
    root = Path.cwd()
    state = wl.setup(root, args.seed)
    setup_s = time.monotonic() - args.t0
    setup_probe = statistics.median(probe_once() for _ in range(SETUP_PROBES))
    setup = {"setup_s": setup_s * PROBE_REF_S / setup_probe, "raw_setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    tally = workloads.Tally()
    result = {**setup, "python": sys.version.split()[0], "numpy": numpy.__version__}
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()
        with tracer.phase("setup"):
            state = wl.setup(root, args.seed)
        plain, traced = measure_traced(wl, state, args.seconds, tally, tracer)
        tally.extra.pop("lat_b", None)
        tally.extra.pop("lat_s", None)
        result.update(passes=len(plain) + len(traced),
                      per_layer=spans.per_layer(tracer, statistics.median(plain)),
                      absent=tracer.absent, broken_hooks=sorted(tracer.broken_hooks))
    else:
        with SpeedProbe() as sp:
            walls = measure(wl, state, args.seconds, tally, sp)
        result.update(passes=len(walls),
                      wall_s=statistics.median(sp.scaled_walls()),
                      raw_wall_s=statistics.median(walls),
                      probe_us=statistics.median(sp.samples) * 1e6,
                      probe_ref_us=PROBE_REF_S * 1e6,
                      peak_rss_mb=resource.getrusage(
                          resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6)
        if wl.name == "codec-ops":
            tally.extra["ops"] = tally.attempted
            result["codec"] = codec_metrics(tally.extra, walls)

    result.update(attempted=tally.attempted, failed=tally.failed,
                  reasons=tally.reasons[:20], extra=tally.extra)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
