"""twoshare benchmark: one workload per invocation, run from the repo root.

    python3 bench/run.py --workload exact-block --seed 1 --seconds 20 --trace 0

Workloads (reasons in `predictions.json`): exact-block, exact-symbol, mc,
codec-ops.  Each runs in fresh single-threaded processes (BLAS and OpenMP
pools pinned to one thread), so peak memory and import time belong to that
workload alone.  Set-up is paid SETUPS times, each in its own process, and
reported as the median.

--trace 0 prints the end-to-end metrics, measured with tracing off; times
are scaled to a reference machine speed by a probe (see `worker.py`).
--trace 1 runs the workload untraced and then under the span tracer of
`spans.py`, and prints per-layer metrics: self time per layer, work counts,
and the tracing overhead.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the lines
before it give the same figures with units and sample counts, the machine,
the source revision and the seed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUPS = 7
CHILD_TIMEOUT_S = 150
SINGLE_THREAD = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                  "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                  "VECLIB_MAXIMUM_THREADS")}
WORKLOADS = ("exact-block", "exact-symbol", "mc", "codec-ops")


def git_sha(root: Path) -> str:
    """HEAD of the checkout, read from .git without starting git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def child(root: Path, args, setup_only: bool) -> dict:
    env = dict(os.environ, **SINGLE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--t0", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    root = Path.cwd()
    missing = [p for p in ("src/twoshare/__init__.py", "configs")
               if not (root / p).exists()]
    if missing:
        print(f"not a twoshare checkout: {', '.join(missing)} missing under {root}",
              file=sys.stderr)
        return 2

    # set-ups before and after the measured process sample the machine at
    # both ends of the run
    extra = 0 if args.trace else (SETUPS - 1) // 2
    setups = [child(root, args, True) for _ in range(extra)]
    res = child(root, args, False)
    setups.append(res)
    setups += [child(root, args, True) for _ in range(extra)]

    print(f"twoshare benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"machine: cpus={os.cpu_count()} python={res['python']} "
          f"numpy={res['numpy']} git={git_sha(root)} src_sha256={source_digest(root)}")
    attempted, failed = res["attempted"], res["failed"]
    if args.trace:
        metrics = {k: {"value": v, "unit": unit_of(k)}
                   for k, v in res["per_layer"].items()}
        print("per-layer metrics (traced; the traced set-up plus the median "
              f"traced pass, over {res['passes']} alternating untraced and "
              "traced passes; times are raw):")
        for k, m in metrics.items():
            print(f"  {k:40s} {m['value']:.6g} {m['unit']}")
        pl = res["per_layer"]
        print(f"  accounting: a traced pass took {pl['trace.wall_s']:.6g} s; the "
              "library layers' self times cover all of it but "
              f"{pl['trace.unaccounted_s']:.6g} s, the benchmark's own loop and "
              f"checks; tracing overhead {pl['trace.overhead_s']:.6g} s")
        print("  wait time: none -- every call runs on one thread, so no "
              "layer waits for another")
        print(f"  absent (not measured): {', '.join(res['absent']) or 'none'}")
        if res["broken_hooks"]:
            print(f"  counters that failed: {', '.join(res['broken_hooks'])}")
        print("  cli: not measured separately; its subcommands are thin "
              "argparse wrappers over the same calls")
    else:
        setup_s = statistics.median(s["setup_s"] for s in setups)
        raw_setup_s = statistics.median(s["raw_setup_s"] for s in setups)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": res["wall_s"], "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        rows = [("setup_s", setup_s, "s", f"median of {len(setups)} set-ups, "
                 f"at reference speed; raw {raw_setup_s:.6g} s"),
                ("wall_s", res["wall_s"], "s", f"median of {res['passes']} passes, "
                 f"at reference speed; raw {res['raw_wall_s']:.6g} s, speed probe "
                 f"{res['probe_us']:.4g} us against {res['probe_ref_us']:g} us"),
                ("peak_rss_mb", res["peak_rss_mb"], "MB", "1 process"),
                ("fail_frac", failed / attempted, "1",
                 f"{failed} of {attempted} operations")]
        for name, (value, unit, count) in sorted(res.get("codec", {}).items()):
            rows.append((name, value, unit, f"{count} samples"))
        print("end-to-end metrics (tracing off; codec-ops latencies are raw):")
        for name, value, unit, note in rows:
            print(f"  {name:16s} {value:.6g} {unit:3s}  {note}")
    for key, value in sorted(res["extra"].items()):
        print(f"  {key}: {json.dumps(value, sort_keys=True)}")
    for reason in res["reasons"]:
        print(f"  FAILED: {reason}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def unit_of(name: str) -> str:
    if name.endswith(".us"):
        return "us"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("distinct_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
