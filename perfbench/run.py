"""Benchmark of the mprat package: one command runs, checks and reports.

    python3 perfbench/run.py [--workload zero-test|point-eval|symbolic|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root (or anywhere: paths are resolved from this
file).  Each workload runs in a fresh interpreter (worker.py).  With
``--trace 0`` the result carries the end-to-end metrics; with ``--trace 1``
the per-layer metrics of a traced run.  Set-up time is the median of fifteen
set-ups, each in its own interpreter.  Human-readable lines come first; the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics`` (for ``all``, one such object per
workload).  The exit code is 0 when every workload ran, even if a check
failed; the result says so.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("zero-test", "point-eval", "symbolic")
SETUP_PROBES = 14  # plus the measured run's own set-up: fifteen in all
DEADLINE_S = 170  # per workload; the whole run must end within 180 s


class BenchError(Exception):
    pass


def _metric_units(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics a run reports, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_worker(args: list[str], deadline: float) -> dict:
    """Run worker.py with args and return its result line."""
    # MPRAT_SEED would override the --seed each call passes, and PYTHONPATH
    # could put another copy of the package ahead of this checkout's
    env = {k: v for k, v in os.environ.items() if k not in ("MPRAT_SEED", "PYTHONPATH")}
    env["PYTHONHASHSEED"] = "0"
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time")
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], env=env, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True, timeout=left)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", name, "--seed", str(seed)]
    res = run_worker([*common, "--seconds", str(seconds), "--trace", str(int(trace))],
                     deadline)
    if not trace:
        probes = [res] + [run_worker([*common, "--setup-only"], deadline)
                          for _ in range(SETUP_PROBES)]
        res["metrics"]["setup_s"] = statistics.median(p["setup_s"] for p in probes)
        res["info"]["measured_setup_s"] = statistics.median(p["measured_setup_s"]
                                                            for p in probes)
    return res


def _fmt(v) -> str:
    if v is None:
        return "n/a"
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def report(name: str, seed: int, res: dict, units: dict) -> None:
    info = res["info"]
    print(f"== {name} (seed {seed}): {info['batches']} batch(es) of "
          f"{info['ops_per_batch']} ops, {res['attempted']} attempted, "
          f"{res['failed']} failed, digest {info['digest_status']}")
    for k, v in sorted(res["metrics"].items()):
        print(f"   {k:34s} {_fmt(v):>14s} {units.get(k, '')}")
    p90 = info["op_p90_ms"]
    print(f"   {'op_p90_ms':34s} {_fmt(p90):>14s} ms  ({info['op_samples']} samples"
          + ("" if p90 is not None else "; needs 10 beyond it") + ")")
    print(f"   {'fail_ratio':34s} {_fmt(info['fail_ratio']):>14s}")
    for k in ("measured_wall_s", "measured_op_p50_ms", "measured_setup_s", "reference_s"):
        if k in info:
            print(f"   {k:34s} {_fmt(info[k]):>14s} {k.rsplit('_', 1)[1]}")
    if name == "zero-test" and "verdict_zero_s" not in res["metrics"]:
        for k in ("verdict_zero_s", "verdict_nonzero_s"):
            print(f"   {k:34s} {_fmt(info[k]):>14s} s")
    if "traced_wall_s" in info:
        print(f"   traced wall {info['traced_wall_s']:.6g} s; spans in {info['spans_file']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run the mprat benchmark.")
    ap.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "mprat" / "__init__.py").is_file():
        print(f"error: no mprat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = _metric_units(bool(args.trace))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            res = run_workload(name, args.seed, args.seconds, bool(args.trace))
            report(name, args.seed, res, units)
            missing = set(units) - set(res["metrics"])
            if missing:
                raise BenchError(f"{name} did not report {sorted(missing)}")
            results[name] = {
                "correct": res["correct"],
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": {k: {"value": res["metrics"][k], "unit": u}
                            for k, u in units.items()},
            }
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
