"""Run one workload in this interpreter and print its result as one JSON line.

run.py starts this script in a fresh interpreter for every workload, so
that set-up time and peak memory belong to that workload alone:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

Set-up (importing the package, generating the inputs, writing the input
files) is timed on its own.  The timed loop then runs the workload's batch
of operations whole, as many times as fit in the time given (at least
once).  Only the operations themselves are timed; checks run afterwards.
A batch's time is the sum over its operations of each one's median time
across the batches.  With tracing on, half the time runs untraced and half traced, and the
difference between the two is the tracing overhead.

The machine this runs on is shared, and how fast it runs Python drifts by
up to a factor of two within minutes.  So a fixed piece of reference work is
timed between the calls (at most every REFERENCE_EVERY_S), and each call's
time is rescaled by the mean of the reference timings taken around it (two
before and two after, where there are two):
``scaled = measured * REFERENCE_S / reference``.  The timings this module
reports are these reference-speed seconds; the measured ones are reported
alongside.  README.md says how closely the package's calls track the
reference work.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import marshal
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"

# The reference work: an 8x8 product of small Fractions, the arithmetic
# the package itself spends its time on.  Never change it or REFERENCE_S,
# or every reported time changes with it.
_REF_A = [[Fraction(3 * i - 2 * j + 1, i + j + 2) for j in range(8)] for i in range(8)]
_REF_B = [[Fraction(i * j % 7 - 3, 2 * i + 1) for j in range(8)] for i in range(8)]
REFERENCE_S = 0.0015  # the reference work's time on an idle core of the machine it was tuned on
REFERENCE_EVERY_S = 0.2


def reference_time() -> float:
    """Shortest of three timings of the reference work."""
    best = math.inf
    cols = list(zip(*_REF_B))
    for _ in range(3):
        start = time.perf_counter()
        [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in _REF_A]
        best = min(best, time.perf_counter() - start)
    return best


# Set-up mostly runs freshly loaded module code, which tracks the Fraction
# product less closely than the calls do, so it is rescaled by reference
# work of its own: running a fixed module of functions, classes and a table.
# The same rule holds: never change it or SETUP_REFERENCE_S.
_SETUP_REF = marshal.dumps(compile("\n".join(
    [f"def f{i}(a, b=1, *c, **d):\n    x = [a + b for _ in range({i % 7})]\n"
     f"    return {{'k{i}': x, 'n': len(c)}}\n" for i in range(60)]
    + [f"class C{i}:\n    __slots__ = ('a', 'b')\n    def __init__(self, a):\n"
       f"        self.a = a\n        self.b = str(a)\n    def m(self):\n"
       f"        return self.b * 2\n" for i in range(20)]
    + ["T = {i: (i, str(i), i / 3) for i in range(200)}"]), "<setup reference>", "exec"))
SETUP_REFERENCE_S = 0.00025  # as REFERENCE_S, for this reference work


def setup_reference_time() -> float:
    """Shortest of three timings of the set-up reference work."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        exec(marshal.loads(_SETUP_REF), {"__name__": "setup_reference"})
        best = min(best, time.perf_counter() - start)
    return best


class Pace:
    """Reference timings taken between calls."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = -math.inf

    def sample(self, force: bool = False) -> int:
        """Time the reference work if it is due; return the latest sample's index."""
        if force or time.perf_counter() - self._last >= REFERENCE_EVERY_S:
            self.samples.append(reference_time())
            self._last = time.perf_counter()
        return len(self.samples) - 1


def tail_percentile(samples, q: float, min_beyond: int = 10):
    """Nearest-rank q-th percentile, or None when fewer than min_beyond
    samples lie beyond it (a p90 needs at least 100 samples)."""
    xs = sorted(samples)
    if not xs:
        return None
    rank = max(1, math.ceil(q / 100 * len(xs)))
    if len(xs) - rank < min_beyond:
        return None
    return xs[rank - 1]


def digest_status(recorded: dict, workload: str, seed: int, digest: str) -> str:
    """'match', 'mismatch', or 'unrecorded' when no digest is on file."""
    want = recorded.get(workload, {}).get(str(seed))
    if want is None:
        return "unrecorded"
    return "match" if want == digest else "mismatch"


@dataclass(frozen=True)
class OpError:
    """An operation that raised instead of returning."""

    message: str


@dataclass
class Batch:
    # per-batch records are compact, because they count towards peak_rss_mb
    times: array = field(default_factory=lambda: array("d"))  # reference-speed seconds
    measured: array = field(default_factory=lambda: array("d"))
    op_digests: list[bytes] = field(default_factory=list)  # kept by the first batch only
    differs: list[int] = field(default_factory=list)  # calls whose output differs from it
    outcomes: list = field(default_factory=list)
    out_bytes: int = 0
    transcript: str = ""
    elapsed: float = 0.0  # the batch's whole run, reference timings included
    reference: list[float] = field(default_factory=list)


def batch_seconds(rows, keep=None) -> float:
    """One batch's time: the sum over operations of each one's median time
    across batches (rows holds one list of call times per batch), over the
    operations whose index keep() accepts."""
    return sum(statistics.median(col) for i, col in enumerate(zip(*rows))
               if keep is None or keep(i))


def run_batch(ops, keep: bool, tracer=None, expect: list[bytes] | None = None) -> Batch:
    """Run every operation once, timing each call alone.  Each call's output
    digest is kept, or compared with expect, the first batch's digests."""
    gc.collect()
    batch = Batch()
    pace = Pace()
    before = []
    whole = hashlib.sha256()
    clock = time.perf_counter
    batch_start = clock()
    for i, op in enumerate(ops):
        before.append(pace.sample())
        start = clock()
        try:
            out = op.call() if tracer is None else tracer.call(f"op.{op.kind}", op.call)
        except Exception as exc:  # an operation's failure is a result to count
            out = OpError(f"{type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
        batch.measured.append(clock() - start)
        text = (f"error {out.message}" if isinstance(out, OpError) else op.text(out)) + "\n"
        data = text.encode()
        whole.update(data)
        digest = hashlib.sha256(data).digest()
        if expect is None:
            batch.op_digests.append(digest)
        elif digest != expect[i]:
            batch.differs.append(i)
        batch.out_bytes += len(out.out.encode()) if hasattr(out, "out") else 0
        if keep:
            batch.outcomes.append(out)
    pace.sample(force=True)
    ref = batch.reference = pace.samples
    # two reference timings on each side of the call, where there are two
    batch.times = array("d", (t * REFERENCE_S / statistics.fmean(ref[max(0, j - 1):j + 3])
                              for t, j in zip(batch.measured, before)))
    batch.transcript = whole.hexdigest()
    batch.elapsed = clock() - batch_start
    return batch


def check_outcomes(ops, outcomes) -> dict[int, str]:
    """Index -> reason for every operation whose outcome is wrong."""
    bad = {}
    for i, (op, out) in enumerate(zip(ops, outcomes)):
        if isinstance(out, OpError):
            bad[i] = out.message
            continue
        try:
            reason = op.check(out)
        except Exception as exc:  # a malformed outcome fails its check
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            bad[i] = reason
    return bad


def _verdict_seconds(ops, plain: list[Batch], kind: str) -> float:
    outcomes = plain[0].outcomes
    return batch_seconds([b.times for b in plain],
                         lambda i: not isinstance(outcomes[i], OpError)
                         and ops[i].verdict(outcomes[i]) == kind)


def measure(ops, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    gc.collect()
    gc.freeze()  # the inputs are set-up's, not the program's garbage
    first = run_batch(ops, keep=True)
    plain = [first]
    budget = seconds / 2 if trace else seconds
    count = max(1, round(budget / max(first.elapsed, 1e-9)))
    plain += [run_batch(ops, keep=False, expect=first.op_digests) for _ in range(count - 1)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    traced = []
    if trace:
        from tracing import Tracer, layer_metrics
        tracer = Tracer()
        tracer.install()
        try:
            traced = [run_batch(ops, keep=False, tracer=tracer, expect=first.op_digests)
                      for _ in range(count)]
        finally:
            tracer.uninstall()
    gc.unfreeze()

    bad = check_outcomes(ops, first.outcomes)
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    status = digest_status(recorded, workload, seed, first.transcript)
    failed = 0
    batches = plain + traced
    for b in batches:
        differs = set(b.differs)
        failed += sum(1 for i in range(len(ops))
                      if status == "mismatch" or i in bad or i in differs)
    for i, reason in sorted(bad.items())[:10]:
        print(f"FAIL {workload} op {i} ({ops[i].kind}): {reason}", file=sys.stderr)
    if status == "mismatch":
        print(f"FAIL {workload} seed {seed}: transcript digest {first.transcript} "
              f"differs from the recorded one", file=sys.stderr)
    attempted = len(ops) * len(batches)

    times = [t for b in plain for t in b.times]
    p90 = tail_percentile(times, 90)
    wall_s = batch_seconds([b.times for b in plain])
    info = {
        "measured_wall_s": batch_seconds([b.measured for b in plain]),
        "measured_op_p50_ms": statistics.median(t for b in plain for t in b.measured) * 1e3,
        "reference_s": statistics.median(r for b in plain for r in b.reference),
        "batches": len(plain),
        "ops_per_batch": len(ops),
        "op_samples": len(times),
        "op_p90_ms": None if p90 is None else p90 * 1e3,
        "fail_ratio": failed / attempted,
        "digest": first.transcript,
        "digest_status": status,
        "verdict_zero_s": _verdict_seconds(ops, plain, "zero"),
        "verdict_nonzero_s": _verdict_seconds(ops, plain, "nonzero"),
    }
    if trace:
        traced_wall = batch_seconds([b.times for b in traced])
        metrics = layer_metrics(tracer, len(traced),
                                {"out_bytes": sum(b.out_bytes for b in traced)})
        metrics["trace.overhead_s"] = traced_wall - wall_s
        metrics["trace.spans"] = len(tracer.spans) / len(traced)
        metrics["verdict_zero_s"] = info["verdict_zero_s"]
        metrics["verdict_nonzero_s"] = info["verdict_nonzero_s"]
        info["traced_wall_s"] = traced_wall
        path = OUT / f"trace-{workload}-seed{seed}.jsonl"
        tracer.write(path, {"workload": workload, "seed": seed, "batches": len(traced)})
        info["spans_file"] = str(path.relative_to(ROOT))
    else:
        metrics = {
            "wall_s": wall_s,
            "ops_per_s": len(ops) / wall_s,
            "op_p50_ms": statistics.median(times) * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "info": info}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    reference_time()  # warm up
    setup_reference_time()
    refs = [setup_reference_time() for _ in range(3)]
    start = time.perf_counter()
    # the command line lets MPRAT_SEED override --seed; every call passes
    # its seed explicitly, so the variable must not leak in
    os.environ.pop("MPRAT_SEED", None)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import workloads

    if args.workload not in workloads.NAMES:
        ap.error(f"unknown workload {args.workload!r}")
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        measured_setup_s = time.perf_counter() - start
        refs += [setup_reference_time() for _ in range(3)]
        setup_s = measured_setup_s * SETUP_REFERENCE_S / statistics.median(refs)
        if args.setup_only:
            result = {"setup_s": setup_s, "measured_setup_s": measured_setup_s}
        else:
            result = measure(ops, args.workload, args.seed, args.seconds, bool(args.trace))
            result.update(setup_s=setup_s, measured_setup_s=measured_setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
