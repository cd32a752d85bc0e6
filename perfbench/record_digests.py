"""Record each workload's transcript digest for seeds 0..SEEDS-1 in digests.json.

    python3 perfbench/record_digests.py

Runs one batch per workload and seed not yet on file, and stores its digest
only when every check passed.  Recorded digests are never replaced:
re-recording a changed output means deleting its entry first.
"""

import json
import sys
import time

from run import DEADLINE_S, WORKLOADS, BenchError, run_worker
from worker import DIGESTS

SEEDS = 32


def main() -> int:
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    ok = True
    for name in WORKLOADS:
        for seed in range(SEEDS):
            if str(seed) in recorded.get(name, {}):
                continue
            try:
                res = run_worker(["--workload", name, "--seed", str(seed), "--seconds", "0"],
                                 time.monotonic() + DEADLINE_S)
            except BenchError as exc:
                print(f"{name} seed {seed}: {exc}", file=sys.stderr)
                ok = False
                continue
            if not res["correct"]:
                print(f"{name} seed {seed}: checks failed, not recorded", file=sys.stderr)
                ok = False
                continue
            recorded.setdefault(name, {})[str(seed)] = res["info"]["digest"]
            print(f"{name} seed {seed}: {res['info']['digest']}")
    DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
