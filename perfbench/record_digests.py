"""Record ``digests.json``: every op's result digest on the default seed.

The benchmark compares each op of a default-seed run with these digests,
so a change that makes the program return a different node set or
different ``nodes.checked`` / ``frequency.table_scans`` counters fails the
run.  Re-record only when such a change is intended and reviewed::

    python3 perfbench/record_digests.py
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks, search, service  # noqa: E402
from perfbench.run import DEFAULT_SEED, WORK  # noqa: E402


def record() -> dict[str, str]:
    digests = {}
    for size in ("small", "full"):
        for workload in ("adults-q8", "landsend-1m", "landsend-append"):
            loop = search.build_loop(workload, size, DEFAULT_SEED)
            state = loop.setup()
            ops = len(state.deltas) if workload == "landsend-append" else 1
            for index in range(ops):
                released = loop.op(state, index)
                summary = checks.result_summary(released.result)
                digests[f"{workload}/{size}/{released.key}"] = checks.digest(summary)
        work = WORK / f"record-{time.time_ns()}"
        try:
            _, _, _, reference = service.prepare_job(work, DEFAULT_SEED, service.SIZES[size])
        finally:
            shutil.rmtree(work, ignore_errors=True)
        digests[f"service-jobs/{size}/0"] = checks.digest(reference)
    return digests


if __name__ == "__main__":
    checks.DIGESTS_FILE.write_text(json.dumps(record(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {checks.DIGESTS_FILE}")
