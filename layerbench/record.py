"""Record ``references.json``: the digest of every workload variant.

    python3 layerbench/record.py

Each reference comes from a serial run: Procedure 2 in-process with the
default ``candidate_batch`` 1 and no journal, whatever the workload's own
execution settings.  The benchmark then checks its own results -- pool,
batching and journal included -- against these digests.  Re-record only
when a change is meant to alter results, and say so in the change.
"""

from __future__ import annotations

import json
import multiprocessing
import shutil
import sys
from pathlib import Path
from typing import Dict, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from repro.faults.sharding import available_cpu_count  # noqa: E402
from workloads import (  # noqa: E402
    N_VARIANTS,
    WORKLOADS,
    bench_text,
    p2_outcome,
    run_op,
    setup,
)


def _record(task: Tuple[str, int]) -> Tuple[str, int, Dict[str, str]]:
    name, variant = task
    workload = WORKLOADS[name]
    work_dir = ROOT / ".layerbench_work" / f"record-{name}-{variant}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        texts = [bench_text(c, variant, rename=workload.renames)
                 for c in workload.circuits]
        if workload.kind == "ingest":
            digests = run_op(workload, None, texts, work_dir)["digests"]
        else:
            session = setup(workload, texts, variant, serial=True)
            digests = p2_outcome(session, session.run())["digests"]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(f"{name} variant {variant}: {digests}", flush=True)
    return name, variant, digests


def main() -> int:
    """Record every variant of every workload, smoke ones included."""
    tasks = [(name, v) for name in WORKLOADS for v in range(N_VARIANTS)]
    references: Dict[str, Dict[str, Dict[str, str]]] = {}
    with multiprocessing.get_context("spawn").Pool(
            available_cpu_count()) as pool:
        for name, variant, digests in pool.imap_unordered(_record, tasks):
            references.setdefault(name, {})[str(variant)] = digests
    ordered = {
        name: {str(v): references[name][str(v)] for v in range(N_VARIANTS)}
        for name in WORKLOADS
    }
    (HERE / "references.json").write_text(json.dumps(ordered, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
