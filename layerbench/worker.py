"""The measured child process: one per set-up sample, one per workload run.

``worker.py setup SPEC`` imports the program, parses and compiles the
workload's circuit, prints ``ready`` and exits; the parent times it from
spawn to that line.  ``worker.py run SPEC`` repeats the operation until
``seconds`` of operation time have passed (at least once), then -- with
``trace`` -- runs it once more under the tracer, and prints one JSON line
with per-operation timings, CPU, peak RSS, digests and the per-layer
metrics.  ``SPEC`` is a JSON object written by ``run.py``.

Running each workload in a fresh process makes ``ru_maxrss`` per
workload; pool workers are reaped before every reading, so their CPU
and peak RSS appear in ``RUSAGE_CHILDREN``.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List


def _import_program(kind: str) -> None:
    """What the measured operation loads, imported up front (part of
    set-up): the session module, or the compile cache for ingest."""
    if kind == "ingest":
        import repro.circuit.cache  # noqa: F401
    else:
        import repro.core.session  # noqa: F401


def _cpu(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _reap_children(timeout: float = 30.0) -> None:
    """Wait until every child this process started (pool workers) has
    ended and been reaped, so RUSAGE_CHILDREN includes them."""
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            raise RuntimeError("pool workers did not exit")
        time.sleep(0.01)


def _stop_resource_tracker() -> None:
    # The shared-memory resource tracker is a helper process the pool
    # starts; stop and reap it rather than leave it to outlive us.
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _measure_op(workload, texts, variant, work_dir) -> Dict[str, Any]:
    from workloads import run_op, setup

    session = setup(workload, texts, variant)
    # Free the previous operation's garbage before the clock starts, so
    # every operation begins from the same heap.
    gc.collect()
    self0, kids0 = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    outcome = run_op(workload, session, texts, work_dir)
    run_s = time.perf_counter() - t0 - outcome["check_s"]
    _reap_children()
    kids = _cpu(resource.RUSAGE_CHILDREN) - kids0
    cpu_s = _cpu(resource.RUSAGE_SELF) - self0 + kids - outcome["check_s"]
    outcome.update(run_s=run_s, cpu_s=cpu_s)
    return outcome


def _traced_op(workload, texts, variant, work_dir, untraced_run_s: float):
    from tracer import Tracer
    from workloads import run_op, setup

    tracer = Tracer()
    tracer.install()
    try:
        phase = tracer.begin("setup")
        session = setup(workload, texts, variant)
        tracer.end(phase)
        kids0 = _cpu(resource.RUSAGE_CHILDREN)
        op = tracer.begin("op")
        outcome = run_op(workload, session, texts, work_dir)
        tracer.end(op)
        _reap_children()
    finally:
        tracer.uninstall()
    extra = {
        "untraced_run_s": untraced_run_s,
        "check_s": outcome["check_s"],
        "pool.worker_cpu_s": _cpu(resource.RUSAGE_CHILDREN) - kids0,
        "robustness.journal_bytes": outcome.get("journal_bytes", 0),
    }
    extra.update(("result." + k, v) for k, v in outcome["quality"].items())
    return outcome, tracer.layer_metrics(op, extra)


def run(spec: Dict[str, Any]) -> Dict[str, Any]:
    from workloads import WORKLOADS

    workload = WORKLOADS[spec["workload"]]
    _import_program(workload.kind)
    texts = [Path(p).read_text() for p in spec["texts"]]
    work_dir = Path(spec["work_dir"])
    variant = spec["variant"]
    ops: List[Dict[str, Any]] = []
    while not ops or sum(o["run_s"] for o in ops) < spec["seconds"]:
        ops.append(_measure_op(workload, texts, variant, work_dir))
    out: Dict[str, Any] = {"ops": ops}
    if spec["trace"]:
        untraced = statistics.median(o["run_s"] for o in ops)
        outcome, layers = _traced_op(workload, texts, variant, work_dir,
                                     untraced)
        out["traced"] = outcome
        out["layers"] = layers
    _stop_resource_tracker()
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    out["peak_rss_mb"] = peak_kb / 1024.0
    return out


def setup_only(spec: Dict[str, Any]) -> None:
    from workloads import WORKLOADS, setup

    workload = WORKLOADS[spec["workload"]]
    _import_program(workload.kind)
    texts = [Path(p).read_text() for p in spec["texts"]]
    setup(workload, texts, spec["variant"])
    print("ready", flush=True)


def main(argv: List[str]) -> int:
    mode, spec = argv[0], json.loads(argv[1])
    if mode == "setup":
        setup_only(spec)
    else:
        print(json.dumps(run(spec)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
