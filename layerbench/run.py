"""Benchmark entry point: one workload (or all of them) end to end.

    python3 layerbench/run.py --workload detect_s298 --seed 3 \\
        --seconds 20 --trace 0

For each workload the parent process generates the ``.bench`` inputs
from the seed, times ``SETUP_SAMPLES`` fresh set-up processes, runs the
workload in one fresh child process (see ``worker.py``), checks every
result digest against ``references.json`` (recorded from serial runs by
``record.py``) and prints every metric by name and unit.  The last line
of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}`` -- the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.  A
digest mismatch, an exception or a timeout fails the run: the metrics
are withheld and the exit code is 1.

One caller, one job at a time (a closed loop); the pool workload uses
at most two pool workers.  All files go under ``.layerbench_work/`` in
the checkout and are removed afterwards.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references.json"

#: Fresh processes timed per run for ``setup_s`` (their median is reported).
SETUP_SAMPLES = 7
#: Wall-clock budget of one invocation, per workload.
BUDGET_S = 170.0

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _spawn(mode: str, spec: Dict[str, Any]) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), mode, json.dumps(spec)],
        stdout=subprocess.PIPE, text=True, env=_child_env(), cwd=str(ROOT),
    )


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.communicate()


def _setup_sample(spec: Dict[str, Any], deadline: float) -> float:
    """Seconds from spawning a fresh process to its ready session."""
    t0 = time.perf_counter()
    proc = _spawn("setup", spec)
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            if not sel.select(max(1.0, deadline - time.monotonic())):
                raise RuntimeError("set-up timed out")
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RuntimeError("set-up timed out") from None
    finally:
        _stop(proc)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up process failed (exit {proc.returncode})")
    return elapsed


def _run_child(spec: Dict[str, Any], deadline: float) -> Dict[str, Any]:
    proc = _spawn("run", spec)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RuntimeError("workload timed out") from None
    finally:
        _stop(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process failed (exit {proc.returncode})")
    return json.loads(out.strip().splitlines()[-1])


def check_digests(
    references: Dict[str, Any], workload: str, variant: int,
    digests: Dict[str, str],
) -> List[str]:
    """Mismatches between an operation's digests and the reference."""
    ref = references.get(workload, {}).get(str(variant))
    if ref is None:
        return [f"no reference recorded for {workload} variant {variant}"]
    return [
        f"{key}: {digests.get(key)} != reference {value}"
        for key, value in sorted(ref.items())
        if digests.get(key) != value
    ]


def host_info() -> Dict[str, Any]:
    import numpy

    from repro.faults.sharding import available_cpu_count

    return {
        "available_cpu_count": available_cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def run_workload(
    name: str, seed: int, seconds: int, trace: bool,
    references: Dict[str, Any],
) -> Tuple[bool, Dict[str, Any]]:
    """Run one workload; returns (correct, final JSON object)."""
    from workloads import WORKLOADS, bench_text, variant_of

    workload = WORKLOADS[name]
    variant = variant_of(seed)
    deadline = time.monotonic() + BUDGET_S
    work_dir = ROOT / ".layerbench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    attempted, failed, errors = 0, 0, []
    result: Optional[Dict[str, Any]] = None
    setup_samples: List[float] = []
    try:
        paths = []
        for circuit in workload.circuits:
            path = work_dir / f"{circuit}.bench"
            path.write_text(bench_text(circuit, variant,
                                       rename=workload.renames))
            paths.append(str(path))
        spec = {"workload": name, "variant": variant, "texts": paths,
                "work_dir": str(work_dir), "seconds": seconds, "trace": trace}
        setup_samples = [_setup_sample(spec, deadline)
                         for _ in range(SETUP_SAMPLES)]
        result = _run_child(spec, deadline)
    except (RuntimeError, OSError, ValueError) as exc:
        attempted, failed = 1, 1
        errors.append(str(exc))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if result is not None:
        outcomes = list(result["ops"])
        if "traced" in result:
            outcomes.append(result["traced"])
        for outcome in outcomes:
            attempted += 1
            bad = check_digests(references, name, variant, outcome["digests"])
            if bad:
                failed += 1
                errors.extend(bad)

    print(f"# workload {name}  seed {seed}  variant {variant}  "
          f"trace {int(trace)}")
    for line in dict.fromkeys(errors):
        print(f"# FAILED: {line}")
    print(f"error_rate  {failed / max(attempted, 1):.4f} ratio  "
          f"({failed} of {attempted} operations)")
    correct = failed == 0 and result is not None
    metrics: Dict[str, Any] = {}
    if correct:
        ops = result["ops"]
        print(f"# {len(ops)} timed operation(s); setup samples: "
              + ", ".join(f"{s:.3f}" for s in setup_samples))
        if ops[0]["quality"]:
            for key, value in ops[0]["quality"].items():
                print(f"{key}  {value}")
        values = {
            "run_s": statistics.median(o["run_s"] for o in ops),
            "setup_s": statistics.median(setup_samples),
            "cpu_s": statistics.median(o["cpu_s"] for o in ops),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        if trace:
            from tracer import LAYER_METRICS

            units = LAYER_METRICS
            values = result["layers"]
        else:
            units = END_TO_END
        for key, value in values.items():
            print(f"{key:<34} {value:>14.6g} {units[key]}")
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    return correct, {"correct": correct, "attempted": max(attempted, 1),
                     "failed": failed, "metrics": metrics}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        help="a workload name, or 'all' for the four "
                             "benchmark workloads in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"run.py: no program sources at {SRC}", file=sys.stderr)
        return 2
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    from workloads import MAIN_WORKLOADS, WORKLOADS

    names = MAIN_WORKLOADS if args.workload == "all" else (args.workload,)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; "
                     f"known: {', '.join(WORKLOADS)}")
    references = json.loads(REFERENCES.read_text())
    print("# host " + json.dumps(host_info(), sort_keys=True))
    all_correct = True
    for name in names:
        correct, final = run_workload(name, args.seed, args.seconds,
                                      bool(args.trace), references)
        all_correct = all_correct and correct
        print(json.dumps(final), flush=True)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
