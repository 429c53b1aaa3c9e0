"""Compile-cache and capacity benchmark on the full-size ISCAS-89 set.

Two measurement families, written together as ``BENCH_scale.json``:

* **compile rows** -- for each large-tier catalog circuit: parse/ingest
  time, cache-cold compile time (decompose + fanout branches + levelize
  + kernel build + cache store), cache-warm compile time (fingerprint
  lookup + unpickle), and a byte-identity probe showing the warm graph
  simulates bit-for-bit like the cold one.  This is the committed
  evidence that the content-addressed compile cache actually hits and
  that hitting it is safe.

* **procedure2 rows** -- complete Procedure 2 on a real-silicon circuit
  (s13207, collapsed targets, reduced-but-honest config): serial with a
  cold cache, serial with a warm cache, and the persistent pool at
  ``n_jobs=2``.  Every row's result must be byte-identical to the serial
  reference (execution metadata normalized out, as in ``bench_pool``).
  ``ru_maxrss`` is sampled after each row: consecutive runs in one
  process must not grow peak memory, the guard against the compiled
  form leaking object graphs per run.

Modes::

    python benchmarks/bench_scale.py            # full set (committed)
    python benchmarks/bench_scale.py --smoke    # seconds-scale (CI)

The committed ``BENCH_scale.json`` at the repository root is the full
set.  ``--smoke`` compiles only the smallest large-tier circuit and runs
Procedure 2 on s1423, sized for the regression test.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import pickle
import resource
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.bench_circuits import load_circuit
from repro.circuit.cache import CompileCache
from repro.core.config import BistConfig
from repro.core.procedure2 import run_procedure2
from repro.core.test_set import generate_ts0
from repro.faults.collapse import collapse_faults
from repro.faults.fault_sim import FaultSimulator
from repro.faults.model import FaultGraph

#: Schema tag checked by the regression test; bump on layout changes.
SCHEMA = "bench-scale/v1"

FULL_COMPILE_CIRCUITS = ["s9234", "s13207", "s15850", "s38417", "s38584"]
SMOKE_COMPILE_CIRCUITS = ["s9234"]

#: (circuit, BistConfig kwargs) for the Procedure 2 rows.  The full row
#: is a real-silicon circuit with an honest-but-bounded schedule search;
#: two iterations are enough to exercise TS0 simulation, candidate
#: batching and pair selection at 27k-fault scale without an hour-long
#: benchmark run.
FULL_PROC = ("s13207", dict(la=8, lb=16, n=16, n_same_fc=1, max_iterations=2))
SMOKE_PROC = ("s1423", dict(la=4, lb=8, n=8, n_same_fc=1, max_iterations=3))

#: Fault/test probe sizes for the compile-row identity check: enough to
#: cover hundreds of gates, small enough to stay sub-second per circuit.
PROBE_FAULTS = 256


def _maxrss_mb() -> float:
    """Peak RSS of this process so far, in MiB (Linux reports KiB)."""
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)


def _canonical_blob(result: Any, reference_config: BistConfig) -> bytes:
    """The result's scientific payload, execution metadata removed."""
    return pickle.dumps(
        dataclasses.replace(result, config=reference_config, degradation=None)
    )


def bench_compile(names: Sequence[str], cache_root: Path) -> List[Dict[str, Any]]:
    """Cold/warm compile timings plus a warm-graph identity probe."""
    rows: List[Dict[str, Any]] = []
    for name in names:
        cache = CompileCache(cache_root / name)
        t0 = time.perf_counter()
        circuit = load_circuit(name)
        load_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        cold = FaultGraph(circuit, cache=cache)
        cold_s = time.perf_counter() - t0
        assert not cold.cache_hit

        t0 = time.perf_counter()
        warm = FaultGraph(circuit, cache=cache)
        warm_s = time.perf_counter() - t0

        probe_cfg = BistConfig(la=8, lb=16, n=4)
        ts0 = generate_ts0(circuit, probe_cfg)
        faults = collapse_faults(circuit)[:PROBE_FAULTS]
        cold_hits = FaultSimulator(cold).simulate_grouped(ts0, faults)
        warm_hits = FaultSimulator(warm).simulate_grouped(ts0, faults)
        identical = list(cold_hits.items()) == list(warm_hits.items())

        row = {
            "circuit": name,
            "gates": circuit.num_gates,
            "load_seconds": round(load_s, 3),
            "compile_cold_seconds": round(cold_s, 3),
            "compile_warm_seconds": round(warm_s, 3),
            "warm_hit": warm.cache_hit,
            "identical_cold_vs_warm": identical,
            "maxrss_mb": _maxrss_mb(),
        }
        rows.append(row)
        print(
            f"{name}: load {load_s:.2f}s, compile cold {cold_s:.2f}s / "
            f"warm {warm_s:.2f}s, hit={warm.cache_hit}, identical={identical}",
            flush=True,
        )
    return rows


def bench_procedure(
    name: str, base: Dict[str, Any], cache_root: Path
) -> List[Dict[str, Any]]:
    """Serial cold-cache vs warm-cache vs pooled Procedure 2 rows."""
    circuit = load_circuit(name)
    faults = collapse_faults(circuit)
    serial_cfg = BistConfig(**base)
    cache = CompileCache(cache_root / f"proc_{name}")
    rows: List[Dict[str, Any]] = []
    reference: Optional[bytes] = None

    variants = [
        ("serial-cold", serial_cfg),
        ("serial-warm", serial_cfg),
        (
            "pool-warm",
            dataclasses.replace(
                serial_cfg, n_jobs=2, candidate_batch=4
            ),
        ),
    ]
    for label, cfg in variants:
        t0 = time.perf_counter()
        graph = FaultGraph(circuit, cache=cache)
        compile_s = time.perf_counter() - t0
        expect_hit = label != "serial-cold"
        assert graph.cache_hit == expect_hit, label

        t0 = time.perf_counter()
        result = run_procedure2(
            circuit, cfg, faults, simulator=FaultSimulator(graph)
        )
        run_s = time.perf_counter() - t0
        blob = _canonical_blob(result, serial_cfg)
        if reference is None:
            reference = blob
        rows.append(
            {
                "circuit": name,
                "variant": label,
                "n_jobs": cfg.n_jobs,
                "cache_hit": graph.cache_hit,
                "compile_seconds": round(compile_s, 3),
                "run_seconds": round(run_s, 3),
                "fault_coverage": round(result.fault_coverage, 6),
                "identical_to_serial": blob == reference,
                "maxrss_mb": _maxrss_mb(),
            }
        )
        print(
            f"{name} {label}: compile {compile_s:.2f}s "
            f"(hit={graph.cache_hit}), run {run_s:.1f}s, "
            f"identical={rows[-1]['identical_to_serial']}, "
            f"maxrss {rows[-1]['maxrss_mb']}MB",
            flush=True,
        )
    return rows


def run_bench(smoke: bool, cache_root: Path) -> Dict[str, Any]:
    """Measure both families and return the ``BENCH_scale.json`` payload."""
    compile_names = SMOKE_COMPILE_CIRCUITS if smoke else FULL_COMPILE_CIRCUITS
    proc_name, proc_base = SMOKE_PROC if smoke else FULL_PROC
    compile_rows = bench_compile(compile_names, cache_root)
    proc_rows = bench_procedure(proc_name, proc_base, cache_root)
    return {
        "schema": SCHEMA,
        "smoke": smoke,
        "host": {
            "cpu_count": os.cpu_count(),
            "python": ".".join(map(str, sys.version_info[:3])),
        },
        "procedure2_workload": {proc_name: proc_base},
        "compile": compile_rows,
        "procedure2": proc_rows,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="seconds-scale subset (CI entry point)",
    )
    parser.add_argument(
        "--out", type=Path, metavar="PATH",
        default=Path(__file__).resolve().parent.parent / "BENCH_scale.json",
        help="output JSON path (default: repo-root BENCH_scale.json)",
    )
    args = parser.parse_args(list(argv) if argv is not None else None)
    with tempfile.TemporaryDirectory(prefix="bench_scale_cache_") as tmp:
        payload = run_bench(smoke=args.smoke, cache_root=Path(tmp))
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    bad = [
        r for r in payload["compile"]
        if not (r["warm_hit"] and r["identical_cold_vs_warm"])
    ] + [
        r for r in payload["procedure2"] if not r["identical_to_serial"]
    ]
    if bad:
        print(f"ERROR: {len(bad)} rows failed the identity/cache-hit contract")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
