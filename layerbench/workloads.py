"""Workload definitions: generated inputs, the timed operation, digests.

Each workload is one kind of user operation on catalog circuits:

- ``detect``: a default ``repro run`` (``--targets detectable``): PODEM
  classification, then serial Procedure 2;
- ``serial``: Procedure 2 over the collapsed fault list, in-process;
- ``pool``: the same with two pool workers, ``candidate_batch`` 10 and a
  checkpoint journal, as ``repro serve`` drives it;
- ``ingest``: parse, cold and warm compile, fault collapsing and COP
  analysis of a large circuit.

Each operation takes a few seconds, so that one run repeats it several
times and reports the median: a single operation of 20 s, timed once,
spread by up to 45% between runs on a shared 2-vCPU host.

The ``--seed`` picks one of :data:`N_VARIANTS` recorded input variants
(``seed % N_VARIANTS``), because every result is checked against a
reference digest recorded per variant.  Variant 0 is today's catalog
netlist under the default :class:`BistConfig`.  A variant either renames
every net of the netlist by a seeded permutation (``detect`` and
``ingest``: new text, fingerprints and fault order, the same work) or
sets ``BistConfig.base_seed`` (``serial`` and ``pool``: every random
pattern of TS0 and of each ``TS(I, D1)``).  The netlist structure itself
is fixed: re-synthesizing s344 under other seeds moved a default run
from 7 s to 59 s, and other base seeds move the Procedure 2 tail of a
default s344 run from 0.4 s to 4 s; no regression bound holds either.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

N_VARIANTS = 16


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # 'detect' | 'serial' | 'pool' | 'ingest'
    circuits: Tuple[str, ...]
    #: Procedure 2 iterations for the collapsed-target kinds.  Collapsed
    #: targets include undetectable faults, so a run never completes
    #: and its length is set by N_SAME_FC -- 10 to 19 iterations across
    #: base seeds on s641.  Pinning ``n_same_fc = max_iterations`` makes
    #: every variant run exactly this many iterations.
    iterations: Optional[int] = None

    @property
    def renames(self) -> bool:
        """Whether a variant renames nets (else it sets the base seed)."""
        return self.kind in ("detect", "ingest")


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("detect_s298", "detect", ("s298",)),
        Workload("sim_s641_serial", "serial", ("s641",), iterations=3),
        Workload("sim_s1423_pool", "pool", ("s1423",), iterations=4),
        Workload("ingest_s38584", "ingest", ("s38584",)),
        # Seconds-scale variants of the four, for the benchmark's tests.
        Workload("smoke_detect", "detect", ("s27",)),
        Workload("smoke_serial", "serial", ("s208",), iterations=3),
        Workload("smoke_pool", "pool", ("s208",), iterations=3),
        Workload("smoke_ingest", "ingest", ("s27", "s208")),
    )
}

#: The workloads BENCHMARK.json declares.
MAIN_WORKLOADS = ("detect_s298", "sim_s641_serial", "sim_s1423_pool",
                  "ingest_s38584")


def variant_of(seed: int) -> int:
    return seed % N_VARIANTS


def bench_text(circuit_name: str, variant: int, rename: bool = False) -> str:
    """The ``.bench`` text of a catalog circuit's synthetic stand-in.

    Generated from the catalog's interface statistics (never a vendored
    netlist, so the input does not depend on the environment).  With
    ``rename`` and a nonzero variant, every net is renamed ``w<k>`` by a
    seeded permutation.
    """
    import numpy as np

    from repro.bench_circuits.catalog import circuit_info
    from repro.bench_circuits.s27 import s27_circuit
    from repro.bench_circuits.synthetic import SyntheticSpec, synthesize
    from repro.circuit.bench_parser import write_bench

    entry = circuit_info(circuit_name)
    if entry.synthetic:
        circuit = synthesize(SyntheticSpec(
            name=entry.name, n_pi=entry.n_pi, n_po=entry.n_po,
            n_ff=entry.n_ff, n_gates=entry.n_gates,
        ))
    else:
        circuit = s27_circuit()
    text = write_bench(circuit)
    if not rename or variant == 0:
        return text
    names = sorted(set(re.findall(r"\b[A-Za-z_]\w*\b", text)) - _KEYWORDS)
    perm = np.random.Generator(np.random.PCG64(variant)).permutation(len(names))
    mapping = {old: f"w{perm[i]}" for i, old in enumerate(names)}
    head, _, body = text.partition("\n")
    body = re.sub(r"\b[A-Za-z_]\w*\b",
                  lambda m: mapping.get(m.group(0), m.group(0)), body)
    return head + "\n" + body


_KEYWORDS = {"INPUT", "OUTPUT", "DFF", "AND", "NAND", "OR", "NOR", "XOR",
             "XNOR", "NOT", "BUF", "BUFF", "CONST0", "CONST1"}


def config_for(workload: Workload, variant: int, serial: bool = False):
    """The workload's BistConfig; ``serial`` drops the execution knobs
    (the reference run)."""
    from repro.core.config import BistConfig

    cfg = BistConfig()
    if not workload.renames:
        cfg = dataclasses.replace(cfg, base_seed=cfg.base_seed + variant)
    if workload.iterations is not None:
        cfg = dataclasses.replace(cfg, n_same_fc=workload.iterations,
                                  max_iterations=workload.iterations)
    if workload.kind == "pool" and not serial:
        cfg = dataclasses.replace(cfg, n_jobs=2, candidate_batch=10)
    return cfg


def sha(obj: Any) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode("utf-8")
    ).hexdigest()


# -- sessions and operations (run inside the measured child) -----------
def setup(workload: Workload, texts: List[str], variant: int,
          serial: bool = False) -> Any:
    """Parse and compile: the ready session (``None`` for ingest, whose
    set-up is the import only)."""
    from repro.circuit.bench_parser import parse_bench
    from repro.core.session import LimitedScanBist
    from repro.faults.collapse import collapse_faults

    if workload.kind == "ingest":
        return None
    circuit = parse_bench(texts[0], workload.circuits[0])
    targets = None if workload.kind == "detect" else collapse_faults(circuit)
    return LimitedScanBist(circuit, config=config_for(workload, variant, serial),
                           target_faults=targets)


def run_op(workload: Workload, session: Any, texts: List[str],
           work_dir: Path) -> Dict[str, Any]:
    """The timed operation.  Returns its digests and quality figures, and
    ``check_s``: the seconds spent computing them, which the caller
    subtracts from the operation time."""
    if workload.kind == "ingest":
        return _ingest(workload, texts, work_dir)
    journal = work_dir / "journal.jsonl"
    if workload.kind == "pool":
        result = session.run_checkpointed(journal)
    else:
        result = session.run()
    t0 = time.perf_counter()
    out = p2_outcome(session, result)
    if workload.kind == "pool":
        out["journal_bytes"] = journal.stat().st_size
    out["check_s"] = time.perf_counter() - t0
    return out


def p2_outcome(session: Any, result: Any) -> Dict[str, Any]:
    from repro.experiments.serialize import result_to_dict
    from repro.robustness.checkpoint import fingerprint_faults

    if session._explicit_targets is None:
        cls = session.classification
        partition = {
            "detectable": fingerprint_faults(cls.detectable),
            "undetectable": fingerprint_faults(cls.undetectable),
            "aborted": fingerprint_faults(cls.aborted),
        }
    else:
        partition = {"targets": fingerprint_faults(session.target_faults)}
    return {
        "digests": {"result": sha(result_to_dict(result)),
                    "partition": sha(partition)},
        "quality": {"fault_coverage": result.fault_coverage,
                    "stored_pairs": result.app,
                    "test_cycles": result.ncyc_total},
    }


def _ingest(workload: Workload, texts: List[str], work_dir: Path) -> Dict[str, Any]:
    """Parse, cold compile (cache write), warm compile (cache read),
    collapse and COP (cold, then warm) for each circuit."""
    import shutil

    import numpy as np

    from repro.analysis.cop import analyze_circuit
    from repro.circuit.bench_parser import parse_bench
    from repro.circuit.cache import CompileCache
    from repro.faults.collapse import collapse_faults
    from repro.faults.model import FaultGraph
    from repro.robustness.checkpoint import fingerprint_faults

    cache_dir = work_dir / "compile-cache"
    shutil.rmtree(cache_dir, ignore_errors=True)
    cache = CompileCache(cache_dir)
    summary = []
    check_s = 0.0
    for name, text in zip(workload.circuits, texts):
        circuit = parse_bench(text, name)
        cold = FaultGraph(circuit, cache=cache)
        warm = FaultGraph(circuit, cache=cache)
        faults = collapse_faults(circuit)
        first = analyze_circuit(circuit, faults=faults, cache=cache)
        second = analyze_circuit(circuit, faults=faults, cache=cache)
        t0 = time.perf_counter()
        if cold.cache_hit or not warm.cache_hit or first.cache_hit \
                or not second.cache_hit:
            raise RuntimeError("compile cache did not miss, then hit")
        if not np.array_equal(first.p_detect, second.p_detect) or \
                cold.model.n_signals != warm.model.n_signals:
            raise RuntimeError("warm artifacts differ from cold ones")
        summary.append({
            "fingerprint": first.fingerprint,
            "gates": first.n_gates,
            "nets": first.n_nets,
            "faults": fingerprint_faults(faults),
            "rpr": int((first.p_detect < first.rpr_threshold).sum()),
            "p_detect": hashlib.sha256(first.p_detect.tobytes()).hexdigest(),
        })
        check_s += time.perf_counter() - t0
    t0 = time.perf_counter()
    shutil.rmtree(cache_dir, ignore_errors=True)
    digests = {"result": sha(summary)}
    return {"digests": digests, "quality": {},
            "check_s": check_s + time.perf_counter() - t0}
