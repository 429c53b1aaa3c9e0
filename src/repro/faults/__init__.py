"""Stuck-at fault modelling and fault simulation.

- :mod:`repro.faults.model` -- the single stuck-at fault universe over
  stems and fanout branches, and the :class:`FaultGraph` that maps every
  fault onto a net of the (decomposed, branch-expanded) simulation graph,
- :mod:`repro.faults.collapse` -- gate-local equivalence collapsing,
- :mod:`repro.faults.fault_sim` -- the parallel-fault sequential fault
  simulator (64 fault machines per word) with detection at primary
  outputs, at bits shifted out by limited scan operations, and at the
  final scan-out,
- :mod:`repro.faults.ppsfp` -- parallel-pattern single-fault propagation
  for the purely combinational (single-vector, full-scan) setting,
- :mod:`repro.faults.pool` -- the persistent shared-memory worker pool
  that scores Procedure 2's candidate test sets in parallel,
- :mod:`repro.faults.sharding` -- word-aligned fault-list sharding, worker
  sizing and the shard-granular recovery policy the pool uses.
"""

from repro.faults.model import Fault, FaultGraph, generate_faults
from repro.faults.collapse import collapse_faults
from repro.faults.fault_sim import (
    DetectionRecord,
    FaultSimulator,
    ObservationPolicy,
    ScanTest,
)
from repro.faults.transition import (
    TransitionFault,
    TransitionFaultSimulator,
    generate_transition_faults,
)
from repro.faults.dictionary import FaultDictionary, build_dictionary, diagnose
from repro.faults.sharding import resolve_n_jobs, shard_faults

__all__ = [
    "Fault",
    "FaultGraph",
    "generate_faults",
    "collapse_faults",
    "FaultSimulator",
    "ObservationPolicy",
    "ScanTest",
    "DetectionRecord",
    "TransitionFault",
    "TransitionFaultSimulator",
    "generate_transition_faults",
    "FaultDictionary",
    "build_dictionary",
    "diagnose",
    "resolve_n_jobs",
    "shard_faults",
]
