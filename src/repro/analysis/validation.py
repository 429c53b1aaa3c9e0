"""Differential validation of COP estimates against measured detection.

The COP sweeps (:mod:`repro.analysis.cop`) predict each fault's
single-pattern detection probability from structure alone; the compiled
simulator measures the same quantity by brute force
(:meth:`~repro.faults.fault_sim.FaultSimulator.measure_detection_counts`).
This module cross-checks the two, the way the repo's other numeric
engines are guarded (serial vs. pooled simulation, python vs. compiled
kernels): not for exact equality -- COP assumes independent gate inputs,
which reconvergent fanout violates -- but for the properties the
consumers rely on:

- **rank agreement** (Spearman): Procedure 2's testability bias and the
  T005/T006 lint rules only use the *ordering* of faults and state bits;
- **bucket tolerance**: estimates within a decade of the measurement for
  well-measured faults;
- **RPR soundness**: a fault no random pattern detects must be flagged
  random-pattern resistant, or the lint rules would understate risk.

The soundness gate is only meaningful over *detectable* faults:
redundant faults have true detection probability exactly zero, which
COP's independence assumption cannot represent (it assigns them the
probability the fault site would be detected if its reconvergent
context were uncorrelated).  Redundancy identification is PODEM's job
(:mod:`repro.atpg.classify`), and every consumer of the COP signal --
Procedure 2's target list, the T-rules -- already works on the
classified detectable set, so :func:`validate_cop` filters the fault
list the same way by default.

Thresholds live in the differential test suite
(``tests/test_cop_differential.py``), which runs ~20 seeded small
circuits through :func:`validate_cop`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.analysis.cop import DEFAULT_RPR_THRESHOLD, analyze_circuit
from repro.atpg.classify import classify_faults
from repro.circuit.netlist import Circuit
from repro.faults.fault_sim import FaultSimulator
from repro.faults.model import Fault


def rank_with_ties(values: np.ndarray) -> np.ndarray:
    """Average ranks (1-based); tied values share their mean rank."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.float64)
    sorted_vals = values[order]
    # Tie-group boundaries over the sorted array.
    boundaries = np.flatnonzero(np.diff(sorted_vals) != 0) + 1
    starts = np.concatenate(([0], boundaries))
    stops = np.concatenate((boundaries, [len(values)]))
    for lo, hi in zip(starts, stops):
        ranks[order[lo:hi]] = (lo + hi + 1) / 2.0  # mean of ranks lo+1..hi
    return ranks


def spearman(a: np.ndarray, b: np.ndarray) -> float:
    """Spearman rank correlation with average-rank tie handling.

    Degenerate inputs (one value constant) correlate as 1.0 when both
    are constant -- identical trivial orderings -- and 0.0 otherwise.
    """
    ra, rb = rank_with_ties(a), rank_with_ties(b)
    sa, sb = ra.std(), rb.std()
    if sa == 0.0 or sb == 0.0:
        return 1.0 if sa == sb else 0.0
    return float(np.corrcoef(ra, rb)[0, 1])


@dataclass
class ValidationReport:
    """Agreement metrics between COP estimates and measured detection."""

    circuit_name: str
    n_faults: int
    n_patterns: int
    #: Rank correlation between estimated and measured detection
    #: probability over the whole collapsed fault list.
    spearman: float
    #: Fraction of well-measured faults (>= ``min_count`` detections)
    #: whose estimate is within one decade of the measurement.
    within_decade: float
    min_count: int
    n_measured_undetected: int
    #: Faults measured undetected whose estimate is *not* below the RPR
    #: threshold -- the soundness violations (must be 0).
    undetected_not_rpr: int
    n_rpr: int
    #: Faults PODEM proved redundant (excluded from the comparison).
    n_undetectable: int = 0
    #: Faults PODEM gave up on (also excluded; rare at small scale).
    n_aborted: int = 0

    @property
    def undetected_all_rpr(self) -> bool:
        return self.undetected_not_rpr == 0

    def summary(self) -> str:
        return (
            f"{self.circuit_name}: {self.n_faults} faults, "
            f"spearman={self.spearman:.3f}, "
            f"within-decade={self.within_decade:.0%} "
            f"(count >= {self.min_count}), "
            f"undetected {self.n_measured_undetected} "
            f"(not flagged RPR: {self.undetected_not_rpr}), "
            f"RPR flagged {self.n_rpr}, "
            f"excluded {self.n_undetectable} redundant"
            + (f" + {self.n_aborted} aborted" if self.n_aborted else "")
        )


def validate_cop(
    circuit: Circuit,
    faults: Optional[Sequence[Fault]] = None,
    n_patterns: int = 10_000,
    seed: int = 0,
    rpr_threshold: float = DEFAULT_RPR_THRESHOLD,
    min_count: int = 10,
    detectable_only: bool = True,
) -> ValidationReport:
    """Cross-check COP estimates against the simulator on ``circuit``.

    ``faults`` defaults to the collapsed fault list (matching
    :func:`~repro.analysis.cop.analyze_circuit`), narrowed to the
    PODEM-proven detectable set when ``detectable_only`` is set (see the
    module docstring for why redundant faults are out of scope).
    ``min_count`` bounds the sampling noise admitted into the
    bucket-tolerance metric: a fault detected 10+ times has a measured
    probability good to within ~60%, well inside the one-decade bucket.
    """
    n_undetectable = 0
    n_aborted = 0
    if detectable_only:
        classification = classify_faults(circuit, faults=faults)
        faults = classification.target_faults
        n_undetectable = len(classification.undetectable)
        n_aborted = len(classification.aborted)
    analysis = analyze_circuit(
        circuit, faults=faults, rpr_threshold=rpr_threshold
    )
    faults = analysis.faults
    counts = FaultSimulator(circuit).measure_detection_counts(
        faults, n_patterns=n_patterns, seed=seed
    )
    p_measured = counts / float(n_patterns)
    p_est = analysis.p_detect

    undetected = counts == 0
    not_rpr = undetected & ~analysis.rpr_mask

    solid = counts >= min_count
    if solid.any():
        ratio = np.abs(
            np.log10(np.maximum(p_est[solid], 1e-300))
            - np.log10(p_measured[solid])
        )
        within = float((ratio <= 1.0).mean())
    else:
        within = 1.0

    return ValidationReport(
        circuit_name=circuit.name,
        n_faults=len(faults),
        n_patterns=n_patterns,
        spearman=spearman(p_est, p_measured),
        within_decade=within,
        min_count=min_count,
        n_measured_undetected=int(undetected.sum()),
        undetected_not_rpr=int(not_rpr.sum()),
        n_rpr=analysis.num_rpr,
        n_undetectable=n_undetectable,
        n_aborted=n_aborted,
    )
