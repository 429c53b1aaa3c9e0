"""Transition (gross-delay) fault simulation.

The whole point of the paper's multi-vector tests is *at-speed* testing:
vectors applied on consecutive functional clocks exercise delay defects
that single-vector full-scan tests cannot.  This module adds the standard
transition fault model on top of the stuck-at machinery:

- a **slow-to-rise** fault on net ``n`` makes ``n`` present the old value
  0 for one cycle whenever it should rise; **slow-to-fall** dually;
- a test detects the fault iff some functional cycle *launches* the
  transition (fault-free value flips into the faulty polarity's initial
  value at cycle ``u-1`` and flips away at ``u``) and the resulting
  one-cycle stuck value propagates to an observation point -- at the
  primary outputs of cycle ``u`` or, through the captured state, to any
  later observation (limited-scan-out bits, final scan-out).

Launch conditions are evaluated on the fault-free machine (the classical
two-frame approximation); once launched, the fault effect propagates
through the faulty machine's state like any stuck-at effect, so
*multi-cycle* tests genuinely detect more transition faults than
single-vector ones -- exactly the paper's motivation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.circuit.netlist import Circuit
from repro.faults.fault_sim import (
    DetectionRecord,
    ObservationPolicy,
    ScanTest,
)
from repro.faults.model import Fault, FaultGraph
from repro.simulation.compiled import Injections
from repro.simulation.scan import full_scan_state, limited_shift

RISE = "rise"
FALL = "fall"


@dataclass(frozen=True)
class TransitionFault:
    """A slow-to-rise or slow-to-fall fault on a net (stem or branch)."""

    site: str
    edge: str  # RISE or FALL
    consumer: Optional[str] = None
    pin: Optional[int] = None

    def __post_init__(self) -> None:
        if self.edge not in (RISE, FALL):
            raise ValueError(f"edge must be 'rise' or 'fall', got {self.edge}")

    @property
    def stuck_value(self) -> int:
        """The value the net is stuck at during the launch cycle."""
        return 0 if self.edge == RISE else 1

    def as_stuck_at(self) -> Fault:
        """The stuck-at fault injected while the transition is late."""
        return Fault(
            site=self.site,
            value=self.stuck_value,
            consumer=self.consumer,
            pin=self.pin,
        )

    def __str__(self) -> str:
        kind = "slow-to-rise" if self.edge == RISE else "slow-to-fall"
        if self.consumer is not None:
            return f"{self.site}->{self.consumer}.{self.pin} {kind}"
        return f"{self.site} {kind}"


def generate_transition_faults(circuit: Circuit) -> List[TransitionFault]:
    """Both transition faults on every stem (branch sites are included
    for nets with fanout, mirroring the stuck-at universe)."""
    from repro.faults.model import generate_faults

    faults: List[TransitionFault] = []
    seen = set()
    for f in generate_faults(circuit):
        key = (f.site, f.consumer, f.pin)
        if key in seen:
            continue
        seen.add(key)
        for edge in (RISE, FALL):
            faults.append(
                TransitionFault(
                    site=f.site, edge=edge, consumer=f.consumer, pin=f.pin
                )
            )
    return faults


class TransitionFaultSimulator:
    """Parallel transition-fault simulation for full-scan tests.

    Packs 64 faults per word like the stuck-at simulator.  Per functional
    cycle, each fault's stuck value is injected only if the fault-free
    machine launches the transition at that cycle; the injected effect
    then propagates through the faulty machine's captured state.
    """

    def __init__(self, circuit_or_graph: Union[Circuit, FaultGraph]) -> None:
        if isinstance(circuit_or_graph, FaultGraph):
            self.graph = circuit_or_graph
        else:
            self.graph = FaultGraph(circuit_or_graph)
        self.model = self.graph.model
        self._n_sv = len(self.model.q_idx)

    def simulate(
        self,
        tests: Sequence[ScanTest],
        faults: Sequence[TransitionFault],
        policy: Optional[ObservationPolicy] = None,
    ) -> Dict[TransitionFault, DetectionRecord]:
        policy = policy or ObservationPolicy()
        remaining = list(faults)
        detected: Dict[TransitionFault, DetectionRecord] = {}
        for t_idx, test in enumerate(tests):
            if not remaining:
                break
            hits = self._simulate_test(test, remaining, policy)
            for fault, (u, where) in hits.items():
                detected[fault] = DetectionRecord(
                    fault=fault, test_index=t_idx, time_unit=u, where=where
                )
            remaining = [f for f in remaining if f not in hits]
        return detected

    # ------------------------------------------------------------------
    def _fault_free_pass(
        self, test: ScanTest, site_rows: np.ndarray
    ) -> Tuple[List[np.ndarray], List[np.ndarray], np.ndarray, np.ndarray]:
        """Reference run recording PO words, scan-out words, final state,
        and the per-cycle values of every fault site (as bits)."""
        model = self.model
        state = full_scan_state(self._n_sv, test.si, 1)
        vals = model.alloc(1)
        po_words: List[np.ndarray] = []
        scan_words: List[np.ndarray] = []
        site_vals = np.zeros((test.length, len(site_rows)), dtype=bool)
        for u, vector in enumerate(test.vectors):
            k, fill = test.step(u)
            if k > 0:
                state, out = limited_shift(state, k, list(fill))
                scan_words.append(out[:, 0].copy())
            else:
                scan_words.append(np.zeros(0, dtype=np.uint64))
            model.set_inputs_from_bits(vals, vector)
            vals[model.q_idx, :] = state
            model.eval(vals)
            po_words.append(vals[model.po_idx, 0].copy())
            site_vals[u] = vals[site_rows, 0] != 0
            state = vals[model.d_idx, :].copy()
        return po_words, scan_words, state, site_vals

    def _simulate_test(
        self,
        test: ScanTest,
        faults: Sequence[TransitionFault],
        policy: ObservationPolicy,
    ) -> Dict[TransitionFault, Tuple[int, str]]:
        model = self.model
        sites = np.array(
            [self.graph.signal_of(f.as_stuck_at()) for f in faults],
            dtype=np.intp,
        )
        stuck = np.array([f.stuck_value for f in faults], dtype=bool)
        po_ref, scan_ref, final_ref, site_vals = self._fault_free_pass(
            test, sites
        )

        n_words = (len(faults) + 63) // 64
        state = full_scan_state(self._n_sv, test.si, n_words)
        vals = model.alloc(n_words)
        seen = np.zeros(n_words, dtype=np.uint64)
        hits: Dict[TransitionFault, Tuple[int, str]] = {}

        def record(diff: np.ndarray, u: int, where: str) -> None:
            nonlocal seen
            fresh = diff & ~seen
            if not fresh.any():
                return
            for word in np.flatnonzero(fresh):
                bits = int(fresh[word])
                while bits:
                    low = bits & -bits
                    idx = word * 64 + (low.bit_length() - 1)
                    if idx < len(faults):
                        hits[faults[idx]] = (u, where)
                    bits ^= low
            seen |= fresh

        for u, vector in enumerate(test.vectors):
            k, fill = test.step(u)
            if k > 0:
                state, out = limited_shift(state, k, list(fill))
                if policy.limited_scan_out:
                    diff = out ^ scan_ref[u][:, None]
                    record(np.bitwise_or.reduce(diff, axis=0), u, "limited-scan")
            # Launch condition from the fault-free machine: the site held
            # the stuck value at u-1 and flips away at u.
            if u == 0:
                launched = np.zeros(len(faults), dtype=bool)
            else:
                launched = (site_vals[u - 1] == stuck) & (
                    site_vals[u] != stuck
                )
            pos = np.flatnonzero(launched)
            injections = (
                Injections.from_arrays(
                    sites[pos], pos // 64, pos % 64, stuck[pos],
                    model.level_of_signal,
                )
                if len(pos)
                else None
            )
            model.set_inputs_from_bits(vals, vector)
            vals[model.q_idx, :] = state
            model.eval(vals, injections=injections)
            if policy.primary_outputs and len(model.po_idx):
                diff = vals[model.po_idx, :] ^ po_ref[u][:, None]
                record(np.bitwise_or.reduce(diff, axis=0), u, "po")
            state = vals[model.d_idx, :].copy()

        if policy.final_scan_out and self._n_sv:
            diff = state ^ final_ref
            record(np.bitwise_or.reduce(diff, axis=0), test.length, "scan-out")
        return hits
