"""Reference fault-simulation kernels, kept as a test oracle.

Verbatim copies of the fault-simulation paths that ``repro.faults.fault_sim``
had before its three kernels were folded into one: the per-test
``_simulate_faulty`` with its one-word fault-free pass
``_fault_free_reference``, and the per-chunk ``_simulate_batch`` with its
separate fault-free pass ``_ff_batch``, together with the ``simulate`` and
``simulate_grouped`` drivers that called them and the dict-merge
``Injections.build``.  The only edits: the methods live on a subclass of
the production :class:`FaultSimulator` (sharing its test checks, scan
shift and word packing), and every ``Injections.build`` call goes to the
frozen :func:`build_injections` below, so the oracle never runs the
production mask merge.

The equivalence tests assert pickle-identical ``simulate`` and
``simulate_grouped`` results against this class.  It is not part of the
package; do not import it from ``src/``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuit.library import ALL_ONES
from repro.faults.fault_sim import (
    DetectionRecord,
    FaultSimulator,
    ObservationPolicy,
    ScanTest,
    ScheduleStep,
)
from repro.faults.model import Fault
from repro.simulation.compiled import Injections
from repro.simulation.scan import full_scan_state


def build_injections(
    entries: Sequence[Tuple[int, int, int, int]],
    level_of_signal: Sequence[int],
) -> Injections:
    """Build from ``(sig_index, word_index, bit_index, stuck_value)``.

    Entries hitting the same (signal, word) pair are merged into one
    mask so the fancy-indexed application never writes a location
    twice (numpy would keep only the last write).
    """
    merged: Dict[Tuple[int, int], Tuple[int, int]] = {}
    for sig, word, bit, value in entries:
        sig, word, bit = int(sig), int(word), int(bit)
        and_mask, or_mask = merged.get((sig, word), (int(ALL_ONES), 0))
        bitmask = 1 << bit
        and_mask &= ~bitmask & int(ALL_ONES)
        if value:
            or_mask |= bitmask
        merged[(sig, word)] = (and_mask, or_mask)

    by_level: Dict[int, List[Tuple[int, int, int, int]]] = {}
    for (sig, word), (and_mask, or_mask) in merged.items():
        lvl = level_of_signal[sig]
        by_level.setdefault(lvl, []).append((sig, word, and_mask, or_mask))

    inj = Injections()
    for lvl, rows in by_level.items():
        sigs = np.array([r[0] for r in rows], dtype=np.intp)
        words = np.array([r[1] for r in rows], dtype=np.intp)
        ands = np.array([r[2] for r in rows], dtype=np.uint64)
        ors = np.array([r[3] for r in rows], dtype=np.uint64)
        inj.per_level[lvl] = (sigs, words, ands, ors)
    return inj


@dataclass
class _FaultFreeRef:
    po_words: List[np.ndarray]  # per u: (n_po,) replicated words
    scanout_words: List[np.ndarray]  # per u: (k,) replicated words
    final_state: np.ndarray  # (chain, 1)
    tap_words: List[np.ndarray]  # per u: (n_taps,) captured-state taps


class ReferenceFaultSimulator(FaultSimulator):
    """The production simulator with the pre-fold kernels."""

    def _initial_state(self, si: Sequence[int], n_words: int) -> np.ndarray:
        state = np.zeros((self._n_sv, n_words), dtype=np.uint64)
        if len(self.chain):
            state[self.chain, :] = full_scan_state(
                len(self.chain), si, n_words
            )
        return state

    def simulate(
        self,
        tests: Iterable[ScanTest],
        faults: Sequence[Fault],
        policy: Optional[ObservationPolicy] = None,
    ) -> Dict[Fault, DetectionRecord]:
        """Simulate ``tests`` in order with fault dropping.

        Returns a record for every detected fault.  Stops early once every
        target fault is detected.
        """
        policy = policy or ObservationPolicy()
        remaining: List[Fault] = list(faults)
        detected: Dict[Fault, DetectionRecord] = {}

        for t_idx, test in enumerate(tests):
            self._check_test(test)
            if not remaining:
                break
            ref = self._fault_free_reference(test, policy)
            groups = [remaining[i : i + 64] for i in range(0, len(remaining), 64)]
            hits = self._simulate_faulty(test, groups, ref, policy)
            if hits:
                for (word, bit), (u, where) in hits.items():
                    fault = groups[word][bit]
                    detected[fault] = DetectionRecord(
                        fault=fault, test_index=t_idx, time_unit=u, where=where
                    )
                hit_faults = set(detected)
                remaining = [f for f in remaining if f not in hit_faults]
        return detected

    def simulate_grouped(
        self,
        tests: Sequence[ScanTest],
        faults: Sequence[Fault],
        policy: Optional[ObservationPolicy] = None,
        max_cols: int = 4096,
    ) -> Dict[Fault, DetectionRecord]:
        """Fast path: batch tests with identical (length, schedule).

        Tests of the paper's test sets come in exactly two shapes (all
        ``L_A`` tests share one schedule, all ``L_B`` tests another,
        because Procedure 1 re-seeds per test), so whole batches are
        simulated in one pass with tests laid out along the word axis
        next to the fault groups.  The detected-fault *set* is identical
        to :meth:`simulate`; only the (test, time-unit) attribution of
        first detections may differ (earliest time unit instead of
        earliest test).  ``max_cols`` bounds memory: a batch is chunked
        so that ``n_tests * n_groups <= max_cols``.
        """
        policy = policy or ObservationPolicy()
        remaining: List[Fault] = list(faults)
        detected: Dict[Fault, DetectionRecord] = {}

        batches: Dict[tuple, List[Tuple[int, ScanTest]]] = {}
        for i, test in enumerate(tests):
            self._check_test(test)
            sig = (
                test.length,
                tuple(
                    (k, tuple(fill))
                    for k, fill in (test.schedule or [(0, ())] * test.length)
                ),
            )
            batches.setdefault(sig, []).append((i, test))

        for items in batches.values():
            pos = 0
            while pos < len(items) and remaining:
                n_groups = (len(remaining) + 63) // 64
                chunk_tests = max(1, max_cols // max(n_groups, 1))
                chunk = items[pos : pos + chunk_tests]
                pos += len(chunk)
                hits = self._simulate_batch(chunk, remaining, policy)
                if hits:
                    detected.update(hits)
                    remaining = [f for f in remaining if f not in hits]
        return detected

    def _simulate_batch(
        self,
        items: Sequence[Tuple[int, ScanTest]],
        remaining: Sequence[Fault],
        policy: ObservationPolicy,
    ) -> Dict[Fault, DetectionRecord]:
        model = self.model
        tests = [t for _, t in items]
        test_ids = [i for i, _ in items]
        n_tests = len(tests)
        length = tests[0].length
        schedule = [tests[0].step(u) for u in range(length)]
        groups = [list(remaining[i : i + 64]) for i in range(0, len(remaining), 64)]
        n_groups = len(groups)
        n_cols = n_tests * n_groups  # column = t * n_groups + g

        taps = policy.tap_rows()
        # --- fault-free reference over all tests (one column per test) ---
        ref_po, ref_scan, ref_final, ref_taps = self._ff_batch(
            tests, schedule, taps
        )

        # --- faulty pass ---------------------------------------------------
        entries = []
        for g, group in enumerate(groups):
            for bit, fault in enumerate(group):
                sig_idx = self.graph.signal_of(fault)
                for t in range(n_tests):
                    entries.append((sig_idx, t * n_groups + g, bit, fault.value))
        injections = build_injections(entries, model.level_of_signal)

        si_words = self._si_words(tests)  # (chain, n_tests)
        state = np.zeros((self._n_sv, n_cols), dtype=np.uint64)
        if len(self.chain):
            state[self.chain, :] = np.repeat(si_words, n_groups, axis=1)
        vals = model.alloc(n_cols)
        seen = np.zeros(n_groups, dtype=np.uint64)
        hits: Dict[Fault, DetectionRecord] = {}

        def record(diff_tg: np.ndarray, u: int, where: str) -> None:
            nonlocal seen
            agg = np.bitwise_or.reduce(diff_tg, axis=0)
            fresh = agg & ~seen
            if not fresh.any():
                return
            for g in np.flatnonzero(fresh):
                bits = int(fresh[g])
                mask_col = diff_tg[:, g]
                while bits:
                    low = bits & -bits
                    bit = low.bit_length() - 1
                    if bit < len(groups[g]):
                        t_first = int(
                            np.flatnonzero(mask_col & np.uint64(low))[0]
                        )
                        fault = groups[g][bit]
                        hits[fault] = DetectionRecord(
                            fault=fault,
                            test_index=test_ids[t_first],
                            time_unit=u,
                            where=where,
                        )
                    bits ^= low
            seen |= fresh

        pi_cube = self._pi_words(tests)  # list per u: (n_pi, n_tests)
        for u in range(length):
            k, fill = schedule[u]
            if k > 0:
                state, out_words = self._shift(state, k, list(fill))
                if policy.limited_scan_out:
                    diff = out_words.reshape(k, n_tests, n_groups) ^ ref_scan[u][
                        :, :, None
                    ]
                    record(
                        np.bitwise_or.reduce(diff, axis=0), u, "limited-scan"
                    )
            vals[model.pi_idx, :] = np.repeat(pi_cube[u], n_groups, axis=1)
            vals[model.q_idx, :] = state
            model.eval(vals, injections=injections)
            if policy.primary_outputs and len(model.po_idx):
                diff = vals[model.po_idx, :].reshape(
                    len(model.po_idx), n_tests, n_groups
                ) ^ ref_po[u][:, :, None]
                record(np.bitwise_or.reduce(diff, axis=0), u, "po")
            state = vals[model.d_idx, :].copy()
            if taps is not None:
                diff = state[taps, :].reshape(
                    len(taps), n_tests, n_groups
                ) ^ ref_taps[u][:, :, None]
                record(np.bitwise_or.reduce(diff, axis=0), u, "state-tap")

        if policy.final_scan_out and self.chain_length:
            diff = state[self.chain].reshape(
                self.chain_length, n_tests, n_groups
            ) ^ ref_final[:, :, None]
            record(np.bitwise_or.reduce(diff, axis=0), length, "scan-out")
        return hits

    def _ff_batch(
        self,
        tests: Sequence[ScanTest],
        schedule: Sequence[ScheduleStep],
        taps: Optional[np.ndarray] = None,
    ) -> Tuple[List[np.ndarray], List[np.ndarray], np.ndarray, List[np.ndarray]]:
        """Fault-free reference for a uniform batch (one column per test)."""
        model = self.model
        n_tests = len(tests)
        state = np.zeros((self._n_sv, n_tests), dtype=np.uint64)
        if len(self.chain):
            state[self.chain, :] = self._si_words(tests)
        vals = model.alloc(n_tests)
        pi_cube = self._pi_words(tests)
        ref_po: List[np.ndarray] = []
        ref_scan: List[np.ndarray] = []
        ref_taps: List[np.ndarray] = []
        for u in range(tests[0].length):
            k, fill = schedule[u]
            if k > 0:
                state, out_words = self._shift(state, k, list(fill))
                ref_scan.append(out_words.copy())
            else:
                ref_scan.append(np.zeros((0, n_tests), dtype=np.uint64))
            vals[model.pi_idx, :] = pi_cube[u]
            vals[model.q_idx, :] = state
            model.eval(vals)
            ref_po.append(vals[model.po_idx, :].copy())
            state = vals[model.d_idx, :].copy()
            if taps is not None:
                ref_taps.append(state[taps, :].copy())
        return ref_po, ref_scan, state[self.chain].copy(), ref_taps

    def _fault_free_reference(
        self, test: ScanTest, policy: Optional[ObservationPolicy] = None
    ) -> _FaultFreeRef:
        model = self.model
        taps = (policy or ObservationPolicy()).tap_rows()
        state = self._initial_state(test.si, n_words=1)
        vals = model.alloc(n_words=1)
        po_words: List[np.ndarray] = []
        scanout_words: List[np.ndarray] = []
        tap_words: List[np.ndarray] = []
        for u, vector in enumerate(test.vectors):
            k, fill = test.step(u)
            if k > 0:
                state, out_words = self._shift(state, k, list(fill))
                scanout_words.append(out_words[:, 0].copy())
            else:
                scanout_words.append(np.zeros(0, dtype=np.uint64))
            model.set_inputs_from_bits(vals, vector)
            vals[model.q_idx, :] = state
            model.eval(vals)
            po_words.append(vals[model.po_idx, 0].copy())
            state = vals[model.d_idx, :].copy()
            if taps is not None:
                tap_words.append(state[taps, 0].copy())
        return _FaultFreeRef(
            po_words=po_words,
            scanout_words=scanout_words,
            final_state=state[self.chain].copy(),
            tap_words=tap_words,
        )

    def _simulate_faulty(
        self,
        test: ScanTest,
        groups: List[List[Fault]],
        ref: _FaultFreeRef,
        policy: ObservationPolicy,
    ) -> Dict[Tuple[int, int], Tuple[int, str]]:
        """Run all fault groups through one test.

        Returns ``{(word, bit): (time_unit, where)}`` for first detections;
        the final scan-out is reported with time unit ``test.length``.
        """
        model = self.model
        taps = policy.tap_rows()
        n_words = len(groups)
        entries = []
        for word, group in enumerate(groups):
            for bit, fault in enumerate(group):
                entries.append(
                    (self.graph.signal_of(fault), word, bit, fault.value)
                )
        injections = build_injections(entries, model.level_of_signal)

        state = self._initial_state(test.si, n_words)
        # A fault on a flop's Q net must corrupt what the combinational
        # logic sees, but not the latched/scanned value -- which is exactly
        # what injecting into `vals` (not `state`) does.
        vals = model.alloc(n_words)
        seen = np.zeros(n_words, dtype=np.uint64)
        hits: Dict[Tuple[int, int], Tuple[int, str]] = {}

        def record(diff_words: np.ndarray, u: int, where: str) -> None:
            nonlocal seen
            fresh = diff_words & ~seen
            if not fresh.any():
                return
            for word in np.flatnonzero(fresh):
                bits = int(fresh[word])
                while bits:
                    low = bits & -bits
                    bit = low.bit_length() - 1
                    if bit < len(groups[word]):
                        hits[(word, bit)] = (u, where)
                    bits ^= low
            seen |= fresh

        for u, vector in enumerate(test.vectors):
            k, fill = test.step(u)
            if k > 0:
                state, out_words = self._shift(state, k, list(fill))
                if policy.limited_scan_out:
                    diff = out_words ^ ref.scanout_words[u][:, None]
                    record(np.bitwise_or.reduce(diff, axis=0), u, "limited-scan")
            model.set_inputs_from_bits(vals, vector)
            vals[model.q_idx, :] = state
            model.eval(vals, injections=injections)
            if policy.primary_outputs and len(model.po_idx):
                diff = vals[model.po_idx, :] ^ ref.po_words[u][:, None]
                record(np.bitwise_or.reduce(diff, axis=0), u, "po")
            state = vals[model.d_idx, :].copy()
            if taps is not None:
                diff = state[taps, :] ^ ref.tap_words[u][:, None]
                record(np.bitwise_or.reduce(diff, axis=0), u, "state-tap")

        if policy.final_scan_out and self.chain_length:
            diff = state[self.chain] ^ ref.final_state
            record(
                np.bitwise_or.reduce(diff, axis=0), test.length, "scan-out"
            )
        return hits
