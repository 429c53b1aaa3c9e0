"""Parallel-fault sequential fault simulation.

Faults are packed 64 per ``uint64`` word; the whole remaining fault list
is simulated against one test in a single pass of the compiled model per
time unit.  The fault-free machine rides along in the same pass, as one
extra word next to the fault words of each test, and every faulty
machine is compared against it at the three observation points the
paper uses:

- primary outputs at every functional time unit,
- the bits shifted out during a limited scan operation,
- the complete state at the final scan-out.

Faults are dropped at test boundaries (the standard trade-off: within one
test a detected fault keeps simulating, which is harmless).

One kernel, :meth:`FaultSimulator._simulate_candidate_batch`, serves
every entry point: :meth:`~FaultSimulator.simulate` (one test per pass),
:meth:`~FaultSimulator.simulate_grouped` (a batch of same-shape tests
per pass) and :meth:`~FaultSimulator.simulate_candidates` (several
candidate test sets side by side).  Its injection masks are built from
arrays (:meth:`~repro.simulation.compiled.Injections.from_arrays`).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.circuit.netlist import Circuit
from repro.faults.model import Fault, FaultGraph
from repro.simulation.compiled import Injections
from repro.simulation.scan import limited_shift

#: One limited-scan step: (shift_amount, fill_bits).
ScheduleStep = Tuple[int, Sequence[int]]


@dataclass
class ScanTest:
    """One test ``tau = (SI, T)`` with an optional limited-scan schedule."""

    si: List[int]
    vectors: List[List[int]]
    schedule: Optional[List[ScheduleStep]] = None

    @property
    def length(self) -> int:
        """The paper's test length: number of primary input vectors."""
        return len(self.vectors)

    @property
    def total_shift_cycles(self) -> int:
        """Clock cycles contributed to ``N_SH`` by this test's schedule."""
        if self.schedule is None:
            return 0
        return sum(step[0] for step in self.schedule)

    @property
    def num_limited_scans(self) -> int:
        """Time units at which a limited scan occurs (``shift > 0``)."""
        if self.schedule is None:
            return 0
        return sum(1 for step in self.schedule if step[0] > 0)

    def step(self, u: int) -> ScheduleStep:
        if self.schedule is None:
            return (0, ())
        return self.schedule[u]


@dataclass
class DetectionRecord:
    """Where and when a fault was first detected."""

    fault: Fault
    test_index: int
    time_unit: int
    where: str  # 'po', 'limited-scan', or 'scan-out'

    def __post_init__(self) -> None:
        # One canonical object per observation-point name no matter
        # which path built the record (serial recorder, pool row
        # reconstruction, shard merge).  Hyphenated literals are not
        # auto-interned by CPython, and serialized results are compared
        # byte-for-byte: a result mixing equal-but-distinct ``where``
        # strings pickles with a different memo structure than one
        # sharing a single object.
        self.where = sys.intern(self.where)


@dataclass
class ObservationPolicy:
    """Which observation mechanisms are active (ablation knob).

    ``state_taps`` lists state positions observed at *every* functional
    cycle (after capture) -- the multi-chain schemes of the paper's
    references [5]/[6] observe the last flip-flop of every scan chain
    this way.  ``None`` (the paper's own scheme) observes no taps.
    """

    primary_outputs: bool = True
    limited_scan_out: bool = True
    final_scan_out: bool = True
    state_taps: Optional[Sequence[int]] = None

    def tap_rows(self) -> Optional[np.ndarray]:
        if self.state_taps is None or len(self.state_taps) == 0:
            return None
        return np.asarray(self.state_taps, dtype=np.intp)


class FaultSimulator:
    """Sequential stuck-at fault simulator for full-scan tests.

    Construct once per circuit (the compiled graph is reused across test
    sets), then call :meth:`simulate` with any iterable of
    :class:`ScanTest` and target faults.
    """

    def __init__(
        self,
        circuit_or_graph: Union[Circuit, FaultGraph],
        chain: Optional[Sequence[int]] = None,
    ) -> None:
        """``chain`` selects which state positions are on the scan chain
        (in scan order); ``None`` means full scan.  With partial scan the
        un-scanned flops reset to 0 at the start of every test and are not
        observed at scan-out -- the standard partial-scan test model."""
        if isinstance(circuit_or_graph, FaultGraph):
            self.graph = circuit_or_graph
        else:
            self.graph = FaultGraph(circuit_or_graph)
        self.model = self.graph.model
        self._n_sv = len(self.model.q_idx)
        self._n_pi = len(self.model.pi_idx)
        if chain is None:
            chain = list(range(self._n_sv))
        else:
            chain = list(chain)
            if sorted(set(chain)) != sorted(chain) or any(
                not 0 <= p < self._n_sv for p in chain
            ):
                raise ValueError("chain must be distinct positions in range")
        self.chain = np.array(chain, dtype=np.intp)

    @property
    def chain_length(self) -> int:
        """Scanned flip-flops (= N_SV under full scan)."""
        return len(self.chain)

    def _shift(
        self, state: np.ndarray, k: int, fill: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray]:
        sub, out_words = limited_shift(state[self.chain], k, fill)
        new_state = state.copy()
        new_state[self.chain] = sub
        return new_state, out_words

    # ------------------------------------------------------------------
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
            hits = self._kernel_hits([test], [0], remaining, policy, t_idx)
            if hits:
                detected.update(hits)
                remaining = [f for f in remaining if f not in hits]
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
        into ``max_cols // n_groups`` tests (at least one), so a chunk
        has ``n_tests * (n_groups + 1)`` columns counting the reference.
        The chunk boundaries decide which test a first detection is
        attributed to, so that rule is part of the result.
        """
        policy = policy or ObservationPolicy()
        remaining: List[Fault] = list(faults)
        detected: Dict[Fault, DetectionRecord] = {}

        for idx in self.candidate_partition(tests):
            pos = 0
            while pos < len(idx) and remaining:
                n_groups = (len(remaining) + 63) // 64
                chunk_tests = max(1, max_cols // max(n_groups, 1))
                chunk = idx[pos : pos + chunk_tests]
                pos += len(chunk)
                hits = self._kernel_hits(tests, chunk, remaining, policy)
                if hits:
                    detected.update(hits)
                    remaining = [f for f in remaining if f not in hits]
        return detected

    def _kernel_hits(
        self,
        tests: Sequence[ScanTest],
        idx_list: Sequence[int],
        faults: Sequence[Fault],
        policy: ObservationPolicy,
        test_index: Optional[int] = None,
    ) -> Dict[Fault, DetectionRecord]:
        """First detections of one kernel pass of ``tests[i]`` for ``i``
        in ``idx_list`` against ``faults``, in recording order.

        Records carry the index in ``tests``, or ``test_index`` if given.
        """
        rows: List[List[tuple]] = [[]]
        self._simulate_candidate_batch([tests], idx_list, faults, policy, 0, rows)
        hits: Dict[Fault, DetectionRecord] = {}
        for pos, _, t, u, where in rows[0]:
            fault = faults[pos]
            hits[fault] = DetectionRecord(
                fault=fault,
                test_index=t if test_index is None else test_index,
                time_unit=u,
                where=where,
            )
        return hits

    # ------------------------------------------------------------------
    # Batched multi-candidate evaluation (the persistent-pool fast path).
    # ------------------------------------------------------------------
    def candidate_partition(
        self, tests: Sequence[ScanTest]
    ) -> List[List[int]]:
        """:meth:`simulate_grouped`'s batch partition as test indices.

        Tests sharing ``(length, schedule)`` form one batch, in first
        appearance order -- the exact grouping ``simulate_grouped`` uses.
        """
        batches: Dict[tuple, List[int]] = {}
        for i, test in enumerate(tests):
            self._check_test(test)
            sig = (
                test.length,
                tuple(
                    (k, tuple(fill))
                    for k, fill in (test.schedule or [(0, ())] * test.length)
                ),
            )
            batches.setdefault(sig, []).append(i)
        return list(batches.values())

    def candidates_compatible(
        self,
        test_sets: Sequence[Sequence[ScanTest]],
        n_faults: int,
        max_cols: int = 4096,
    ) -> bool:
        """Whether :meth:`simulate_candidates` can reproduce the serial
        result exactly for these candidates against ``n_faults`` targets.

        Requires every candidate to induce the same batch partition and
        every batch to fit in a single ``simulate_grouped`` chunk (so the
        per-fault first-detection attribution is chunking-independent).
        The chunk condition is monotone in the fault count, so validity
        against the dispatch-time fault list implies validity against
        every later (smaller) remaining list.
        """
        if not test_sets or n_faults <= 0:
            return False
        parts = [self.candidate_partition(ts) for ts in test_sets]
        if any(p != parts[0] for p in parts[1:]):
            return False
        for idx in parts[0]:
            lengths = {len(ts[idx[0]].vectors) for ts in test_sets}
            if len(lengths) != 1:
                return False
        n_groups = (n_faults + 63) // 64
        chunk_tests = max(1, max_cols // max(n_groups, 1))
        return all(len(idx) <= chunk_tests for idx in parts[0])

    def simulate_candidates(
        self,
        test_sets: Sequence[Sequence[ScanTest]],
        faults: Sequence[Fault],
        policy: Optional[ObservationPolicy] = None,
        max_cols: int = 4096,
    ) -> Optional[List[List[tuple]]]:
        """Score several candidate test sets against ``faults`` at once.

        Every candidate (e.g. one ``TS(I, D1)``) is laid out along the
        word axis next to the others, so one compiled-model pass per time
        unit serves the whole batch -- the Python-level evaluation
        overhead (the dominant cost for s1423-class circuits) is paid
        once instead of once per candidate.

        Returns, per candidate, the raw first-detection rows
        ``(fault_pos, batch_rank, test_index, time_unit, where)`` against
        the *full* ``faults`` list.  Because per-fault detection records
        are independent of which other faults are simulated (the
        parallel-fault model), the exact serial
        ``simulate_grouped(ts, remaining)`` result -- dict contents *and*
        insertion order -- can be reconstructed from these rows for any
        ordered subset ``remaining`` of ``faults`` (see
        :func:`repro.faults.pool.reconstruct_hits`).

        Returns ``None`` when the exactness preconditions fail (see
        :meth:`candidates_compatible`); callers must then fall back to
        per-candidate :meth:`simulate_grouped`.
        """
        policy = policy or ObservationPolicy()
        faults = list(faults)
        test_sets = [list(ts) for ts in test_sets]
        if not test_sets:
            return []
        if not faults or not test_sets[0]:
            return [[] for _ in test_sets]
        if not self.candidates_compatible(test_sets, len(faults), max_cols):
            return None
        n_groups = (len(faults) + 63) // 64
        rows: List[List[tuple]] = [[] for _ in test_sets]
        for batch_rank, idx_list in enumerate(
            self.candidate_partition(test_sets[0])
        ):
            # Chunk the candidate axis so the fanned-out pass keeps
            # roughly the serial column budget: each candidate is
            # independent in the combined layout, so chunking C never
            # changes any row, it only bounds the working set.  Small
            # remaining lists (the Procedure 2 tail, where per-pass
            # Python overhead dominates) fit the whole batch; large ones
            # degrade gracefully towards per-candidate passes.
            # One candidate occupies nT * (G + 1) columns in the combined
            # layout (faulty groups plus the riding reference slot).
            per_cand = max(1, len(idx_list) * (n_groups + 1))
            c_chunk = max(1, max_cols // per_cand)
            for c0 in range(0, len(test_sets), c_chunk):
                self._simulate_candidate_batch(
                    test_sets[c0 : c0 + c_chunk],
                    idx_list,
                    faults,
                    policy,
                    batch_rank,
                    rows[c0 : c0 + c_chunk],
                )
        return rows

    def _simulate_candidate_batch(
        self,
        test_sets: Sequence[Sequence[ScanTest]],
        idx_list: Sequence[int],
        faults: Sequence[Fault],
        policy: ObservationPolicy,
        batch_rank: int,
        rows: List[List[tuple]],
    ) -> None:
        """The fault-simulation kernel: one uniform batch, all candidates
        side by side.

        Fault ``p`` sits at bit ``p % 64`` of group ``p // 64``.  Column
        layout: ``(c * nT + t) * (G + 1) + g`` with the fault-free
        reference riding along as slot ``g == G`` -- one ``model.eval``
        per time unit serves every candidate's faulty machines *and* the
        reference.  Injection masks never touch the reference slots, and
        every column is evaluated independently, so each detection row
        depends only on its own candidate, test and fault.
        :meth:`simulate` is the ``C = 1, nT = 1`` case and
        :meth:`simulate_grouped` the ``C = 1`` case.

        Appends ``(fault_pos, batch_rank, test_index, time_unit, where)``
        to ``rows[c]`` per first detection, in recording order: time unit,
        then observation point, then fault position.
        """
        model = self.model
        C = len(test_sets)
        nT = len(idx_list)
        n_faults = len(faults)
        G = (n_faults + 63) // 64
        W = G + 1  # faulty groups plus the reference slot
        cand_tests = [[ts[i] for i in idx_list] for ts in test_sets]
        length = cand_tests[0][0].length
        cand_sched = [
            [ct[0].step(u) for u in range(length)] for ct in cand_tests
        ]
        taps = policy.tap_rows()

        si_cols = np.concatenate(
            [self._si_words(ct) for ct in cand_tests], axis=1
        )  # (chain, C * nT)
        per_cand_pi = [self._pi_words(ct) for ct in cand_tests]
        pi_cols = [
            np.concatenate([per_cand_pi[c][u] for c in range(C)], axis=1)
            for u in range(length)
        ]

        # One set of masks for the G fault groups, repeated for every
        # (candidate, test) block at the W stride.
        pos = np.arange(n_faults, dtype=np.intp)
        inj = Injections.from_arrays(
            self.graph.signals_of(faults),
            pos // 64,
            pos % 64,
            np.fromiter((f.value for f in faults), dtype=np.uint8, count=n_faults),
            model.level_of_signal,
            n_blocks=C * nT,
            stride=W,
        )

        n_cols = C * nT * W
        state = np.zeros((self._n_sv, n_cols), dtype=np.uint64)
        if len(self.chain):
            state[self.chain, :] = np.repeat(si_cols, W, axis=1)
        vals = model.alloc(n_cols)
        seen = np.zeros((C, G), dtype=np.uint64)

        def record_one(
            c: int, diff_tg: np.ndarray, u: int, where: str
        ) -> None:
            """Record candidate ``c``'s fresh detections in ``diff_tg``
            (tests x groups), each at its first detecting test."""
            agg = np.bitwise_or.reduce(diff_tg, axis=0)
            fresh = agg & ~seen[c]
            if not fresh.any():
                return
            for g in np.flatnonzero(fresh):
                bits = int(fresh[g])
                mask_col = diff_tg[:, g]
                while bits:
                    low = bits & -bits
                    p = int(g) * 64 + low.bit_length() - 1
                    if p < n_faults:
                        t_loc = int(
                            np.flatnonzero(mask_col & np.uint64(low))[0]
                        )
                        # Plain ints only: rows cross a process boundary
                        # and are schema-validated on the way back.
                        rows[c].append((p, batch_rank, idx_list[t_loc], u, where))
                    bits ^= low
            seen[c] |= fresh

        def record_all(diff_ctg: np.ndarray, u: int, where: str) -> None:
            for c in range(C):
                record_one(c, diff_ctg[c], u, where)

        for u in range(length):
            for c in range(C):
                k, fill = cand_sched[c][u]
                if k > 0:
                    blk, out_words = self._shift(
                        state[:, c * nT * W : (c + 1) * nT * W], k, list(fill)
                    )
                    state[:, c * nT * W : (c + 1) * nT * W] = blk
                    if policy.limited_scan_out:
                        out = out_words.reshape(k, nT, W)
                        diff = out[:, :, :G] ^ out[:, :, G:]
                        record_one(
                            c,
                            np.bitwise_or.reduce(diff, axis=0),
                            u,
                            "limited-scan",
                        )
            vals[model.pi_idx, :] = np.repeat(pi_cols[u], W, axis=1)
            vals[model.q_idx, :] = state
            model.eval(vals, injections=inj)
            if policy.primary_outputs and len(model.po_idx):
                n_po = len(model.po_idx)
                po = vals[model.po_idx, :].reshape(n_po, C, nT, W)
                diff = po[..., :G] ^ po[..., G:]
                record_all(np.bitwise_or.reduce(diff, axis=0), u, "po")
            state = vals[model.d_idx, :].copy()
            if taps is not None:
                tp = state[taps, :].reshape(len(taps), C, nT, W)
                diff = tp[..., :G] ^ tp[..., G:]
                record_all(np.bitwise_or.reduce(diff, axis=0), u, "state-tap")

        if policy.final_scan_out and self.chain_length:
            fs = state[self.chain].reshape(self.chain_length, C, nT, W)
            diff = fs[..., :G] ^ fs[..., G:]
            record_all(np.bitwise_or.reduce(diff, axis=0), length, "scan-out")

    def _si_words(self, tests: Sequence[ScanTest]) -> np.ndarray:
        """(chain_length, n_tests) replicated-bit words of the SIs."""
        bits = np.array([t.si for t in tests], dtype=bool).T
        return np.where(
            bits, np.uint64(0xFFFFFFFFFFFFFFFF), np.uint64(0)
        ).astype(np.uint64)

    def _pi_words(self, tests: Sequence[ScanTest]) -> List[np.ndarray]:
        """Per time unit: (n_pi, n_tests) replicated-bit vector words."""
        length = tests[0].length
        out: List[np.ndarray] = []
        for u in range(length):
            bits = np.array([t.vectors[u] for t in tests], dtype=bool).T
            out.append(
                np.where(
                    bits, np.uint64(0xFFFFFFFFFFFFFFFF), np.uint64(0)
                ).astype(np.uint64)
            )
        return out

    def detected_by(
        self,
        tests: Sequence[ScanTest],
        faults: Sequence[Fault],
        policy: Optional[ObservationPolicy] = None,
    ) -> List[Fault]:
        """Convenience: just the detected faults, in universe order."""
        records = self.simulate(tests, faults, policy)
        return [f for f in faults if f in records]

    def measure_detection_counts(
        self,
        faults: Sequence[Fault],
        n_patterns: int = 10_000,
        seed: int = 0,
    ) -> np.ndarray:
        """Per-fault detection counts under single random patterns.

        The measurement the static COP estimates predict: each pattern
        assigns independent fair bits to every primary input and scan
        cell, runs one combinational evaluation, and observes the primary
        outputs plus every flop D pin (full-scan observability).  Pattern
        bits ride the word lanes (pattern-parallel); faults are injected
        one at a time as whole-word stuck values, so each fault costs one
        ``ceil(n_patterns / 64)``-word evaluation.

        Returns ``int64[len(faults)]``: patterns (out of ``n_patterns``)
        that detect each fault.  Deterministic in ``seed``.
        """
        model = self.model
        n_words = (n_patterns + 63) // 64
        rng = np.random.Generator(np.random.PCG64(seed))
        free_rows = np.concatenate([model.pi_idx, model.q_idx])
        obs_rows = np.concatenate([model.po_idx, model.d_idx])
        bits = rng.integers(
            0, 2**64, size=(len(free_rows), n_words), dtype=np.uint64
        )
        good = model.alloc(n_words)
        good[free_rows, :] = bits
        model.eval(good)
        good_obs = good[obs_rows, :]

        # Slack lanes of the last word carry extra random patterns; the
        # tail mask keeps them out of the counts.
        tail = n_patterns - (n_words - 1) * 64
        mask = np.full(n_words, ~np.uint64(0), dtype=np.uint64)
        if tail < 64:
            mask[-1] = np.uint64((1 << tail) - 1)

        counts = np.zeros(len(faults), dtype=np.int64)
        vals = model.alloc(n_words)
        for i, fault in enumerate(faults):
            sig = self.graph.signal_of(fault)
            inj = Injections.build_whole_word(
                [(sig, w, fault.value) for w in range(n_words)],
                model.level_of_signal,
            )
            vals[:] = 0
            vals[free_rows, :] = bits
            model.eval(vals, inj)
            diff = np.bitwise_or.reduce(
                (vals[obs_rows, :] ^ good_obs), axis=0
            )
            diff &= mask
            counts[i] = int(np.bitwise_count(diff).sum())
        return counts

    # ------------------------------------------------------------------
    def _check_test(self, test: ScanTest) -> None:
        if len(test.si) != self.chain_length:
            raise ValueError(
                f"test SI has {len(test.si)} bits, chain has {self.chain_length}"
            )
        for vec in test.vectors:
            if len(vec) != self._n_pi:
                raise ValueError(
                    f"vector has {len(vec)} bits, circuit has {self._n_pi} inputs"
                )
        if test.schedule is not None and len(test.schedule) != test.length:
            raise ValueError("schedule length must equal test length")
