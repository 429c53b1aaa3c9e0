"""Persistent shared-memory worker pool with batched candidate evaluation.

A worker pool rebuilt around every fault-simulation call pays two
per-dispatch taxes that would dominate Procedure 2's wall clock: the
simulator is re-pickled for every pool, and every task ships the full
test list through the executor's pickle channel.  This module avoids
both, and adds a third, larger lever:

- **Persistent workers.**  One pool lives for the whole
  :func:`~repro.core.procedure2.run_procedure2` session.  The compiled
  circuit (simulator), ``TS0``, the config, the observation policy and
  the collapsed target-fault list are published **once** into a
  ``multiprocessing.shared_memory`` segment; workers attach lazily and
  cache the decoded state for the life of the process.
- **Seed-only dispatch.**  A dispatch ships candidate specs
  (``(iteration, d1)`` pairs) plus the shard's fault *indices* into the
  published target list -- a few hundred bytes.  Workers rebuild each
  candidate ``TS(I, D1)`` deterministically from ``seed(I)``
  (Procedure 1 is pure), caching built test sets per ``(I, D1)``.
- **Batched candidate evaluation.**  A whole batch of ``(I, D1)``
  candidates is scored in one fanned-out pass
  (:meth:`~repro.faults.fault_sim.FaultSimulator.simulate_candidates`),
  amortizing the Python-level per-time-unit evaluation overhead across
  the batch.  The pass returns raw first-detection rows against the
  dispatch-time remaining list; because per-fault records are
  independent of which other faults are simulated, the **exact** serial
  result -- dict contents and insertion order -- for each candidate
  against its *then-current* remaining list is reconstructed without
  re-simulation (:func:`reconstruct_hits`).  Speculation is therefore
  free of result drift: outputs are byte-identical to the serial loop
  for any ``candidate_batch`` and any ``n_jobs``.

Segment lifecycle and crash safety
----------------------------------

Segments are named ``rlspool_<fingerprint12>_<pid>_<seq>`` where the
fingerprint is :func:`repro.robustness.checkpoint.session_fingerprint`
over (circuit name, result-affecting config, target-fault list), so
concurrent sessions never collide and a resumed session maps to the same
identity.  The parent creates the segment (auto-registered with the
``multiprocessing`` resource tracker) and is the only unlinker:
``close()`` unlinks deterministically, a ``weakref.finalize`` backstop
unlinks on garbage collection/interpreter exit, and if the parent is
SIGKILLed the resource-tracker process (which outlives it) unlinks the
registered segment.  Workers only ever attach and never unregister, so
a SIGKILLed worker cannot strip the parent's protection.

Failure recovery is shard-granular, governed by a
:class:`~repro.faults.sharding.RecoveryPolicy`: per-shard timeout
watchdog, deterministic seeded backoff retries, pool respawn after a
crash or hang (the shared segment survives respawn), serial rescue in
the parent for a shard that keeps failing, and a structured
:class:`~repro.robustness.degradation.DegradationReport` of every
action.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import pickle
import sys
import time
import weakref
from concurrent.futures import CancelledError, Executor, Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import shared_memory
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.faults.fault_sim import (
    DetectionRecord,
    ObservationPolicy,
    ScanTest,
)
from repro.faults.model import Fault
from repro.faults.sharding import (
    WHERE_RANK,
    RecoveryPolicy,
    available_cpu_count,
    resolve_n_jobs,
    shard_faults,
)
from repro.robustness.chaos import ChaosPlan, execute_injected
from repro.robustness.degradation import DegradationReport
from repro.robustness.lifetime import arm_pdeathsig

#: A raw first-detection row:
#: ``(fault, batch_rank, test_index, time_unit, where)``.
DetectionRow = Tuple[Fault, int, int, int, str]

#: Canonical ``where`` objects.  Worker payloads come back through
#: pickle, which does not intern strings, so every dispatch would
#: otherwise contribute fresh (equal but distinct) ``where`` objects.
#: The values a result holds then pickle with a different memo structure
#: than the serial run's single shared constant -- breaking byte-for-byte
#: result identity even though every comparison is equal.  Mapping each
#: returned ``where`` through this table restores the serial identity
#: graph.  The canonical object is the *interpreter-interned* one --
#: the same choice ``DetectionRecord`` itself makes -- so rows and
#: records agree no matter which module's string literal seeded them
#: (hyphenated literals are not auto-interned, so each module gets its
#: own copy).
_WHERE_CANON = {where: sys.intern(where) for where in WHERE_RANK}

#: One candidate test set by seed: ``(iteration, d1)``; ``d1 is None``
#: denotes ``TS0`` itself.  Procedure 2's candidate sequence is fully
#: deterministic -- ``I = 1..max_iterations`` crossed with the caller's
#: D1 preference order (``d1_values`` as configured, or the
#: testability-pivoted reordering under
#: ``candidate_bias == 'testability'``) -- so a dispatch may batch
#: specs across iteration boundaries.
CandidateSpec = Tuple[int, Optional[int]]

#: Cache bound on built ``TS(I, D1)`` test sets (worker and parent side).
_TS_CACHE_LIMIT = 64

#: Column budget of the batched pass; must match the
#: ``simulate_candidates``/``candidates_compatible`` default.
_MAX_COLS = 4096


def reconstruct_hits(
    rows: Sequence[DetectionRow],
    order: Dict[Fault, int],
    remaining: Sequence[Fault],
) -> Dict[Fault, DetectionRecord]:
    """The exact serial ``simulate_grouped`` result from raw rows.

    ``rows`` are first detections of one candidate against the
    dispatch-time fault list; ``order`` maps every dispatch-time fault to
    its position in that list; ``remaining`` is the (ordered) subset the
    serial call would have been given.  Returns a dict equal to the
    serial result in both content and insertion order:

    - per fault, the governing row is the one with the smallest
      ``batch_rank`` (serial processes test-shape batches in first
      appearance order with fault dropping in between);
    - insertion order is batch rank ascending, then
      ``(time_unit, WHERE_RANK, position)`` -- the serial recorder's
      call order and its word/bit ascending scan.  Position in the
      dispatch-time list orders identically to position in any of its
      ordered subsets, so one ``order`` map serves every ``remaining``.

    Keys and ``DetectionRecord.fault`` are the *caller's* fault objects,
    not the equal copies that crossed the worker process boundary:
    serial results alias each fault once (key and record share the
    object), and aliasing is visible to ``pickle`` -- without interning,
    a pooled result serializes differently from a byte-identical serial
    one even though every comparison by value passes.  Interning also
    drops the unpickled duplicates immediately instead of keeping one
    extra Fault per detection alive in the table.
    """
    canon = {fault: fault for fault in remaining}
    best: Dict[Fault, DetectionRow] = {}
    for row in rows:
        fault = row[0]
        if fault in canon and (fault not in best or row[1] < best[fault][1]):
            best[fault] = row
    hits: Dict[Fault, DetectionRecord] = {}
    for rank in sorted({row[1] for row in best.values()}):
        batch = [row for row in best.values() if row[1] == rank]
        batch.sort(key=lambda r: (r[3], WHERE_RANK[r[4]], order[r[0]]))
        for fault, _rank, test_index, time_unit, where in batch:
            fault = canon[fault]
            hits[fault] = DetectionRecord(
                fault=fault,
                test_index=test_index,
                time_unit=time_unit,
                where=where,
            )
    return hits


# ----------------------------------------------------------------------
# Worker-process side.
# ----------------------------------------------------------------------
#: Per-process cache of decoded shared-memory state, keyed by segment
#: name.  Fork workers start empty and attach on first task; the decoded
#: state (compiled simulator, TS0, config) then lives as long as the
#: worker, so every later dispatch is seed-only.
_POOL_STATE: Dict[str, Dict[str, Any]] = {}


def _attach_state(segment_name: str) -> Dict[str, Any]:
    state = _POOL_STATE.get(segment_name)
    if state is not None:
        return state
    shm = shared_memory.SharedMemory(name=segment_name)
    try:
        size = int.from_bytes(bytes(shm.buf[:8]), "little")
        payload = pickle.loads(bytes(shm.buf[8 : 8 + size]))
    finally:
        # Attach also registered the segment with the resource tracker;
        # that is deliberate (idempotent set semantics) and must NOT be
        # undone here: unregistering from a worker would strip the
        # parent's SIGKILL protection.
        shm.close()
    payload["ts_cache"] = {}
    _POOL_STATE[segment_name] = payload
    return payload


def _build_spec(
    spec: CandidateSpec,
    ts0: List[ScanTest],
    config: Any,
    n_sv: int,
) -> List[ScanTest]:
    from repro.core.limited_scan import build_limited_scan_test_set

    iteration, d1 = spec
    if d1 is None:
        return ts0
    return build_limited_scan_test_set(ts0, iteration, d1, config, n_sv)


def _candidate_test_sets(
    state: Dict[str, Any], specs: Sequence[CandidateSpec]
) -> List[List[ScanTest]]:
    """Rebuild candidate test sets from seeds, with a bounded cache."""
    cache: Dict[CandidateSpec, List[ScanTest]] = state["ts_cache"]
    out = []
    for spec in specs:
        if spec not in cache:
            if len(cache) >= _TS_CACHE_LIMIT:
                cache.pop(next(iter(cache)))
            cache[spec] = _build_spec(
                spec, state["ts0"], state["config"], state["n_sv"]
            )
        out.append(cache[spec])
    return out


def _evaluate_spec(
    state: Dict[str, Any],
    specs: Sequence[CandidateSpec],
    fault_indices: Sequence[int],
) -> List[List[tuple]]:
    simulator = state["simulator"]
    test_sets = _candidate_test_sets(state, specs)
    faults = [state["targets"][j] for j in fault_indices]
    rows = simulator.simulate_candidates(
        test_sets, faults, state["policy"], max_cols=_MAX_COLS
    )
    if rows is None:  # pragma: no cover - parent pre-checks compatibility
        raise RuntimeError(
            "candidate preconditions failed in worker; parent should have "
            "taken the serial fallback"
        )
    return rows


def _pool_worker_task(
    segment_name: str,
    specs: Tuple[CandidateSpec, ...],
    fault_indices: Tuple[int, ...],
    inject: Optional[str],
    hang_seconds: float,
) -> List[List[tuple]]:
    state = _attach_state(segment_name)
    return execute_injected(
        inject,
        hang_seconds,
        lambda: _evaluate_spec(state, specs, fault_indices),
    )


# ----------------------------------------------------------------------
# Parent side.
# ----------------------------------------------------------------------
_SEGMENT_SEQ = itertools.count()


def _release_segment(shm: shared_memory.SharedMemory) -> None:
    shm.close()
    try:
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - already gone
        pass


class PersistentWorkerPool:
    """Executor + published session state for one Procedure 2 session.

    Lifecycle: ``publish`` (shared-memory segment, at construction) ->
    ``submit`` dispatches (workers fork on first use and attach to the
    segment) -> ``kill`` on failure (workers respawn, segment survives)
    -> ``close`` (workers down, segment unlinked).
    """

    def __init__(
        self, session_state: Dict[str, Any], n_jobs: int, fingerprint: str
    ) -> None:
        self.n_jobs = resolve_n_jobs(n_jobs)
        data = pickle.dumps(session_state)
        shm = None
        for _ in range(128):
            name = (
                f"rlspool_{fingerprint[:12]}_{os.getpid()}_"
                f"{next(_SEGMENT_SEQ)}"
            )
            try:
                shm = shared_memory.SharedMemory(
                    name=name, create=True, size=8 + len(data)
                )
                break
            except FileExistsError:  # pragma: no cover - stale leftover
                continue
        if shm is None:  # pragma: no cover - 128 stale segments
            raise RuntimeError("could not allocate a pool segment name")
        shm.buf[:8] = len(data).to_bytes(8, "little")
        shm.buf[8 : 8 + len(data)] = data
        self.segment_name = shm.name
        self._shm = shm
        # At-most-once unlink: explicit close(), garbage collection and
        # interpreter exit all funnel through this finalizer; a parent
        # SIGKILL is covered by the resource tracker's own registration.
        self._finalizer = weakref.finalize(self, _release_segment, shm)
        self._executor: Optional[Executor] = None

    def _ensure_executor(self) -> Executor:
        if self._executor is None:
            # Never spawn more workers than cores: extra workers cannot
            # add parallelism, but round-robin dispatch across them makes
            # every per-worker test-set cache run cold.
            workers = min(self.n_jobs, available_cpu_count())
            # Workers die with this process.  With the fork start method
            # the executor forks every worker inside the first submit(),
            # so from the thread driving the dispatches, which outlives
            # the pool; a respawn after kill() is a new executor, forked
            # the same way.
            self._executor = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("fork"),
                initializer=arm_pdeathsig,
                initargs=(os.getpid(),),
            )
        return self._executor

    def submit(
        self,
        specs: Tuple[CandidateSpec, ...],
        fault_indices: Tuple[int, ...],
        inject: Optional[str],
        hang_seconds: float,
    ) -> Future:
        return self._ensure_executor().submit(
            _pool_worker_task,
            self.segment_name,
            specs,
            fault_indices,
            inject,
            hang_seconds,
        )

    def kill(self) -> None:
        """Terminate the workers (hung ones too); keep the segment.

        The next :meth:`submit` respawns fresh workers, which re-attach
        to the already-published segment -- a respawn never re-publishes.
        """
        if self._executor is not None:
            processes = list(getattr(self._executor, "_processes", {}).values())
            self._executor.shutdown(wait=False, cancel_futures=True)
            for proc in processes:
                if proc.is_alive():
                    proc.terminate()
            self._executor = None

    def close(self) -> None:
        self.kill()
        self._finalizer()

    def __enter__(self) -> "PersistentWorkerPool":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def _valid_rows(payload: Any, n_candidates: int, shard_size: int) -> bool:
    """Sanity-check a worker's rows before trusting them in the merge."""
    if not isinstance(payload, list) or len(payload) != n_candidates:
        return False
    for cand_rows in payload:
        if not isinstance(cand_rows, list):
            return False
        for row in cand_rows:
            if not (isinstance(row, tuple) and len(row) == 5):
                return False
            fault_pos, batch_rank, test_index, time_unit, where = row
            if not (
                isinstance(fault_pos, int) and 0 <= fault_pos < shard_size
            ):
                return False
            if not (
                isinstance(batch_rank, int)
                and isinstance(test_index, int)
                and isinstance(time_unit, int)
            ):
                return False
            if where not in WHERE_RANK:
                return False
    return True


class _Table:
    """Candidate-result base: lazily-built ``.tests``.

    ``tests_src`` is either the built test list or a zero-argument
    callable producing it.  The Procedure 2 loop touches ``.tests`` only
    for the pair bookkeeping of a *selected* candidate, so the pool path
    -- where workers rebuild test sets from seeds anyway -- skips the
    parent-side build entirely for the (vast majority of) candidates
    that detect nothing new.
    """

    def __init__(self, tests_src: Any) -> None:
        if callable(tests_src):
            self._tests_thunk = tests_src
            self._tests: Optional[List[ScanTest]] = None
        else:
            self._tests_thunk = None
            self._tests = tests_src

    @property
    def tests(self) -> List[ScanTest]:
        if self._tests is None:
            self._tests = self._tests_thunk()
        return self._tests


class LazyTable(_Table):
    """Per-candidate result that defers to ``simulate_grouped``.

    The compatibility path: used for simulators without
    :meth:`simulate_candidates` (test wrappers) and whenever the batched
    pass's exactness preconditions fail.  One :meth:`hits_for` call
    issues exactly one ``simulate_grouped`` call, so dispatch counts
    match the historical loop precisely.
    """

    def __init__(self, simulator: Any, tests_src: Any, policy: Any) -> None:
        super().__init__(tests_src)
        self.simulator = simulator
        self.policy = policy

    def hits_for(
        self, remaining: Sequence[Fault]
    ) -> Dict[Fault, DetectionRecord]:
        return self.simulator.simulate_grouped(
            self.tests, list(remaining), self.policy
        )


class ReconTable(_Table):
    """Per-candidate raw rows plus the reconstruction order map.

    Holds one candidate's first-detection rows against the
    dispatch-time fault list; :meth:`hits_for` reconstructs the exact
    serial result for any later (smaller) remaining list without
    re-simulation.
    """

    def __init__(
        self,
        rows: List[DetectionRow],
        order: Dict[Fault, int],
        tests_src: Any,
    ) -> None:
        super().__init__(tests_src)
        self.rows = rows
        self.order = order

    def hits_for(
        self, remaining: Sequence[Fault]
    ) -> Dict[Fault, DetectionRecord]:
        return reconstruct_hits(self.rows, self.order, remaining)


class CandidateEvaluator:
    """Procedure 2's fault-simulation engine, batching and pool included.

    One evaluator lives per Procedure 2 session.  The loop asks it to
    score candidate test sets (:meth:`evaluate_ts0`,
    :meth:`evaluate_pairs`) and receives result *tables*; consuming a
    table against the then-current remaining list yields exactly what a
    serial ``simulate_grouped`` call would have -- whichever back-end
    produced it:

    - simulators without ``simulate_candidates`` (test wrappers): plain
      lazy pass-through, ``batch == 1``;
    - ``n_jobs <= 1``: the in-process batched pass;
    - ``n_jobs > 1``: the :class:`PersistentWorkerPool`, shard-granular
      recovery included.

    ``shards`` overrides the dispatch's shard count (used by chaos tests
    to force multi-shard dispatches regardless of host cores); the
    default adapts to the hardware: ``min(n_jobs, cpu_count, n_words)``.
    """

    def __init__(
        self,
        simulator: Any,
        ts0: List[ScanTest],
        config: Any,
        n_sv: int,
        policy: Optional[ObservationPolicy],
        n_jobs: int,
        targets: Sequence[Fault],
        circuit_name: str = "",
        recovery: Optional[RecoveryPolicy] = None,
        chaos: Optional[ChaosPlan] = None,
        shards: Optional[int] = None,
    ) -> None:
        self.simulator = simulator
        self.ts0 = list(ts0)
        self.config = config
        self.n_sv = n_sv
        self.policy = policy
        self.n_jobs = resolve_n_jobs(n_jobs)
        self.targets = list(targets)
        self.circuit_name = circuit_name
        self.recovery = recovery or RecoveryPolicy()
        self.chaos = chaos
        self.shards = shards
        self.degradation = DegradationReport()
        self._can_batch = hasattr(simulator, "simulate_candidates")
        self._use_pool = self._can_batch and self.n_jobs > 1
        self._pool: Optional[PersistentWorkerPool] = None
        self._pool_unavailable = False
        self._target_pos = {f: i for i, f in enumerate(self.targets)}
        self._dispatches = 0
        self._ts_cache: Dict[CandidateSpec, List[ScanTest]] = {}
        self._length_partition_cache: Optional[List[List[int]]] = None

    @property
    def batch(self) -> int:
        """Candidates the Procedure 2 loop should hand over per call."""
        if not self._can_batch:
            return 1
        return max(1, getattr(self.config, "candidate_batch", 1))

    # ------------------------------------------------------------------
    def _tests_for(self, spec: CandidateSpec) -> List[ScanTest]:
        """Build (or fetch) one candidate test set, bounded cache."""
        if spec not in self._ts_cache:
            if len(self._ts_cache) >= _TS_CACHE_LIMIT:
                self._ts_cache.pop(next(iter(self._ts_cache)))
            self._ts_cache[spec] = _build_spec(
                spec, self.ts0, self.config, self.n_sv
            )
        return self._ts_cache[spec]

    def _length_partition(self) -> List[List[int]]:
        """``TS0`` indices grouped by test length, first-appearance order."""
        if self._length_partition_cache is None:
            groups: Dict[int, List[int]] = {}
            for i, test in enumerate(self.ts0):
                groups.setdefault(test.length, []).append(i)
            self._length_partition_cache = list(groups.values())
        return self._length_partition_cache

    def _compatible(
        self, specs: Sequence[CandidateSpec], n_faults: int
    ) -> bool:
        """``candidates_compatible`` without building the test sets.

        Under ``reseed_per_test`` (the paper's Procedure 1) the schedule
        of a test depends only on ``(seed(I), length, d1, d2)``, so every
        candidate's batch partition is exactly "group ``TS0`` indices by
        test length" -- including ``TS0`` itself, whose empty schedules
        also coincide per length.  The remaining precondition is the
        single-chunk bound, a pure arithmetic check.  The one-stream
        ablation falls back to building the candidates and asking the
        simulator.
        """
        if n_faults <= 0 or not specs:
            return False
        if getattr(self.config, "reseed_per_test", False):
            n_groups = (n_faults + 63) // 64
            chunk_tests = max(1, _MAX_COLS // max(n_groups, 1))
            return all(
                len(idx) <= chunk_tests for idx in self._length_partition()
            )
        test_sets = [self._tests_for(spec) for spec in specs]
        return self.simulator.candidates_compatible(
            test_sets, n_faults, max_cols=_MAX_COLS
        )

    # ------------------------------------------------------------------
    def evaluate_ts0(self, remaining: Sequence[Fault]) -> Any:
        """One table for the initial test set."""
        return self.evaluate_specs([(0, None)], remaining)[0]

    def evaluate_specs(
        self,
        specs: Sequence[CandidateSpec],
        remaining: Sequence[Fault],
    ) -> List[Any]:
        """One table per candidate spec, in ``specs`` order.

        Specs may span iteration boundaries: Procedure 2's candidate
        sequence is deterministic, so the loop streams it in
        ``self.batch``-sized windows and consumes the tables against
        whatever the remaining list has shrunk to by then --
        :func:`reconstruct_hits` keeps that exact.  Each table carries
        its candidate's test set on ``.tests`` (built lazily).
        """
        specs = [tuple(spec) for spec in specs]
        remaining = list(remaining)

        def lazy() -> List[Any]:
            return [
                LazyTable(
                    self.simulator,
                    lambda spec=spec: self._tests_for(spec),
                    self.policy,
                )
                for spec in specs
            ]

        if not self._can_batch:
            return lazy()
        if not self._use_pool or self._pool_unavailable:
            if len(specs) == 1:
                # Single candidate, in-process: the plain serial call is
                # the batched pass with C=1, minus overhead.
                return lazy()
            test_sets = [self._tests_for(spec) for spec in specs]
            rows = self.simulator.simulate_candidates(
                test_sets, remaining, self.policy, max_cols=_MAX_COLS
            )
            if rows is None:
                return lazy()
            order = {f: i for i, f in enumerate(remaining)}
            return [
                ReconTable(
                    [(remaining[r[0]], r[1], r[2], r[3], r[4]) for r in cand],
                    order,
                    ts,
                )
                for cand, ts in zip(rows, test_sets)
            ]
        if not self._compatible(specs, len(remaining)):
            return lazy()
        dispatch = self._dispatches
        self._dispatches += 1
        merged = self._run_pool_dispatch(dispatch, tuple(specs), remaining)
        order = {f: i for i, f in enumerate(remaining)}
        return [
            ReconTable(cand, order, lambda spec=spec: self._tests_for(spec))
            for cand, spec in zip(merged, specs)
        ]

    # -- the hardened pool dispatch ------------------------------------
    def _shard_count(self, n_faults: int) -> int:
        n_words = max(1, (n_faults + 63) // 64)
        if self.shards is not None:
            return max(1, min(self.shards, n_words))
        cores = available_cpu_count()
        return max(1, min(self.n_jobs, cores, n_words))

    def _rescue_serial(
        self,
        specs: Tuple[CandidateSpec, ...],
        shard: List[Fault],
    ) -> List[List[DetectionRow]]:
        test_sets = [self._tests_for(spec) for spec in specs]
        rows = self.simulator.simulate_candidates(
            test_sets, shard, self.policy, max_cols=_MAX_COLS
        )
        if rows is None:  # pragma: no cover - compatibility is monotone
            raise RuntimeError(
                "serial rescue hit incompatible candidates after the "
                "dispatch-level compatibility check passed"
            )
        return [
            [(shard[r[0]], r[1], r[2], r[3], r[4]) for r in cand]
            for cand in rows
        ]

    def _run_pool_dispatch(
        self,
        dispatch: int,
        specs: Tuple[CandidateSpec, ...],
        remaining: List[Fault],
    ) -> List[List[DetectionRow]]:
        recovery = self.recovery
        shards = shard_faults(remaining, self._shard_count(len(remaining)))
        shard_indices = [
            tuple(self._target_pos[f] for f in shard) for shard in shards
        ]
        out: List[Optional[List[List[DetectionRow]]]] = [None] * len(shards)
        attempts = [0] * len(shards)
        pending = list(range(len(shards)))

        while pending:
            submit_failure: Optional[BrokenProcessPool] = None
            futures: Dict[int, Future] = {}
            try:
                if self._pool is None:
                    self._pool = self._make_pool()
                pool = self._pool
                futures = {
                    i: pool.submit(
                        specs,
                        shard_indices[i],
                        self._chaos_action(dispatch, i, attempts[i]),
                        self.chaos.hang_seconds if self.chaos else 0.0,
                    )
                    for i in pending
                }
            except BrokenProcessPool as exc:
                # Every worker died between dispatches (e.g. OOM-killed
                # while idle): the executor flags itself broken at submit
                # time.  Recoverable exactly like an in-flight crash --
                # respawn below and retry the pending shards.
                submit_failure = exc
            except Exception as exc:
                # The pool cannot be built or fed (fork failure, shm
                # exhaustion, unpicklable state): rescue everything
                # still pending serially and stay in-process from now on.
                for i in pending:
                    self.degradation.record(
                        dispatch, i, attempts[i], "pool-unavailable",
                        "serial", repr(exc),
                    )
                    out[i] = self._rescue_serial(specs, shards[i])
                self._pool_unavailable = True
                self.close_pool()
                break

            failed: List[Tuple[int, str, str]] = []
            pool_dead = False
            deadline = (
                None
                if recovery.shard_timeout is None
                else time.perf_counter() + recovery.shard_timeout
            )
            if submit_failure is not None:
                failed = [
                    (i, "crash", repr(submit_failure)) for i in pending
                ]
                pending = []
                pool_dead = True
            for i in pending:
                future = futures[i]
                try:
                    if pool_dead:
                        if not future.done():
                            failed.append(
                                (i, "pool-lost",
                                 "pool torn down after an earlier failure")
                            )
                            continue
                        payload = future.result(timeout=0)
                    elif deadline is None:
                        payload = future.result()
                    else:
                        budget = max(0.0, deadline - time.perf_counter())
                        payload = future.result(timeout=budget)
                except FuturesTimeoutError:
                    failed.append(
                        (i, "timeout",
                         f"no result within {recovery.shard_timeout}s")
                    )
                    pool_dead = True
                    continue
                except BrokenProcessPool as exc:
                    failed.append((i, "crash", repr(exc)))
                    pool_dead = True
                    continue
                except CancelledError:
                    failed.append((i, "pool-lost", "future cancelled"))
                    continue
                except Exception as exc:
                    failed.append((i, "error", repr(exc)))
                    continue
                if not _valid_rows(payload, len(specs), len(shards[i])):
                    failed.append(
                        (i, "invalid-result",
                         "shard returned malformed candidate rows")
                    )
                    continue
                shard = shards[i]
                out[i] = [
                    [
                        (shard[r[0]], r[1], r[2], r[3], _WHERE_CANON[r[4]])
                        for r in cand
                    ]
                    for cand in payload
                ]

            if pool_dead and self._pool is not None:
                # Respawn the workers; the published segment survives, so
                # the respawned pool re-attaches without re-publishing.
                self._pool.kill()
                self.degradation.pool_respawns += 1

            next_pending: List[int] = []
            for i, kind, detail in failed:
                if attempts[i] >= recovery.max_retries:
                    self.degradation.record(
                        dispatch, i, attempts[i], kind, "serial", detail
                    )
                    out[i] = self._rescue_serial(specs, shards[i])
                else:
                    self.degradation.record(
                        dispatch, i, attempts[i], kind, "retry", detail
                    )
                    delay = recovery.backoff_delay(dispatch, i, attempts[i])
                    if delay > 0:
                        time.sleep(delay)
                    attempts[i] += 1
                    next_pending.append(i)
            pending = next_pending

        merged: List[List[DetectionRow]] = [[] for _ in specs]
        for shard_rows in out:
            assert shard_rows is not None
            for c, cand_rows in enumerate(shard_rows):
                merged[c].extend(cand_rows)
        return merged

    def _make_pool(self) -> PersistentWorkerPool:
        from repro.robustness.checkpoint import session_fingerprint

        fingerprint = session_fingerprint(
            self.circuit_name, self.config, self.targets
        )
        session_state = {
            "simulator": self.simulator,
            "ts0": self.ts0,
            "config": self.config,
            "policy": self.policy,
            "targets": self.targets,
            "n_sv": self.n_sv,
        }
        return PersistentWorkerPool(session_state, self.n_jobs, fingerprint)

    def _chaos_action(
        self, dispatch: int, shard: int, attempt: int
    ) -> Optional[str]:
        if self.chaos is None:
            return None
        return self.chaos.action(dispatch, shard, attempt)

    # ------------------------------------------------------------------
    def close_pool(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def close(self) -> None:
        self.close_pool()

    def __enter__(self) -> "CandidateEvaluator":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
