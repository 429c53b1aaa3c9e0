"""Parallel fault-simulation sharding with shard-granular recovery.

The packed fault list (64 faults per ``uint64`` word) is split into
word-aligned contiguous shards and every shard is simulated by a worker
process holding its own replica of the simulator.  Faults are independent
of each other in the parallel-fault model -- dropping a detected fault
never changes another fault's detection record -- so sharding by fault
words is embarrassingly parallel and the merged result is bit-exact with
the serial simulator.

Two guarantees shape the design:

- **Determinism**: the merged detection records are re-ordered by
  ``(test_index, time_unit, position in the input fault list)``, so the
  output never depends on worker scheduling -- or on how many times a
  shard had to be retried.
- **Graceful degradation, shard by shard**: a dead worker, a hung
  worker, a corrupted shard return, or an ordinary task exception costs
  only that shard's work.  Failed shards are retried with deterministic
  seeded backoff (the pool is respawned first if it broke), and a shard
  that exhausts its retries is re-executed serially in the parent.  A
  parallel run may be slow, but never wrong or fatal; every recovery
  action is recorded in a structured
  :class:`~repro.robustness.degradation.DegradationReport` instead of a
  lost warning.

Workers are initialized once per process with a pickled replica of the
simulator (the compiled model pickles as flat numpy arrays; no
re-levelization happens in the worker), then receive only the test list
and their fault shard per task.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import pickle
import random
import sys
import time
from concurrent.futures import (
    CancelledError,
    Executor,
    Future,
    ProcessPoolExecutor,
)
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.faults.model import Fault
from repro.robustness.chaos import ChaosPlan, execute_injected
from repro.robustness.degradation import DegradationReport
from repro.robustness.lifetime import arm_pdeathsig
from repro.simulation.compiled import shard_word_ranges

#: Faults per simulation word (bits of a uint64).
WORD_BITS = 64

#: Serial record order within one time unit: the limited-scan compare
#: runs before the gate eval, primary outputs and state taps after it,
#: and the final scan-out is a separate time unit.
WHERE_RANK: Dict[str, int] = {
    "limited-scan": 0,
    "po": 1,
    "state-tap": 2,
    "scan-out": 3,
}


def available_cpu_count() -> int:
    """CPUs actually available to this process (never 0).

    ``os.cpu_count()`` reports the machine's cores, which overcounts --
    and oversubscribes workers -- under cgroup or CPU-affinity limits
    (containers, CI runners, ``taskset``).  The scheduler-affinity mask
    reflects the real allowance, so prefer it where the platform has it.
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # platforms without sched_getaffinity
        return max(1, os.cpu_count() or 1)  # detlint: ignore[DET004]


def resolve_n_jobs(n_jobs: Optional[int]) -> int:
    """Normalize an ``n_jobs`` knob: ``None``/1 serial, -1 = all cores."""
    if n_jobs is None:
        return 1
    if n_jobs == -1:
        return available_cpu_count()
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1 or -1, got {n_jobs}")
    return n_jobs


def shard_faults(faults: Sequence[Fault], n_shards: int) -> List[List[Fault]]:
    """Split ``faults`` into word-aligned contiguous shards.

    Shard boundaries are multiples of 64 faults so each worker packs its
    shard into full words exactly as the serial simulator would.
    """
    faults = list(faults)
    n_words = (len(faults) + WORD_BITS - 1) // WORD_BITS
    return [
        faults[lo * WORD_BITS : hi * WORD_BITS]
        for lo, hi in shard_word_ranges(n_words, n_shards)
    ]


class RecoveryPolicy:
    """How the sharded simulator reacts to a failing shard.

    Attributes:
        shard_timeout: seconds a dispatch waits for its shards before
            declaring the laggards hung and killing the pool.  ``None``
            (default) waits forever -- appropriate when workloads have no
            known bound.
        max_retries: attempts *after* the first before a shard is
            re-executed serially in the parent (0 = straight to serial).
        backoff_base: base of the exponential backoff slept between
            attempts; 0 disables sleeping.
        backoff_cap: upper bound on a single backoff sleep, seconds.
        seed: seed of the backoff jitter.  The jitter RNG is derived
            from ``(seed, dispatch, shard, attempt)`` alone, so recovery
            timing is as reproducible as everything else.
    """

    def __init__(
        self,
        shard_timeout: Optional[float] = None,
        max_retries: int = 2,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        seed: int = 0,
    ) -> None:
        if shard_timeout is not None and shard_timeout <= 0:
            raise ValueError("shard_timeout must be positive (or None)")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.shard_timeout = shard_timeout
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.seed = seed

    def backoff_delay(self, dispatch: int, shard: int, attempt: int) -> float:
        """Deterministic jittered exponential backoff for one retry."""
        if self.backoff_base <= 0:
            return 0.0
        rng = random.Random(
            self.seed * 1_000_003 + dispatch * 8_191 + shard * 131 + attempt
        )
        delay = self.backoff_base * (2.0**attempt) * (0.5 + rng.random())
        return min(self.backoff_cap, delay)


# ----------------------------------------------------------------------
# Worker-process side.  One simulator replica per process, installed by
# the pool initializer; tasks then name a method to call on it.
# ----------------------------------------------------------------------
_WORKER_SIM: Any = None


def _init_worker(payload: bytes, parent_pid: int) -> None:
    global _WORKER_SIM
    arm_pdeathsig(parent_pid)
    _WORKER_SIM = pickle.loads(payload)


def _run_worker_method(method: str, args: tuple, kwargs: dict) -> Any:
    if _WORKER_SIM is None:  # pragma: no cover - defensive
        raise RuntimeError("worker pool used before initialization")
    return getattr(_WORKER_SIM, method)(*args, **kwargs)


def _run_worker_task(
    method: str,
    inject: Optional[str],
    hang_seconds: float,
    args: tuple,
    kwargs: dict,
) -> Any:
    """Hardened-path task: like :func:`_run_worker_method`, plus chaos."""
    if _WORKER_SIM is None:  # pragma: no cover - defensive
        raise RuntimeError("worker pool used before initialization")
    return execute_injected(
        inject,
        hang_seconds,
        lambda: getattr(_WORKER_SIM, method)(*args, **kwargs),
    )


class SimulatorPool:
    """A process pool whose workers each hold a replica of one simulator.

    The replica is shipped once per worker (pool initializer), so tasks
    only pay to pickle their own arguments.  The simple :meth:`map_method`
    surface is all-or-nothing (used by PPSFP, which owns its fallback);
    :class:`ShardedFaultSimulator` uses :meth:`submit_task` +
    :meth:`kill` for shard-granular recovery and respawn.
    """

    def __init__(self, simulator: Any, n_jobs: int) -> None:
        self.n_jobs = resolve_n_jobs(n_jobs)
        self._simulator = simulator
        self._payload: Optional[bytes] = None
        #: Times the simulator was serialized (once per pool lifetime on
        #: the happy path -- respawns and serial rescues must not add).
        self.pickle_count = 0
        self._executor: Optional[Executor] = None
        self.broken = False

    def _ensure_executor(self) -> Executor:
        if self._executor is None:
            if self._payload is None:
                # Serialize lazily and exactly once: a pool whose every
                # dispatch degrades to serial never pays for pickling,
                # and a respawn after kill() reuses the cached payload.
                self._payload = pickle.dumps(self._simulator)
                self.pickle_count += 1
            # Workers die with this process; see the persistent pool for
            # why the forking thread outlives them.
            self._executor = ProcessPoolExecutor(
                max_workers=self.n_jobs,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_init_worker,
                initargs=(self._payload, os.getpid()),
            )
        return self._executor

    def submit_task(
        self,
        method: str,
        inject: Optional[str],
        hang_seconds: float,
        args: tuple,
        kwargs: dict,
    ) -> Future:
        """Submit one shard task; the caller owns collection and retry."""
        return self._ensure_executor().submit(
            _run_worker_task, method, inject, hang_seconds, args, kwargs
        )

    def map_method(self, method: str, calls: Sequence[Tuple[tuple, dict]]) -> List[Any]:
        """Run ``simulator.method(*args, **kwargs)`` for every call, in order.

        Raises whatever the pool raises; the caller owns the fallback.
        """
        executor = self._ensure_executor()
        futures = [
            executor.submit(_run_worker_method, method, args, kwargs)
            for args, kwargs in calls
        ]
        try:
            return [f.result() for f in futures]
        except BaseException:
            for f in futures:
                f.cancel()
            raise

    def kill(self) -> None:
        """Tear the pool down hard, terminating workers (hung ones too).

        The next :meth:`submit_task` transparently respawns a fresh pool
        of workers from the stored simulator payload.
        """
        if self._executor is not None:
            processes = list(getattr(self._executor, "_processes", {}).values())
            self._executor.shutdown(wait=False, cancel_futures=True)
            for proc in processes:
                if proc.is_alive():
                    proc.terminate()
            self._executor = None

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    def __enter__(self) -> "SimulatorPool":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def _valid_shard_result(records: Any, shard: Sequence[Fault]) -> bool:
    """Sanity-check a worker's payload before trusting it in the merge.

    Every key must be a fault of *this* shard and every value must look
    like a detection record; anything else is treated as a shard failure
    and recovered like a crash.
    """
    if not isinstance(records, dict):
        return False
    members = set(shard)
    for fault, record in records.items():
        if fault not in members:
            return False
        if not (
            hasattr(record, "test_index")
            and hasattr(record, "time_unit")
            and hasattr(record, "where")
        ):
            return False
    return True


class ShardedFaultSimulator:
    """Fault-sharded parallel front-end for a :class:`FaultSimulator`.

    Exposes the same ``simulate`` / ``simulate_grouped`` / ``detected_by``
    surface as the serial simulator; with ``n_jobs > 1`` the fault list is
    sharded across a :class:`SimulatorPool` and the per-shard detection
    records are merged deterministically.  ``n_jobs == 1`` bypasses the
    pool entirely and is byte-for-byte the serial path.

    Shard failures are recovered per the :class:`RecoveryPolicy`:
    bounded retries with seeded backoff, pool respawn after a crash or a
    per-shard timeout, and serial re-execution of a shard that keeps
    failing.  Every recovery action lands in :attr:`degradation`.

    Use as a context manager (or call :meth:`close`) so worker processes
    do not outlive the work.
    """

    def __init__(
        self,
        base: Any,
        n_jobs: int = 1,
        recovery: Optional[RecoveryPolicy] = None,
        chaos: Optional[ChaosPlan] = None,
    ) -> None:
        self.base = base
        self.n_jobs = resolve_n_jobs(n_jobs)
        self.recovery = recovery or RecoveryPolicy()
        self.chaos = chaos
        self.degradation = DegradationReport()
        self._pool: Optional[SimulatorPool] = None
        self._pool_unavailable = False
        self._dispatches = 0

    # -- pass-throughs the callers rely on ------------------------------
    @property
    def chain_length(self) -> int:
        return self.base.chain_length

    @property
    def graph(self):
        return self.base.graph

    @property
    def chain(self):
        return self.base.chain

    # -------------------------------------------------------------------
    def simulate(self, tests, faults, policy=None):
        return self._dispatch("simulate", tests, faults, policy)

    def simulate_grouped(self, tests, faults, policy=None, max_cols: int = 4096):
        return self._dispatch(
            "simulate_grouped", tests, faults, policy, max_cols=max_cols
        )

    def detected_by(self, tests, faults, policy=None) -> List[Fault]:
        records = self.simulate(tests, faults, policy)
        return [f for f in faults if f in records]

    # -------------------------------------------------------------------
    def _dispatch(self, method: str, tests, faults, policy, **kwargs):
        tests = list(tests)
        faults = list(faults)
        serial = getattr(self.base, method)
        if self.n_jobs <= 1 or self._pool_unavailable:
            return serial(tests, faults, policy, **kwargs)
        shards = shard_faults(faults, self.n_jobs)
        if len(shards) <= 1:
            return serial(tests, faults, policy, **kwargs)
        dispatch = self._dispatches
        self._dispatches += 1
        results = self._run_shards(dispatch, method, tests, shards, policy, kwargs)
        return _merge_records(
            results, faults, tests, method, kwargs.get("max_cols", 4096)
        )

    # -- the hardened shard loop ----------------------------------------
    def _run_shards(
        self,
        dispatch: int,
        method: str,
        tests: list,
        shards: List[List[Fault]],
        policy,
        kwargs: dict,
    ) -> List[Any]:
        recovery = self.recovery
        serial = getattr(self.base, method)
        out: List[Any] = [None] * len(shards)
        attempts = [0] * len(shards)
        pending = list(range(len(shards)))

        while pending:
            try:
                if self._pool is None:
                    self._pool = SimulatorPool(self.base, self.n_jobs)
                pool = self._pool
                futures = {
                    i: pool.submit_task(
                        method,
                        self._chaos_action(dispatch, i, attempts[i]),
                        self.chaos.hang_seconds if self.chaos else 0.0,
                        (tests, shards[i], policy),
                        kwargs,
                    )
                    for i in pending
                }
            except Exception as exc:
                # The pool itself cannot be built or fed (fork failure,
                # unpicklable state, resource exhaustion): run everything
                # still pending serially and stay serial from now on.
                for i in pending:
                    self.degradation.record(
                        dispatch, i, attempts[i], "pool-unavailable",
                        "serial", repr(exc),
                    )
                    out[i] = serial(tests, shards[i], policy, **kwargs)
                self._pool_unavailable = True
                self.close()
                return out

            failed: List[Tuple[int, str, str]] = []
            pool_dead = False
            deadline = (
                None
                if recovery.shard_timeout is None
                else time.perf_counter() + recovery.shard_timeout
            )
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
                        records = future.result(timeout=0)
                    elif deadline is None:
                        records = future.result()
                    else:
                        budget = max(0.0, deadline - time.perf_counter())
                        records = future.result(timeout=budget)
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
                if not _valid_shard_result(records, shards[i]):
                    failed.append(
                        (i, "invalid-result",
                         "shard returned faults outside its own range "
                         "or malformed records")
                    )
                    continue
                out[i] = records

            if pool_dead and self._pool is not None:
                # A crash poisons the executor and a hung worker squats a
                # slot forever; either way the workers must be respawned.
                # The pool object itself survives so its one pickled
                # simulator payload is reused instead of re-serialized.
                self._pool.kill()
                self.degradation.pool_respawns += 1

            next_pending: List[int] = []
            for i, kind, detail in failed:
                if attempts[i] >= recovery.max_retries:
                    self.degradation.record(
                        dispatch, i, attempts[i], kind, "serial", detail
                    )
                    out[i] = serial(tests, shards[i], policy, **kwargs)
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
        return out

    def _chaos_action(
        self, dispatch: int, shard: int, attempt: int
    ) -> Optional[str]:
        if self.chaos is None:
            return None
        return self.chaos.action(dispatch, shard, attempt)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "ShardedFaultSimulator":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def _grouped_test_ranks(
    tests: Sequence[Any],
    n_faults: int,
    hits_per_test: Dict[int, int],
    max_cols: int,
) -> Dict[int, int]:
    """Chunk rank of every test index under serial ``simulate_grouped``.

    Mirrors its batching exactly: tests sharing ``(length, schedule)``
    form one batch in first-appearance order, each batch is consumed in
    chunks of ``max_cols // n_groups`` tests, and detected faults are
    dropped between chunks (shrinking ``n_groups`` for later chunks).
    ``hits_per_test`` -- detections attributed to each test index --
    lets the walk replay how ``remaining`` shrank.
    """
    batches: Dict[tuple, List[int]] = {}
    for i, test in enumerate(tests):
        sig = (
            test.length,
            tuple(
                (k, tuple(fill))
                for k, fill in (test.schedule or [(0, ())] * test.length)
            ),
        )
        batches.setdefault(sig, []).append(i)
    ranks: Dict[int, int] = {}
    rank = 0
    remaining = n_faults
    for idxs in batches.values():
        pos = 0
        while pos < len(idxs) and remaining > 0:
            n_groups = (remaining + WORD_BITS - 1) // WORD_BITS
            chunk = idxs[pos : pos + max(1, max_cols // max(n_groups, 1))]
            pos += len(chunk)
            for i in chunk:
                ranks[i] = rank
            remaining -= sum(hits_per_test.get(i, 0) for i in chunk)
            rank += 1
        for i in idxs[pos:]:  # tests the serial loop never reached
            ranks[i] = rank
    return ranks


def _merge_records(
    shard_records: Sequence[Dict[Fault, Any]],
    faults: Sequence[Fault],
    tests: Sequence[Any],
    method: str,
    max_cols: int = 4096,
) -> Dict[Fault, Any]:
    """Merge disjoint per-shard record dicts into one deterministic dict.

    Shards partition the fault list, so the union is conflict-free; the
    merged dict reproduces the *serial* simulator's insertion order so
    downstream consumers never observe worker-completion order.  Both
    serial paths record in ``(pass, time_unit, observation point, fault
    position)`` order, where a pass is one test for ``simulate`` and one
    test-shape chunk for ``simulate_grouped`` (replayed by
    :func:`_grouped_test_ranks`); a fault's position in the full list
    orders identically to its position within any shard.

    Worker payloads arrive through pickle, which neither interns strings
    nor preserves object identity, so records are rebuilt on the
    caller's object graph: the fault key/field becomes the caller's own
    ``Fault`` and ``where`` the interned constant.  Without this the
    merged result is value-equal to the serial one but not
    byte-identical when serialized (a different pickle memo structure).
    """
    position = {fault: i for i, fault in enumerate(faults)}
    canonical = {fault: fault for fault in faults}
    combined: List[Tuple[Fault, Any]] = []
    for records in shard_records:
        combined.extend(records.items())
    if method == "simulate_grouped":
        hits_per_test: Dict[int, int] = {}
        for _, record in combined:
            hits_per_test[record.test_index] = (
                hits_per_test.get(record.test_index, 0) + 1
            )
        ranks = _grouped_test_ranks(
            tests, len(faults), hits_per_test, max_cols
        )
    else:
        ranks = {i: i for i in range(len(tests))}
    combined.sort(
        key=lambda kv: (
            ranks[kv[1].test_index],
            kv[1].time_unit,
            WHERE_RANK.get(kv[1].where, len(WHERE_RANK)),
            position[kv[0]],
        )
    )
    out: Dict[Fault, Any] = {}
    for fault, record in combined:
        mine = canonical[fault]
        out[mine] = dataclasses.replace(
            record, fault=mine, where=sys.intern(record.where)
        )
    return out
