"""Chaos injection against the persistent worker pool.

The persistent pool must survive worker crash, hang, corrupted payload,
task error, retry exhaustion and an unusable pool with shard-granular
recovery and a final result identical to the serial run.  On top of
that it owns a shared-memory segment whose lifetime must end with the
evaluator on *every* path, including SIGKILLed workers.

All tests are marked ``chaos`` (run with ``-m chaos``).
"""

from __future__ import annotations

import glob
import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.bench_circuits.synthetic import SyntheticSpec, synthesize
from repro.core.config import BistConfig
from repro.core.limited_scan import build_limited_scan_test_set
from repro.core.test_set import generate_ts0
from repro.faults.collapse import collapse_faults
from repro.faults.fault_sim import FaultSimulator
from repro.faults.pool import CandidateEvaluator, PersistentWorkerPool
from repro.faults.sharding import RecoveryPolicy
from repro.robustness.chaos import ChaosPlan

pytestmark = pytest.mark.chaos

#: No backoff sleeps and no timeout: chaos tests should be fast.
FAST = dict(shard_timeout=None, max_retries=2, backoff_base=0.0)


@pytest.fixture(scope="module")
def rig():
    """Circuit with > 128 faults (real multi-shard dispatches)."""
    circuit = synthesize(
        SyntheticSpec(name="mini208", n_pi=10, n_po=1, n_ff=8, n_gates=96,
                      seed=5)
    )
    cfg = BistConfig(la=4, lb=8, n=4, candidate_batch=4, n_jobs=2)
    sim = FaultSimulator(circuit)
    faults = collapse_faults(circuit)
    assert len(faults) > 128  # >= 3 words: at least 3 real shards
    ts0 = generate_ts0(circuit, cfg)
    n_sv = circuit.num_state_vars
    specs = [(1, d1) for d1 in cfg.d1_values[:4]]
    serial = {}
    for spec in specs:
        tests = build_limited_scan_test_set(ts0, spec[0], spec[1], cfg, n_sv)
        serial[spec] = list(sim.simulate_grouped(tests, faults).items())
    return circuit, cfg, sim, ts0, faults, specs, serial


def make_evaluator(rig, chaos=None, recovery=None, shards=3):
    circuit, cfg, sim, ts0, faults, _specs, _serial = rig
    return CandidateEvaluator(
        sim, ts0, cfg, circuit.num_state_vars, None,
        n_jobs=2, targets=faults, circuit_name=circuit.name,
        recovery=recovery or RecoveryPolicy(**FAST),
        chaos=chaos, shards=shards,
    )


def assert_identical(rig, evaluator):
    """Evaluate all specs through ``evaluator``; compare against serial."""
    _c, _cfg, _sim, _ts0, faults, specs, serial = rig
    tables = evaluator.evaluate_specs(specs, faults)
    for spec, table in zip(specs, tables):
        assert list(table.hits_for(faults).items()) == serial[spec], (
            f"spec {spec} diverged from the serial result"
        )


class TestShardRecovery:
    def test_worker_crash_recovers(self, rig):
        with make_evaluator(rig, chaos=ChaosPlan(crash_shards=(0,))) as ev:
            assert_identical(rig, ev)
            kinds = {e.kind for e in ev.degradation.events}
            assert "crash" in kinds
            assert ev.degradation.pool_respawns >= 1
            # The retried shard succeeded in the pool; nothing went serial.
            assert all(e.action == "retry" for e in ev.degradation.events)

    def test_hung_worker_times_out_and_recovers(self, rig):
        recovery = RecoveryPolicy(
            shard_timeout=1.5, max_retries=2, backoff_base=0.0
        )
        chaos = ChaosPlan(hang_shards=(1,), hang_seconds=60.0)
        with make_evaluator(rig, chaos=chaos, recovery=recovery) as ev:
            assert_identical(rig, ev)
            assert "timeout" in {e.kind for e in ev.degradation.events}
            assert ev.degradation.pool_respawns >= 1

    def test_corrupted_payload_is_rejected_and_retried(self, rig):
        with make_evaluator(rig, chaos=ChaosPlan(corrupt_shards=(1,))) as ev:
            assert_identical(rig, ev)
            assert "invalid-result" in {e.kind for e in ev.degradation.events}

    def test_task_error_is_retried(self, rig):
        with make_evaluator(rig, chaos=ChaosPlan(error_shards=(0, 2))) as ev:
            assert_identical(rig, ev)
            assert "error" in {e.kind for e in ev.degradation.events}

    def test_retry_exhaustion_falls_back_to_serial_shard(self, rig):
        chaos = ChaosPlan(error_shards=(1,), fire_attempts=99)
        with make_evaluator(rig, chaos=chaos) as ev:
            assert_identical(rig, ev)
            assert ev.degradation.degraded
            rescued = [
                e for e in ev.degradation.events if e.action == "serial"
            ]
            assert rescued and all(e.shard == 1 for e in rescued)

    def test_pool_unavailable_rescues_everything(self, rig, monkeypatch):
        ev = make_evaluator(rig)
        monkeypatch.setattr(
            ev, "_make_pool",
            lambda: (_ for _ in ()).throw(OSError("no forks today")),
        )
        with ev:
            assert_identical(rig, ev)
            assert ev._pool_unavailable
            assert ev.degradation.degraded
            assert {e.kind for e in ev.degradation.events} == {
                "pool-unavailable"
            }
            # Later windows stay in-process: no further pool attempts,
            # results still serial-identical.
            assert_identical(rig, ev)


class TestSegmentLifecycle:
    def test_segment_named_by_fingerprint_and_released(self, rig):
        ev = make_evaluator(rig)
        assert_identical(rig, ev)
        pool = ev._pool
        assert pool is not None
        assert pool.segment_name.startswith("rlspool_")
        path = f"/dev/shm/{pool.segment_name}"
        if os.path.exists("/dev/shm"):
            assert os.path.exists(path)
        ev.close()
        if os.path.exists("/dev/shm"):
            assert not os.path.exists(path)

    def test_segment_survives_sigkilled_workers(self, rig):
        """SIGKILL on every worker: respawn works, then cleanup is exact."""
        ev = make_evaluator(rig)
        _c, _cfg, _sim, _ts0, faults, specs, _serial = rig
        assert_identical(rig, ev)
        pool = ev._pool
        procs = list(getattr(pool._executor, "_processes", {}).values())
        assert procs, "pool should have live workers after a dispatch"
        for proc in procs:
            os.kill(proc.pid, signal.SIGKILL)
        # The evaluator recovers (respawn re-attaches to the published
        # segment) and the result is still exact.
        assert_identical(rig, ev)
        assert ev.degradation.pool_respawns >= 1
        name = pool.segment_name
        ev.close()
        if os.path.exists("/dev/shm"):
            assert not glob.glob(f"/dev/shm/{name}")

    def test_kill_keeps_segment_close_unlinks(self, rig):
        ev = make_evaluator(rig)
        assert_identical(rig, ev)
        pool = ev._pool
        path = f"/dev/shm/{pool.segment_name}"
        pool.kill()
        if os.path.exists("/dev/shm"):
            assert os.path.exists(path), "kill() must keep the segment"
        assert_identical(rig, ev)  # respawned workers re-attach
        ev.close()
        if os.path.exists("/dev/shm"):
            assert not os.path.exists(path)


class TestChaosDeterminism:
    def test_chaos_run_is_reproducible(self, rig):
        chaos = ChaosPlan(corrupt_shards=(0,), error_shards=(2,))
        reports = []
        for _ in range(2):
            with make_evaluator(rig, chaos=chaos) as ev:
                assert_identical(rig, ev)
                reports.append(
                    [(e.dispatch, e.shard, e.attempt, e.kind, e.action)
                     for e in ev.degradation.events]
                )
        assert reports[0] == reports[1]


#: Drives a 2-worker persistent pool, prints the worker pids and the
#: pool's segment name as one JSON line, then waits to be killed.
#: argv: <src-dir>.
POOL_CHILD = """\
import json, os, sys, time

sys.path.insert(0, sys.argv[1])
from repro.faults.pool import PersistentWorkerPool

pool = PersistentWorkerPool({}, 2, "lifetime0000")
executor = pool._ensure_executor()
executor.submit(os.getpid).result()
print(json.dumps({"pids": sorted(executor._processes),
                  "segment": pool.segment_name}), flush=True)
time.sleep(600)
"""


def _alive(pid: int) -> bool:
    """Running or sleeping; a zombie awaiting its reaper counts as gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


@pytest.mark.skipif(
    not os.path.isdir("/proc/self"), reason="needs Linux PR_SET_PDEATHSIG"
)
class TestWorkersDieWithParent:
    @pytest.mark.parametrize("kind", ["persistent"])
    def test_sigkilled_parent_takes_its_workers(self, tmp_path, kind):
        script = tmp_path / "pool_child.py"
        script.write_text(POOL_CHILD)
        src = str(Path(repro.__file__).resolve().parents[1])
        proc = subprocess.Popen(
            [sys.executable, str(script), src],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        pids = []
        try:
            ready, _, _ = select.select([proc.stdout], [], [], 60.0)
            assert ready, "the pool child never reported its workers"
            info = json.loads(proc.stdout.readline())
            pids = info["pids"]
            assert pids and all(_alive(pid) for pid in pids)
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and any(map(_alive, pids)):
                time.sleep(0.05)
            assert not [pid for pid in pids if _alive(pid)], (
                "pool workers outlived their SIGKILLed parent"
            )
            # With every worker gone the resource tracker unlinks the
            # dead parent's segment.
            segment = f"/dev/shm/{info['segment']}"
            while time.monotonic() < deadline + 5.0:
                if not os.path.exists(segment):
                    break
                time.sleep(0.05)
            assert not os.path.exists(segment)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            for pid in pids:
                if _alive(pid):
                    os.kill(pid, signal.SIGKILL)
