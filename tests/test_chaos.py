"""Deterministic fault-injection tests for worker-pool recovery.

A :class:`ChaosPlan` forces worker failures on demand; a Procedure 2 run
on the persistent pool under such a plan must end in the byte-identical
serial result plus a structured :class:`DegradationReport` describing
what happened.  Each recovery kind of the pool (crash, hang, corrupt
payload, task error, retry exhaustion, unavailable pool) is covered
shard by shard in ``tests/test_pool_robustness.py``.

All tests here are marked ``chaos`` (run with ``-m chaos``); they fork
real worker processes and some deliberately kill them.
"""

import functools
import json

import pytest

from repro.bench_circuits.synthetic import SyntheticSpec, synthesize
from repro.core.config import BistConfig
from repro.core import procedure2
from repro.core.procedure2 import run_procedure2
from repro.experiments.serialize import result_to_dict
from repro.faults.collapse import collapse_faults
from repro.robustness.chaos import ChaosError, ChaosPlan, execute_injected
from repro.robustness.degradation import DegradationReport, ShardEvent

pytestmark = pytest.mark.chaos

@pytest.fixture(scope="module")
def rig():
    """Circuit with > 128 faults (real multi-shard runs)."""
    circuit = synthesize(
        SyntheticSpec(name="mini208", n_pi=10, n_po=1, n_ff=8, n_gates=96,
                      seed=5)
    )
    faults = collapse_faults(circuit)
    assert len(faults) > 128  # >= 3 words: at least 3 real shards
    return circuit, faults


class TestChaosPlan:
    def test_action_precedence_and_gating(self):
        plan = ChaosPlan(
            crash_shards=(0,), hang_shards=(0, 1), corrupt_shards=(1, 2),
            error_shards=(3,), dispatches=(0, 2), fire_attempts=2,
        )
        assert plan.action(0, 0, 0) == "crash"   # crash beats hang
        assert plan.action(0, 1, 0) == "hang"    # hang beats corrupt
        assert plan.action(0, 2, 0) == "corrupt"
        assert plan.action(0, 3, 0) == "error"
        assert plan.action(0, 4, 0) is None      # un-named shard
        assert plan.action(1, 0, 0) is None      # dispatch not in plan
        assert plan.action(2, 0, 1) == "crash"   # attempt 1 < fire_attempts
        assert plan.action(2, 0, 2) is None      # attempts exhausted

    def test_default_plan_is_every_dispatch_once(self):
        plan = ChaosPlan(error_shards=(1,))
        assert plan.action(7, 1, 0) == "error"
        assert plan.action(7, 1, 1) is None

    def test_execute_injected_error_and_corrupt(self):
        with pytest.raises(ChaosError):
            execute_injected("error", 0.0, lambda: {})
        corrupted = execute_injected("corrupt", 0.0, lambda: {"real": 1})
        assert "real" not in corrupted
        (fault,) = corrupted
        assert fault.site == "__chaos_corrupt__"
        assert execute_injected(None, 0.0, lambda: 42) == 42


class TestProcedure2UnderChaos:
    def test_result_byte_identical_and_degradation_attached(
        self, rig, monkeypatch
    ):
        circuit, faults = rig
        config = BistConfig(la=2, lb=4, n=2, n_same_fc=2, max_iterations=3)
        clean = run_procedure2(circuit, config, faults)
        assert clean.degradation is None

        # Three shards per dispatch whatever the host's core count, and
        # shard 0 of dispatches 0 (TS0) and 2 fails once.
        chaos = ChaosPlan(error_shards=(0,), dispatches=(0, 2))
        monkeypatch.setattr(
            procedure2,
            "CandidateEvaluator",
            functools.partial(
                procedure2.CandidateEvaluator, chaos=chaos, shards=3
            ),
        )
        injected = run_procedure2(circuit, config, faults, n_jobs=3)
        assert injected.degradation is not None
        assert [
            (e.dispatch, e.shard, e.kind, e.action)
            for e in injected.degradation.events
        ] == [(0, 0, "error", "retry"), (2, 0, "error", "retry")]
        # The serialized result is execution-independent: no degradation
        # key, and byte-identical to the clean serial run.
        clean_blob = json.dumps(result_to_dict(clean))
        injected_blob = json.dumps(result_to_dict(injected))
        assert "degradation" not in result_to_dict(injected)
        assert injected_blob == clean_blob


class TestDegradationReport:
    def test_report_structure(self):
        report = DegradationReport()
        assert not report.degraded
        assert report.summary() == "no degradation"
        report.record(0, 1, 0, "crash", "retry", "boom")
        report.record(0, 1, 1, "crash", "serial")
        report.pool_respawns = 2
        assert report.degraded
        assert report.counts() == {
            ("crash", "retry"): 1, ("crash", "serial"): 1
        }
        data = report.to_dict()
        assert data["degraded"] and data["pool_respawns"] == 2
        assert data["events"][0] == {
            "dispatch": 0, "shard": 1, "attempt": 0,
            "kind": "crash", "action": "retry", "detail": "boom",
        }
        assert "crash -> serial" in report.render()
        assert "2 pool respawn(s)" in report.summary()

    def test_events_are_immutable(self):
        event = ShardEvent(0, 0, 0, "timeout", "retry")
        with pytest.raises(AttributeError):
            event.kind = "crash"
