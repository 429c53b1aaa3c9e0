"""The parallel fault-simulation layer.

Covers the sharding helpers, equivalence of the persistent pool's
fault shards with the serial simulator, the n_jobs=1-vs-4 determinism
regression on Procedure 2 (byte-identical serialized results), and the
pool's publish-once pickling discipline.
"""

import dataclasses
import json

import pytest

from repro.bench_circuits.synthetic import SyntheticSpec, synthesize
from repro.core.config import BistConfig
from repro.core.limited_scan import build_limited_scan_test_set
from repro.core.procedure2 import run_procedure2
from repro.core.test_set import generate_ts0
from repro.experiments.serialize import result_to_dict
from repro.faults.collapse import collapse_faults
from repro.faults.fault_sim import FaultSimulator, ObservationPolicy
from repro.faults.pool import CandidateEvaluator
from repro.faults.sharding import resolve_n_jobs, shard_faults
from repro.simulation.compiled import shard_word_ranges


class TestShardHelpers:
    def test_word_ranges_cover_and_balance(self):
        ranges = shard_word_ranges(10, 3)
        assert ranges == [(0, 4), (4, 7), (7, 10)]
        assert shard_word_ranges(2, 5) == [(0, 1), (1, 2)]
        assert shard_word_ranges(0, 4) == []
        assert shard_word_ranges(7, 1) == [(0, 7)]

    def test_word_ranges_validate(self):
        with pytest.raises(ValueError):
            shard_word_ranges(-1, 2)
        with pytest.raises(ValueError):
            shard_word_ranges(4, 0)

    def test_shard_faults_word_aligned(self, s27):
        faults = collapse_faults(s27) * 5  # 160 faults -> 3 words
        shards = shard_faults(faults, 2)
        assert [f for s in shards for f in s] == list(faults)
        assert all(len(s) % 64 == 0 for s in shards[:-1])

    def test_shard_faults_fewer_than_requested(self, s27):
        faults = collapse_faults(s27)  # 32 faults = one word
        assert len(shard_faults(faults, 8)) == 1

    def test_resolve_n_jobs(self):
        assert resolve_n_jobs(None) == 1
        assert resolve_n_jobs(1) == 1
        assert resolve_n_jobs(3) == 3
        assert resolve_n_jobs(-1) >= 1
        with pytest.raises(ValueError):
            resolve_n_jobs(0)
        with pytest.raises(ValueError):
            resolve_n_jobs(-2)

    def test_config_validates_n_jobs(self):
        assert BistConfig(n_jobs=4).n_jobs == 4
        assert BistConfig(n_jobs=-1).n_jobs == -1
        with pytest.raises(ValueError):
            BistConfig(n_jobs=0)

    def test_with_lengths_keeps_n_jobs(self):
        cfg = BistConfig(n_jobs=4).with_lengths(8, 32, 16)
        assert cfg.n_jobs == 4


def serial_and_evaluated(circuit, specs, n_jobs, policy=None):
    """Each candidate's detections from serial ``simulate_grouped`` and
    from a :class:`CandidateEvaluator`, plus whether it started a pool."""
    cfg = BistConfig(la=4, lb=8, n=8)
    sim = FaultSimulator(circuit)
    faults = collapse_faults(circuit)
    ts0 = generate_ts0(circuit, cfg)
    n_sv = circuit.num_state_vars
    serial = []
    for it, d1 in specs:
        tests = (
            ts0 if d1 is None
            else build_limited_scan_test_set(ts0, it, d1, cfg, n_sv)
        )
        serial.append(list(sim.simulate_grouped(tests, faults, policy).items()))
    with CandidateEvaluator(
        sim, ts0, cfg, n_sv, policy, n_jobs=n_jobs, targets=faults,
        circuit_name=circuit.name,
    ) as ev:
        tables = ev.evaluate_specs(specs, faults)
        evaluated = [list(t.hits_for(faults).items()) for t in tables]
        return serial, evaluated, ev._pool is not None


class TestShardedEquivalence:
    """Candidate evaluation reproduces the serial records, contents and
    first-detection order; the rest of the grid is in
    ``tests/test_differential_sim.py``."""

    def test_restricted_policy(self, s27):
        policy = ObservationPolicy(limited_scan_out=False)
        serial, pooled, used_pool = serial_and_evaluated(
            s27, [(1, 1), (2, 3)], n_jobs=2, policy=policy
        )
        assert used_pool
        assert pooled == serial

    def test_n_jobs_1_bypasses_pool(self, s27):
        serial, evaluated, used_pool = serial_and_evaluated(
            s27, [(0, None), (1, 1)], n_jobs=1
        )
        assert not used_pool
        assert evaluated == serial


class TestProcedure2Determinism:
    """Same seed => byte-identical serialized results for n_jobs 1 vs 4."""

    CFG = BistConfig(la=4, lb=8, n=16, n_same_fc=2, max_iterations=6)

    def _serialized(self, circuit, cfg):
        result = run_procedure2(circuit, cfg, collapse_faults(circuit))
        return json.dumps(result_to_dict(result), sort_keys=True)

    def test_s27_byte_identical(self, s27):
        serial = self._serialized(s27, self.CFG)
        parallel = self._serialized(
            s27, dataclasses.replace(self.CFG, n_jobs=4)
        )
        assert parallel == serial

    def test_synthetic_byte_identical(self):
        circuit = synthesize(
            SyntheticSpec(name="det", n_pi=5, n_po=2, n_ff=5, n_gates=40, seed=23)
        )
        serial = self._serialized(circuit, self.CFG)
        parallel = self._serialized(
            circuit, dataclasses.replace(self.CFG, n_jobs=4)
        )
        assert parallel == serial

    def test_explicit_n_jobs_argument_wins(self, s27):
        # The n_jobs parameter overrides config.n_jobs; forcing the
        # config-parallel run serial still matches the baseline byte for
        # byte (n_jobs is not serialized).
        cfg = dataclasses.replace(self.CFG, n_jobs=4)
        faults = collapse_faults(s27)
        forced_serial = run_procedure2(s27, cfg, faults, n_jobs=1)
        baseline = run_procedure2(s27, self.CFG, faults)
        assert json.dumps(result_to_dict(forced_serial)) == json.dumps(
            result_to_dict(baseline)
        )


class TestPicklingDiscipline:
    def test_persistent_pool_publishes_once(self, s27):
        """The pool evaluator's session state is serialized exactly once
        (at segment publication), regardless of dispatch count."""
        import pickle as _pickle

        from repro.core.limited_scan import build_limited_scan_test_set
        from repro.faults.pool import CandidateEvaluator

        cfg = BistConfig(la=4, lb=8, n=8, n_jobs=2, candidate_batch=4)
        sim = FaultSimulator(s27)
        faults = collapse_faults(s27)
        ts0 = generate_ts0(s27, cfg)
        counts = {"n": 0}
        real_dumps = _pickle.dumps

        def counting_dumps(obj, *a, **k):
            if isinstance(obj, dict) and "simulator" in obj:
                counts["n"] += 1
            return real_dumps(obj, *a, **k)

        ev = CandidateEvaluator(
            sim, ts0, cfg, s27.num_state_vars, None,
            n_jobs=2, targets=faults, circuit_name=s27.name,
        )
        specs = [(1, d1) for d1 in cfg.d1_values[:4]]
        from repro.faults import pool as pool_mod
        original = pool_mod.pickle.dumps
        pool_mod.pickle.dumps = counting_dumps
        try:
            with ev:
                ev.evaluate_specs(specs, faults)
                ev.evaluate_specs([(2, d1) for d1 in cfg.d1_values[:4]],
                                  faults)
        finally:
            pool_mod.pickle.dumps = original
        assert counts["n"] <= 1
