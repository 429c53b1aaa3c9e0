"""Oracles for PODEM: same decisions as full resimulation, and soundness.

The production engine implies event-driven and cone-restricted; the
reference in ``tests/_podem_reference.py`` re-simulates the whole circuit
on every decision.  Both must make exactly the same search, so every
result -- status, test bits and backtrack count -- must match.  The
exhaustive oracle checks the verdicts themselves against all ``2^k``
full-scan patterns on circuits small enough to enumerate.
"""

import numpy as np
import pytest

from repro.atpg.podem import Podem, PodemStatus
from repro.bench_circuits.catalog import load_circuit
from repro.circuit.bench_parser import parse_bench
from repro.faults.collapse import collapse_faults
from repro.faults.model import FaultGraph
from repro.faults.ppsfp import CombinationalFaultSimulator, pack_patterns
from repro.fuzz.generator import GeneratorSpace, generate_bench
from tests._podem_reference import Podem as ReferencePodem
from tests.test_podem import redundant_circuit

#: The generated netlists both oracles run on: up to 30 gates keeps the
#: reference engine's full resimulation affordable, and at a backtrack
#: limit of 50 a few of their searches still abort.
FUZZ_SEEDS = range(120)
FUZZ_SPACE = GeneratorSpace(n_gates=(1, 30))

#: Largest controllable-input count (PIs + flops) enumerated exhaustively.
MAX_EXHAUSTIVE_INPUTS = 14


def fuzz_circuit(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    return parse_bench(generate_bench(rng, FUZZ_SPACE), name=f"fuzz{seed}")


def outcome(res):
    return (res.status.value, res.pi_bits, res.si_bits, res.backtracks)


def assert_same_decisions(circuit, backtrack_limit):
    """Run both engines on every collapsed fault; return the statuses."""
    graph = FaultGraph(circuit)
    fast = Podem(graph, backtrack_limit=backtrack_limit)
    reference = ReferencePodem(graph, backtrack_limit=backtrack_limit)
    statuses = set()
    for fault in collapse_faults(circuit):
        res = fast.run(fault)
        assert outcome(res) == outcome(reference.run(fault)), (
            f"{circuit.name}: {fault}"
        )
        statuses.add(res.status)
    return statuses


class TestSameDecisions:
    @pytest.mark.parametrize("name", ["s27", "s208", "b06"])
    def test_benchmark_circuit(self, name):
        assert_same_decisions(load_circuit(name), backtrack_limit=5000)

    @pytest.mark.slow
    def test_s298(self):
        assert_same_decisions(load_circuit("s298"), backtrack_limit=5000)

    def test_fuzzed_netlists_with_aborts(self):
        """A low limit makes some searches abort; the abort point (and the
        backtrack count it reports) must match too."""
        statuses = set()
        for seed in FUZZ_SEEDS:
            statuses |= assert_same_decisions(fuzz_circuit(seed), backtrack_limit=50)
        assert statuses == set(PodemStatus)


def all_patterns(n_inputs):
    """Every full-scan pattern over ``n_inputs`` bits, packed."""
    codes = np.arange(1 << n_inputs, dtype=np.uint32)
    bits = (codes[:, None] >> np.arange(n_inputs, dtype=np.uint32)) & 1
    return pack_patterns(bits.astype(np.uint8))


def assert_sound(circuit):
    graph = FaultGraph(circuit)
    podem = Podem(graph)
    sim = CombinationalFaultSimulator(graph)
    faults = collapse_faults(circuit)
    results = [podem.run(f) for f in faults]
    assert all(r.status is not PodemStatus.ABORTED for r in results)

    words = all_patterns(sim.num_inputs)
    n_patterns = 1 << sim.num_inputs
    valid = np.full(words.shape[1], np.uint64(0xFFFFFFFFFFFFFFFF))
    if n_patterns % 64:
        valid[-1] = np.uint64((1 << n_patterns) - 1)
    undetectable = [r.fault for r in results if r.status is PodemStatus.UNDETECTABLE]
    hit = sim.detected(words, undetectable, valid_mask=valid)
    assert not hit, f"{circuit.name}: proved redundant but detected: {hit}"

    one = np.array([1], dtype=np.uint64)
    for r in results:
        if r.status is PodemStatus.DETECTED:
            test = pack_patterns(np.array([r.pi_bits + r.si_bits], dtype=np.uint8))
            assert sim.detected(test, [r.fault], valid_mask=one), (
                f"{circuit.name}: PODEM test misses {r.fault}"
            )
    return results


class TestExhaustiveSoundness:
    def test_s27(self, s27):
        assert_sound(s27)

    def test_redundant_circuit(self):
        results = assert_sound(redundant_circuit())
        assert any(r.status is PodemStatus.UNDETECTABLE for r in results)

    def test_fuzzed_netlists(self):
        checked = redundant = 0
        for seed in FUZZ_SEEDS:
            circuit = fuzz_circuit(seed)
            if circuit.num_inputs + circuit.num_state_vars > MAX_EXHAUSTIVE_INPUTS:
                continue
            results = assert_sound(circuit)
            checked += 1
            redundant += any(r.status is PodemStatus.UNDETECTABLE for r in results)
        # The sample must actually exercise redundancy proofs.
        assert checked >= 50 and redundant >= 10
