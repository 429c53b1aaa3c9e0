"""Tests for PODEM and detectability classification."""

import pytest

from repro.atpg.classify import classify_faults
from repro.atpg.podem import Podem, PodemStatus, eval3, X
from repro.circuit.library import GateType
from repro.circuit.netlist import Circuit
from repro.faults.collapse import collapse_faults
from repro.faults.fault_sim import FaultSimulator, ScanTest
from repro.faults.model import Fault, FaultGraph


class TestEval3:
    def test_and_with_x(self):
        assert eval3(GateType.AND, [0, X]) == 0
        assert eval3(GateType.AND, [1, X]) == X
        assert eval3(GateType.AND, [1, 1]) == 1

    def test_or_with_x(self):
        assert eval3(GateType.OR, [1, X]) == 1
        assert eval3(GateType.OR, [0, X]) == X

    def test_xor_with_x(self):
        assert eval3(GateType.XOR, [1, X]) == X
        assert eval3(GateType.XNOR, [0, 0]) == 1

    def test_not_with_x(self):
        assert eval3(GateType.NOT, [X]) == X
        assert eval3(GateType.NOT, [0]) == 1

    def test_consts(self):
        assert eval3(GateType.CONST0, []) == 0
        assert eval3(GateType.CONST1, []) == 1


def redundant_circuit() -> Circuit:
    """z = OR(a, AND(a, b)) == a: the AND output s-a-0 is undetectable."""
    c = Circuit("red")
    c.add_input("a")
    c.add_input("b")
    c.add_output("z")
    c.add_gate("t", GateType.AND, ["a", "b"])
    c.add_gate("z", GateType.OR, ["a", "t"])
    return c


class TestPodem:
    def test_s27_all_collapsed_faults_detectable(self, s27_graph):
        """The real s27 has no redundant faults -- a literature fact."""
        podem = Podem(s27_graph)
        for fault in collapse_faults(s27_graph.circuit):
            res = podem.run(fault)
            assert res.status is PodemStatus.DETECTED, str(fault)

    def test_found_tests_actually_detect(self, s27_graph):
        """Soundness: every PODEM test must detect its fault when
        fault-simulated as a full-scan single-vector test."""
        podem = Podem(s27_graph)
        sim = FaultSimulator(s27_graph)
        for fault in collapse_faults(s27_graph.circuit):
            res = podem.run(fault)
            test = ScanTest(si=res.si_bits, vectors=[res.pi_bits])
            assert fault in sim.simulate([test], [fault]), str(fault)

    def test_redundant_fault_proved_undetectable(self):
        graph = FaultGraph(redundant_circuit())
        podem = Podem(graph)
        res = podem.run(Fault(site="t", value=0))
        assert res.status is PodemStatus.UNDETECTABLE

    def test_detectable_fault_in_redundant_circuit(self):
        graph = FaultGraph(redundant_circuit())
        podem = Podem(graph)
        res = podem.run(Fault(site="z", value=1))
        assert res.status is PodemStatus.DETECTED

    def test_constant_gate_faults(self):
        c = Circuit("const")
        c.add_input("a")
        c.add_output("y")
        c.add_gate("k", GateType.CONST1, [])
        c.add_gate("y", GateType.AND, ["a", "k"])
        graph = FaultGraph(c)
        podem = Podem(graph)
        # k s-a-1 is undetectable (it IS 1); k s-a-0 is detectable.
        assert podem.run(Fault(site="k", value=1)).status is PodemStatus.UNDETECTABLE
        assert podem.run(Fault(site="k", value=0)).status is PodemStatus.DETECTED

    def test_backtrack_limit_aborts(self, medium_synth):
        graph = FaultGraph(medium_synth)
        podem = Podem(graph, backtrack_limit=0)
        results = [podem.run(f) for f in collapse_faults(medium_synth)[:40]]
        # With zero backtracks allowed, easy faults still work...
        assert any(r.status is PodemStatus.DETECTED for r in results)
        # ...and hard ones abort on their first backtrack.
        aborted = [r for r in results if r.status is PodemStatus.ABORTED]
        assert aborted
        for r in aborted:
            assert r.backtracks == podem.backtrack_limit + 1
            assert r.pi_bits is None and r.si_bits is None
        # A generous limit lets the same search finish, either way.
        patient = Podem(graph)
        for r in aborted:
            assert patient.run(r.fault).status in (
                PodemStatus.DETECTED,
                PodemStatus.UNDETECTABLE,
            )


class TestClassify:
    def test_s27_classification(self, s27):
        cls = classify_faults(s27)
        assert len(cls.detectable) == 32
        assert not cls.undetectable
        assert not cls.aborted

    def test_partition_is_disjoint_and_total(self, tiny_synth):
        faults = collapse_faults(tiny_synth)
        cls = classify_faults(tiny_synth, faults=faults)
        all_out = cls.detectable + cls.undetectable + cls.aborted
        assert sorted(map(str, all_out)) == sorted(map(str, faults))

    def test_undetectable_faults_never_detected(self, tiny_synth):
        """Soundness of redundancy proofs: massive random testing must
        not detect any fault PODEM called undetectable."""
        cls = classify_faults(tiny_synth)
        if not cls.undetectable:
            pytest.skip("this synthetic instance has no redundancy")
        from repro.rpg.prng import make_source

        sim = FaultSimulator(tiny_synth)
        src = make_source(5)
        tests = [
            ScanTest(
                si=src.bits(tiny_synth.num_state_vars),
                vectors=[
                    src.bits(tiny_synth.num_inputs) for _ in range(4)
                ],
            )
            for _ in range(200)
        ]
        hit = sim.simulate_grouped(tests, cls.undetectable)
        assert not hit

    def test_deterministic(self, tiny_synth):
        a = classify_faults(tiny_synth)
        b = classify_faults(tiny_synth)
        assert list(map(str, a.detectable)) == list(map(str, b.detectable))

    def test_zero_random_patterns(self, s27):
        cls = classify_faults(s27, random_patterns=0)
        assert len(cls.detectable) == 32

    def test_summary_format(self, s27):
        text = classify_faults(s27).summary()
        assert "32 detectable" in text
