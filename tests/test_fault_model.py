"""Tests for the fault universe and the fault graph mapping."""

import pytest

from repro.circuit.library import GateType
from repro.circuit.netlist import Circuit
from repro.faults.model import Fault, FaultGraph, fault_key, generate_faults


class TestGenerateFaults:
    def test_two_faults_per_line(self, s27):
        faults = generate_faults(s27)
        stems = [f for f in faults if not f.is_branch]
        branches = [f for f in faults if f.is_branch]
        assert len(stems) == 2 * len(s27.signals())
        assert len(branches) % 2 == 0
        assert len(set(faults)) == len(faults)  # no duplicates

    def test_s27_universe_size(self, s27):
        # 17 nets -> 34 stem faults; fanout stems G8(2), G11(3), G12(2),
        # G14(2) -> 9 branches -> 18 branch faults. Total 52.
        faults = generate_faults(s27)
        assert len(faults) == 52

    def test_branch_faults_only_on_fanout(self, s27):
        faults = generate_faults(s27)
        branch_sites = {f.site for f in faults if f.is_branch}
        assert branch_sites == {"G8", "G11", "G12", "G14"}

    def test_po_tap_creates_branch(self):
        c = Circuit()
        c.add_input("a")
        c.add_output("t")
        c.add_gate("t", GateType.NOT, ["a"])
        c.add_gate("y", GateType.BUF, ["t"])
        c.add_output("y")
        faults = generate_faults(c)
        assert any(f.is_branch and f.site == "t" for f in faults)

    def test_fault_str(self):
        assert str(Fault(site="G8", value=1)) == "G8 s-a-1"
        f = Fault(site="G8", value=0, consumer="G15", pin=1)
        assert "G8->G15.1 s-a-0" == str(f)

    def test_fault_key_total_order(self, s27):
        faults = generate_faults(s27)
        ordered = sorted(faults, key=fault_key)
        assert len(ordered) == len(faults)


class TestFaultGraph:
    def test_every_fault_maps_to_a_net(self, s27):
        graph = FaultGraph(s27)
        for fault in generate_faults(s27):
            sig = graph.signal_of(fault)
            assert 0 <= sig < graph.model.n_signals

    def test_stem_maps_to_itself(self, s27):
        graph = FaultGraph(s27)
        f = Fault(site="G8", value=0)
        assert graph.net_of(f) == "G8"

    def test_branch_maps_to_buffer(self, s27):
        graph = FaultGraph(s27)
        branch = next(
            f for f in generate_faults(s27) if f.is_branch and f.site == "G11"
        )
        net = graph.net_of(branch)
        assert net.startswith("G11$b")

    def test_distinct_branches_map_to_distinct_nets(self, s27):
        graph = FaultGraph(s27)
        branches = [
            f for f in generate_faults(s27) if f.is_branch and f.value == 0
        ]
        nets = [graph.net_of(f) for f in branches]
        assert len(set(nets)) == len(nets)

    def test_wide_gate_pins_map_through_decomposition(self):
        c = Circuit()
        for n in "abcd":
            c.add_input(n)
        c.add_output("y")
        c.add_gate("t", GateType.BUF, ["a"])  # make 'a' fan out
        c.add_gate("y", GateType.NAND, ["a", "b", "c", "d"])
        graph = FaultGraph(c)
        pin_fault = Fault(site="a", value=1, consumer="y", pin=0)
        net = graph.net_of(pin_fault)
        # The branch buffer reads the stem 'a'.
        gate = graph.sim_circuit.gate_for(net)
        assert gate.inputs == ("a",)
