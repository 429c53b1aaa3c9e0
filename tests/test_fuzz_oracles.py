"""The metamorphic / differential oracle battery."""

import numpy as np
import pytest

from repro.bench_circuits.s27 import S27_BENCH
from repro.circuit.bench_parser import parse_bench
from repro.faults.fault_sim import FaultSimulator
from repro.fuzz.generator import GeneratorSpace, generate_bench
from repro.fuzz.oracles import (
    OracleOutcome,
    check_bench_roundtrip,
    check_cost_model,
    check_fault_sim,
    check_parse_contract,
    check_scan_invariants,
    check_sim_equivalence,
    check_verilog_roundtrip,
    run_oracles,
    verilog_safe,
)


def rng_for(seed):
    return np.random.Generator(np.random.PCG64(seed))


GOOD = "INPUT(a)\nINPUT(b)\nOUTPUT(x)\nx = AND(a, b)\n"


class TestParseContract:
    def test_clean_parse(self):
        circuit, violation, codes = check_parse_contract(GOOD)
        assert circuit is not None
        assert violation is None
        assert codes == []

    def test_clean_reject(self):
        circuit, violation, codes = check_parse_contract("x = FROB(a)\n")
        assert circuit is None
        assert violation is None
        assert codes  # at least E002

    def test_reject_codes_sorted_unique(self):
        _, _, codes = check_parse_contract(
            "INPUT(a)\nINPUT(a)\nOUTPUT(x)\nx = FROB(ghost)\nx = NOT(a)\n"
        )
        assert codes == sorted(set(codes))


class TestRoundtrips:
    def test_bench_roundtrip_holds(self):
        assert check_bench_roundtrip(parse_bench(S27_BENCH)) is None

    def test_verilog_roundtrip_holds(self):
        assert check_verilog_roundtrip(parse_bench(S27_BENCH)) is None

    def test_verilog_unsafe_names_skip(self):
        c = parse_bench("INPUT(a.1)\nOUTPUT(x)\nx = NOT(a.1)\n")
        assert not verilog_safe(c)
        assert check_verilog_roundtrip(c) is None  # skip, not violation

    def test_clock_named_net_is_unsafe(self):
        c = parse_bench("INPUT(clk)\nOUTPUT(x)\nx = NOT(clk)\n")
        assert not verilog_safe(c)


class TestDifferentialSim:
    def test_s27_equivalence(self):
        assert check_sim_equivalence(parse_bench(S27_BENCH), rng_for(0)) is None

    def test_combinational_equivalence(self):
        assert check_sim_equivalence(parse_bench(GOOD), rng_for(1)) is None


class TestFaultSimOracle:
    @pytest.mark.parametrize("seed", range(3))
    def test_s27_holds(self, seed):
        assert check_fault_sim(parse_bench(S27_BENCH), rng_for(seed)) is None

    def test_generated_netlists_hold(self):
        for seed in range(10):
            text = generate_bench(rng_for(seed), GeneratorSpace(n_gates=(1, 40)))
            assert check_fault_sim(parse_bench(text), rng_for(seed)) is None

    def test_catches_a_dropped_detection(self, monkeypatch):
        grouped = FaultSimulator.simulate_grouped

        def drop_one(self, tests, faults, *args, **kwargs):
            hits = grouped(self, tests, faults, *args, **kwargs)
            hits.pop(next(iter(hits)), None)
            return hits

        monkeypatch.setattr(FaultSimulator, "simulate_grouped", drop_one)
        message = check_fault_sim(parse_bench(S27_BENCH), rng_for(0))
        assert message is not None and "missed" in message

    def test_own_lane_leaves_other_draws_alone(self):
        """The fault-sim oracle never draws from the battery's rng."""
        a, b = rng_for(5), rng_for(5)
        run_oracles(S27_BENCH, a, fault_rng=rng_for(1))
        run_oracles(S27_BENCH, b, fault_rng=rng_for(2))
        assert a.bit_generator.state == b.bit_generator.state


class TestParameterOracles:
    @pytest.mark.parametrize("seed", range(20))
    def test_scan_invariants(self, seed):
        assert check_scan_invariants(rng_for(seed)) is None

    @pytest.mark.parametrize("seed", range(20))
    def test_cost_model(self, seed):
        assert check_cost_model(rng_for(seed)) is None


class TestBattery:
    def test_pass_disposition(self):
        outcome = run_oracles(GOOD, rng_for(0))
        assert outcome.disposition == "pass"
        assert outcome.violations == []

    def test_reject_disposition(self):
        outcome = run_oracles("x = FROB(a)\n", rng_for(0))
        assert outcome.disposition == "reject"
        assert outcome.reject_codes

    def test_outcome_add_filters_none(self):
        o = OracleOutcome()
        o.add("x", None)
        o.add("y", "boom")
        assert o.violations == [("y", "boom")]
        assert o.disposition == "violation"
