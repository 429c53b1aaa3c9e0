"""Byte-identity of the folded fault-simulation kernel.

``simulate`` and ``simulate_grouped`` now run the candidate-batch kernel
with the fault-free machine riding as slot ``G``; the reference in
``tests/_fault_sim_reference.py`` keeps the separate fault-free passes
and the dict-merge injection build they replaced.  Results must pickle
to the same bytes: same records, same dict insertion order.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bench_circuits.catalog import load_circuit
from repro.circuit.bench_parser import parse_bench
from repro.faults.collapse import collapse_faults
from repro.faults.fault_sim import FaultSimulator, ObservationPolicy, ScanTest
from repro.faults.model import FaultGraph
from repro.fuzz.generator import GeneratorSpace, generate_bench
from repro.rpg.prng import make_source
from repro.simulation.compiled import Injections
from tests._fault_sim_reference import ReferenceFaultSimulator, build_injections

FUZZ_SEEDS = range(60)
FUZZ_SPACE = GeneratorSpace(n_gates=(1, 40))


def shaped_tests(n_sv, n_pi, n_tests, length, src, limited=True):
    """Tests sharing one schedule (Procedure 1's shape), with limited
    scans at about a third of the time units when ``limited``."""
    schedule = [(0, ())]
    for _u in range(1, length):
        if limited and src.mod_draw(3) == 0:
            k = src.mod_draw(n_sv + 1)
            schedule.append((k, tuple(src.bits(k))))
        else:
            schedule.append((0, ()))
    return [
        ScanTest(
            si=src.bits(n_sv),
            vectors=[src.bits(n_pi) for _ in range(length)],
            schedule=[(k, tuple(f)) for k, f in schedule],
        )
        for _ in range(n_tests)
    ]


def mixed_tests(n_sv, n_pi, seed):
    """Two limited-scan shapes and one without schedule, interleaved."""
    src = make_source(seed)
    a = shaped_tests(n_sv, n_pi, 6, 4, src)
    b = shaped_tests(n_sv, n_pi, 5, 7, src)
    c = shaped_tests(n_sv, n_pi, 3, 3, src, limited=False)
    for t in c:
        t.schedule = None
    return [t for trio in zip(a, b, c) for t in trio] + a[3:] + b[3:]


POLICIES = [
    ObservationPolicy(),
    ObservationPolicy(primary_outputs=False),
    ObservationPolicy(limited_scan_out=False),
    ObservationPolicy(final_scan_out=False),
]


def policies_for(n_sv):
    taps = [0, n_sv - 1] if n_sv else []
    return POLICIES + [ObservationPolicy(state_taps=taps)]


def assert_identical(
    circuit, chain=None, max_cols=(4096, 16), seed=7, policies=None
):
    graph = FaultGraph(circuit)
    fast = FaultSimulator(graph, chain=chain)
    ref = ReferenceFaultSimulator(graph, chain=chain)
    faults = collapse_faults(circuit)
    tests = mixed_tests(fast.chain_length, len(fast.model.pi_idx), seed)
    detected = 0
    for policy in policies or policies_for(circuit.num_state_vars):
        got = fast.simulate(tests, faults, policy)
        assert pickle.dumps(got) == pickle.dumps(
            ref.simulate(tests, faults, policy)
        ), f"{circuit.name}: simulate under {policy}"
        for cols in max_cols:
            got_g = fast.simulate_grouped(tests, faults, policy, max_cols=cols)
            assert pickle.dumps(got_g) == pickle.dumps(
                ref.simulate_grouped(tests, faults, policy, max_cols=cols)
            ), f"{circuit.name}: simulate_grouped(max_cols={cols}) under {policy}"
        detected += len(got)
    return detected


class TestBenchmarkCircuits:
    @pytest.mark.parametrize("name", ["s27", "s208", "s298", "b06"])
    def test_full_scan(self, name):
        assert assert_identical(load_circuit(name)) > 0

    @pytest.mark.parametrize("name", ["s27", "s208", "s298"])
    def test_partial_scan(self, name):
        circuit = load_circuit(name)
        n_sv = circuit.num_state_vars
        # Every other flop, in reverse scan order.
        chain = list(range(n_sv))[::-2]
        assert assert_identical(circuit, chain=chain) > 0

    def test_small_max_cols_forces_several_chunks(self):
        circuit = load_circuit("s298")
        n_groups = (len(collapse_faults(circuit)) + 63) // 64
        # max_cols 16 gives chunks of at most 16 // n_groups tests, far
        # fewer than each shape's 6 or 5 tests.
        assert 16 // n_groups < 5
        assert_identical(circuit, max_cols=(16, 1, 64))


def fuzz_circuit(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    return parse_bench(generate_bench(rng, FUZZ_SPACE), name=f"fuzz{seed}")


def test_generated_netlists():
    """Every netlist under the default policy and one other, in turn;
    netlists with two or more flops also under a partial-scan chain."""
    with_flops = 0
    for seed in FUZZ_SEEDS:
        circuit = fuzz_circuit(seed)
        variants = policies_for(circuit.num_state_vars)
        policies = [variants[0], variants[1 + seed % (len(variants) - 1)]]
        assert_identical(circuit, max_cols=(4096, 2), seed=seed, policies=policies)
        if circuit.num_state_vars >= 2:
            assert_identical(
                circuit,
                chain=[circuit.num_state_vars - 1, 0],
                max_cols=(4096,),
                seed=seed,
                policies=policies[:1],
            )
            with_flops += 1
    assert with_flops >= 25


# ----------------------------------------------------------------------
# The array-built masks equal the dict merge.
# ----------------------------------------------------------------------
def as_table(inj):
    """``{(level, sig, word): (and, or)}``: the masks, order-free."""
    table = {}
    for lvl, (sigs, words, ands, ors) in inj.per_level.items():
        assert len(set(zip(sigs.tolist(), words.tolist()))) == len(sigs)
        for s, w, a, o in zip(sigs, words, ands, ors):
            table[(lvl, int(s), int(w))] = (int(a), int(o))
    return table


entries_strategy = st.lists(
    st.tuples(
        st.integers(0, 5),  # signal: few, so (sig, word) pairs collide
        st.integers(0, 3),  # word
        st.integers(0, 63),  # bit
        st.integers(0, 1),  # stuck value
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(entries=entries_strategy, levels=st.lists(st.integers(0, 4), min_size=6, max_size=6))
def test_array_build_equals_dict_merge(entries, levels):
    expected = as_table(build_injections(entries, levels))
    assert as_table(Injections.build(entries, levels)) == expected
    cols = np.array(entries, dtype=np.int64).reshape(-1, 4).T
    assert as_table(Injections.from_arrays(*cols, levels)) == expected


@settings(max_examples=100, deadline=None)
@given(
    entries=entries_strategy,
    levels=st.lists(st.integers(0, 4), min_size=6, max_size=6),
    n_blocks=st.integers(1, 4),
    extra=st.integers(0, 3),
)
def test_tiled_build_equals_dict_merge(entries, levels, n_blocks, extra):
    """Tiling over blocks equals merging every block's entries."""
    stride = 4 + extra  # words are 0..3
    tiled = [
        (s, w + b * stride, bit, v)
        for b in range(n_blocks)
        for s, w, bit, v in entries
    ]
    cols = np.array(entries, dtype=np.int64).reshape(-1, 4).T
    got = Injections.from_arrays(*cols, levels, n_blocks=n_blocks, stride=stride)
    assert as_table(got) == as_table(build_injections(tiled, levels))


def test_sa0_and_sa1_on_one_bit_merge_like_the_dict():
    entries = [(2, 0, 5, 0), (2, 0, 5, 1), (2, 0, 9, 0), (2, 1, 5, 0)]
    got = as_table(Injections.build(entries, [0, 0, 3]))
    assert got == as_table(build_injections(entries, [0, 0, 3]))
    ones = (1 << 64) - 1
    assert got[(3, 2, 0)] == (ones & ~((1 << 5) | (1 << 9)), 1 << 5)
