"""Metamorphic and differential oracles run on every fuzz case.

Each oracle returns a violation message (``str``) or ``None``.  An
oracle must only *raise* when the code under test raises something it
should not -- that is what the runner records as a **crash** and
fingerprints for triage.  The contract each oracle enforces:

- ``parse-contract``: ``parse_bench`` either raises
  :class:`BenchParseError` or returns a circuit with zero
  ERROR-severity structural lint findings.  Any other exception, or an
  accepted-but-broken circuit, is a violation.
- ``bench-roundtrip``: ``parse(write(c))`` is structurally identical to
  ``c`` (scan order included) and ``write`` is a fixpoint:
  ``write(parse(write(c))) == write(c)`` byte for byte.
- ``verilog-roundtrip``: same through the Verilog writer/reader, for
  circuits whose net names survive Verilog (identifier-safe, no clock
  collisions).
- ``sim-equivalence``: the compiled bit-parallel engine and the
  event-driven engine (no shared evaluation code) agree on POs and
  next-state for random vectors.
- ``fault-sim``: the parallel-fault simulator's ``simulate_grouped``
  detects exactly the sampled faults whose single-fault machine
  (``simulate_test`` with whole-word injections) differs from the
  fault-free one at a primary output, a shifted-out bit or the final
  state, on random tests that include a limited-scan schedule.
- ``scan-invariants``: ``limited_shift`` identity/composition laws.
- ``cost-model``: the paper's ``Ncyc`` formulas are non-negative,
  monotone, and self-consistent.
"""

from __future__ import annotations

import re
import zlib
from typing import List, Optional, Tuple

import numpy as np

from repro.analysis import lint_structural
from repro.circuit.bench_parser import BenchParseError, parse_bench, write_bench
from repro.circuit.netlist import Circuit
from repro.circuit.verilog import parse_verilog, write_verilog
from repro.core.cost import ncyc0, ncyc0_scaled, ncyc_pair, total_cycles
from repro.faults.fault_sim import FaultSimulator, ScanTest
from repro.faults.model import FaultGraph, generate_faults
from repro.simulation.compiled import CompiledModel, Injections
from repro.simulation.event_sim import EventSimulator
from repro.simulation.scan import limited_shift
from repro.simulation.sequential import simulate_test

#: Names that can survive a Verilog round-trip unchanged.
_VERILOG_ID_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_$]*$")
_VERILOG_RESERVED = {
    "module", "endmodule", "input", "output", "wire", "reg", "assign",
    "and", "nand", "or", "nor", "xor", "xnor", "not", "buf", "dff",
    "clk", "clock", "CK", "CLK",
}

#: Cap on gate count for the simulation oracle; fuzz circuits are small,
#: this only guards against pathological generated/mutated blowups.
_SIM_GATE_CAP = 4000

#: The fault-simulation oracle re-simulates every sampled fault alone,
#: so it keeps to small circuits and at most one 64-fault word.
_FAULT_SIM_GATE_CAP = 120
_FAULT_SIM_MAX_FAULTS = 64


class OracleOutcome:
    """Disposition of one case: parse result plus any violations."""

    def __init__(self) -> None:
        self.parsed: Optional[Circuit] = None
        self.reject_codes: List[str] = []
        self.violations: List[Tuple[str, str]] = []  # (oracle, message)

    @property
    def disposition(self) -> str:
        """``pass`` | ``reject`` | ``violation`` (crashes never get here)."""
        if self.violations:
            return "violation"
        return "pass" if self.parsed is not None else "reject"

    def add(self, oracle: str, message: Optional[str]) -> None:
        if message is not None:
            self.violations.append((oracle, message))


# ---------------------------------------------------------------------------
# Parse contract
# ---------------------------------------------------------------------------

def check_parse_contract(text: str) -> Tuple[Optional[Circuit], Optional[str], List[str]]:
    """Returns ``(circuit, violation, reject_codes)``.

    A :class:`BenchParseError` is a clean reject; any other exception
    propagates to the runner as a crash.  An accepted circuit must be
    free of ERROR-severity structural lint findings.
    """
    try:
        circuit = parse_bench(text, name="fuzz")
    except BenchParseError as exc:
        return None, None, sorted(set(exc.codes))
    report = lint_structural(circuit)
    if report.errors:
        msgs = "; ".join(i.message for i in report.errors)
        return circuit, (
            f"parser accepted a circuit with structural lint errors: {msgs}"
        ), []
    return circuit, None, []


# ---------------------------------------------------------------------------
# Round-trip oracles
# ---------------------------------------------------------------------------

def check_bench_roundtrip(circuit: Circuit) -> Optional[str]:
    text = write_bench(circuit)
    try:
        back = parse_bench(text, name=circuit.name)
    except BenchParseError as exc:
        return f"write_bench produced unparseable text: {exc}"
    if not circuit.structurally_equal(back):
        return "parse(write(c)) differs structurally from c"
    if write_bench(back) != text:
        return "write_bench is not a fixpoint: write(parse(write(c))) != write(c)"
    return None


def verilog_safe(circuit: Circuit) -> bool:
    """True if every net name survives the Verilog dialect unchanged."""
    names = set(circuit.signals()) | set(circuit.outputs)
    return all(
        _VERILOG_ID_RE.match(n) and n not in _VERILOG_RESERVED for n in names
    )


def check_verilog_roundtrip(circuit: Circuit) -> Optional[str]:
    """Round-trip through Verilog; ``None`` (skip) for unsafe names."""
    if not verilog_safe(circuit):
        return None
    text = write_verilog(circuit)
    try:
        back = parse_verilog(text)
    except ValueError as exc:
        return f"write_verilog produced unparseable text: {exc}"
    if not circuit.structurally_equal(back):
        return "parse_verilog(write_verilog(c)) differs structurally from c"
    return None


# ---------------------------------------------------------------------------
# Differential simulation
# ---------------------------------------------------------------------------

def check_sim_equivalence(
    circuit: Circuit, rng: np.random.Generator, n_vectors: int = 4
) -> Optional[str]:
    """Compiled vs event-driven simulation on random vectors.

    Only meaningful for lint-clean circuits (the caller guarantees
    that); compares primary outputs and next-state bits.
    """
    if circuit.num_gates == 0 or circuit.num_gates > _SIM_GATE_CAP:
        return None
    model = CompiledModel(circuit)
    event = EventSimulator(circuit)
    for v in range(n_vectors):
        pi_bits = [int(b) for b in rng.integers(0, 2, circuit.num_inputs)]
        st_bits = [int(b) for b in rng.integers(0, 2, circuit.num_state_vars)]
        vals = model.alloc(1)
        model.set_inputs_from_bits(vals, pi_bits)
        if len(model.q_idx):
            column = np.where(
                np.asarray(st_bits, dtype=bool),
                np.uint64(0xFFFFFFFFFFFFFFFF),
                np.uint64(0),
            ).astype(np.uint64)
            vals[model.q_idx, 0] = column
        model.eval(vals)
        po_c = [1 if int(vals[i, 0]) else 0 for i in model.po_idx]
        ns_c = [1 if int(vals[i, 0]) else 0 for i in model.d_idx]

        event.initialize(pi_bits, st_bits)
        po_e = event.output_bits()
        ns_e = event.next_state_bits()
        if po_c != po_e or ns_c != ns_e:
            return (
                f"compiled and event-driven simulators disagree on vector "
                f"{v}: PO {po_c} vs {po_e}, next-state {ns_c} vs {ns_e}"
            )
    return None


def _random_tests(
    rng: np.random.Generator, n_sv: int, n_pi: int
) -> List[ScanTest]:
    """2-3 random tests of 1-3 vectors; the first has a limited scan at
    every time unit after the first (shift 0 to ``n_sv``)."""
    tests = []
    for i in range(int(rng.integers(2, 4))):
        length = int(rng.integers(1, 4))
        schedule = None
        if i == 0:
            schedule = [(0, ())]
            for _ in range(1, length):
                k = int(rng.integers(0, n_sv + 1))
                schedule.append((k, tuple(int(b) for b in rng.integers(0, 2, k))))
        tests.append(
            ScanTest(
                si=[int(b) for b in rng.integers(0, 2, n_sv)],
                vectors=[
                    [int(b) for b in rng.integers(0, 2, n_pi)]
                    for _ in range(length)
                ],
                schedule=schedule,
            )
        )
    return tests


def check_fault_sim(circuit: Circuit, rng: np.random.Generator) -> Optional[str]:
    """Parallel-fault ``simulate_grouped`` vs single-fault re-simulation.

    Samples at most 64 faults of the uncollapsed universe; a fault must
    be reported detected iff its faulty machine differs from the
    fault-free machine on some test (POs, shifted-out bits, final state).
    """
    if circuit.num_gates == 0 or circuit.num_gates > _FAULT_SIM_GATE_CAP:
        return None
    graph = FaultGraph(circuit)
    model = graph.model
    universe = generate_faults(circuit)
    n_faults = min(_FAULT_SIM_MAX_FAULTS, len(universe))
    picks = np.sort(rng.choice(len(universe), size=n_faults, replace=False))
    faults = [universe[int(i)] for i in picks]
    tests = _random_tests(rng, len(model.q_idx), len(model.pi_idx))

    got = set(FaultSimulator(graph).simulate_grouped(tests, faults))

    def observed(trace):
        return trace.outputs, trace.scanout, trace.states[-1]

    good = [
        observed(simulate_test(model, t.si, t.vectors, schedule=t.schedule))
        for t in tests
    ]
    for fault in faults:
        inj = Injections.build_whole_word(
            [(graph.signal_of(fault), 0, fault.value)], model.level_of_signal
        )
        expected = any(
            observed(
                simulate_test(
                    model, t.si, t.vectors, schedule=t.schedule, injections=inj
                )
            )
            != ref
            for t, ref in zip(tests, good)
        )
        if (fault in got) != expected:
            return (
                f"simulate_grouped {'missed' if expected else 'invented'} "
                f"a detection of {fault}; single-fault re-simulation "
                f"{'detects' if expected else 'does not detect'} it"
            )
    return None


# ---------------------------------------------------------------------------
# Scan and cost-model invariants
# ---------------------------------------------------------------------------

def check_scan_invariants(rng: np.random.Generator) -> Optional[str]:
    """``limited_shift`` identity and composition laws on random state."""
    n_sv = int(rng.integers(1, 12))
    state = rng.integers(0, 2**63, size=(n_sv, 2), dtype=np.uint64)
    # Identity: k = 0 changes nothing and observes nothing.
    out0, obs0 = limited_shift(state, 0, [])
    if not np.array_equal(out0, state) or obs0.shape[0] != 0:
        return "limited_shift(k=0) is not the identity"
    # Composition: k1 then k2 equals one shift of k1 + k2.
    k1 = int(rng.integers(0, n_sv + 1))
    k2 = int(rng.integers(0, n_sv + 1 - k1))
    fill = [int(b) for b in rng.integers(0, 2, k1 + k2)]
    s1, o1 = limited_shift(state, k1, fill[:k1])
    s2, o2 = limited_shift(s1, k2, fill[k1:])
    s12, o12 = limited_shift(state, k1 + k2, fill)
    if not np.array_equal(s2, s12):
        return f"limited_shift composition broke states (k1={k1}, k2={k2})"
    if not np.array_equal(np.vstack([o1, o2]), o12):
        return f"limited_shift composition broke observations (k1={k1}, k2={k2})"
    return None


def check_cost_model(rng: np.random.Generator) -> Optional[str]:
    """Non-negativity, monotonicity, and consistency of the Ncyc model."""
    n_sv = int(rng.integers(0, 200))
    la = int(rng.integers(0, 64))
    lb = int(rng.integers(0, 64))
    n = int(rng.integers(0, 512))
    base = ncyc0(n_sv, la, lb, n)
    if base < 0:
        return f"ncyc0({n_sv}, {la}, {lb}, {n}) = {base} < 0"
    for delta, args in (
        ("n_sv", (n_sv + 1, la, lb, n)),
        ("la", (n_sv, la + 1, lb, n)),
        ("lb", (n_sv, la, lb + 1, n)),
        ("n", (n_sv, la, lb, n + 1)),
    ):
        if ncyc0(*args) < base:
            return f"ncyc0 not monotone in {delta}"
    if ncyc0_scaled(n_sv, la, lb, n, 1.0) != base:
        return "ncyc0_scaled(ratio=1) != ncyc0"
    nshs = [int(x) for x in rng.integers(0, 1000, size=int(rng.integers(0, 5)))]
    expected = base + sum(ncyc_pair(base, s) for s in nshs)
    if total_cycles(base, nshs) != expected:
        return "total_cycles inconsistent with ncyc_pair sum"
    for s in nshs:
        if ncyc_pair(base, s) < base:
            return "ncyc_pair below ncyc0"
    return None


# ---------------------------------------------------------------------------
# Battery
# ---------------------------------------------------------------------------

def run_oracles(
    text: str,
    rng: np.random.Generator,
    fault_rng: Optional[np.random.Generator] = None,
) -> OracleOutcome:
    """Run the full oracle battery on one ``.bench`` source.

    Order matters: the parse contract decides whether the structural
    oracles apply; the parameter-space oracles (scan, cost model) run on
    every case so they keep fuzzing even when most inputs are rejects.

    The fault-simulation oracle draws from ``fault_rng``, its own lane,
    so the other oracles' draws from ``rng`` do not depend on it; by
    default the lane is seeded from the case text.
    """
    if fault_rng is None:
        fault_rng = np.random.Generator(
            np.random.PCG64(zlib.crc32(text.encode("utf-8", "replace")))
        )
    outcome = OracleOutcome()
    circuit, violation, codes = check_parse_contract(text)
    outcome.parsed = circuit if violation is None else None
    outcome.reject_codes = codes
    outcome.add("parse-contract", violation)
    if circuit is not None and violation is None:
        outcome.add("bench-roundtrip", check_bench_roundtrip(circuit))
        outcome.add("verilog-roundtrip", check_verilog_roundtrip(circuit))
        outcome.add("sim-equivalence", check_sim_equivalence(circuit, rng))
        outcome.add("fault-sim", check_fault_sim(circuit, fault_rng))
    outcome.add("scan-invariants", check_scan_invariants(rng))
    outcome.add("cost-model", check_cost_model(rng))
    return outcome
