"""Reference PODEM: the full-resimulation engine, kept as a test oracle.

This is a verbatim copy of ``repro.atpg.podem`` before implication became
event-driven and cone-restricted: every decision re-runs a full
three-valued forward simulation of the good and faulty machines over the
whole circuit.  It is deliberately slow and deliberately frozen -- the
equivalence tests assert that the production engine returns identical
``(status, pi_bits, si_bits, backtracks)`` on every fault, which pins the
search (objective, backtrace, decision stack, backtrack count) and not
just the verdicts.  It is not part of the package; do not import it from
``src/``.

Original module docstring follows.

PODEM test generation over the full-scan combinational expansion.

A textbook PODEM: decisions are made only on the controllable inputs
(primary inputs and flop outputs), each decision is followed by a full
three-valued forward simulation of the good and faulty machines, and the
search backtracks on (a) failure to activate the fault, (b) an empty
D-frontier with the fault activated, or (c) no X-path from the D-frontier
to an observation point.  The search is complete: if it exhausts the
decision tree without hitting the backtrack limit, the fault is proved
undetectable (redundant under full scan).

Values are three-valued per machine: 0, 1, X (encoded 0/1/2).  A signal
carries a fault effect when both machines are definite and differ.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.circuit.levelize import levelize
from repro.circuit.library import GateType
from repro.faults.model import Fault, FaultGraph

X = 2  # the unknown value


def _and3(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    if a == 1 and b == 1:
        return 1
    return X


def _or3(a: int, b: int) -> int:
    if a == 1 or b == 1:
        return 1
    if a == 0 and b == 0:
        return 0
    return X


def _xor3(a: int, b: int) -> int:
    if a == X or b == X:
        return X
    return a ^ b


def _not3(a: int) -> int:
    return a if a == X else a ^ 1


def eval3(gtype: GateType, ins: Sequence[int]) -> int:
    """Three-valued gate evaluation (arity 0..2)."""
    base = gtype.base
    if base is GateType.CONST0:
        out = 0
    elif base is GateType.CONST1:
        out = 1
    elif base is GateType.BUF:
        out = ins[0]
    elif base is GateType.AND:
        out = _and3(ins[0], ins[1])
    elif base is GateType.OR:
        out = _or3(ins[0], ins[1])
    else:
        out = _xor3(ins[0], ins[1])
    if gtype.is_inverting:
        out = _not3(out)
    return out


class PodemStatus(enum.Enum):
    DETECTED = "detected"
    UNDETECTABLE = "undetectable"
    ABORTED = "aborted"


@dataclass
class PodemResult:
    status: PodemStatus
    fault: Fault
    #: input assignment (PI bits then state bits, scan order); X positions
    #: were never needed and may be filled arbitrarily.  None unless
    #: DETECTED.
    pi_bits: Optional[List[int]] = None
    si_bits: Optional[List[int]] = None
    backtracks: int = 0


class Podem:
    """PODEM engine bound to one :class:`FaultGraph`."""

    def __init__(self, graph: FaultGraph, backtrack_limit: int = 5000) -> None:
        self.graph = graph
        self.backtrack_limit = backtrack_limit
        model = graph.model
        circuit = graph.sim_circuit

        self.n = model.n_signals
        idx = model.signal_index
        # driver structure: for input signals gtype None.
        self._gtype: List[Optional[GateType]] = [None] * self.n
        self._gins: List[Tuple[int, ...]] = [()] * self.n
        for gate in circuit.iter_gates():
            gi = idx[gate.output]
            self._gtype[gi] = gate.gtype
            self._gins[gi] = tuple(idx[s] for s in gate.inputs)

        self._order = [
            idx[g.output] for level in levelize(circuit).levels for g in level
        ]
        self._fanout: List[List[int]] = [[] for _ in range(self.n)]
        for gi in self._order:
            for si in self._gins[gi]:
                self._fanout[si].append(gi)

        self._inputs: List[int] = list(model.pi_idx) + list(model.q_idx)
        self._input_pos: Dict[int, int] = {s: i for i, s in enumerate(self._inputs)}
        self._obs = set(int(i) for i in model.po_idx) | set(
            int(i) for i in model.d_idx
        )
        self._n_pi = len(model.pi_idx)

        # Static observability distance (levels to the nearest observation
        # point, moving forward); guides D-frontier selection.
        self._obs_dist = self._compute_obs_distance()

        # SCOAP controllabilities guide backtrace toward cheap inputs.
        from repro.atpg.scoap import compute_scoap

        scoap = compute_scoap(circuit)
        self._cc0 = [scoap.cc0.get(n, 1) for n in model.signal_names]
        self._cc1 = [scoap.cc1.get(n, 1) for n in model.signal_names]

    def _compute_obs_distance(self) -> List[int]:
        INF = 10**9
        dist = [INF] * self.n
        for s in self._obs:
            dist[s] = 0
        for gi in reversed(self._order):
            d_out = dist[gi]
            if d_out == INF:
                continue
            for si in self._gins[gi]:
                dist[si] = min(dist[si], d_out + 1)
        return dist

    # ------------------------------------------------------------------
    def run(self, fault: Fault) -> PodemResult:
        """Attempt to generate a full-scan test for ``fault``."""
        site = self.graph.signal_of(fault)
        stuck = fault.value
        asn: List[int] = [X] * len(self._inputs)
        good = [X] * self.n
        faulty = [X] * self.n

        def simulate_full() -> None:
            # Input-site faults must be forced before any gate evaluates.
            for i, s in enumerate(self._inputs):
                good[s] = asn[i]
                faulty[s] = asn[i]
            if self._gtype[site] is None:
                faulty[site] = stuck
            for gi in self._order:
                gt = self._gtype[gi]
                ins = self._gins[gi]
                good[gi] = eval3(gt, [good[s] for s in ins])
                fv = eval3(gt, [faulty[s] for s in ins])
                faulty[gi] = stuck if gi == site else fv

        def detected() -> bool:
            for s in self._obs:
                if good[s] != X and faulty[s] != X and good[s] != faulty[s]:
                    return True
            return False

        def d_frontier() -> List[int]:
            frontier = []
            for gi in self._order:
                if good[gi] != X and faulty[gi] != X:
                    continue
                for si in self._gins[gi]:
                    if (
                        good[si] != X
                        and faulty[si] != X
                        and good[si] != faulty[si]
                    ):
                        frontier.append(gi)
                        break
            return frontier

        def x_path_exists(frontier: List[int]) -> bool:
            # BFS forward from frontier gates through X-valued signals.
            stack = list(frontier)
            seen = set(stack)
            while stack:
                s = stack.pop()
                if s in self._obs and (good[s] == X or faulty[s] == X):
                    return True
                for t in self._fanout[s]:
                    if t in seen:
                        continue
                    if good[t] == X or faulty[t] == X:
                        seen.add(t)
                        stack.append(t)
            return False

        def objective() -> Optional[Tuple[int, int]]:
            # Activation first.
            if good[site] == X:
                return (site, 1 - stuck)
            if good[site] == stuck:
                return None  # cannot activate under current assignment
            frontier = d_frontier()
            if not frontier:
                return None
            if not x_path_exists(frontier):
                return None
            # Backtrace works on the good machine, so the objective input
            # must be X there.  (An input can be X only in the faulty
            # machine -- e.g. good sees a controlling value where faulty
            # sees D -- in which case fall through to a free choice.)
            for gate in sorted(frontier, key=lambda gi: self._obs_dist[gi]):
                gt = self._gtype[gate]
                ctrl = gt.controlling_value
                want = 1 - ctrl if ctrl is not None else 0
                for si in self._gins[gate]:
                    if good[si] == X:
                        return (si, want)
            # Free choice: bind any unassigned input.  Completeness is
            # preserved (the decision stack explores both values) and the
            # frontier/X-path pruning above keeps the search sound.
            for i, s in enumerate(self._inputs):
                if asn[i] == X:
                    return (s, 0)
            return None

        def backtrace(net: int, val: int) -> Tuple[int, int]:
            while net not in self._input_pos:
                gt = self._gtype[net]
                ins = self._gins[net]
                val = val ^ gt.inversion_parity
                base = gt.base
                if base is GateType.BUF:
                    net = ins[0]
                    continue
                x_ins = [s for s in ins if good[s] == X]
                if not x_ins:  # pragma: no cover - objective guarantees an X
                    raise AssertionError("backtrace hit a fully-assigned gate")

                def cost(sig: int) -> int:
                    return self._cc1[sig] if val else self._cc0[sig]

                if base is GateType.AND or base is GateType.OR:
                    controlling = 0 if base is GateType.AND else 1
                    if val == controlling:
                        # One input suffices: take the easiest to control.
                        net = min(x_ins, key=cost)
                    else:
                        # All inputs needed: attack the hardest first (the
                        # classic SCOAP heuristic -- fail fast).
                        net = max(x_ins, key=cost)
                else:  # XOR family: account for the definite sibling
                    net = x_ins[0]
                    sibling = [s for s in ins if s != net]
                    if sibling and good[sibling[0]] != X:
                        val = val ^ good[sibling[0]]
            return (self._input_pos[net], val)

        # ------------------------------------------------------------------
        # Decision stack: (input position, value, already_flipped)
        stack: List[Tuple[int, int, bool]] = []
        backtracks = 0
        simulate_full()
        while True:
            if detected():
                return self._result_detected(fault, asn, backtracks)
            obj = objective()
            if obj is not None:
                pos, val = backtrace(*obj)
                stack.append((pos, val, False))
                asn[pos] = val
                simulate_full()
                continue
            # Dead end: flip the most recent unflipped decision.
            while stack:
                pos, val, flipped = stack.pop()
                if not flipped:
                    backtracks += 1
                    if backtracks > self.backtrack_limit:
                        return PodemResult(
                            status=PodemStatus.ABORTED,
                            fault=fault,
                            backtracks=backtracks,
                        )
                    stack.append((pos, val ^ 1, True))
                    asn[pos] = val ^ 1
                    simulate_full()
                    break
                asn[pos] = X
            else:
                return PodemResult(
                    status=PodemStatus.UNDETECTABLE,
                    fault=fault,
                    backtracks=backtracks,
                )

    def _result_detected(
        self, fault: Fault, asn: List[int], backtracks: int
    ) -> PodemResult:
        filled = [v if v != X else 0 for v in asn]
        return PodemResult(
            status=PodemStatus.DETECTED,
            fault=fault,
            pi_bits=filled[: self._n_pi],
            si_bits=filled[self._n_pi :],
            backtracks=backtracks,
        )
