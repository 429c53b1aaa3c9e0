"""Single stuck-at fault model.

The fault universe follows the classical line-fault convention: a *line*
is either a stem (a driven net) or a fanout branch (one consumer pin of a
net with more than one destination, primary-output taps included).  Each
line carries a stuck-at-0 and a stuck-at-1 fault.

Faults are defined against the *original* circuit so fault counts and
reports are meaningful, and translated onto nets of the rewritten
simulation graph (two-input decomposition + explicit fanout branches) by
:class:`FaultGraph`, where every fault -- stem or branch -- is an output
stuck-at on some net.  That uniformity is what lets the simulators inject
faults with simple per-net masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuit.netlist import Circuit

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.circuit.cache import CompileCache
from repro.circuit.transform import (
    decompose_to_two_input,
    insert_fanout_branches,
)
from repro.simulation.compiled import CompiledModel


def fault_key(fault: "Fault") -> Tuple[str, int, str, int]:
    """Deterministic sort key (``None`` fields normalized for comparison)."""
    return (
        fault.site,
        fault.value,
        fault.consumer or "",
        fault.pin if fault.pin is not None else -1,
    )


@dataclass(frozen=True)
class Fault:
    """A single stuck-at fault on a stem or a fanout branch.

    ``site`` is the net name.  For a branch fault, ``consumer``/``pin``
    identify the reading pin (``consumer`` is a gate output net, or a
    flop's ``q`` for its D pin); for a stem fault they are ``None``.
    """

    site: str
    value: int
    consumer: Optional[str] = None
    pin: Optional[int] = None

    @property
    def is_branch(self) -> bool:
        return self.consumer is not None

    def __str__(self) -> str:
        if self.is_branch:
            return f"{self.site}->{self.consumer}.{self.pin} s-a-{self.value}"
        return f"{self.site} s-a-{self.value}"


def generate_faults(circuit: Circuit) -> List[Fault]:
    """The full (uncollapsed) stuck-at universe of ``circuit``.

    Stem faults on every driven net, branch faults on every consumer pin
    of a net with more than one destination (POs count as destinations,
    consistent with :func:`repro.circuit.transform.insert_fanout_branches`).
    """
    faults: List[Fault] = []
    fanout = circuit.fanout_map()
    po_taps: Dict[str, int] = {}
    for net in circuit.outputs:
        po_taps[net] = po_taps.get(net, 0) + 1

    for net in circuit.signals():
        for value in (0, 1):
            faults.append(Fault(site=net, value=value))
        readers = fanout.get(net, [])
        if len(readers) + po_taps.get(net, 0) > 1:
            for consumer, pin in readers:
                for value in (0, 1):
                    faults.append(
                        Fault(site=net, value=value, consumer=consumer, pin=pin)
                    )
    return faults


class FaultGraph:
    """The simulation graph shared by fault simulation and ATPG.

    Built from a circuit by (1) decomposing wide gates to two-input chains
    and (2) making fanout branches explicit, then compiling.  Every fault
    of the original circuit maps onto exactly one net of this graph via
    :meth:`signal_of`.

    With a :class:`~repro.circuit.cache.CompileCache` the rewrite and
    compilation are skipped on a fingerprint hit: the cached compiled
    state (flat arrays plus the pin/branch maps) is restored directly.
    The graph also pickles in that lean form -- the object-form circuits
    ship as struct-of-arrays netlists and are rebuilt lazily, so worker
    processes never deserialize per-gate object graphs.
    """

    def __init__(self, circuit: Circuit, cache: Optional["CompileCache"] = None) -> None:
        self._circuit: Optional[Circuit] = circuit
        self._circuit_arrays = None
        self.cache_hit = False
        if cache is not None:
            fingerprint = cache.fingerprint(circuit)
            state = cache.load(fingerprint)
            if state is not None:
                self.__setstate__(state)
                self._circuit = circuit  # keep the caller's object form
                self.cache_hit = True
                return
        decomposed, pin_map = decompose_to_two_input(circuit)
        branched, branch_of = insert_fanout_branches(decomposed)
        self._pin_map = pin_map
        self._branch_of = branch_of
        self.model = CompiledModel(branched, decompose=False)
        if cache is not None:
            cache.store(fingerprint, self.__getstate__())

    @property
    def circuit(self) -> Circuit:
        """The original circuit (rebuilt from arrays after unpickling)."""
        if self._circuit is None:
            from repro.circuit.netlist import circuit_from_arrays

            self._circuit = circuit_from_arrays(self._circuit_arrays)
        return self._circuit

    @property
    def sim_circuit(self) -> Circuit:
        """The rewritten (decomposed + branched) circuit the model runs."""
        return self.model.circuit

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        # The fault -> signal memo is a per-process working set.
        state.pop("_signal_memo", None)
        # Ship the original circuit as arrays; the branched sim circuit
        # needs nothing extra -- it is the model's own compiled netlist.
        if state.get("_circuit") is not None:
            state["_circuit_arrays"] = state["_circuit"].to_arrays()
            state["_circuit"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    def net_of(self, fault: Fault) -> str:
        """The simulation-graph net on which ``fault`` is an output fault."""
        if not fault.is_branch:
            return fault.site
        coord = self._pin_map[(fault.consumer, fault.pin)]
        return self._branch_of[coord]

    def signal_of(self, fault: Fault) -> int:
        return self.model.index_of(self.net_of(fault))

    def signals_of(self, faults: Sequence[Fault]) -> np.ndarray:
        """:meth:`signal_of` for every fault, as an ``intp`` array.

        Answers come from a memo filled on first use, never at
        construction, so building a graph costs nothing extra; the
        simulators ask for the same remaining faults call after call.
        """
        memo = self.__dict__.setdefault("_signal_memo", {})
        missing = [f for f in faults if f not in memo]
        for fault in missing:
            memo[fault] = self.signal_of(fault)
        return np.fromiter(
            map(memo.__getitem__, faults), dtype=np.intp, count=len(faults)
        )
