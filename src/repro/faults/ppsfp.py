"""Parallel-pattern single-fault propagation (PPSFP).

The combinational counterpart of :mod:`repro.faults.fault_sim`: the
circuit is treated as its full-scan combinational expansion (inputs = PIs
and flop outputs, observation points = POs and flop D nets), 64 input
patterns are packed per word, and each fault is simulated against all
patterns in one evaluation pass.

This is the engine behind the single-vector random BIST baseline (the
classical scheme the paper improves on) and the random phase of fault
detectability classification.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.faults.model import Fault, FaultGraph
from repro.simulation.compiled import Injections


def pack_patterns(patterns: np.ndarray) -> np.ndarray:
    """Pack a ``(n_patterns, n_inputs)`` 0/1 matrix into words.

    Returns a ``(n_inputs, n_words)`` uint64 matrix; pattern ``p`` lives
    at word ``p // 64``, bit ``p % 64``.
    """
    patterns = np.asarray(patterns, dtype=np.uint8)
    if patterns.ndim != 2:
        raise ValueError("patterns must be a 2-D 0/1 matrix")
    n_patterns, n_inputs = patterns.shape
    n_words = (n_patterns + 63) // 64
    words = np.zeros((n_inputs, n_words), dtype=np.uint64)
    for p in range(n_patterns):
        word, bit = divmod(p, 64)
        mask = np.uint64(1) << np.uint64(bit)
        rows = np.flatnonzero(patterns[p])
        words[rows, word] |= mask
    return words


class CombinationalFaultSimulator:
    """PPSFP over the full-scan combinational expansion."""

    def __init__(self, graph: FaultGraph) -> None:
        self.graph = graph
        self.model = graph.model
        #: combined input rows: PIs then flop outputs (scan order)
        self.input_idx = np.concatenate([self.model.pi_idx, self.model.q_idx]).astype(
            np.intp
        )
        #: observation rows: POs then flop D nets
        self.obs_idx = np.concatenate([self.model.po_idx, self.model.d_idx]).astype(
            np.intp
        )

    @property
    def num_inputs(self) -> int:
        return len(self.input_idx)

    def fault_free(self, input_words: np.ndarray) -> np.ndarray:
        """Fault-free observation values for packed patterns."""
        vals = self.model.alloc(input_words.shape[1])
        vals[self.input_idx, :] = input_words
        self.model.eval(vals)
        return vals[self.obs_idx, :].copy()

    def detected(
        self,
        input_words: np.ndarray,
        faults: Sequence[Fault],
        valid_mask: np.ndarray = None,
    ) -> List[Fault]:
        """Faults detected by any packed pattern.

        ``valid_mask`` (``(n_words,)`` uint64) limits which bit positions
        are real patterns when the count is not a multiple of 64.  The
        returned order is the input fault order.
        """
        if input_words.shape[0] != self.num_inputs:
            raise ValueError(
                f"expected {self.num_inputs} input rows, got {input_words.shape[0]}"
            )
        n_words = input_words.shape[1]
        if valid_mask is None:
            valid_mask = np.full(n_words, np.uint64(0xFFFFFFFFFFFFFFFF))
        good = self.fault_free(input_words)

        vals = self.model.alloc(n_words)
        hits: List[Fault] = []
        for fault in faults:
            sig = self.graph.signal_of(fault)
            inj = Injections.build_whole_word(
                [(sig, w, fault.value) for w in range(n_words)],
                self.model.level_of_signal,
            )
            vals[:, :] = 0
            vals[self.input_idx, :] = input_words
            self.model.eval(vals, injections=inj)
            diff = (vals[self.obs_idx, :] ^ good) & valid_mask
            if diff.any():
                hits.append(fault)
        return hits

    def detection_counts(
        self, input_words: np.ndarray, faults: Sequence[Fault]
    ) -> Dict[Fault, int]:
        """Per-fault count of detecting patterns (profiling helper)."""
        good = self.fault_free(input_words)
        n_words = input_words.shape[1]
        vals = self.model.alloc(n_words)
        counts: Dict[Fault, int] = {}
        for fault in faults:
            sig = self.graph.signal_of(fault)
            inj = Injections.build_whole_word(
                [(sig, w, fault.value) for w in range(n_words)],
                self.model.level_of_signal,
            )
            vals[:, :] = 0
            vals[self.input_idx, :] = input_words
            self.model.eval(vals, injections=inj)
            diff = vals[self.obs_idx, :] ^ good
            detecting = np.bitwise_or.reduce(diff, axis=0)
            counts[fault] = int(
                sum(bin(int(word)).count("1") for word in detecting)
            )
        return counts
