"""Per-layer tracing from outside the program.

The tracer wraps public entry points of each ``repro`` layer (module
functions and class methods) in-process, records one span per call --
name, start, end and the span that caused it -- plus counters at the
same boundaries, and derives the per-layer metrics from them once the
traced operation ends.  Nothing under ``src/`` is modified: wrapping is
a monkeypatch that :meth:`Tracer.uninstall` reverses.

Spans are kept in memory; :meth:`Tracer.layer_metrics` reduces them.
Pool workers fork after the wrappers are installed, so they run wrapped
code too, but their spans stay in the worker processes and are never
reported: every ``faults.kernel_*`` figure is in-process work.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Every per-layer metric, in report order: ``name -> unit``.
LAYER_METRICS: Dict[str, str] = {
    "circuit.parse_s": "s",
    "circuit.compile_s": "s",
    "circuit.compile_warm_s": "s",
    "circuit.cache_hits": "count",
    "circuit.cache_misses": "count",
    "circuit.gates": "count",
    "faults.collapse_s": "s",
    "faults.targets": "count",
    "analysis.cop_s": "s",
    "analysis.cop_warm_s": "s",
    "analysis.rpr_faults": "count",
    "atpg.classify_s": "s",
    "atpg.random_phase_s": "s",
    "atpg.ppsfp_calls": "count",
    "atpg.ppsfp_s": "s",
    "atpg.podem_calls": "count",
    "atpg.podem_s": "s",
    "atpg.podem_p50_ms": "ms",
    "atpg.podem_max_ms": "ms",
    "atpg.podem_detected": "count",
    "atpg.podem_undetectable": "count",
    "atpg.podem_aborted": "count",
    "atpg.podem_useful_ratio": "ratio",
    "core.ts0_gen_s": "s",
    "core.procedure2_s": "s",
    "core.iterations": "count",
    "faults.kernel_calls": "count",
    "faults.kernel_s": "s",
    "faults.word_steps": "count",
    "faults.ns_per_word_step": "ns",
    "faults.ts0_eval_s": "s",
    "faults.candidates_scored": "count",
    "faults.candidates_consumed": "count",
    "faults.speculation_useful_ratio": "ratio",
    "pool.publish_s": "s",
    "pool.dispatches": "count",
    "pool.dispatch_wait_s": "s",
    "pool.worker_cpu_s": "s",
    "pool.parallel_efficiency": "ratio",
    "robustness.commits": "count",
    "robustness.commit_s": "s",
    "robustness.journal_bytes": "bytes",
    "result.fault_coverage": "ratio",
    "result.stored_pairs": "count",
    "result.test_cycles": "count",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
    "trace.unaccounted_s": "s",
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """In-memory spans and counters for one traced process."""

    spans: List[Span] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    podem_ms: List[float] = field(default_factory=list)
    _stack: List[int] = field(default_factory=list)
    _patches: List[Tuple[Any, str, Any]] = field(default_factory=list)
    _detected_calls: int = 0

    # -- spans ----------------------------------------------------------
    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> float:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.remove(index)
        return span.seconds

    def total(self, name: str) -> float:
        return sum(s.seconds for s in self.spans if s.name == name)

    def children_seconds(self, index: int) -> float:
        return sum(s.seconds for s in self.spans if s.parent == index)

    # -- patching -------------------------------------------------------
    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrapped(self, original: Callable, name: str, before, after,
                 bound: bool) -> Callable:
        """``original`` with a span around each call.

        ``before(obj, args, kwargs)`` runs first; ``after(obj, args,
        kwargs, result, span)`` runs on success and may return a new span
        name (e.g. to tell a warm compile from a cold one).  ``obj`` is
        the instance for methods and None for functions.
        """
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            obj, rest = (args[0], args[1:]) if bound else (None, args)
            if before is not None:
                before(obj, rest, kwargs)
            index = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(index)
            if after is not None:
                span = tracer.spans[index]
                renamed = after(obj, rest, kwargs, result, span)
                if renamed:
                    span.name = renamed
            return result

        return wrapper

    def wrap_method(self, cls: type, attr: str, name: str,
                    before=None, after=None) -> None:
        """Span every call of ``cls.attr``."""
        original = getattr(cls, attr)
        self._set(cls, attr,
                  self._wrapped(original, name, before, after, bound=True))

    def wrap_function(self, module: Any, attr: str, name: str,
                      before=None, after=None) -> None:
        """Span every call of ``module.attr``, rebinding it in every loaded
        ``repro`` module that imported it by name."""
        original = getattr(module, attr)
        wrapper = self._wrapped(original, name, before, after, bound=False)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "repro" or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- the layer boundaries -------------------------------------------
    def install(self) -> None:
        """Wrap every public boundary the per-layer table is timed at."""
        import repro.analysis.cop as cop
        import repro.atpg.classify as classify
        import repro.circuit.bench_parser as bench_parser
        import repro.core.procedure2 as procedure2
        import repro.core.session  # noqa: F401 - binds names to rewrap
        import repro.core.test_set as test_set
        import repro.faults.collapse as collapse
        from repro.atpg.podem import Podem
        from repro.circuit.cache import CompileCache
        from repro.faults.fault_sim import FaultSimulator
        from repro.faults.model import FaultGraph
        from repro.faults.pool import (
            CandidateEvaluator,
            LazyTable,
            PersistentWorkerPool,
            ReconTable,
        )
        from repro.faults.ppsfp import CombinationalFaultSimulator
        from repro.robustness.checkpoint import CheckpointWriter

        counts = self.counts
        tracer = self

        # circuit: parse, compile (cold/warm), compile cache.
        # parse_bench_file delegates to parse_bench, so one wrapper
        # covers both without double counting.
        self.wrap_function(bench_parser, "parse_bench", "circuit.parse")

        def compiled(graph, args, kwargs, result, span):
            if graph.cache_hit:
                return "circuit.compile_warm"
            counts["circuit.gates"] += graph.circuit.num_gates
            return None

        self.wrap_method(FaultGraph, "__init__", "circuit.compile",
                         after=compiled)

        def cache_load(cache, args, kwargs, state, span):
            counts["circuit.cache_hits" if state is not None
                   else "circuit.cache_misses"] += 1

        self.wrap_method(CompileCache, "load", "circuit.cache_load",
                         after=cache_load)

        # faults: collapsing
        def collapsed(_, args, kwargs, result, span):
            counts["faults.targets"] += len(result)

        self.wrap_function(collapse, "collapse_faults", "faults.collapse",
                           after=collapsed)

        # analysis: COP
        def analyzed(_, args, kwargs, analysis, span):
            if analysis.cache_hit:
                return "analysis.cop_warm"
            counts["analysis.rpr_faults"] += int(
                (analysis.p_detect < analysis.rpr_threshold).sum()
            )
            return None

        self.wrap_function(cop, "analyze_circuit", "analysis.cop",
                           after=analyzed)

        # atpg: classification, its random phase, PPSFP, PODEM
        def classify_start(_, args, kwargs):
            tracer._detected_calls = 0

        self.wrap_function(classify, "classify_faults", "atpg.classify",
                           before=classify_start)

        def detected(sim, args, kwargs, result, span):
            tracer._detected_calls += 1
            if tracer._detected_calls == 1:
                return "atpg.random_phase"
            counts["atpg.ppsfp_calls"] += 1
            return None

        self.wrap_method(CombinationalFaultSimulator, "detected",
                         "atpg.ppsfp", after=detected)

        def podem_done(podem, args, kwargs, result, span):
            counts["atpg.podem_calls"] += 1
            counts["atpg.podem_" + result.status.value] += 1
            tracer.podem_ms.append(span.seconds * 1e3)

        self.wrap_method(Podem, "run", "atpg.podem", after=podem_done)

        # core: TS0 generation and the Procedure 2 loop
        self.wrap_function(test_set, "generate_ts0", "core.ts0_gen")

        def p2_done(_, args, kwargs, result, span):
            counts["core.iterations"] += result.iterations_run

        self.wrap_function(procedure2, "run_procedure2", "core.procedure2",
                           after=p2_done)

        # faults: the in-process kernels.  word_steps counts 64-fault
        # words times the time units (test vectors) simulated.
        def kernel_work(test_sets, faults) -> None:
            units = sum(len(t.vectors) for ts in test_sets for t in ts)
            counts["faults.kernel_calls"] += 1
            counts["faults.word_steps"] += -(-len(faults) // 64) * units

        def grouped(sim, args, kwargs, result, span):
            kernel_work([args[0]], args[1])

        def candidates(sim, args, kwargs, result, span):
            kernel_work(args[0], args[1])

        self.wrap_method(FaultSimulator, "simulate_grouped", "faults.kernel",
                         after=grouped)
        self.wrap_method(FaultSimulator, "simulate_candidates",
                         "faults.kernel", after=candidates)

        # faults: TS0 evaluation and candidate speculation.  On the
        # serial path evaluate_* returns lazy tables whose simulation
        # runs inside hits_for, so both ends are timed.
        def ts0_start(evaluator, args, kwargs):
            evaluator._layerbench_in_ts0 = True

        def ts0_table(evaluator, args, kwargs, table, span):
            evaluator._layerbench_in_ts0 = False
            table._layerbench_ts0 = True

        self.wrap_method(CandidateEvaluator, "evaluate_ts0", "faults.ts0_eval",
                         before=ts0_start, after=ts0_table)

        def scored(evaluator, args, kwargs, tables, span):
            if not getattr(evaluator, "_layerbench_in_ts0", False):
                counts["faults.candidates_scored"] += len(tables)
            if evaluator._use_pool and not evaluator._pool_unavailable:
                counts["pool.workers"] = max(
                    counts["pool.workers"],
                    min(evaluator.n_jobs, _cpu_count()),
                )
                return "pool.dispatch_wait"
            return None

        self.wrap_method(CandidateEvaluator, "evaluate_specs",
                         "faults.evaluate_specs", after=scored)

        def consumed(table, args, kwargs, hits, span):
            if getattr(table, "_layerbench_ts0", False):
                return "faults.ts0_eval"
            counts["faults.candidates_consumed"] += 1
            return None

        for cls in (LazyTable, ReconTable):
            self.wrap_method(cls, "hits_for", "faults.hits_for",
                             after=consumed)

        # pool: publish and submit
        self.wrap_method(PersistentWorkerPool, "__init__", "pool.publish")

        def submitted(pool, args, kwargs, future, span):
            counts["pool.dispatches"] += 1

        self.wrap_method(PersistentWorkerPool, "submit", "pool.submit",
                         after=submitted)

        # robustness: journal commits
        def committed(writer, args, kwargs, result, span):
            counts["robustness.commits"] += 1

        self.wrap_method(CheckpointWriter, "commit_iteration",
                         "robustness.commit", after=committed)

    # -- reduction ------------------------------------------------------
    def layer_metrics(self, op_index: int, extra: Dict[str, float]) -> Dict[str, float]:
        """Every :data:`LAYER_METRICS` value from the recorded spans.

        ``op_index`` is the span of the traced operation (its direct
        children form the blocking path); ``extra`` supplies what is
        measured outside the spans (worker CPU, journal size, result
        quality, the untraced run time, the time of the digest checks).
        """
        c = self.counts
        t = self.total
        podem_calls = c["atpg.podem_calls"]
        kernel_s = t("faults.kernel")
        wait = t("pool.dispatch_wait")
        worker_cpu = extra.get("pool.worker_cpu_s", 0.0)
        # The benchmark's own digest checks run inside the op span.
        run_s = self.spans[op_index].seconds - extra["check_s"]
        out = {
            "circuit.parse_s": t("circuit.parse"),
            "circuit.compile_s": t("circuit.compile"),
            "circuit.compile_warm_s": t("circuit.compile_warm"),
            "circuit.cache_hits": c["circuit.cache_hits"],
            "circuit.cache_misses": c["circuit.cache_misses"],
            "circuit.gates": c["circuit.gates"],
            "faults.collapse_s": t("faults.collapse"),
            "faults.targets": c["faults.targets"],
            "analysis.cop_s": t("analysis.cop"),
            "analysis.cop_warm_s": t("analysis.cop_warm"),
            "analysis.rpr_faults": c["analysis.rpr_faults"],
            "atpg.classify_s": t("atpg.classify"),
            "atpg.random_phase_s": t("atpg.random_phase"),
            "atpg.ppsfp_calls": c["atpg.ppsfp_calls"],
            "atpg.ppsfp_s": t("atpg.ppsfp"),
            "atpg.podem_calls": podem_calls,
            "atpg.podem_s": t("atpg.podem"),
            "atpg.podem_p50_ms": (
                statistics.median(self.podem_ms) if self.podem_ms else 0.0
            ),
            "atpg.podem_max_ms": max(self.podem_ms, default=0.0),
            "atpg.podem_detected": c["atpg.podem_detected"],
            "atpg.podem_undetectable": c["atpg.podem_undetectable"],
            "atpg.podem_aborted": c["atpg.podem_aborted"],
            "atpg.podem_useful_ratio": (
                (c["atpg.podem_detected"] + c["atpg.podem_undetectable"])
                / podem_calls if podem_calls else 0.0
            ),
            "core.ts0_gen_s": t("core.ts0_gen"),
            "core.procedure2_s": t("core.procedure2"),
            "core.iterations": c["core.iterations"],
            "faults.kernel_calls": c["faults.kernel_calls"],
            "faults.kernel_s": kernel_s,
            "faults.word_steps": c["faults.word_steps"],
            "faults.ns_per_word_step": (
                kernel_s * 1e9 / c["faults.word_steps"]
                if c["faults.word_steps"] else 0.0
            ),
            "faults.ts0_eval_s": t("faults.ts0_eval"),
            "faults.candidates_scored": c["faults.candidates_scored"],
            "faults.candidates_consumed": c["faults.candidates_consumed"],
            "faults.speculation_useful_ratio": (
                c["faults.candidates_consumed"] / c["faults.candidates_scored"]
                if c["faults.candidates_scored"] else 0.0
            ),
            "pool.publish_s": t("pool.publish"),
            "pool.dispatches": c["pool.dispatches"],
            "pool.dispatch_wait_s": wait,
            "pool.worker_cpu_s": worker_cpu,
            "pool.parallel_efficiency": (
                worker_cpu / (wait * c["pool.workers"])
                if wait and c["pool.workers"] else 0.0
            ),
            "robustness.commits": c["robustness.commits"],
            "robustness.commit_s": t("robustness.commit"),
            "robustness.journal_bytes": extra.get("robustness.journal_bytes", 0),
            "result.fault_coverage": extra.get("result.fault_coverage", 0.0),
            "result.stored_pairs": extra.get("result.stored_pairs", 0),
            "result.test_cycles": extra.get("result.test_cycles", 0),
            "trace.run_s": run_s,
            "trace.overhead_s": run_s - extra["untraced_run_s"],
            "trace.unaccounted_s": run_s - self.children_seconds(op_index),
        }
        assert list(out) == list(LAYER_METRICS)
        return out


def _cpu_count() -> int:
    from repro.faults.sharding import available_cpu_count

    return available_cpu_count()
