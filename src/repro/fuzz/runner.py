"""The fuzz campaign driver: cases -> sandbox -> oracles -> triage.

``run_fuzz(FuzzConfig(...))`` is the whole pipeline:

1. :func:`build_cases` derives ``budget`` deterministic cases from the
   master seed (generated sources and mutated catalog/generated
   sources, interleaved),
2. each case's oracle battery runs under the :mod:`repro.fuzz.sandbox`
   budgets (or in-process with ``sandbox=False``, used by tests and by
   corpus replay),
3. failures are deduplicated into :class:`~repro.fuzz.triage.CrashBucket`
   groups, optionally minimized, and optionally written to a corpus
   directory.

Everything reported is a pure function of the config: the same seed
gives a byte-identical case list and triage report (timings are
deliberately excluded from reports).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.bench_circuits.s27 import S27_BENCH
from repro.bench_circuits.synthetic import SyntheticSpec, synthesize
from repro.circuit.bench_parser import write_bench
from repro.fuzz.generator import GeneratorSpace, generate_bench
from repro.fuzz.mutator import mutate_bench
from repro.fuzz.oracles import run_oracles
from repro.fuzz.sandbox import (
    STATUS_KILLED,
    STATUS_OK,
    STATUS_OOM,
    STATUS_TIMEOUT,
    run_sandboxed,
)
from repro.fuzz.triage import (
    CrashBucket,
    fingerprint_exception,
    fingerprint_violation,
    minimize_bench,
)
from repro.fuzz import corpus as corpus_mod

#: Mutation sources: the real s27 netlist plus small deterministic
#: synthetic circuits (generated once, far cheaper than the catalog's
#: large stand-ins).
def _mutation_sources() -> List[Tuple[str, str]]:
    sources = [("s27", S27_BENCH)]
    for name, n_pi, n_po, n_ff, n_gates in (
        ("fz-a", 6, 2, 4, 40),
        ("fz-b", 4, 1, 0, 24),
        ("fz-c", 8, 3, 6, 64),
    ):
        spec = SyntheticSpec(
            name=name, n_pi=n_pi, n_po=n_po, n_ff=n_ff, n_gates=n_gates
        )
        sources.append((name, write_bench(synthesize(spec))))
    return sources


@dataclass(frozen=True)
class FuzzCase:
    """One deterministic input: its id, provenance, and text."""

    case_id: int
    seed: int                # master seed (all cases share it)
    kind: str                # 'generated' | 'mutated'
    source: str              # generator space tag or mutation source name
    mutations: Tuple[str, ...]
    text: str


@dataclass(frozen=True)
class FuzzCaseResult:
    """Graceful per-case verdict; no exception escapes the runner."""

    case_id: int
    outcome: str             # 'pass' | 'reject' | 'violation' | 'crash'
                             # | 'timeout' | 'oom' | 'killed'
    oracle: str = ""
    error_type: str = ""
    fingerprint: str = ""
    message: str = ""
    reject_codes: Tuple[str, ...] = ()

    @property
    def is_failure(self) -> bool:
        return self.outcome not in ("pass", "reject")


@dataclass(frozen=True)
class FuzzConfig:
    """Everything a campaign needs; the report is a function of this."""

    budget: int = 200
    seed: int = 0
    timeout_s: float = 10.0
    mem_mb: int = 1024
    sandbox: bool = True
    minimize: bool = False
    corpus_dir: Optional[str] = None
    p_mutated: float = 0.4   # fraction of cases that mutate a known source
    space: GeneratorSpace = field(
        default_factory=lambda: GeneratorSpace(p_weird=0.35)
    )


@dataclass
class FuzzReport:
    """Deterministic campaign summary."""

    config_seed: int
    budget: int
    counts: Dict[str, int]
    buckets: List[CrashBucket]
    results: List[FuzzCaseResult]
    corpus_files: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when no case crashed, violated, hung, or OOMed."""
        return not any(r.is_failure for r in self.results)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.config_seed,
            "budget": self.budget,
            "counts": {k: self.counts[k] for k in sorted(self.counts)},
            "buckets": [
                {
                    "fingerprint": b.fingerprint,
                    "kind": b.kind,
                    "oracle": b.oracle,
                    "error_type": b.error_type,
                    "message": b.message,
                    "case_ids": b.case_ids,
                    "minimized_lines": (
                        len(b.minimized.splitlines())
                        if b.minimized is not None else None
                    ),
                }
                for b in self.buckets
            ],
            "corpus_files": self.corpus_files,
        }

    def render(self) -> str:
        lines = [
            f"fuzz: seed={self.config_seed} budget={self.budget}",
            "  "
            + "  ".join(
                f"{k}={self.counts[k]}" for k in sorted(self.counts)
            ),
        ]
        if not self.buckets:
            lines.append("no unique failures")
        for bucket in self.buckets:
            lines.append(bucket.render())
        if self.corpus_files:
            lines.append("corpus:")
            lines.extend(f"  {p}" for p in self.corpus_files)
        return "\n".join(lines)


def _case_rng(seed: int, case_id: int, lane: str) -> np.random.Generator:
    """An independent, reproducible stream per (seed, case, lane)."""
    ss = np.random.SeedSequence(
        entropy=seed, spawn_key=(case_id, zlib.crc32(lane.encode()))
    )
    return np.random.Generator(np.random.PCG64(ss))


def build_cases(config: FuzzConfig) -> List[FuzzCase]:
    """Derive the deterministic case list for a campaign."""
    sources = _mutation_sources()
    cases: List[FuzzCase] = []
    for i in range(config.budget):
        rng = _case_rng(config.seed, i, "gen")
        if rng.random() < config.p_mutated:
            name, base = sources[int(rng.integers(len(sources)))]
            n_mut = int(rng.integers(1, 6))
            text, applied = mutate_bench(base, rng, n_mutations=n_mut)
            cases.append(
                FuzzCase(
                    case_id=i, seed=config.seed, kind="mutated",
                    source=name, mutations=tuple(applied), text=text,
                )
            )
        else:
            text = generate_bench(rng, config.space)
            if rng.random() < 0.3:
                text, applied = mutate_bench(text, rng, n_mutations=2)
            else:
                applied = []
            cases.append(
                FuzzCase(
                    case_id=i, seed=config.seed, kind="generated",
                    source="space", mutations=tuple(applied), text=text,
                )
            )
    return cases


def execute_case_inline(text: str, seed: int, case_id: int) -> Dict[str, Any]:
    """Run the oracle battery in-process; returns a plain result dict.

    This is the function the sandbox forks around, and what minimization
    and corpus replay call directly.  Expected rejects come back as
    ``reject``; contract-breaking exceptions come back as ``crash`` with
    a fingerprint -- they never propagate.
    """
    rng = _case_rng(seed, case_id, "oracle")
    try:
        outcome = run_oracles(
            text, rng, fault_rng=_case_rng(seed, case_id, "fault-sim")
        )
    except MemoryError:
        raise  # the sandbox converts this to an 'oom' verdict
    except Exception as exc:  # noqa: BLE001 - crashes are data here
        return {
            "outcome": "crash",
            "oracle": "parse-contract",
            "error_type": type(exc).__name__,
            "fingerprint": fingerprint_exception(exc),
            "message": f"{type(exc).__name__}: {exc}",
            "reject_codes": (),
        }
    if outcome.violations:
        oracle, message = outcome.violations[0]
        return {
            "outcome": "violation",
            "oracle": oracle,
            "error_type": "",
            "fingerprint": fingerprint_violation(oracle, message),
            "message": message,
            "reject_codes": tuple(outcome.reject_codes),
        }
    return {
        "outcome": outcome.disposition,   # 'pass' | 'reject'
        "oracle": "",
        "error_type": "",
        "fingerprint": "",
        "message": "",
        "reject_codes": tuple(outcome.reject_codes),
    }


def _run_case(config: FuzzConfig, case: FuzzCase) -> FuzzCaseResult:
    if not config.sandbox:
        payload = execute_case_inline(case.text, case.seed, case.case_id)
        return FuzzCaseResult(case_id=case.case_id, **payload)
    verdict = run_sandboxed(
        execute_case_inline,
        (case.text, case.seed, case.case_id),
        timeout_s=config.timeout_s,
        mem_bytes=config.mem_mb * 1024 * 1024 if config.mem_mb else None,
    )
    if verdict.status == STATUS_OK:
        payload = dict(verdict.payload or {})
        payload["reject_codes"] = tuple(payload.get("reject_codes", ()))
        return FuzzCaseResult(case_id=case.case_id, **payload)
    outcome = {
        STATUS_TIMEOUT: "timeout",
        STATUS_OOM: "oom",
        STATUS_KILLED: "killed",
    }[verdict.status]
    return FuzzCaseResult(
        case_id=case.case_id,
        outcome=outcome,
        oracle="sandbox",
        error_type=verdict.status,
        fingerprint=f"{outcome}-budget",
        message=verdict.detail,
    )


def _still_fails_predicate(config: FuzzConfig, case: FuzzCase, fingerprint: str):
    def predicate(candidate: str) -> bool:
        payload = execute_case_inline(candidate, case.seed, case.case_id)
        return payload["fingerprint"] == fingerprint
    return predicate


def run_fuzz(config: FuzzConfig) -> FuzzReport:
    """Run a full campaign; never raises on a bad case."""
    cases = build_cases(config)
    results: List[FuzzCaseResult] = []
    counts: Dict[str, int] = {}
    buckets: Dict[str, CrashBucket] = {}
    case_by_id = {c.case_id: c for c in cases}

    for case in cases:
        result = _run_case(config, case)
        results.append(result)
        counts[result.outcome] = counts.get(result.outcome, 0) + 1
        if result.is_failure:
            bucket = buckets.get(result.fingerprint)
            if bucket is None:
                bucket = CrashBucket(
                    fingerprint=result.fingerprint,
                    kind=result.outcome,
                    oracle=result.oracle,
                    error_type=result.error_type,
                    message=result.message,
                )
                buckets[result.fingerprint] = bucket
            bucket.case_ids.append(result.case_id)
            bucket.seeds.append(case.seed)

    ordered = [buckets[k] for k in sorted(buckets)]

    corpus_files: List[str] = []
    for bucket in ordered:
        rep = case_by_id[bucket.case_ids[0]]
        # Timeouts/OOMs are budget findings, not minimizable crashes.
        if config.minimize and bucket.kind in ("crash", "violation"):
            bucket.minimized = minimize_bench(
                rep.text,
                _still_fails_predicate(config, rep, bucket.fingerprint),
            )
        if config.corpus_dir and bucket.kind in ("crash", "violation"):
            body = bucket.minimized if bucket.minimized is not None else rep.text
            name = f"{bucket.kind}-{bucket.fingerprint}"
            path = corpus_mod.save_entry(
                config.corpus_dir, name, body,
                # A fresh finding documents today's *wrong* behavior; the
                # expectation is filled in by hand once the bug is fixed.
                expect="reject" if bucket.kind == "crash" else "pass",
                expect_codes=("E000",) if bucket.kind == "crash" else (),
                fingerprint=bucket.fingerprint,
                oracle=bucket.oracle,
                found=f"seed={config.seed} case={bucket.case_ids[0]}",
            )
            corpus_files.append(str(path))

    return FuzzReport(
        config_seed=config.seed,
        budget=config.budget,
        counts=counts,
        buckets=ordered,
        results=results,
        corpus_files=corpus_files,
    )
