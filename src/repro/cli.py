"""Command-line interface.

Usage::

    python -m repro list
    python -m repro stats s208
    python -m repro faults s208
    python -m repro lint s208 [--json] [--strict]
    python -m repro analyze s208 [--json] [--top 10]
    python -m repro run s208 --la 8 --lb 16 --n 64
    python -m repro run s208 --checkpoint s208.journal [--resume]
    python -m repro first-complete s208
    python -m repro table 6 [--full]
    python -m repro serve --data-dir serve-data [--port 8472]
    python -m repro serve --healthz --data-dir serve-data
    python -m repro convert s27.bench s27.v

Circuits are catalog names (``python -m repro list``) or paths to
``.bench`` / ``.v`` netlist files.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.bench_circuits import available_circuits, circuit_info, load_circuit
from repro.circuit.bench_parser import (
    BenchParseError,
    parse_bench_file,
    write_bench_file,
)
from repro.circuit.netlist import Circuit
from repro.circuit.stats import circuit_stats
from repro.circuit.verilog import (
    VerilogParseError,
    parse_verilog_file,
    write_verilog_file,
)
from repro.core.config import BistConfig, D1_DECREASING, D1_INCREASING
from repro.core.session import LimitedScanBist


class IngestionError(KeyError):
    """A netlist could not be loaded; the message is user-presentable.

    Subclasses ``KeyError`` so existing callers that treated an unknown
    benchmark name as a lookup failure keep working.
    """

    def __str__(self) -> str:
        # KeyError.__str__ repr-quotes the message; we want it verbatim.
        return str(self.args[0]) if self.args else ""


class ConfigError(ValueError):
    """A ``run``/``first-complete`` option value the config rejects."""


def resolve_circuit(spec: str) -> Circuit:
    """A catalog name, or a path ending in .bench / .v.

    This is the CLI's ingestion boundary: every malformed input surfaces
    as :class:`IngestionError` with the parser's full diagnostic list,
    never as a raw traceback.
    """
    path = Path(spec)
    try:
        if path.suffix == ".bench" and path.exists():
            return parse_bench_file(path)
        if path.suffix in (".v", ".sv") and path.exists():
            return parse_verilog_file(path)
        return load_circuit(spec)
    except (BenchParseError, VerilogParseError) as exc:
        raise IngestionError(f"cannot parse {spec}:\n{exc}") from exc
    except KeyError as exc:
        raise IngestionError(str(exc.args[0]) if exc.args else str(exc)) from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise IngestionError(f"cannot read {spec}: {exc}") from exc


def cmd_list(_args: argparse.Namespace) -> int:
    print(f"{'name':<10} {'pi':>4} {'po':>4} {'ff':>6} {'gates':>7} "
          f"{'tier':<7} source")
    for name in available_circuits():
        e = circuit_info(name)
        source = "synthetic" if e.synthetic else "real netlist"
        print(f"{e.name:<10} {e.n_pi:>4} {e.n_po:>4} {e.n_ff:>6} "
              f"{e.n_gates:>7} {e.tier:<7} {source}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    circuit = resolve_circuit(args.circuit)
    print(circuit_stats(circuit).as_row())
    if args.testability:
        from repro.atpg.scoap import testability_profile

        profile = testability_profile(circuit)
        print("SCOAP difficulty profile over collapsed faults:")
        for key, value in profile.items():
            print(f"  {key}: {value:.2f}")
    return 0


def cmd_faults(args: argparse.Namespace) -> int:
    from repro.atpg.classify import classify_faults
    from repro.faults.collapse import collapse_faults
    from repro.faults.model import generate_faults

    circuit = resolve_circuit(args.circuit)
    universe = generate_faults(circuit)
    collapsed = collapse_faults(circuit, universe)
    print(f"fault universe: {len(universe)}  collapsed: {len(collapsed)}")
    cls = classify_faults(circuit, faults=collapsed)
    print(f"classification: {cls.summary()}")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    import json

    from repro.analysis import CATALOG_SUPPRESSIONS, LintOptions, lint_circuit

    if args.all:
        targets = [
            (name, load_circuit(name))
            for name in available_circuits(tier=args.tier)
        ]
    elif args.tier:
        print("lint: --tier only applies with --all", file=sys.stderr)
        return 2
    elif args.circuit:
        # A netlist that does not even parse is the hardest lint failure;
        # report the parse diagnostics in place of a lint report.
        try:
            targets = [(args.circuit, resolve_circuit(args.circuit))]
        except IngestionError as exc:
            print(f"{args.circuit}: {exc}")
            return 1
    else:
        print("lint: give a circuit or --all", file=sys.stderr)
        return 2

    suppress = tuple(s for s in args.suppress.split(",") if s)
    exit_code = 0
    payload = []
    for name, circuit in targets:
        per_circuit = suppress
        if args.all:
            # Documented expected findings on catalog stand-ins.
            per_circuit = suppress + CATALOG_SUPPRESSIONS.get(name, ())
        options = LintOptions(suppress=per_circuit)
        if args.scoap_threshold is not None:
            options = LintOptions(
                scoap_difficulty_threshold=args.scoap_threshold,
                suppress=per_circuit,
            )
        report = lint_circuit(circuit, options)
        if args.json:
            payload.append(report.to_dict())
        else:
            print(report.render())
        if report.has_errors or (args.strict and report.warnings):
            exit_code = 1
    if args.json:
        print(json.dumps(payload if args.all else payload[0], indent=2))
    return exit_code


def cmd_analyze(args: argparse.Namespace) -> int:
    import json

    from repro.analysis.cop import analyze_circuit
    from repro.circuit.cache import CompileCache
    from repro.circuit.levelize import CombinationalCycleError

    try:
        circuit = resolve_circuit(args.circuit)
    except IngestionError as exc:
        print(f"{args.circuit}: {exc}", file=sys.stderr)
        return 1
    cache = (
        CompileCache(args.cache_dir) if args.cache_dir
        else CompileCache.from_env()
    )
    try:
        analysis = analyze_circuit(
            circuit, rpr_threshold=args.threshold, cache=cache
        )
    except (KeyError, CombinationalCycleError) as exc:
        # Structurally broken netlist; `repro lint` pinpoints the cause.
        print(
            f"{args.circuit}: cannot analyze ({exc}); run `repro lint` "
            f"for the structural diagnosis",
            file=sys.stderr,
        )
        return 1
    if args.json:
        print(json.dumps(analysis.to_dict(top_k=args.top), indent=2))
    else:
        print(analysis.render(top_k=args.top))
    return 0


def _config_from_args(args: argparse.Namespace) -> BistConfig:
    try:
        return BistConfig(
            la=args.la,
            lb=args.lb,
            n=args.n,
            base_seed=args.seed,
            d1_values=(
                D1_DECREASING if args.d1_order == "decreasing"
                else D1_INCREASING
            ),
            max_iterations=args.max_iterations,
            candidate_bias=args.candidate_bias,
            n_jobs=args.jobs,
            candidate_batch=args.candidate_batch,
            shard_timeout=args.shard_timeout,
            shard_retries=args.shard_retries,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _bist_from_args(args: argparse.Namespace, circuit: Circuit,
                    config: BistConfig) -> LimitedScanBist:
    """Session construction shared by ``run`` and ``first-complete``.

    Wires up the compile cache (``--cache-dir`` or ``$REPRO_CACHE_DIR``)
    and the target-fault universe.  ``--targets collapsed`` skips the
    PODEM detectability classification and targets the full collapsed
    set -- the right choice at real-silicon sizes, where classification
    costs far more than the fault simulation it would trim.
    """
    from repro.circuit.cache import CompileCache

    cache = (
        CompileCache(args.cache_dir) if args.cache_dir
        else CompileCache.from_env()
    )
    targets = None
    if args.targets == "collapsed":
        from repro.faults.collapse import collapse_faults

        targets = collapse_faults(circuit)
    return LimitedScanBist(
        circuit, config=config, target_faults=targets, cache=cache
    )


def cmd_run(args: argparse.Namespace) -> int:
    if args.resume and not args.checkpoint:
        print("run: --resume requires --checkpoint PATH", file=sys.stderr)
        return 2
    circuit = resolve_circuit(args.circuit)
    config = _config_from_args(args)
    bist = _bist_from_args(args, circuit, config)
    if args.checkpoint:
        result = bist.run_checkpointed(args.checkpoint, resume=args.resume)
    else:
        result = bist.run()
    print(result.summary())
    for pair in result.pairs:
        print(f"  I={pair.iteration:<3} D1={pair.d1:<3} "
              f"+{pair.newly_detected} faults, {pair.nsh} shift cycles")
    if result.degradation is not None:
        print(f"degraded: {result.degradation.summary()}", file=sys.stderr)
    return 0 if result.complete else 1


def cmd_first_complete(args: argparse.Namespace) -> int:
    circuit = resolve_circuit(args.circuit)
    bist = _bist_from_args(args, circuit, _config_from_args(args))
    report = bist.first_complete(max_combos=args.max_combos)
    print(report.row())
    print(report.result.summary())
    return 0 if report.result.complete else 1


def cmd_table(args: argparse.Namespace) -> int:
    from repro.experiments import table1, table3, table4, table5, table6, table7, table8

    drivers = {
        "1": lambda: table1.run().render(),
        "3": lambda: table3.run(full=args.full).render(),
        "4": lambda: table4.run(full=args.full).render(),
        "5": lambda: table5.run().render(),
        "6": lambda: table6.run(
            table6.PAPER_CIRCUITS if args.full else table6.DEFAULT_CIRCUITS
        ).render(),
        "7": lambda: table7.run().render(),
        "8": lambda: table8.run().render(),
    }
    if args.number not in drivers:
        print(f"no driver for table {args.number}; available: "
              f"{', '.join(sorted(drivers))}", file=sys.stderr)
        return 2
    print(drivers[args.number]())
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    import json

    from repro.fuzz.corpus import load_corpus, replay_entry
    from repro.fuzz.runner import FuzzConfig, run_fuzz

    if args.replay:
        entries = load_corpus(args.replay)
        if not entries:
            print(f"fuzz: no corpus entries under {args.replay}",
                  file=sys.stderr)
            return 2
        failures = 0
        for entry in entries:
            problem = replay_entry(entry)
            status = "ok" if problem is None else f"FAIL ({problem})"
            print(f"{entry.path.name}: {status}")
            failures += problem is not None
        return 1 if failures else 0

    config = FuzzConfig(
        budget=args.budget,
        seed=args.seed,
        timeout_s=args.timeout,
        mem_mb=args.mem_mb,
        sandbox=not args.no_sandbox,
        minimize=args.minimize,
        corpus_dir=args.corpus,
    )
    report = run_fuzz(config)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render())
    return 0 if report.clean else 1


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from repro.robustness.chaos import ServeChaosPlan
    from repro.serve.budgets import JobBudget
    from repro.serve.jobs import JobManager
    from repro.serve.queue import MultiTenantQueue
    from repro.serve.server import serve_forever

    if args.healthz:
        # Probe mode: hit a running server's /healthz and print the JSON.
        from repro.serve.client import ServeClient
        from repro.serve.errors import ServeError

        port = args.port
        port_file = Path(args.data_dir) / "serve.port"
        if port == 0 and port_file.exists():
            port = int(port_file.read_text("utf-8").strip())
        if port == 0:
            print("serve: --healthz needs --port or a serve.port file",
                  file=sys.stderr)
            return 2
        try:
            payload = ServeClient(args.host, port).healthz()
        except (ServeError, OSError) as exc:
            print(f"serve: health check failed: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0

    chaos = ServeChaosPlan(
        exit_after_submits=args.chaos_exit_after_submits,
    )
    manager = JobManager(
        args.data_dir,
        queue=MultiTenantQueue(
            max_depth=args.max_queue,
            rate_per_s=args.rate_per_s,
            burst=args.burst,
        ),
        budget=JobBudget(
            wall_s=args.wall_budget,
            mem_mb=args.mem_mb or None,
            max_retries=args.retries,
        ),
        compile_cache_dir=args.cache_dir,
        chaos=chaos,
        allow_request_chaos=args.enable_chaos,
    )
    print(
        f"repro serve: data dir {manager.data_dir}, "
        f"{manager.recovered_jobs} job(s) recovered",
        file=sys.stderr,
    )
    try:
        asyncio.run(
            serve_forever(
                manager,
                host=args.host,
                port=args.port,
                workers=args.workers,
                port_file=manager.data_dir / "serve.port",
            )
        )
    except KeyboardInterrupt:  # pragma: no cover - loop usually handles it
        pass
    return 0


def cmd_convert(args: argparse.Namespace) -> int:
    circuit = resolve_circuit(args.source)
    dest = Path(args.dest)
    if dest.suffix == ".bench":
        write_bench_file(circuit, dest)
    elif dest.suffix in (".v", ".sv"):
        write_verilog_file(circuit, dest)
    else:
        print(f"unknown output format: {dest.suffix}", file=sys.stderr)
        return 2
    print(f"wrote {dest}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Random limited-scan BIST (DAC 2001)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list catalog circuits").set_defaults(
        func=cmd_list
    )

    p = sub.add_parser("stats", help="circuit statistics")
    p.add_argument("circuit")
    p.add_argument("--testability", action="store_true",
                   help="include the SCOAP difficulty profile")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("faults", help="fault counts and classification")
    p.add_argument("circuit")
    p.set_defaults(func=cmd_faults)

    p = sub.add_parser("lint", help="design-rule & testability lint")
    p.add_argument("circuit", nargs="?",
                   help="catalog name or netlist path (or use --all)")
    p.add_argument("--all", action="store_true",
                   help="lint every catalog circuit (with its documented "
                        "suppressions)")
    p.add_argument("--json", action="store_true",
                   help="emit the structured report as JSON")
    p.add_argument("--strict", action="store_true",
                   help="exit nonzero on warnings too, not just errors")
    p.add_argument("--suppress", default="",
                   help="comma-separated rule IDs to skip (e.g. S006,T002)")
    p.add_argument("--scoap-threshold", type=int, default=None,
                   help="T001 random-pattern-resistance difficulty cutoff")
    p.add_argument("--tier", choices=("small", "medium", "large"),
                   default=None,
                   help="with --all: lint only the named catalog tier "
                        "instead of compiling everything")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser(
        "analyze",
        help="static COP testability report (RPR faults, scan benefit)",
    )
    p.add_argument("circuit",
                   help="catalog name or netlist path")
    p.add_argument("--json", action="store_true",
                   help="emit the structured report as JSON")
    p.add_argument("--top", type=int, default=10, metavar="K",
                   help="how many RPR faults / state bits to list "
                        "(default 10)")
    p.add_argument("--threshold", type=float, default=1e-3, metavar="P",
                   help="RPR cutoff: faults with estimated detection "
                        "probability below P (default 1e-3)")
    p.add_argument("--cache-dir", metavar="DIR", dest="cache_dir",
                   help="compile-cache directory (default: "
                        "$REPRO_CACHE_DIR if set); COP measures are "
                        "cached by circuit fingerprint")
    p.set_defaults(func=cmd_analyze)

    def add_bist_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("circuit")
        p.add_argument("--la", type=int, default=8)
        p.add_argument("--lb", type=int, default=16)
        p.add_argument("--n", type=int, default=64)
        p.add_argument("--seed", type=int, default=20010618)
        p.add_argument("--d1-order", choices=("increasing", "decreasing"),
                       default="increasing")
        p.add_argument("--candidate-bias",
                       choices=("uniform", "testability"),
                       default="uniform", dest="candidate_bias",
                       help="candidate (I, D1) search order: 'uniform' "
                            "walks --d1-order as-is (byte-identical to "
                            "previous releases); 'testability' reorders "
                            "D1 around the COP scan-benefit pivot so "
                            "effective depths are tried first")
        p.add_argument("--jobs", type=int, default=1,
                       help="fault-simulation worker processes "
                            "(1 = serial, -1 = all cores)")
        p.add_argument("--candidate-batch", type=int, default=1,
                       metavar="N", dest="candidate_batch",
                       help="candidate test sets evaluated per "
                            "simulation pass (1 = one at a time); "
                            "results are byte-identical for any value")
        p.add_argument("--shard-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="per-shard watchdog timeout before a hung "
                            "worker pool is respawned (default: wait "
                            "forever)")
        p.add_argument("--shard-retries", type=int, default=2,
                       help="parallel retries for a failed shard before "
                            "it is re-run serially (default: 2)")
        p.add_argument("--max-iterations", type=int, default=60,
                       metavar="N", dest="max_iterations",
                       help="Procedure 2 iteration budget (default 60); "
                            "a run that exhausts it reports incomplete "
                            "coverage as data, not an error")
        p.add_argument("--targets", choices=("detectable", "collapsed"),
                       default="detectable",
                       help="fault universe: 'detectable' classifies "
                            "faults first (PODEM; precise but slow), "
                            "'collapsed' targets the whole collapsed set "
                            "(the scalable choice on large circuits)")
        p.add_argument("--cache-dir", metavar="DIR", dest="cache_dir",
                       help="compile-cache directory (default: "
                            "$REPRO_CACHE_DIR if set); circuits are "
                            "levelized/compiled once per fingerprint")

    p = sub.add_parser("run", help="Procedure 2 for one (LA, LB, N)")
    add_bist_args(p)
    p.add_argument("--checkpoint", metavar="PATH",
                   help="journal every iteration to PATH so a killed run "
                        "can be resumed")
    p.add_argument("--resume", action="store_true",
                   help="continue from --checkpoint's journal if it "
                        "exists (byte-identical to an uninterrupted run)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("first-complete",
                       help="cheapest combination reaching 100% coverage")
    add_bist_args(p)
    p.add_argument("--max-combos", type=int, default=8)
    p.set_defaults(func=cmd_first_complete)

    p = sub.add_parser("table", help="regenerate a paper table")
    p.add_argument("number")
    p.add_argument("--full", action="store_true")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser(
        "fuzz",
        help="deterministic fuzzing of the netlist ingestion pipeline",
    )
    p.add_argument("--budget", type=int, default=200,
                   help="number of fuzz cases (default 200)")
    p.add_argument("--seed", type=int, default=0,
                   help="master seed; same seed => byte-identical "
                        "case list and report")
    p.add_argument("--timeout", type=float, default=10.0, metavar="SECONDS",
                   help="per-case wall-clock budget (default 10s)")
    p.add_argument("--mem-mb", type=int, default=1024,
                   help="per-case address-space budget in MiB (default 1024)")
    p.add_argument("--corpus", metavar="DIR",
                   help="write each unique failure (minimized if "
                        "--minimize) as a corpus file under DIR")
    p.add_argument("--minimize", action="store_true",
                   help="delta-debug each unique failure down to a "
                        "minimal reproducer")
    p.add_argument("--replay", metavar="DIR",
                   help="replay a regression corpus instead of fuzzing")
    p.add_argument("--no-sandbox", action="store_true",
                   help="run cases in-process (no timeout/memory guard); "
                        "faster, for trusted case sources")
    p.add_argument("--json", action="store_true",
                   help="emit the triage report as JSON")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser(
        "serve",
        help="durable crash-safe job service over HTTP (see docs/serving.md)",
    )
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=0,
                   help="bind port; 0 (default) picks an ephemeral port "
                        "and records it in <data-dir>/serve.port")
    p.add_argument("--data-dir", default="serve-data", dest="data_dir",
                   help="journal, spooled jobs, and result cache "
                        "(default ./serve-data); restart with the same "
                        "dir to recover in-flight jobs")
    p.add_argument("--workers", type=int, default=1,
                   help="concurrent job executions (default 1)")
    p.add_argument("--max-queue", type=int, default=64, dest="max_queue",
                   help="bounded queue depth before Q001 shedding")
    p.add_argument("--rate-per-s", type=float, default=2.0,
                   dest="rate_per_s",
                   help="per-tenant submission refill rate (default 2/s)")
    p.add_argument("--burst", type=float, default=10.0,
                   help="per-tenant submission burst size (default 10)")
    p.add_argument("--wall-budget", type=float, default=300.0,
                   dest="wall_budget", metavar="SECONDS",
                   help="wall-clock budget per job attempt (default 300s)")
    p.add_argument("--mem-mb", type=int, default=2048,
                   help="RLIMIT_AS per job child in MiB; 0 = unlimited")
    p.add_argument("--retries", type=int, default=1,
                   help="retries per job after the first attempt "
                        "(each resumes from the checkpoint; default 1)")
    p.add_argument("--cache-dir", metavar="DIR", dest="cache_dir",
                   help="compile-cache directory shared by job children")
    p.add_argument("--enable-chaos", action="store_true",
                   dest="enable_chaos",
                   help="accept per-request chaos plans (tests only)")
    p.add_argument("--chaos-exit-after-submits", type=int, default=None,
                   dest="chaos_exit_after_submits", metavar="N",
                   help="chaos: hard-exit the server after N accepted "
                        "submissions (crash-recovery tests)")
    p.add_argument("--healthz", action="store_true",
                   help="probe a running server's /healthz (using --port "
                        "or <data-dir>/serve.port) and print the JSON")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("convert", help="convert between .bench and .v")
    p.add_argument("source")
    p.add_argument("dest")
    p.set_defaults(func=cmd_convert)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (IngestionError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
