"""Command-line interface.

Mirrors Dovado's two user flows::

    dovado-repro list-designs
    dovado-repro list-parts
    dovado-repro eval --design corundum-cqm --part XC7K70T \\
        --set OP_TABLE_SIZE=16 --set PIPELINE=3 [--metric LUT:min ...]
    dovado-repro dse  --design tirex --part ZU3EG --generations 15 \\
        --population 24 [--no-model] [--deadline-hours 4] [--out results/]

``--design`` accepts a built-in case-study name; ``--source FILE --top M``
evaluates arbitrary HDL instead (with ``--param NAME:LO:HI[:pow2]``
declaring the space for DSE mode).

The service flow (DSE as a service) multiplexes many sessions over one
shared store and scheduler::

    dovado-repro serve  --root svc/ --capacity 4 &
    dovado-repro submit --root svc/ --design tirex --generations 10
    dovado-repro jobs   --root svc/
    dovado-repro cancel --root svc/ job-000000
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.core.metrics import MetricSpec
from repro.core.session import DseSession
from repro.core.spaces import IntRange, ParameterSpace, PowerOfTwoRange
from repro.designs import all_designs, get_design
from repro.devices import list_devices
from repro.errors import ReproError
from repro.moo.problem import Sense
from repro.util.tables import render_table

__all__ = ["main", "build_parser"]


def _parse_metric(text: str) -> MetricSpec:
    name, _, sense = text.partition(":")
    sense = sense or "min"
    return MetricSpec(name, Sense.MAXIMIZE if sense == "max" else Sense.MINIMIZE)


def _parse_assignment(text: str) -> tuple[str, int]:
    name, _, value = text.partition("=")
    if not value:
        raise argparse.ArgumentTypeError(f"expected NAME=VALUE, got {text!r}")
    return name, int(value, 0)


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _unit_interval_float(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1), got {value}")
    return value


def _parse_dim(text: str):
    parts = text.split(":")
    if len(parts) < 3:
        raise argparse.ArgumentTypeError(
            f"expected NAME:LO:HI[:pow2], got {text!r}"
        )
    name, lo, hi = parts[0], int(parts[1]), int(parts[2])
    if len(parts) > 3 and parts[3] == "pow2":
        return PowerOfTwoRange(name, lo, hi)
    return IntRange(name, lo, hi)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dovado-repro",
        description="Dovado reproduction: FPGA RTL design automation and DSE.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-designs", help="show built-in case-study designs")
    sub.add_parser("list-parts", help="show the device catalog")

    p_hier = sub.add_parser("hierarchy", help="print the RTL hierarchy of sources")
    p_hier.add_argument("sources", nargs="+", help="HDL source files")
    p_hier.add_argument("--root", help="render only this module's subtree")

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--design", help="built-in design name")
        p.add_argument("--source", help="HDL source file (alternative to --design)")
        p.add_argument("--top", help="top module for --source")
        p.add_argument("--part", default="XC7K70T")
        p.add_argument(
            "--metric", action="append", type=_parse_metric, dest="metrics",
            help="NAME[:min|max]; repeatable (default: LUT:min frequency:max)",
        )
        p.add_argument("--period-ns", type=float, default=1.0)
        p.add_argument("--step", choices=("synthesis", "implementation"),
                       default="implementation")
        p.add_argument("--seed", type=int, default=0)

    p_eval = sub.add_parser("eval", help="evaluate explicit design point(s)")
    add_common(p_eval)
    p_eval.add_argument(
        "--set", action="append", type=_parse_assignment, dest="assignments",
        default=[], help="parameter NAME=VALUE; repeatable",
    )

    p_dse = sub.add_parser(
        "dse", aliases=["explore"],
        help="explore the design space with NSGA-II",
    )
    add_common(p_dse)
    p_dse.add_argument("--generations", type=int, default=15)
    p_dse.add_argument("--population", type=int, default=24)
    p_dse.add_argument("--no-model", action="store_true",
                       help="disable the fitness approximation model")
    p_dse.add_argument("--pretrain", type=int, default=100,
                       help="synthetic dataset size M (default 100)")
    p_dse.add_argument("--deadline-hours", type=float,
                       help="soft deadline in simulated tool hours")
    p_dse.add_argument("--incremental", action="store_true",
                       help="enable the incremental synthesis/implementation flow")
    p_dse.add_argument("--algorithm", default="nsga2",
                       choices=("nsga2", "spea2", "mosa", "exhaustive", "auto"),
                       help="solver: NSGA-II (paper), MOSA, exhaustive, or "
                            "the run-time chooser")
    p_dse.add_argument("--workers", type=_nonnegative_int, default=0,
                       help="persistent process-pool size for population "
                            "evaluation (0 = serial)")
    p_dse.add_argument("--refit-every", type=_nonnegative_int, default=1,
                       help="re-run the LOO bandwidth scan every N dataset "
                            "inserts (default 1 = per insert, 0 = never)")
    p_dse.add_argument("--refit-gamma-drift", type=_positive_float, default=None,
                       help="also rescan when the adaptive threshold drifts "
                            "by this relative fraction")
    p_dse.add_argument("--fidelity-gate", choices=("off", "on"), default="off",
                       help="speculative multi-fidelity evaluation: probe "
                            "each fresh candidate at low fidelity and skip "
                            "route+STA when the learned gate proves the "
                            "point dominated (default off; implementation "
                            "step only; control-model dataset inserts "
                            "always run the full flow, so the gate engages "
                            "on --no-model evaluations)")
    p_dse.add_argument("--gate-risk", type=_unit_interval_float, default=0.05,
                       help="per-metric miss probability the gate's "
                            "conformal error band targets (default 0.05; "
                            "lower = wider band = fewer skips)")
    p_dse.add_argument("--gate-fidelity", default="synth-estimate",
                       choices=("static-estimate", "synth-estimate",
                                "placed-estimate"),
                       help="ladder rung the gate probes at (default "
                            "synth-estimate; static-estimate charges zero "
                            "simulated seconds)")
    p_dse.add_argument("--gate-static-priors", action="store_true",
                       help="feed each gated point's static-estimate bounds "
                            "(rung 0) to the promotion gate as extra "
                            "residual-model features (requires "
                            "--fidelity-gate on)")
    p_dse.add_argument("--drc-netlist", action="store_true",
                       help="extend the DRC pre-flight gate with the "
                            "netlist-structure stage: reject points whose "
                            "elaborated netlist has combinational loops, "
                            "undriven blocks, or multiply-driven nets "
                            "(N001-N003) before any tool run")
    p_dse.add_argument(
        "--param", action="append", type=_parse_dim, dest="dims", default=[],
        help="NAME:LO:HI[:pow2] space dimension (required with --source)",
    )
    p_dse.add_argument("--prune-space", action="store_true",
                       help="statically prune the space before exploring: "
                            "drop dead dimensions, clip value subranges the "
                            "interval analysis proves infeasible")
    p_dse.add_argument("--out", help="directory for JSON/CSV results")
    p_dse.add_argument("--trace", metavar="FILE",
                       help="enable telemetry: write a JSONL trace to FILE "
                            "and print the run summary at session end")
    p_dse.add_argument("--result-store", metavar="PATH",
                       help="persistent cross-run result store directory: "
                            "previously evaluated configurations replay as "
                            "cache answers; fresh tool runs are appended")

    p_lint = sub.add_parser(
        "lint", help="run the design rule checker (CI exit codes: 0/1/2)"
    )
    p_lint.add_argument("sources", nargs="*",
                        help="HDL source files to lint (with --self: an "
                             "optional Python package directory to scan)")
    p_lint.add_argument("--design", help="built-in design name")
    p_lint.add_argument("--self", action="store_true", dest="self_scan",
                        help="run the S-series concurrency/atomicity rules "
                             "over this package's own service layer (or the "
                             "directory given as the positional argument)")
    p_lint.add_argument("--top", help="restrict point checks to this module")
    p_lint.add_argument(
        "--at", action="append", type=_parse_assignment, dest="at",
        default=[], help="parameter NAME=VALUE for the point-aware checks; "
                         "repeatable (default: design defaults + boundary "
                         "points of the declared space)",
    )
    p_lint.add_argument("--strict", action="store_true",
                        help="exit 1 when warnings remain")
    p_lint.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text", help="report format (default text)")
    p_lint.add_argument("--output", help="write the report to this file")
    p_lint.add_argument("--disable", action="append", dest="disabled",
                        default=[], metavar="CODE",
                        help="disable a rule code; repeatable")
    p_lint.add_argument("--baseline", help="baseline suppression file (JSON)")
    p_lint.add_argument("--update-baseline", action="store_true",
                        help="write current findings to --baseline and exit 0")
    p_lint.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    p_lint.add_argument("--no-box", action="store_true",
                        help="skip the boxing-wrapper rules (B codes)")
    p_lint.add_argument("--netlist", action="store_true",
                        help="also elaborate each checked point and run the "
                             "netlist-structure rules (N codes)")
    p_lint.add_argument("--part", default="XC7K70T",
                        help="device for the netlist rules' derived "
                             "thresholds (default XC7K70T)")
    p_lint.add_argument("--period-ns", type=_positive_float, default=10.0,
                        help="target clock period for the N005 achievable-"
                             "depth threshold (default 10.0)")
    p_lint.add_argument("--default-point", action="store_true",
                        help="point-aware checks run only at the module's "
                             "default parameter binding (skip the boundary-"
                             "point sweep)")

    p_sweep = sub.add_parser(
        "sweep", help="exact-set evaluation of a cartesian parameter grid"
    )
    add_common(p_sweep)
    p_sweep.add_argument(
        "--grid", action="append", dest="grids", default=[],
        help="NAME=V1,V2,V3 value list; repeatable (cartesian product)",
    )
    p_sweep.add_argument("--workers", type=_nonnegative_int, default=0,
                         help="process-pool size (0 = serial)")
    p_sweep.add_argument("--csv", help="write the sweep rows to this CSV file")
    p_sweep.add_argument("--trace", metavar="FILE",
                         help="enable telemetry: write a JSONL trace to FILE "
                              "and print the run summary at session end")
    p_sweep.add_argument("--result-store", metavar="PATH",
                         help="persistent cross-run result store directory: "
                              "previously evaluated configurations replay as "
                              "cache answers; fresh tool runs are appended")

    p_stats = sub.add_parser(
        "stats", help="summarize a JSONL telemetry trace (from --trace)"
    )
    p_stats.add_argument("trace", help="trace file to summarize")

    p_cache = sub.add_parser(
        "cache", help="inspect or maintain a persistent result store"
    )
    p_cache.add_argument("action", choices=("stats", "clear", "export", "compact"),
                         help="stats: shape + hit tallies; clear: drop every "
                              "record; export: merge to one JSONL file; "
                              "compact: rewrite segments keeping only index "
                              "winners (superseded/duplicate records dropped)")
    p_cache.add_argument("--store", required=True, metavar="PATH",
                         help="result store directory (flat or sharded — "
                              "the MANIFEST decides)")
    p_cache.add_argument("--out", metavar="FILE",
                         help="output file for export "
                              "(default: <store>/export.jsonl)")

    p_serve = sub.add_parser(
        "serve", help="run the DSE service: claim queued jobs, multiplex "
                      "their evaluations over one shared store + scheduler"
    )
    p_serve.add_argument("--root", required=True, metavar="DIR",
                         help="service root (queue/, store/, results/ live "
                              "here; touch <root>/STOP for graceful drain)")
    p_serve.add_argument("--capacity", type=_positive_int, default=4,
                         help="evaluation worker threads shared by all jobs "
                              "(default 4)")
    p_serve.add_argument("--shards", type=_positive_int, default=8,
                         help="shard count when creating the shared store "
                              "(default 8; an existing store keeps its own)")
    p_serve.add_argument("--slots", type=_positive_int, default=2,
                         help="max concurrent evaluations per job (default 2)")
    p_serve.add_argument("--max-idle", type=_positive_float, default=None,
                         metavar="SECONDS",
                         help="exit after the queue stays empty this long "
                              "(default: run until STOP)")
    p_serve.add_argument("--stop-after", type=_nonnegative_int, default=None,
                         metavar="N", help="exit once N jobs finished (smoke "
                                           "tests; default: run until STOP)")
    p_serve.add_argument("--poll-interval", type=_positive_float, default=0.2,
                         metavar="SECONDS",
                         help="claim-loop heartbeat (default 0.2): cancel "
                              "markers, STOP and submits from other "
                              "processes are seen within this period")
    p_serve.add_argument("--trace", metavar="FILE",
                         help="enable telemetry: write a JSONL trace to FILE "
                              "and print the summary at shutdown")

    p_submit = sub.add_parser(
        "submit", help="enqueue a DSE job for a running server"
    )
    p_submit.add_argument("--root", required=True, metavar="DIR",
                          help="service root (same as serve --root)")
    p_submit.add_argument("--design", required=True,
                          help="built-in design name to explore")
    p_submit.add_argument("--part", default="XC7K70T")
    p_submit.add_argument("--period-ns", type=_positive_float, default=1.0)
    p_submit.add_argument("--seed", type=int, default=0)
    p_submit.add_argument("--generations", type=int, default=15)
    p_submit.add_argument("--population", type=int, default=24)
    p_submit.add_argument("--use-model", action="store_true",
                          help="enable the fitness approximation model")
    p_submit.add_argument("--pretrain", type=_nonnegative_int, default=0,
                          help="synthetic dataset size M (with --use-model)")
    p_submit.add_argument("--algorithm", default="nsga2",
                          choices=("nsga2", "spea2", "mosa", "exhaustive"))
    p_submit.add_argument("--deadline-hours", type=_positive_float, default=None,
                          help="soft deadline in simulated tool hours")

    p_jobs = sub.add_parser("jobs", help="list the service's jobs and states")
    p_jobs.add_argument("--root", required=True, metavar="DIR",
                        help="service root (same as serve --root)")

    p_cancel = sub.add_parser("cancel", help="cancel a queued or running job")
    p_cancel.add_argument("--root", required=True, metavar="DIR",
                          help="service root (same as serve --root)")
    p_cancel.add_argument("job_id", help="the id `submit` printed")
    return parser


class _InputError(ReproError):
    """An input file or design name the command could not load."""


def _input_text(path: str) -> str:
    """The text of an input file; a file that cannot be read is an _InputError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise _InputError(f"cannot read {path}: not UTF-8 text") from None


def _design(name: str):
    """The built-in design ``name``; an unknown name is an _InputError."""
    try:
        return get_design(name)
    except KeyError as exc:
        raise _InputError(exc.args[0]) from None


def _queue(root: str):
    """The job queue of an existing service root, creating nothing."""
    from repro.serve import FileJobQueue

    path = Path(root) / "queue"
    if not path.is_dir():
        raise ReproError(f"no job queue under {root}")
    return FileJobQueue(path)


def _make_session(args: argparse.Namespace, need_space: bool) -> DseSession:
    from repro.flow.vivado_sim import FlowStep

    common = dict(
        part=args.part,
        metrics=args.metrics,
        target_period_ns=args.period_ns,
        step=FlowStep(args.step),
        seed=args.seed,
        incremental=getattr(args, "incremental", False),
        refit_every=getattr(args, "refit_every", 1),
        refit_gamma_drift=getattr(args, "refit_gamma_drift", None),
        result_store=getattr(args, "result_store", None),
        fidelity_gate=getattr(args, "fidelity_gate", "off") == "on",
        gate_risk=getattr(args, "gate_risk", 0.05),
        gate_fidelity=getattr(args, "gate_fidelity", "synth-estimate"),
        gate_static_priors=getattr(args, "gate_static_priors", False),
        drc_netlist=getattr(args, "drc_netlist", False),
    )
    if args.design:
        return DseSession(design=_design(args.design), **common)
    if not args.source or not args.top:
        raise SystemExit("either --design or (--source and --top) is required")
    source = _input_text(args.source)
    from repro.hdl.frontend import detect_language

    language = str(detect_language(args.source, source))
    dims = getattr(args, "dims", [])
    if need_space and not dims:
        raise SystemExit("--param NAME:LO:HI[:pow2] is required with --source in dse mode")
    space = ParameterSpace(dims) if dims else ParameterSpace(
        [IntRange("__dummy", 0, 0)]
    )
    return DseSession(
        source=source, language=language, top=args.top, space=space, **common
    )


def _netlist_sweep(checker, modules, points, part: str, period_ns: float):
    """N-rule findings for each (module, point) pair of the lint sweep.

    Points the elaborator refuses outright are skipped here — the
    elaboration-stage rules (P codes) in the same sweep own those
    diagnostics, and a netlist that never existed has no structure to
    check.
    """
    from repro.analysis.findings import CheckResult
    from repro.devices import get_device
    from repro.errors import ElaborationError

    device = get_device(part)
    merged = CheckResult(())
    for module in modules:
        for point in points:
            try:
                result = checker.check_netlist(
                    module, point, device=device, target_period_ns=period_ns
                )
            except ElaborationError:
                continue
            merged = merged.merged(result)
    return merged


def _lint(args: argparse.Namespace) -> int:
    """The ``lint`` subcommand: DRC sweep with CI-grade output.

    Exit codes: 0 clean, 1 warnings under ``--strict``, 2 errors.
    """
    from repro.analysis import (
        DesignRuleChecker,
        RuleConfig,
        all_rules,
        exit_code,
        load_baseline,
        render_json,
        render_sarif,
        render_text,
        write_baseline,
    )

    if args.list_rules:
        rows = [
            (r.code, str(r.severity), str(r.stage), r.name, r.description)
            for r in all_rules()
        ]
        print(render_table(("Code", "Severity", "Stage", "Name", "Description"),
                           rows))
        return 0

    baseline: frozenset[str] = frozenset()
    if args.baseline and not args.update_baseline and Path(args.baseline).exists():
        baseline = load_baseline(args.baseline)
    checker = DesignRuleChecker(
        RuleConfig(disabled=frozenset(args.disabled), baseline=baseline)
    )
    points = [dict(args.at)] if args.at else None
    if points is None and args.default_point:
        points = [{}]
    boxed = not args.no_box

    if args.self_scan:
        from repro.analysis import collect_py_sources

        root = Path(args.sources[0]) if args.sources else None
        result = checker.check_python(collect_py_sources(root))
    elif args.design:
        gen = _design(args.design)
        source = gen.source()
        from repro.hdl.frontend import parse_source

        modules = parse_source(source, gen.language)
        space = ParameterSpace.from_design(gen)
        result = checker.check_design(
            gen.module(),
            space=space,
            sources=((source, str(gen.language)),),
            known_modules=[m.name for m in modules],
            points=points,
            boxed=boxed,
        )
        if args.netlist:
            from repro.analysis.checker import boundary_points

            point_list = points if points is not None else boundary_points(space)
            result = result.merged(_netlist_sweep(
                checker, [gen.module()], point_list, args.part, args.period_ns
            ))
    elif args.sources:
        from repro.hdl.frontend import detect_language, parse_source

        texts: list[tuple[str, str]] = []
        all_modules = []
        for path in args.sources:
            text = _input_text(path)
            language = detect_language(path, text)
            texts.append((text, str(language)))
            all_modules.extend(parse_source(text, language))
        known = [m.name for m in all_modules]
        if args.top:
            selected = [
                m for m in all_modules if m.name.lower() == args.top.lower()
            ]
            if not selected:
                raise SystemExit(f"top {args.top!r} not found in sources")
        else:
            selected = all_modules
        result = checker.check_sources(texts, known_modules=known)
        for module in selected:
            result = result.merged(checker.check_interface(module))
            result = result.merged(
                checker.check_dataflow(module, sources=texts)
            )
            for point in points or [{}]:
                result = result.merged(
                    checker.check_point(module, point, boxed=boxed)
                )
        if args.netlist:
            result = result.merged(_netlist_sweep(
                checker, selected, points or [{}], args.part, args.period_ns
            ))
    else:
        raise SystemExit("either --design or HDL source files are required")

    findings = list(result.findings)
    if args.update_baseline:
        if not args.baseline:
            raise SystemExit("--update-baseline requires --baseline FILE")
        path = write_baseline(args.baseline, findings)
        print(f"baseline written: {path} ({len(findings)} suppression(s))")
        return 0

    renderer = {
        "text": render_text, "json": render_json, "sarif": render_sarif,
    }[args.format]
    report = renderer(findings)
    if args.output:
        Path(args.output).write_text(report, encoding="utf-8")
        print(f"report written: {args.output}")
    else:
        print(report, end="")
    return exit_code(findings, strict=args.strict)


def _start_trace(args: argparse.Namespace):
    """Enable telemetry when ``--trace`` was given; returns the bundle."""
    if not getattr(args, "trace", None):
        return None
    from repro.observe import enable_telemetry

    return enable_telemetry()


def _finish_trace(tel, args: argparse.Namespace, command: str) -> None:
    """Write the trace file, print the summary, and turn telemetry off.

    Runs in a ``finally`` so a failed run still leaves a valid trace.
    """
    from repro.observe import disable_telemetry, render_summary, write_trace

    meta = {
        k: v
        for k, v in {
            "command": command,
            "design": getattr(args, "design", None),
            "source": getattr(args, "source", None),
            "part": getattr(args, "part", None),
            "seed": getattr(args, "seed", None),
        }.items()
        if v is not None
    }
    try:
        path = write_trace(args.trace, tel, meta=meta)
        print()
        print(render_summary(tel, meta=meta))
        print(f"\ntrace written: {path}")
    finally:
        disable_telemetry()


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if args.command == "lint" and isinstance(exc, _InputError):
            # lint's status 1 reads "warnings"; an input it could not
            # load is an error.
            from repro.analysis import EXIT_ERRORS

            return EXIT_ERRORS
        return 1


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "list-designs":
        rows = [
            (name, gen.top, str(gen.language),
             ", ".join(f"{p.name}[{p.low}..{p.high}{'^2' if p.power_of_two else ''}]"
                       for p in gen.params))
            for name, gen in sorted(all_designs().items())
        ]
        print(render_table(("Design", "Top", "Language", "Parameters"), rows))
        return 0

    if args.command == "list-parts":
        rows = [
            (d.part, d.family, d.process, d.resources.get("LUT"),
             d.resources.get("FF"), d.resources.get("BRAM"), d.resources.get("DSP"))
            for d in list_devices()
        ]
        print(render_table(
            ("Part", "Family", "Process", "LUT", "FF", "BRAM", "DSP"), rows
        ))
        return 0

    if args.command == "hierarchy":
        from repro.hdl.frontend import detect_language, parse_file
        from repro.hdl.hierarchy import build_hierarchy

        sources = []
        known: list[str] = []
        for path in args.sources:
            text = _input_text(path)
            language = detect_language(path, text)
            sources.append((text, language))
            known.extend(m.name for m in parse_file(path).modules)
        hierarchy = build_hierarchy(sources, known_modules=known)
        roots = [args.root] if args.root else hierarchy.top_candidates()
        for root in roots:
            print(hierarchy.render(root))
            print()
        return 0

    if args.command == "lint":
        return _lint(args)

    if args.command == "eval":
        session = _make_session(args, need_space=False)
        params = dict(args.assignments)
        point = session.evaluator.evaluate(params)
        print(point)
        print()
        print(session.evaluator.last_reports.get("utilization", ""))
        print()
        print(session.evaluator.last_reports.get("timing", ""))
        return 0

    if args.command == "stats":
        from repro.observe import read_trace, render_trace_summary

        try:
            trace = read_trace(args.trace)
        except OSError as exc:
            raise ReproError(f"cannot read {args.trace}: {exc.strerror or exc}") from None
        except (ValueError, AttributeError):
            raise ReproError(f"{args.trace} is not a JSONL trace") from None
        print(render_trace_summary(trace))
        return 0

    if args.command == "cache":
        from repro.cache import open_store

        if not Path(args.store).is_dir():
            raise ReproError(f"no result store at {args.store}")
        store = open_store(args.store)
        if args.action == "stats":
            from repro.cache import FIDELITY_RANKS

            rank_names = {rank: name for name, rank in FIDELITY_RANKS.items()}
            stats = store.stats()
            kinds: dict[str, int] = {}
            fidelities: dict[str, int] = {}
            for record in store.records():
                kinds[record.kind] = kinds.get(record.kind, 0) + 1
                name = rank_names.get(record.rank, f"rank-{record.rank}")
                fidelities[name] = fidelities.get(name, 0) + 1
            rows = [(k, v) for k, v in sorted(stats.as_dict().items())]
            rows += [(f"kind:{k}", v) for k, v in sorted(kinds.items())]
            rows += [(f"fidelity:{k}", v) for k, v in sorted(fidelities.items())]
            print(render_table(("Field", "Value"), rows,
                               title=f"Result store: {store.root}"))
        elif args.action == "clear":
            dropped = store.clear()
            print(f"cleared: {dropped} unique key(s) dropped")
        elif args.action == "compact":
            result = store.compact()
            print(f"compacted: {result.records_before} -> "
                  f"{result.records_after} record(s), "
                  f"{result.segments_before} -> {result.segments_after} "
                  f"segment(s), {result.bytes_before} -> "
                  f"{result.bytes_after} bytes")
        else:  # export
            out = args.out or str(Path(args.store) / "export.jsonl")
            path = store.export(out)
            print(f"exported: {path} ({len(store)} unique key(s))")
        return 0

    if args.command == "serve":
        import signal
        import threading

        from repro.serve import DseServer

        server = DseServer(
            args.root,
            capacity=args.capacity,
            shards=args.shards,
            slots_per_job=args.slots,
            poll_interval_s=args.poll_interval,
        )
        tel = _start_trace(args)
        print(f"serving from {args.root} "
              f"(capacity={args.capacity}, shards={args.shards}; "
              f"touch {Path(args.root) / 'STOP'} to drain)")
        # Ctrl-C drains as STOP does.  The handler may interrupt the
        # serve loop while it holds the lock stop() takes, so stop() runs
        # on a thread of its own.
        previous = signal.signal(
            signal.SIGINT, lambda *_: threading.Thread(target=server.stop).start()
        )
        try:
            stats = server.serve_forever(
                max_idle_s=args.max_idle, stop_after=args.stop_after
            )
        finally:
            signal.signal(signal.SIGINT, previous)
            if tel is not None:
                _finish_trace(tel, args, "serve")
        fleet = stats["fleet"]
        print(f"drained: done={stats['jobs_done']} "
              f"failed={stats['jobs_failed']} "
              f"cancelled={stats['jobs_cancelled']} | fleet: "
              f"tool_runs={fleet['dispatched']} "
              f"memo_hits={fleet['memo_hits']} "
              f"store_hits={fleet['store_hits']} "
              f"coalesced={stats['coalesced_hits']}")
        return 1 if stats["jobs_failed"] else 0

    if args.command == "submit":
        from repro.serve import FileJobQueue, JobSpec

        record = FileJobQueue(Path(args.root) / "queue").submit(JobSpec(
            design=args.design,
            seed=args.seed,
            generations=args.generations,
            population=args.population,
            pretrain=args.pretrain,
            use_model=args.use_model,
            algorithm=args.algorithm,
            part=args.part,
            target_period_ns=args.period_ns,
            soft_deadline_s=(
                args.deadline_hours * 3600 if args.deadline_hours else None
            ),
        ))
        print(record.job_id)
        return 0

    if args.command == "jobs":
        rows = []
        for record in _queue(args.root).jobs():
            stats = record.stats
            hits = stats.get("cache_hits")
            rows.append((
                record.job_id,
                record.spec.design,
                str(record.state),
                stats.get("tool_runs", ""),
                "" if hits is None else hits,
                ("" if hits is None
                 else f"{stats.get('cache_hit_rate', 0.0):.0%}"),
                record.error or "",
            ))
        print(render_table(
            ("Job", "Design", "State", "Tool runs", "Cache hits",
             "Hit rate", "Error"),
            rows,
        ))
        return 0

    if args.command == "cancel":
        state = _queue(args.root).cancel(args.job_id)
        if state is None:
            print(f"unknown job: {args.job_id}", file=sys.stderr)
            return 1
        print(f"{args.job_id}: {state}")
        return 0

    if args.command == "sweep":
        from repro.core.sweep import grid as make_grid, run_sweep

        session = _make_session(args, need_space=False)
        values: dict[str, list[int]] = {}
        for spec in args.grids:
            name, _, rest = spec.partition("=")
            if not rest:
                raise SystemExit(f"--grid expects NAME=V1,V2,..., got {spec!r}")
            values[name] = [int(v, 0) for v in rest.split(",") if v]
        if not values:
            raise SystemExit("at least one --grid NAME=V1,V2,... is required")
        points = make_grid(**values)
        tel = _start_trace(args)
        try:
            result = run_sweep(
                session.evaluator, points, workers=args.workers,
                design_name=args.design, result_store=args.result_store,
            )
        finally:
            if tel is not None:
                _finish_trace(tel, args, "sweep")
        print(result.to_table(
            title=f"Sweep: {len(result)} configurations "
                  f"({result.total_simulated_seconds() / 3600:.2f} tool-hours)"
        ))
        front = result.pareto()
        print(f"\nPareto subset: {len(front)} points")
        if args.csv:
            path = result.save_csv(args.csv)
            print(f"saved: {path}")
        return 0

    if args.command in ("dse", "explore"):
        session = _make_session(args, need_space=True)
        if getattr(args, "prune_space", False):
            report = session.apply_static_pruning()
            print(report.render())
        session.fitness.use_model = not args.no_model
        session.fitness.pretrain_size = args.pretrain
        deadline = args.deadline_hours * 3600 if args.deadline_hours else None
        # Telemetry must be on before the session evaluates anything (the
        # worker pool freezes the enablement state when it starts).
        tel = _start_trace(args)
        try:
            result = session.explore(
                generations=args.generations,
                population=args.population,
                soft_deadline_s=deadline,
                algorithm=args.algorithm,
                workers=args.workers,
            )
        finally:
            session.close()
            if tel is not None:
                _finish_trace(tel, args, "dse")
        if session.last_algorithm_choice is not None:
            print(f"algorithm choice: {session.last_algorithm_choice.name} "
                  f"({session.last_algorithm_choice.reason})")
        metric_names = session.evaluator.metric_names()
        param_names = session.space.names()
        rows = [
            tuple(p.parameters[n] for n in param_names)
            + tuple(round(p.metrics[m], 2) for m in metric_names)
            for p in result.pareto
        ]
        print(render_table(
            tuple(param_names) + tuple(metric_names), rows,
            title=f"Non-dominated set ({len(result.pareto)} points)",
        ))
        print()
        print(f"evaluations={result.evaluations} tool_runs={result.tool_runs} "
              f"simulated={result.simulated_seconds/3600:.2f} tool-hours")
        stats = result.stats
        fid_runs = {
            k.split(":", 1)[1]: v
            for k, v in stats.items()
            if k.startswith("runs:") and v
        }
        print(f"stage hits: synth={stats.get('synth_stage_hits', 0)} "
              f"impl={stats.get('impl_stage_hits', 0)}"
              + (" | runs: " + " ".join(f"{k}={v}"
                                        for k, v in sorted(fid_runs.items()))
                 if fid_runs else ""))
        if stats.get("gate_promoted", 0) or stats.get("gate_skipped", 0):
            print(f"fidelity gate: promoted={stats.get('gate_promoted', 0)} "
                  f"skipped={stats.get('gate_skipped', 0)} "
                  f"trickled={stats.get('gate_trickled', 0)}")
        if args.out:
            path = result.save(args.out)
            print(f"saved: {path}")
        return 0

    raise SystemExit(f"unknown command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
