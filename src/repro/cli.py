"""Command-line interface: regenerate any paper figure or table.

Examples::

    repro-mpi fig4 --collective alltoall --nodes 16 --cores 4
    repro-mpi fig7 --machines hydra galileo100
    repro-mpi fig9 --fast
    repro-mpi table2
    repro-mpi all --fast
"""

from __future__ import annotations

import argparse
import sys
import time

from repro._version import __version__
from repro.errors import ReproError, StoreError
from repro.experiments import tables
from repro.experiments.common import ExperimentConfig
from repro.sim.flow import ENGINE_MODES

_FIG_COLLECTIVES = ("reduce", "allreduce", "alltoall")


def _add_common(parser: argparse.ArgumentParser, machine_default: str = "hydra",
                nodes_default: int = 16) -> None:
    parser.add_argument("--machine", default=machine_default,
                        help=f"machine preset (default: {machine_default})")
    parser.add_argument("--nodes", type=int, default=nodes_default)
    parser.add_argument("--cores", type=int, default=4, dest="cores_per_node")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--nrep", type=int, default=1)
    parser.add_argument("--fast", action="store_true",
                        help="shrink sweeps for a quick run")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also dump raw results as JSON")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for the sweep fan-out "
                        "(default: 1 = serial; output is identical either way)")
    parser.add_argument("--cache-dir", default=None, metavar="PATH",
                        help="content-addressed result cache; re-runs skip "
                        "already-simulated cells")
    parser.add_argument("--engine-mode", default="exact",
                        choices=ENGINE_MODES,
                        help="collective simulation engine: 'exact' simulates "
                        "every message; 'hybrid' collapses provably bit-exact "
                        "regular phases into analytic flow batches (large-scale "
                        "speedup, identical results)")
    parser.add_argument("--verbose", action="store_true",
                        help="print aggregate engine statistics (events, match "
                        "fast-path hits, events/s) to stderr when done; worker "
                        "processes report their runs back, so --jobs > 1 "
                        "counts everything")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        dest="obs_trace_out",
                        help="export a Perfetto/Chrome trace_event JSON of "
                        "this run (open at ui.perfetto.dev)")
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        dest="obs_metrics_out",
                        help="export the run's metrics snapshot (counters, "
                        "histograms, engine stats) as JSON")


def _config(args: argparse.Namespace, machine: str | None = None) -> ExperimentConfig:
    return ExperimentConfig(
        machine=machine or args.machine,
        nodes=args.nodes,
        cores_per_node=args.cores_per_node,
        seed=args.seed,
        nrep=args.nrep,
        fast=args.fast,
        jobs=getattr(args, "jobs", 1),
        cache_dir=getattr(args, "cache_dir", None),
        engine_mode=getattr(args, "engine_mode", "exact"),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-mpi",
        description="Reproduce 'MPI Collective Algorithm Selection in the "
        "Presence of Process Arrival Patterns' (CLUSTER 2024).",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p1 = sub.add_parser("fig1", help="FT Alltoall arrival-delay trace")
    _add_common(p1, machine_default="galileo100")

    p2 = sub.add_parser("fig2", help="arrival/exit notation example")
    _add_common(p2)

    p3 = sub.add_parser("fig3", help="artificial arrival-pattern shapes")
    _add_common(p3)

    for fig, helptext, default_machine in (
        ("fig4", "simulation study: best algorithm per pattern/size", "simcluster"),
        ("fig5", "runtimes under patterns, 5%%-of-best classification", "hydra"),
        ("fig6", "robustness heatmaps (+-25%% classification)", "hydra"),
    ):
        p = sub.add_parser(fig, help=helptext)
        _add_common(p, machine_default=default_machine)
        p.add_argument("--collective", default="reduce", choices=_FIG_COLLECTIVES)

    # The application study (Figs. 7-9) defaults to 8 x 4 = 32 ranks: the
    # machine noise profiles are calibrated so FT's traced skew is
    # commensurate with the 32 KiB Alltoall time at that scale.
    p7 = sub.add_parser("fig7", help="FT vs. No-delay Alltoall micro-benchmark")
    _add_common(p7, nodes_default=8)
    p7.add_argument("--machines", nargs="+",
                    default=["hydra", "galileo100", "discoverer"])

    p8 = sub.add_parser("fig8", help="normalized Alltoall runtimes incl. FT-Scenario")
    _add_common(p8, nodes_default=8)
    p8.add_argument("--machines", nargs="+",
                    default=["hydra", "galileo100", "discoverer"])

    p9 = sub.add_parser("fig9", help="actual vs. projected FT runtime")
    _add_common(p9, nodes_default=8)

    pext = sub.add_parser(
        "ext-selection",
        help="extension: fixed-rules vs no-delay vs robust vs online-adaptive on FT",
    )
    _add_common(pext)

    pnb = sub.add_parser(
        "ext-nonblocking",
        help="extension: blocking vs non-blocking collectives under noise",
    )
    _add_common(pnb)

    pclk = sub.add_parser(
        "ext-clocks",
        help="extension: clock-sync accuracy across rank counts and drift",
    )
    _add_common(pclk)

    pfam = sub.add_parser(
        "ext-families",
        help="extension: pattern sensitivity of every collective family",
    )
    _add_common(pfam, machine_default="simcluster")

    sub.add_parser("table1", help="machine presets (Table I analogue)")
    sub.add_parser("table2", help="algorithm IDs (Table II)")
    sub.add_parser("registry", help="every registered collective algorithm")

    pcheck = sub.add_parser(
        "selfcheck", help="validate every algorithm against MPI semantics"
    )
    pcheck.add_argument("--quick", action="store_true", help="fewer rank counts")

    ptrace = sub.add_parser(
        "trace",
        help="run a proxy application with its collectives traced; write a "
        "Perfetto trace (--trace-out, default app_trace.json) and the "
        "replayable pattern file",
    )
    _add_common(ptrace, machine_default="galileo100", nodes_default=8)
    ptrace.add_argument("--app", choices=["ft", "cg"], default="ft")
    ptrace.add_argument("--algorithm", default=None,
                        help="collective algorithm the app uses (default: app's)")
    ptrace.add_argument("--iterations", type=int, default=20)
    ptrace.add_argument("--pattern-out", default="app.pattern", metavar="PATH")

    ptune = sub.add_parser(
        "tune",
        help="run a tuning campaign and emit a deployable Open MPI rules file",
    )
    _add_common(ptune)
    ptune.add_argument("--collectives", nargs="+",
                       default=["alltoall", "allreduce", "reduce"])
    ptune.add_argument("--sizes", nargs="+",
                       default=["8", "1KiB", "32KiB", "1MiB"],
                       help="message sizes (e.g. 8 1KiB 32KiB)")
    ptune.add_argument("--out", default="tuned", metavar="DIR",
                       help="output directory for table/rules/sweeps")
    ptune.add_argument("--store", default=None, metavar="DB",
                       help="also ingest results, sweeps, and rules into a "
                       "persistent tuning store (SQLite; created on first "
                       "use, re-runs are idempotent)")
    ptune.add_argument("--lint", action="store_true",
                       help="lint the campaign's data against the "
                       "performance guidelines after the run (see "
                       "lint-store); findings print but never fail the "
                       "campaign")

    pserve = sub.add_parser(
        "serve",
        help="serve selection queries from a tuning store over TCP "
        "(newline-delimited JSON; SIGHUP or a store change hot-reloads)",
    )
    pserve.add_argument("store", help="tuning store database (see tune --store)")
    pserve.add_argument("--host", default="127.0.0.1")
    pserve.add_argument("--port", type=int, default=7453,
                        help="TCP port (0 picks an ephemeral port)")
    pserve.add_argument("--cache-size", type=int, default=4096,
                        dest="cache_size",
                        help="reply LRU capacity (entries)")
    pserve.add_argument("--no-fallback", action="store_true", dest="no_fallback",
                        help="error on rule misses instead of answering with "
                        "Open MPI's fixed decision logic")
    pserve.add_argument("--reload-interval", type=float, default=1.0,
                        dest="reload_interval", metavar="SECONDS",
                        help="min seconds between store-mtime checks")
    pserve.add_argument("--metrics-port", type=int, default=None,
                        dest="metrics_port", metavar="PORT",
                        help="also serve Prometheus text metrics over plain "
                        "HTTP on this port (GET /metrics; 0 picks an "
                        "ephemeral port)")
    pserve.add_argument("--json-logs", action="store_true", dest="json_logs",
                        help="emit structured one-line-JSON logs on stderr "
                        "(connections, errors, slow requests, a periodic "
                        "metrics window)")
    pserve.add_argument("--slow-log-ms", type=float, default=100.0,
                        dest="slow_log_ms", metavar="MS",
                        help="with --json-logs, log successful requests "
                        "slower than this as request.slow")
    pserve.add_argument("--flight-capacity", type=int, default=32,
                        dest="flight_capacity", metavar="K",
                        help="slots per flight-recorder buffer (K slowest "
                        "+ last K erroring requests; op:debug / SIGUSR1)")

    pquery = sub.add_parser(
        "query",
        help="resolve one selection query against a store or a running server",
    )
    pquery.add_argument("collective")
    pquery.add_argument("comm_size", type=int)
    pquery.add_argument("msg_bytes", help="message size (e.g. 8, 1KiB, 32KiB)")
    pquery.add_argument("--pattern", default=None,
                        help="arrival-pattern shape for pattern-aware rules")
    pquery.add_argument("--store", default=None, metavar="DB",
                        help="answer in-process from this tuning store")
    pquery.add_argument("--host", default="127.0.0.1",
                        help="server to query when no --store is given")
    pquery.add_argument("--port", type=int, default=7453)
    pquery.add_argument("--json", action="store_true", dest="as_json",
                        help="print the full reply as JSON")

    plint = sub.add_parser(
        "lint-store",
        help="check a tuning store's cells against the performance "
        "guidelines (allreduce <= reduce + bcast, monotony, analytical "
        "floor, ...); optionally mark violating cells suspect",
    )
    plint.add_argument("store", help="tuning store database (see tune --store)")
    plint.add_argument("--json", default=None, dest="lint_json",
                       metavar="PATH",
                       help="write the full findings report as JSON "
                       "('-' for stdout)")
    plint.add_argument("--fail-on", choices=["error", "warning", "never"],
                       default="error", dest="fail_on",
                       help="lowest finding severity that makes the exit "
                       "code non-zero (default: error)")
    plint.add_argument("--mark", action="store_true",
                       help="persist the verdicts: record findings in the "
                       "store and flag error-severity cells suspect, so "
                       "rule loading excludes rules backed only by them")
    plint.add_argument("--limit", type=int, default=25,
                       help="max findings printed in text output")

    pcache = sub.add_parser(
        "cache", help="inspect or prune the on-disk benchmark result cache"
    )
    cache_sub = pcache.add_subparsers(dest="cache_cmd", required=True)
    pcs = cache_sub.add_parser("stats", help="entry and byte totals")
    pcg = cache_sub.add_parser(
        "gc", help="evict least-recently-used records down to a size budget"
    )
    pcg.add_argument("--max-bytes", required=True, dest="max_bytes",
                     metavar="SIZE",
                     help="target cache size (e.g. 10MiB, 0 empties it)")
    for p in (pcs, pcg):
        p.add_argument("--cache-dir", default=None, dest="cache_dir",
                       metavar="DIR",
                       help="cache directory (default: $REPRO_CACHE_DIR)")

    pwl = sub.add_parser(
        "workload",
        help="workload zoo: list/describe/run built-in scenarios, replay a "
        "recorded trace as a workload, or contend several jobs on one fabric",
    )
    wl_sub = pwl.add_subparsers(dest="workload_cmd", required=True)
    wl_sub.add_parser("list", help="registered workload generators")
    wld = wl_sub.add_parser(
        "describe", help="show a workload's phases for a given rank count"
    )
    wld.add_argument("name")
    wld.add_argument("--ranks", type=int, default=8,
                     help="communicator size the generator targets")
    wld.add_argument("--fast", action="store_true",
                     help="the shrunken variant (what CI smoke runs)")
    wld.add_argument("--seed", type=int, default=0)
    wld.add_argument("--json", action="store_true", dest="as_json",
                     help="print the full spec as JSON")
    wlr = wl_sub.add_parser(
        "run",
        help="run one workload: loop simulation + per-phase cells through "
        "the executor/cache/store pipeline",
    )
    _add_common(wlr, machine_default="simcluster", nodes_default=4)
    wlr.add_argument("name", help="a registered workload (see workload list)")
    wlr.add_argument("--shape", default=None,
                     help="impose an arrival-pattern shape on the measured "
                     "loop and the phase cells (see fig3)")
    wlr.add_argument("--max-skew", type=float, default=1e-4, dest="max_skew",
                     help="pattern max skew in seconds (with --shape)")
    wlr.add_argument("--store", default=None, metavar="DB",
                     help="ingest the phase cells into this tuning store")
    wlr.add_argument("--no-cells", action="store_true", dest="no_cells",
                     help="loop simulation only; skip the executor fan-out")
    wlp = wl_sub.add_parser(
        "replay",
        help="reconstruct a workload + arrival pattern from a recorded "
        "trace (Perfetto JSON or JSONL) and re-run it",
    )
    _add_common(wlp, machine_default="simcluster", nodes_default=4)
    wlp.add_argument("trace", help="trace file written by --trace-out")
    wlp.add_argument("--name", default=None, help="name for the replayed spec")
    wlp.add_argument("--max-iterations", type=int, default=None,
                     dest="max_iterations",
                     help="cap the replayed iteration count")
    wlp.add_argument("--store", default=None, metavar="DB",
                     help="ingest the phase cells into this tuning store")
    wlp.add_argument("--no-cells", action="store_true", dest="no_cells")
    wlp.add_argument("--dry-run", action="store_true", dest="dry_run",
                     help="print the reconstructed spec without running it")
    wlc = wl_sub.add_parser(
        "contend",
        help="run >= 2 workloads concurrently on one fabric; ranks "
        "interleave so jobs share node NICs",
    )
    _add_common(wlc, machine_default="simcluster", nodes_default=4)
    wlc.add_argument("names", nargs="+",
                     help="registered workloads, one per job")
    wlc.add_argument("--links", action="store_true",
                     help="record per-link telemetry and print the per-job "
                     "contention attribution")

    pprof = sub.add_parser(
        "profile",
        help="run one fully instrumented benchmark cell: ASCII per-rank "
        "timeline + Perfetto trace + metrics snapshot",
    )
    _add_common(pprof, machine_default="simcluster")
    pprof.add_argument("--collective", default="alltoall")
    pprof.add_argument("--algorithm", default=None,
                       help="algorithm to profile (default: first registered)")
    pprof.add_argument("--msg-bytes", default="32KiB", dest="msg_bytes",
                       help="message size (e.g. 8, 1KiB, 32KiB)")
    pprof.add_argument("--shape", default="ascending",
                       help="arrival-pattern shape (see fig3; 'no_delay' "
                       "profiles the balanced case)")
    pprof.add_argument("--max-skew", type=float, default=None, dest="max_skew",
                       help="pattern max skew in seconds (default: 1.5x the "
                       "No-delay runtime, the paper's headline factor)")
    pprof.add_argument("--timeline-width", type=int, default=64,
                       dest="timeline_width",
                       help="ASCII timeline body width in columns")
    pprof.add_argument("--links", action="store_true",
                       help="record per-link fabric telemetry: prints the "
                       "ASCII network weather map and contention "
                       "attribution, and publishes link.* gauges into the "
                       "metrics snapshot")
    pprof.add_argument("--links-out", default=None, metavar="PATH",
                       dest="links_out",
                       help="with --links: also write the link utilization "
                       "heatmap as a standalone SVG file")

    prep = sub.add_parser(
        "report",
        help="render a standalone HTML report (timeline, comm heatmap, "
        "paper metrics) from an exported trace file",
    )
    prep.add_argument("trace",
                      help="trace file: a --trace-out Perfetto JSON or a "
                      "JSONL obs stream")
    prep.add_argument("-o", "--out", default="report.html", metavar="PATH")
    prep.add_argument("--title", default="", help="report heading")

    pdiff = sub.add_parser(
        "diff-metrics",
        help="compare two metrics/analysis JSON snapshots; exit 1 when any "
        "value drifts beyond the threshold (host-time metrics excluded)",
    )
    pdiff.add_argument("baseline", help="reference snapshot JSON")
    pdiff.add_argument("candidate", help="snapshot JSON to check")
    pdiff.add_argument("--threshold", type=float, default=0.05,
                       metavar="FRACTION",
                       help="relative drift tolerance (default: 0.05 = 5%%)")

    pall = sub.add_parser("all", help="run every figure and table")
    _add_common(pall)

    return parser


def _run_one(command: str, args: argparse.Namespace) -> str:
    if command == "fig1":
        from repro.experiments import fig1_ft_trace as mod
        result = mod.run(_config(args))
    elif command == "fig2":
        from repro.experiments import fig2_notation as mod
        result = mod.run(_config(args))
    elif command == "fig3":
        from repro.experiments import fig3_patterns as mod
        result = mod.run(_config(args))
    elif command in ("fig4", "fig5", "fig6"):
        from repro.experiments import fig4_simulation, fig5_runtimes, fig6_robustness
        mod = {"fig4": fig4_simulation, "fig5": fig5_runtimes,
               "fig6": fig6_robustness}[command]
        result = mod.run(_config(args), collective=args.collective)
    elif command == "fig7":
        from repro.experiments import fig7_ft_vs_micro as mod
        result = mod.run(_config(args), machines=tuple(args.machines))
    elif command == "fig8":
        from repro.experiments import fig8_normalized as mod
        result = mod.run(_config(args), machines=tuple(args.machines))
    elif command == "fig9":
        from repro.experiments import fig9_prediction as mod
        result = mod.run(_config(args))
    elif command == "ext-selection":
        from repro.experiments import ext_selection_comparison as mod
        result = mod.run(_config(args))
    elif command == "ext-nonblocking":
        from repro.experiments import ext_nonblocking as mod
        result = mod.run(_config(args))
    elif command == "ext-clocks":
        from repro.experiments import ext_clock_accuracy as mod
        result = mod.run(_config(args))
    elif command == "ext-families":
        from repro.experiments import ext_all_families as mod
        result = mod.run(_config(args))
    else:
        raise ValueError(f"unknown figure {command!r}")
    if getattr(args, "json", None):
        from repro.reporting.export import results_to_json

        results_to_json(args.json, result)
    return mod.report(result)


def _cmd_profile(args: argparse.Namespace) -> int:
    """The ``profile`` command: one instrumented cell, rendered and exported."""
    from repro import obs
    from repro.collectives.base import list_algorithms
    from repro.patterns.generator import generate_pattern
    from repro.patterns.shapes import NO_DELAY
    from repro.reporting.timeline import render_timeline
    from repro.utils.units import format_time, parse_bytes

    config = _config(args)
    bench = config.make_bench()
    collective = args.collective
    algorithm = args.algorithm or list_algorithms(collective)[0]
    msg_bytes = parse_bytes(args.msg_bytes)
    octx = obs.current()
    # The No-delay baseline sizes the default skew (the paper's policy).
    baseline = bench.run(collective, algorithm, msg_bytes)
    if args.shape == NO_DELAY:
        result = baseline
        timeline_from = 0
    else:
        skew = (args.max_skew if args.max_skew is not None
                else config.skew_factor * baseline.last_delay)
        pattern = generate_pattern(args.shape, bench.num_ranks, skew,
                                   seed=config.seed)
        # Chart only the patterned run's spans: each run restarts virtual
        # time at zero, so overlaying both would garble the timeline.
        timeline_from = len(octx.spans) if octx.spans is not None else 0
        result = bench.run(collective, algorithm, msg_bytes, pattern)
    print(f"profile {collective}/{algorithm} @ {args.msg_bytes} "
          f"on {config.machine} ({bench.num_ranks} ranks), "
          f"pattern {result.pattern_name} "
          f"(max skew {format_time(result.max_skew)})")
    print(f"  No-delay runtime {format_time(baseline.last_delay)}; "
          f"under pattern {format_time(result.last_delay)}")
    if octx.enabled and octx.spans is not None:
        spans = list(octx.spans)[timeline_from:]
        print()
        print(render_timeline(
            spans, width=args.timeline_width,
            names={"skew_wait", f"{collective}/{algorithm}"},
            title=f"virtual timeline ({collective}/{algorithm}, "
            f"{result.pattern_name})",
        ))
    if octx.enabled and octx.links is not None:
        _profile_links(args, octx)
    return 0


def _profile_links(args: argparse.Namespace, octx) -> None:
    """Render the ``--links`` outputs from a profiled session's records."""
    from repro.obs.analysis import TraceAnalysis
    from repro.reporting.svg import svg_heatmap
    from repro.reporting.weather import render_weather_map
    from repro.utils.units import format_time

    analysis = TraceAnalysis.from_context(octx)
    usage = analysis.link_usage()
    print()
    if not usage:
        print("fabric weather map: no link records (self-sends only?)")
        return
    timeline = analysis.link_timeline(bins=args.timeline_width)
    print(render_weather_map(timeline, usage,
                             title="fabric weather map (hottest links first)"))
    hot = analysis.link_hotspots(top=5)
    print()
    print("link hotspots (by contention wait):")
    for u in hot:
        print(f"  {u['link']}: wait {format_time(u['wait'])}, "
              f"busy {format_time(u['busy'])}, {u['bytes']:g} bytes "
              f"in {u['messages']} messages")
    attr = [r for r in analysis.link_attribution() if r["wait"] > 0.0]
    top = (hot[0]["port"], hot[0]["cls"], hot[0]["direction"])
    blame = [r for r in attr
             if (r["port"], r["cls"], r["direction"]) == top]
    if blame:
        print(f"  hotspot attribution ({hot[0]['link']}): " + ", ".join(
            f"{r['activity']} {format_time(r['wait'])}" for r in blame))
    # The gauges ride into --metrics-out and the Prometheus exposition path.
    octx.links.publish_gauges(octx.metrics)
    links_out = getattr(args, "links_out", None)
    if links_out:
        rows = analysis.link_timeline(bins=48)["rows"]
        values = [[min(b, 1.0) for b in r["busy"]] for r in rows]
        svg = svg_heatmap(values, [r["link"] for r in rows],
                          [str(i) for i in range(48)],
                          title="busy fraction per link over time bins")
        with open(links_out, "w") as fh:
            fh.write(svg)
        print(f"wrote link heatmap: {links_out}")


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs.report import write_report

    path = write_report(args.out, args.trace, title=args.title)
    print(f"wrote report: {path}")
    return 0


def _cmd_diff_metrics(args: argparse.Namespace) -> int:
    from repro.obs.analysis import diff_payloads
    from repro.obs.export import read_json

    baseline = read_json(args.baseline)
    candidate = read_json(args.candidate)
    drifts = diff_payloads(baseline, candidate, threshold=args.threshold)
    if not drifts:
        print(f"metrics agree within {args.threshold:.1%}: "
              f"{args.baseline} vs {args.candidate}")
        return 0
    print(f"{len(drifts)} metric(s) drifted beyond {args.threshold:.1%} "
          f"({args.baseline} -> {args.candidate}):")
    for d in drifts:
        if d["change"] is None:
            print(f"  {d['path']}: {d['direction']} "
                  f"(baseline={d['baseline']}, candidate={d['candidate']})")
        else:
            print(f"  {d['path']}: {d['baseline']:g} -> {d['candidate']:g} "
                  f"({d['change']:+.1%})")
    return 1


def _executor_summary(octx) -> str | None:
    """Cache hit-rate / per-cell timing line from the metrics registry."""
    m = octx.metrics
    cells = m.get("executor.cells")
    if cells is None or not cells.value:
        return None
    hits = m.get("executor.cache_hit_total")
    hit_n = hits.value if hits is not None else 0
    text = (f"executor: {cells.value} cells, {hit_n} cache hits "
            f"({int(hit_n / cells.value * 100)}% hit rate)")
    hist = m.get("executor.cell_seconds")
    if hist is not None and hist.count:
        text += (f"; cell time mean {hist.mean:.3f}s, max {hist.max:.3f}s, "
                 f"total {hist.total:.2f}s")
    return text


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.obs.expose import MetricsHTTPServer, WindowedSnapshotter
    from repro.obs.runid import make_run_id
    from repro.service import (
        JsonLogger,
        SelectionServer,
        SelectionService,
        install_sighup_reload,
        install_sigusr1_dump,
    )

    service = SelectionService(
        args.store,
        cache_size=args.cache_size,
        fallback=not args.no_fallback,
        reload_interval=args.reload_interval,
        flight_capacity=args.flight_capacity,
    )
    install_sighup_reload(service)
    install_sigusr1_dump(service)
    logger = None
    snapshotter = None
    if args.json_logs:
        import os

        logger = JsonLogger(run_id=make_run_id({
            "command": "serve", "store": str(args.store),
            "pid": os.getpid(), "started": time.time()}))
        snapshotter = WindowedSnapshotter(
            service.metrics, interval=30.0,
            on_window=lambda w: logger.log("metrics.window", **w))
    metrics_http = None
    with service:
        server = SelectionServer(
            service, host=args.host, port=args.port, logger=logger,
            slow_log_seconds=args.slow_log_ms / 1e3)
        host, port = server.address
        strategy = service.strategy or "<fallback only>"
        scrape = ""
        if args.metrics_port is not None:
            metrics_http = MetricsHTTPServer(
                service.metrics, host=args.host,
                port=args.metrics_port).start()
            mhost, mport = metrics_http.address
            scrape = f", metrics on http://{mhost}:{mport}/metrics"
        print(f"serving {args.store} (strategy {strategy}) "
              f"on {host}:{port}{scrape}", flush=True)
        if logger is not None:
            logger.log("serve.start", store=str(args.store),
                       strategy=strategy, host=host, port=port,
                       metrics_port=(metrics_http.address[1]
                                     if metrics_http else None))
        if snapshotter is not None:
            snapshotter.start()
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            if snapshotter is not None:
                snapshotter.stop()
            if metrics_http is not None:
                metrics_http.stop()
            server.stop()
            if logger is not None:
                logger.log("serve.stop", uptime_seconds=round(
                    service.uptime_seconds(), 3))
    return 0


def _require_store(path: str) -> None:
    """Refuse a store path that does not exist: opening it would create an
    empty store, and a mistyped path would then read as a clean one."""
    import os

    if not os.path.exists(path):
        raise StoreError(f"{path}: no such tuning store")


def _cmd_query(args: argparse.Namespace) -> int:
    import json

    from repro.utils.units import parse_bytes

    msg_bytes = parse_bytes(args.msg_bytes)
    if args.store is not None:
        from repro.service import InProcessClient, SelectionService

        _require_store(args.store)
        with SelectionService(args.store, watch_store=False) as service:
            client = InProcessClient(service)
            reply = client.query(args.collective, args.comm_size, msg_bytes,
                                 args.pattern)
    else:
        from repro.service import SelectionClient

        with SelectionClient(args.host, args.port) as client:
            reply = client.query(args.collective, args.comm_size, msg_bytes,
                                 args.pattern)
    if args.as_json:
        print(json.dumps(reply, sort_keys=True))
    else:
        print(f"{reply['algorithm']}  (source {reply['source']}"
              + (f", strategy {reply['strategy']}" if reply["strategy"]
                 else "") + ")")
    return 0


def _cmd_lint_store(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.lint import lint_store
    from repro.store import TuningStore

    _require_store(args.store)
    with TuningStore(args.store) as store:
        report = lint_store(store)
        if args.mark:
            applied = store.apply_lint(report)
            print(f"marked: {applied['cells_marked']} cell(s) newly "
                  f"suspect, {applied['cells_cleared']} cleared, "
                  f"{applied['findings_recorded']} finding(s) recorded",
                  file=sys.stderr)
    if args.lint_json is not None:
        payload = json.dumps(report.to_dict(), indent=2, sort_keys=True)
        if args.lint_json == "-":
            print(payload)
        else:
            Path(args.lint_json).write_text(payload + "\n")
            print(f"wrote findings: {args.lint_json}", file=sys.stderr)
    if args.lint_json != "-":
        print(report.render_text(limit=args.limit))
    return 1 if report.fails(args.fail_on) else 0


def _cmd_cache(args: argparse.Namespace) -> int:
    import os

    from repro.bench.executor import ResultCache
    from repro.utils.units import format_bytes, parse_bytes

    cache_dir = args.cache_dir or os.environ.get("REPRO_CACHE_DIR")
    if not cache_dir:
        print("no cache directory: pass --cache-dir or set REPRO_CACHE_DIR",
              file=sys.stderr)
        return 2
    cache = ResultCache(cache_dir)
    if args.cache_cmd == "stats":
        stats = cache.stats()
        print(f"{cache_dir}: {stats.entries} entries, "
              f"{format_bytes(stats.total_bytes)} "
              f"({stats.total_bytes} bytes)")
    else:  # gc
        budget = int(parse_bytes(args.max_bytes))
        evicted, freed = cache.gc(budget)
        stats = cache.stats()
        print(f"evicted {evicted} entries ({format_bytes(freed)}); "
              f"{stats.entries} entries, {format_bytes(stats.total_bytes)} "
              f"remain")
    return 0


def _cmd_workload(args: argparse.Namespace) -> int:
    import json
    from dataclasses import replace as _dc_replace

    from repro import workloads
    from repro.reporting.ascii import render_table
    from repro.utils.units import format_time

    cmd = args.workload_cmd
    if cmd == "list":
        rows = [(info.name, info.description)
                for info in workloads.list_workloads()]
        print(render_table(["workload", "description"], rows,
                           title=f"workload zoo ({len(rows)} registered)"))
        return 0
    if cmd == "describe":
        spec = workloads.build_workload(args.name, args.ranks,
                                        fast=args.fast, seed=args.seed)
        if args.as_json:
            print(json.dumps(spec.to_dict(), indent=2, sort_keys=True))
            return 0
        print(f"{spec.name}: {spec.description}")
        print(f"  {args.ranks} ranks, {spec.iterations} iterations "
              f"(+{spec.warmup} warmup), overlap {spec.overlap}, "
              f"compute {spec.compute:g} s/iteration")
        rows = []
        for ph in spec.phases:
            if ph.is_vector:
                kind = ("(p,p) matrix" if isinstance(ph.counts[0], tuple)
                        else "length-p counts")
                schedule = f"{kind}, ~{int(ph.effective_msg_bytes)} B/block"
            else:
                schedule = f"{int(ph.msg_bytes)} B"
            rows.append((ph.key, ph.collective, schedule,
                         ph.algorithm or "<resolved at run time>"))
        print(render_table(["phase", "collective", "schedule", "algorithm"],
                           rows))
        return 0

    config = _config(args)
    bench = config.make_bench()
    if cmd == "contend":
        p_total = bench.num_ranks
        njobs = len(args.names)
        specs = [
            workloads.build_workload(
                name, len(range(j, p_total, njobs)),
                fast=config.fast, seed=config.seed + j)
            for j, name in enumerate(args.names)
        ]
        result = workloads.run_contended(specs, bench)
        print(f"contended {njobs} jobs on {p_total} ranks "
              f"({config.machine}); fabric drained at "
              f"{format_time(result.final_time)}")
        for job in result.jobs:
            dominant = max(job.phase_mpi_time, key=job.phase_mpi_time.get)
            print(f"  {job.label}: {len(job.ranks)} ranks, runtime "
                  f"{format_time(job.runtime)}, dominant phase {dominant}")
        if result.attribution:
            print("link wait attribution by job:")
            for name, wait in sorted(result.wait_by_job().items(),
                                     key=lambda kv: -kv[1]):
                print(f"  {name}: {format_time(wait)}")
        elif args.links:
            print("no link records captured (self-sends only?)")
        if args.json:
            payload = {
                "final_time": result.final_time,
                "jobs": [{"label": j.label, "ranks": list(j.ranks),
                          "runtime": j.runtime, "resolved": j.resolved,
                          "phase_mpi_time": j.phase_mpi_time}
                         for j in result.jobs],
                "attribution": result.attribution,
                "wait_by_job": result.wait_by_job(),
            }
            with open(args.json, "w") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
            print(f"wrote json: {args.json}")
        return 0

    # run / replay
    if cmd == "run":
        spec = workloads.build_workload(args.name, bench.num_ranks,
                                        fast=config.fast, seed=config.seed)
        pattern = None
        if args.shape:
            from repro.patterns.generator import generate_pattern

            pattern = generate_pattern(args.shape, bench.num_ranks,
                                       args.max_skew, seed=config.seed)
    else:  # replay
        spec = workloads.workload_from_trace(args.trace, name=args.name,
                                             max_iterations=args.max_iterations)
        pattern = None
        if args.dry_run:
            print(json.dumps(spec.to_dict(), indent=2, sort_keys=True))
            return 0
        if spec.pattern is not None:
            p = len(spec.pattern.skews)
            if bench.num_ranks != p:
                cores = config.cores_per_node
                if p >= cores and p % cores == 0:
                    config = _dc_replace(config, nodes=p // cores)
                else:
                    config = _dc_replace(config, nodes=p, cores_per_node=1)
                bench = config.make_bench()
                print(f"platform resized to the trace's {p} ranks",
                      file=sys.stderr)
    executor = None
    if not args.no_cells:
        from repro.bench.executor import CellExecutor

        executor = CellExecutor.from_env(
            jobs=config.jobs if config.jobs != 1 else None,
            cache_dir=config.cache_dir, store=args.store)
    try:
        result = workloads.run_workload(spec, bench, executor=executor,
                                        pattern=pattern,
                                        cells=not args.no_cells)
    finally:
        if executor is not None:
            executor.close()
    print(f"{spec.name}: {spec.description}" if spec.description
          else spec.name)
    pattern_note = ""
    if pattern is not None:
        pattern_note = f", pattern {pattern.name}"
    elif spec.pattern is not None:
        pattern_note = f", pattern {spec.pattern.name}"
    print(f"  {bench.num_ranks} ranks on {config.machine}, "
          f"{spec.iterations} iteration(s) (+{spec.warmup} warmup), "
          f"overlap {spec.overlap}{pattern_note}")
    print(f"  runtime {format_time(result.runtime)}, dominant phase "
          f"{result.dominant_phase}")
    for key, algorithm in result.resolved.items():
        mpi = result.phase_mpi_time.get(key, 0.0)
        print(f"    {key}: {algorithm}, MPI time {format_time(mpi)}")
    if result.cell_results:
        print(f"  {len(result.cell_results)} phase cell(s) through the "
              f"executor" + (f" -> store {args.store}" if args.store else ""))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(result.to_dict(), fh, indent=2, sort_keys=True)
        print(f"wrote json: {args.json}")
    return 0


def _dispatch(command: str, args: argparse.Namespace) -> int:
    if command == "table1":
        print(tables.table1())
    elif command == "table2":
        print(tables.table2())
    elif command == "registry":
        print(tables.full_registry())
    elif command == "selfcheck":
        from repro.collectives.validate import validate_all

        report = validate_all(quick=args.quick)
        print(report.render())
        if not report.ok:
            return 1
    elif command == "trace":
        from repro.apps import CGProxy, FTProxy
        from repro.patterns import write_pattern_file
        from repro.sim.platform import get_machine

        config = _config(args)
        spec = get_machine(config.machine)
        if args.app == "ft":
            app = FTProxy.class_d_scaled(
                spec, nodes=config.nodes, cores_per_node=config.cores_per_node,
                seed=config.seed, iterations=args.iterations,
                algorithm=args.algorithm or "pairwise",
            )
        else:
            app = CGProxy.from_machine(spec, nodes=config.nodes,
                                       cores_per_node=config.cores_per_node,
                                       seed=config.seed,
                                       iterations=args.iterations)
            if args.algorithm:
                app.algorithm = args.algorithm
        app_result, trace = app.trace()
        coll = app.collective
        pattern = trace.arrival_pattern(coll, name=f"{args.app}_scenario")
        write_pattern_file(args.pattern_out, pattern)
        print(f"{args.app} runtime: {app_result.runtime * 1e3:.2f} ms "
              f"(MPI fraction {app_result.mpi_fraction:.2f})")
        print(f"traced {len(trace.calls(coll))} {coll} calls; max skew "
              f"{trace.imbalance(coll)['max_arrival_spread'] * 1e6:.1f} us")
        print(f"wrote pattern: {args.pattern_out}")
    elif command == "tune":
        from repro.bench.campaign import TuningCampaign
        from repro.reporting.ascii import render_table

        config = _config(args)
        campaign = TuningCampaign(
            bench=config.make_bench(nrep=max(config.nrep, 2)),
            collectives=args.collectives,
            msg_sizes=args.sizes,
            seed=config.seed,
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            store=args.store,
            lint_after=args.lint,
        )
        try:
            result = campaign.run(
                progress=lambda c, s: print(f"  tuning {c} @ {s} B ...",
                                            file=sys.stderr)
            )
        finally:
            campaign.close()
        paths = campaign.save(result, args.out)
        print(f"  [{result.stats.summary()}]", file=sys.stderr)
        if result.store_ingest is not None:
            print(f"store: {args.store} "
                  f"(+{result.store_ingest['new_sweeps']} sweeps, "
                  f"{result.store_ingest['rules_written']} rules)")
        if result.lint_report is not None:
            print(result.lint_report.render_text(limit=10))
        print(render_table(["collective", "size", "selected algorithm"],
                           result.summary_rows(),
                           title=f"Tuned table ({config.machine}, "
                           f"{config.num_ranks} ranks, strategy "
                           f"{campaign.strategy.name})"))
        for kind, path in paths.items():
            print(f"wrote {kind}: {path}")
    elif command == "all":
        # Fig. 1 is the paper's Galileo100 trace; the application study
        # (Figs. 7-9) runs at its calibrated 8-node scale.
        saved_machine, saved_nodes0 = args.machine, args.nodes
        args.machine, args.nodes = "galileo100", min(args.nodes, 8)
        print(_run_one("fig1", args))
        print()
        args.machine, args.nodes = saved_machine, saved_nodes0
        for fig in ("fig2", "fig3"):
            print(_run_one(fig, args))
            print()
        for fig in ("fig4", "fig5", "fig6"):
            for collective in _FIG_COLLECTIVES:
                args.collective = collective
                print(_run_one(fig, args))
                print()
        args.machines = ["hydra", "galileo100", "discoverer"]
        saved_nodes = args.nodes
        args.nodes = min(args.nodes, 8)  # application-study scale (see fig7 help)
        for fig in ("fig7", "fig8", "fig9"):
            print(_run_one(fig, args))
            print()
        args.nodes = saved_nodes
        print(tables.table1())
        print()
        print(tables.table2())
    elif command == "serve":
        return _cmd_serve(args)
    elif command == "query":
        return _cmd_query(args)
    elif command == "lint-store":
        return _cmd_lint_store(args)
    elif command == "cache":
        return _cmd_cache(args)
    elif command == "workload":
        return _cmd_workload(args)
    elif command == "profile":
        return _cmd_profile(args)
    elif command == "report":
        return _cmd_report(args)
    elif command == "diff-metrics":
        return _cmd_diff_metrics(args)
    else:
        print(_run_one(command, args))
    return 0


#: Commands that always write a trace (the ``--trace-out`` default).
_DEFAULT_TRACE_OUT = {"profile": "profile_trace.json",
                      "trace": "app_trace.json"}


def _main(args: argparse.Namespace) -> int:
    command = args.command
    started = time.time()
    trace_out = getattr(args, "obs_trace_out", None)
    if trace_out is None:
        trace_out = _DEFAULT_TRACE_OUT.get(command)
    metrics_out = getattr(args, "obs_metrics_out", None)
    verbose = getattr(args, "verbose", False)
    # Every command with harness knobs runs inside an observability session:
    # metrics always (counters are near-free and feed the summaries below);
    # span recording only when someone will consume a trace.
    octx = None
    if hasattr(args, "obs_metrics_out"):
        from repro import obs

        # profile is the deep-dive command: per-message spans feed the
        # comm-volume matrices and critical-path sections of the report,
        # and --links turns on the fabric telemetry recorder.
        with obs.session(meta={"command": command},
                         record_spans=bool(trace_out),
                         record_messages=(command == "profile"),
                         record_links=getattr(args, "links", False)
                         ) as octx:
            code = _dispatch(command, args)
    else:
        code = _dispatch(command, args)
    if octx is not None:
        from repro import obs

        if trace_out:
            print(f"wrote trace: {obs.export_perfetto(trace_out, octx)}")
        if metrics_out:
            print(f"wrote metrics: {obs.export_metrics(metrics_out, octx)}")
        overflow = obs.dropped_span_warning(octx)
        if overflow is not None:
            print(overflow, file=sys.stderr)
        summary = _executor_summary(octx)
        if summary is not None:
            print(f"  [{summary}]", file=sys.stderr)
        if verbose:
            # Aggregated over every Engine.run of this session — including
            # worker-process runs, whose stats merge back with each cell's
            # telemetry payload.
            agg = octx.engine_stats
            if agg is not None:
                print(f"[engine: {agg.runs} runs, {agg.summary()}]",
                      file=sys.stderr)
            else:
                print("[engine: 0 runs]", file=sys.stderr)
    print(f"\n[{command} completed in {time.time() - started:.1f}s]", file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _main(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
