"""Command-line interface: ``python -m repro.cli`` (or ``repro-mst``).

``--help`` lists the subcommands; each one's ``--help`` lists its flags.
``run``, ``check`` and ``trace`` turn their flags into one
:class:`~repro.orchestrator.JobSpec`, execute it with
:func:`~repro.orchestrator.run_cell` (the path every grid cell takes) and
render the cell.  ``batch`` and ``submit`` name a grid in the schema of
:data:`~repro.orchestrator.GRID_PAYLOAD_KEYS`, from flags or a ``--spec``
file; ``campaign`` runs the named grids under ``examples/campaigns/``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Any, Optional, Sequence

from repro.orchestrator import GRAPH_FAMILIES, GRID_PAYLOAD_KEYS
from repro.problems import MST_BUNDLE, problem_names
from repro.sim.capabilities import ENGINES
from repro.sim.errors import UnsupportedFeatureError

#: The ``--algorithm`` menu of ``run``, ``check`` and ``trace``: the
#: aliases of the MST bundle's algorithms, plus ``mis`` (which implies
#: ``--problem mis``).
CELL_ALGORITHMS = tuple(
    alias
    for alias, name in MST_BUNDLE.aliases.items()
    if name in MST_BUNDLE.algorithms
) + ("mis",)


def _cell_spec(args: argparse.Namespace):
    """The ``JobSpec`` a ``run``, ``check`` or ``trace`` names.

    Its options are what a grid payload would store.  ``--problem mis``
    (implied by ``--algorithm mis``) ignores ``--algorithm`` and
    ``--termination``.  Raises ``ValueError`` on a bad flag value.
    """
    from repro.invariants import resolve_monitor_spec
    from repro.orchestrator import JobSpec
    from repro.problems import problem_bundle
    from repro.sim.capabilities import resolve_engine
    from repro.sim.transport import validate_channel_spec

    options = {}
    faults = validate_channel_spec(args.faults)
    if faults is not None:
        options["faults"] = faults
    monitors = resolve_monitor_spec(getattr(args, "monitors", None))
    if monitors is not None:
        options["monitors"] = monitors
    elif args.command == "check":
        raise ValueError("check needs at least one monitor (got --monitors off)")
    engine = resolve_engine(getattr(args, "engine", None))
    if engine != "coroutine":
        options["engine"] = engine
    problem = "mis" if args.algorithm == "mis" else args.problem
    if problem == "mst":
        algorithm = args.algorithm
        termination = getattr(args, "termination", "adaptive")
        if termination != "adaptive":
            options["termination"] = termination
    else:
        algorithm = problem_bundle(problem).default_algorithm
    return JobSpec.create(
        algorithm, args.graph, args.n, args.seed, id_range=args.id_range,
        options=options, problem=problem,
    )


def _run_cell(args: argparse.Namespace, **kwargs: Any):
    """Run the cell the flags name; ``None`` after a configuration error
    (a bad flag value, or a ``ValueError`` or ``UnsupportedFeatureError``
    raised before the first round), printed to stderr: exit code 2."""
    from repro.orchestrator import run_cell

    try:
        return run_cell(_cell_spec(args), **kwargs)
    except (ValueError, UnsupportedFeatureError) as error:
        print(str(error), file=sys.stderr)
        return None


def _graph_payload(cell) -> dict:
    graph = cell.graph
    return {
        "family": cell.spec.family,
        "n": graph.n,
        "m": graph.m,
        "max_id": graph.max_id,
        "seed": cell.spec.seed,
    }


def _diagnosis_extras(diagnosis, monitor_set) -> dict:
    """Diagnosis refinements of a faulted ``run``'s report."""
    extras = {}
    if diagnosis.missing_nodes:
        extras["missing_nodes"] = list(diagnosis.missing_nodes)
    if diagnosis.crashed_nodes:
        extras["crashed_nodes"] = list(diagnosis.crashed_nodes)
    if monitor_set is not None:
        extras["first_invariant"] = diagnosis.first_invariant
        extras["violations"] = diagnosis.violations
    return extras


#: The diagnosis lines of the cell commands: payload key -> label, in the
#: order they print.  A ``violations`` line follows them.
_DIAGNOSIS_LABELS = {
    "faults": "faults",
    "outcome": "outcome",
    "error": "error",
    "fault_counters": "fault counters",
    "missing_nodes": "missing outputs",
    "crashed_nodes": "crashed nodes",
    "checks_run": "checks run",
}


def _print_diagnosis(payload: dict) -> None:
    """Print one line per :data:`_DIAGNOSIS_LABELS` key of ``payload``
    that is neither ``None`` nor empty, then its ``violations`` count
    with the first invariant broken, if it has one."""
    for key, label in _DIAGNOSIS_LABELS.items():
        value = payload.get(key)
        if value is not None and value != []:
            print(f"{label:<17}: {value}")
    if "violations" in payload:
        first = payload["first_invariant"] or "-"
        print(f"violations       : {payload['violations']} (first: {first})")


def _print_failure(payload: dict, as_json: bool) -> int:
    """Report a diagnosed run that crashed or hung; its exit code is 1."""
    if as_json:
        print(json.dumps(payload, sort_keys=True))
    else:
        _print_diagnosis(payload)
    return 1


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.problems import problem_bundle

    cell = _run_cell(args, **({"trace": True} if args.save_trace else {}))
    if cell is None:
        return 2
    graph, result, diagnosis = cell.graph, cell.result, cell.diagnosis
    faults, monitor_set = cell.faults, cell.monitor_set
    if diagnosis is not None and not diagnosis.completed:
        payload = {
            "algorithm": cell.spec.algorithm,
            "faults": faults,
            "outcome": diagnosis.outcome,
            "error": diagnosis.error,
            "correct": False,
        }
        payload.update(_diagnosis_extras(diagnosis, monitor_set))
        return _print_failure(payload, args.json)

    trace_events = None
    if args.save_trace:
        from repro.sim import save_trace

        trace_events = save_trace(result.simulation, args.save_trace)

    metrics = result.metrics
    ok = result.is_correct(graph)
    check = problem_bundle(cell.spec.problem).check_label
    monitor_report = monitor_set.report if monitor_set is not None else None
    monitors_ok = monitor_report.ok() if monitor_report is not None else True

    if args.json:
        payload = {
            "algorithm": result.algorithm,
            "graph": _graph_payload(cell),
            "phases": result.phases,
            "metrics": metrics.summary(),
            "correct": ok,
        }
        if cell.spec.problem != "mst":
            payload["problem"] = cell.spec.problem
        if faults is not None:
            payload["faults"] = faults
            payload["outcome"] = diagnosis.outcome
            payload.update(_diagnosis_extras(diagnosis, monitor_set))
        if monitor_report is not None:
            payload["monitors"] = monitor_report.to_dict()
        if trace_events is not None:
            payload["trace"] = {"events": trace_events, "path": args.save_trace}
        print(json.dumps(payload, sort_keys=True))
        return 0 if ok and monitors_ok else 1

    if trace_events is not None:
        print(f"trace            : {trace_events} events -> {args.save_trace}")
    print(f"algorithm        : {result.algorithm}")
    if faults is not None:
        counters = metrics.fault_summary().items()
        _print_diagnosis({
            "faults": faults,
            "outcome": diagnosis.outcome,
            "fault_counters": " ".join(f"{key}={value}" for key, value in counters),
            "crashed_nodes": list(diagnosis.crashed_nodes),
        })
    print(f"graph            : {cell.spec.family} n={graph.n} m={graph.m} "
          f"N={graph.max_id}")
    print(f"phases           : {result.phases}")
    print(f"awake complexity : {metrics.max_awake} "
          f"({metrics.max_awake / math.log2(max(2, graph.n)):.1f} x log2 n)")
    print(f"mean awake       : {metrics.mean_awake:.1f}")
    print(f"round complexity : {metrics.rounds}")
    print(f"awake x rounds   : {metrics.awake_round_product}")
    print(f"messages         : {metrics.messages_delivered} delivered / "
          f"{metrics.messages_lost} lost")
    print(f"max message bits : {metrics.max_message_bits}")
    if monitor_report is not None:
        first = monitor_report.first_invariant or "-"
        print(
            f"invariants       : {len(monitor_report)} violation(s) in "
            f"{monitor_report.checks_run} checks (first: {first})"
        )
        for violation in monitor_report.violations[:5]:
            print(f"  VIOLATION {violation}")
    print(f"{check:<17}: {ok}")
    return 0 if ok and monitors_ok else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import (
        check_awake_identity,
        render_block_table,
        span_log_lines,
        write_chrome_trace,
        write_ndjson,
    )

    cell = _run_cell(args, observe=True, trace=True)
    if cell is None:
        return 2
    graph, result, diagnosis = cell.graph, cell.result, cell.diagnosis
    faults = cell.faults
    if diagnosis is not None and not diagnosis.completed:
        return _print_failure(
            {"faults": faults, "outcome": diagnosis.outcome, "error": diagnosis.error},
            args.json,
        )
    spans = result.spans
    label = f"{result.algorithm} {cell.spec.family} n={graph.n} seed={cell.spec.seed}"
    metadata = {
        "algorithm": result.algorithm,
        "family": cell.spec.family,
        "n": graph.n,
        "seed": cell.spec.seed,
    }
    if faults is not None:
        metadata["faults"] = faults
    events = write_chrome_trace(
        args.output,
        spans=spans,
        trace=result.simulation.trace,
        label=label,
        metadata=metadata,
    )
    ndjson_lines = None
    if args.ndjson:
        ndjson_lines = write_ndjson(args.ndjson, span_log_lines(spans))

    # The spans count the engine's awake rounds; Traditional-GHS's
    # result.metrics are re-accounted under always-awake rules.
    mismatches = check_awake_identity(spans, result.simulation.metrics)
    identity_ok = not mismatches

    if args.json:
        payload = {
            "algorithm": result.algorithm,
            "graph": {
                "family": cell.spec.family,
                "n": graph.n,
                "m": graph.m,
                "seed": cell.spec.seed,
            },
            "output": str(args.output),
            "events": events,
            "spans": len(spans),
            "identity_ok": identity_ok,
            "metrics": result.metrics.summary(),
        }
        if faults is not None:
            payload["faults"] = faults
        if ndjson_lines is not None:
            payload["ndjson"] = {"path": str(args.ndjson), "lines": ndjson_lines}
        print(json.dumps(payload, sort_keys=True))
        return 0 if identity_ok else 1

    print(f"algorithm        : {result.algorithm}")
    print(f"graph            : {cell.spec.family} n={graph.n} m={graph.m}")
    print(f"chrome trace     : {events} events -> {args.output}")
    if ndjson_lines is not None:
        print(f"span ndjson      : {ndjson_lines} lines -> {args.ndjson}")
    print(f"spans            : {len(spans)} records")
    print(
        "awake identity   : "
        + ("ok (span sums == engine accounting)" if identity_ok
           else f"MISMATCH on nodes {sorted(mismatches)}")
    )
    print()
    print("per-block max awake rounds by phase:")
    print(render_block_table(spans))
    return 0 if identity_ok else 1


def _cmd_check(args: argparse.Namespace) -> int:
    """One monitored cell: run, diagnose, report what broke first.

    Exit code: on the perfect channel a violation (or a wrong tree) is a
    failure; under ``--faults`` the report itself is the product — broken
    invariants are the expected outcome, so the exit code only signals
    operational errors.
    """
    cell = _run_cell(args, diagnose=True)
    if cell is None:
        return 2
    graph, diagnosis, monitor_set = cell.graph, cell.diagnosis, cell.monitor_set
    spec, faults = cell.spec, cell.faults
    report = monitor_set.report
    payload = {
        "algorithm": spec.algorithm,
        "graph": _graph_payload(cell),
        "faults": faults,
        "monitors": list(monitor_set.names),
        "outcome": diagnosis.outcome,
        **({} if spec.problem == "mst" else {"problem": spec.problem}),
        "error": diagnosis.error,
        "correct": diagnosis.outcome == "correct",
        "checks_run": report.checks_run,
        "violations": len(report),
        "first_invariant": report.first_invariant,
        "missing_nodes": list(diagnosis.missing_nodes),
        "crashed_nodes": list(diagnosis.crashed_nodes),
        "report": report.to_dict(),
    }
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True, indent=2)
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    perfect_ok = diagnosis.outcome == "correct" and report.ok()
    if not args.json:
        print(f"algorithm        : {spec.algorithm}")
        print(
            f"graph            : {spec.family} n={graph.n} m={graph.m} "
            f"N={graph.max_id} seed={spec.seed}"
        )
        print(f"monitors         : {','.join(monitor_set.names)}")
        _print_diagnosis(payload)
        for violation in report.violations[:10]:
            print(f"  VIOLATION {violation}")
        if report.incomplete_groups:
            print(
                f"incomplete groups: {len(report.incomplete_groups)} "
                "(probe groups cut short by the failure)"
            )
        if args.output:
            print(f"report json      : {args.output}")
    if faults is not None:
        return 0
    return 0 if perfect_ok else 1


def _grid_payload(args: argparse.Namespace) -> dict:
    """The grid ``batch`` or ``submit`` names: the grid flags (each named
    after its key of :data:`~repro.orchestrator.GRID_PAYLOAD_KEYS`),
    overridden by the keys of a ``--spec`` file.  It is the schema of the
    service's ``POST /jobs`` body too; ``grid_from_payload`` checks it.
    """
    grid = {key: value for key, value in vars(args).items() if key in GRID_PAYLOAD_KEYS}
    if args.spec:
        with open(args.spec, "r", encoding="utf-8") as handle:
            grid.update(json.load(handle))
    return grid


def _print_counts(summary: dict) -> None:
    """The ``executed``/``cached``/``resumed``/``failed`` lines of a batch
    summary, as ``batch`` and ``submit --wait`` print them."""
    for key in ("executed", "cached", "resumed", "failed"):
        print(f"{key:<10}: {summary.get(key, 0)}")


def _cmd_batch(args: argparse.Namespace) -> int:
    from repro.obs import MetricsRegistry
    from repro.orchestrator import (
        ProgressReporter,
        ResultCache,
        grid_from_payload,
        grid_key,
        run_jobs,
    )
    from repro.telemetry import trace_context

    try:
        specs = grid_from_payload(_grid_payload(args))
    except (OSError, ValueError) as error:
        print(str(error), file=sys.stderr)
        return 2

    store_path = args.resume or args.store or f"batch-{grid_key(specs)[:8]}.jsonl"
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    progress = ProgressReporter(
        total=len(specs),
        stream=None if args.quiet else sys.stderr,
        min_interval_s=1.0,
    )
    registry = MetricsRegistry()
    # One trace ID per batch invocation: every record's telemetry block,
    # worker log line, and span export from this run carries it.
    with trace_context():
        report = run_jobs(
            specs,
            workers=args.workers,
            cache=cache,
            store=store_path,
            resume=args.resume,
            timeout=args.timeout,
            retries=args.retries,
            progress=progress,
            registry=registry,
        )

    if args.json:
        print(
            json.dumps(
                {
                    "store": str(store_path),
                    "summary": report.summary(),
                    "records": [record.to_dict() for record in report.records],
                },
                sort_keys=True,
            )
        )
    else:
        print(f"grid      : {report.total} jobs -> {store_path}")
        _print_counts(report.summary())
        throughput = (report.progress or {}).get("throughput_jobs_per_s", 0.0)
        print(f"elapsed   : {report.elapsed_s:.2f}s ({throughput:.1f} job/s)")
        for failure in report.failures()[:5]:
            spec = failure.spec
            print(
                f"  FAILED {spec['algorithm']}/{spec['family']}"
                f"/n={spec['n']}/seed={spec['seed']}: {failure.error}"
            )
    return 0 if report.failed == 0 else 1


def _cmd_campaign(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.campaigns import (
        CampaignSpec,
        CampaignSpecError,
        LocalGridExecutor,
        MissingRecordsError,
        ServiceGridExecutor,
        StoreReplayExecutor,
        ledger_path,
        render_report,
        report_path,
        run_campaign,
        write_report,
    )
    from repro.orchestrator import ResultCache

    try:
        spec = CampaignSpec.load(args.spec)
    except CampaignSpecError as error:
        print(str(error), file=sys.stderr)
        return 2

    ledger = ledger_path(args.root, spec.name)
    log = (
        (lambda message: None)
        if args.quiet
        else (lambda message: print(message, file=sys.stderr))
    )
    client = None
    if args.action == "report":
        # Replay-only: rebuild the report from the ledger, run nothing.
        executor = StoreReplayExecutor(ledger)
    elif args.via_service:
        from repro.service import ServiceClient

        client = ServiceClient(args.via_service)
        executor = ServiceGridExecutor(
            client,
            store=ledger,
            timeout=args.timeout,
            log=log,
        )
    else:
        cache = None if args.no_cache else ResultCache(args.cache_dir)
        executor = LocalGridExecutor(
            store=ledger,
            cache=cache,
            workers=args.workers,
            timeout=args.timeout,
            retries=args.retries,
            log=log,
        )
    try:
        payload = run_campaign(spec, executor, log=log)
    except MissingRecordsError as error:
        print(str(error), file=sys.stderr)
        return 1
    finally:
        if client is not None:
            client.close()

    output = Path(args.output) if args.output else report_path(args.root, spec.name)
    write_report(payload, output)
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(render_report(payload))
        print(f"report : {output}")
        print(f"ledger : {ledger}")
    return 0 if payload["summary"]["failed"] == 0 else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import logging
    import signal
    from pathlib import Path

    from repro.orchestrator import ResultCache
    from repro.service import JobQueue, build_server, serve_forever
    from repro.telemetry import configure_logging

    if args.log_level is not None:
        level = getattr(logging, args.log_level.upper())
    else:
        # --quiet keeps the old behaviour (no per-request chatter) by
        # raising the threshold above the INFO access records.
        level = logging.WARNING if args.quiet else logging.INFO
    configure_logging(
        json_logs=args.log_json, log_file=args.log_file, level=level
    )

    cache = None
    if not args.no_cache:
        cache_dir = args.cache_dir or str(Path(args.root) / "cache")
        cache = ResultCache(cache_dir)
    queue = JobQueue(
        args.root,
        workers=args.workers,
        job_workers=args.job_workers,
        cache=cache,
        timeout=args.timeout,
        retries=args.retries,
    ).start()
    server = build_server(queue, host=args.host, port=args.port)
    host, port = server.server_address[:2]
    # One parseable line so scripts (and CI) can discover an ephemeral port.
    print(
        f"serving on http://{host}:{port} "
        f"(workers={queue.workers}, job_workers={queue.job_workers}, "
        f"root={queue.root})",
        flush=True,
    )
    # SIGTERM (`kill`, service managers) drains like Ctrl-C, so the idle
    # pool workers of `--job-workers > 1` end with the daemon instead of
    # outliving it.
    previous = signal.signal(signal.SIGTERM, _raise_interrupt)
    try:
        serve_forever(server)
    finally:
        signal.signal(signal.SIGTERM, previous)
    return 0


def _raise_interrupt(signum: int, frame: Any) -> None:
    raise KeyboardInterrupt


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient

    try:
        grid = _grid_payload(args)
    except (OSError, ValueError) as error:
        print(str(error), file=sys.stderr)
        return 2
    with ServiceClient(args.url) as client:
        return _submit(client, grid, args)


def _submit(client: Any, grid: dict, args: argparse.Namespace) -> int:
    from repro.service import ServiceError

    try:
        submission = client.submit(grid)
    except ServiceError as error:
        print(str(error), file=sys.stderr)
        return 2
    job = submission["job"]

    if not args.wait:
        if args.json:
            print(json.dumps(submission, sort_keys=True))
        else:
            print(f"job       : {job}")
            print(f"status    : {submission['status']}")
            print(f"cells     : {submission['cells']}")
            print(f"coalesced : {submission['coalesced']}")
            print(f"poll with : repro-mst submit is async; GET {args.url}"
                  f"/jobs/{job}")
        return 0

    last_seen = {"done": -1, "status": None}

    def stream_progress(snapshot: dict) -> None:
        if args.quiet:
            return
        progress = snapshot.get("progress") or {}
        done = progress.get("done")
        status = snapshot.get("status")
        if done == last_seen["done"] and status == last_seen["status"]:
            return
        last_seen["done"] = done
        last_seen["status"] = status
        eta = progress.get("eta_s")
        eta_text = "?" if eta is None else f"{eta:.0f}s"
        print(
            f"[{done}/{progress.get('total')}] status={status} "
            f"ok={progress.get('ok')} failed={progress.get('failed')} "
            f"cached={progress.get('cached')} eta {eta_text}",
            file=sys.stderr,
        )

    try:
        client.wait(
            job,
            timeout_s=args.timeout,
            interval_s=args.interval,
            on_progress=stream_progress,
        )
        result = client.fetch(job)
    except (ServiceError, TimeoutError) as error:
        print(str(error), file=sys.stderr)
        return 2

    summary = result.get("summary") or {}
    if args.json:
        print(json.dumps(result, sort_keys=True))
    else:
        print(f"job       : {job}")
        print(f"status    : {result['status']}")
        if result.get("error"):
            print(f"error     : {result['error']}")
        print(f"total     : {summary.get('total', 0)}")
        _print_counts(summary)
    ok = result["status"] == "done" and summary.get("failed", 0) == 0
    return 0 if ok else 1


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.telemetry.dashboard import run_top

    return run_top(
        args.url,
        interval_s=args.interval,
        once=args.once,
        json_output=args.json,
        iterations=args.iterations,
    )


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import (
        build_payload,
        compare_to_baseline,
        environment_fingerprint,
        load_bench_json,
        make_baseline_comparison,
        select_benchmarks,
        time_callable,
        write_bench_json,
    )
    from repro.bench.suites import HEADLINE_BENCHMARK

    def say(message: str) -> None:
        if not args.quiet and not args.json:
            print(message)

    if args.input:
        payload = load_bench_json(args.input)
        say(f"loaded    : {args.input} ({len(payload['benchmarks'])} benchmarks)")
    else:
        try:
            benchmarks = select_benchmarks(args.suite, args.names or ())
        except (KeyError, ValueError) as error:
            print(str(error), file=sys.stderr)
            return 2
        results = []
        for benchmark in benchmarks:
            thunk = benchmark.make()
            timing = time_callable(
                thunk, repeats=args.repeats, warmup=args.warmup
            )
            results.append((benchmark, timing))
            say(
                f"{benchmark.name:<28}: median {timing.median_s * 1000:9.2f} ms"
                f"  iqr {timing.iqr_s * 1000:7.2f} ms  ({benchmark.tier})"
            )
        payload = build_payload("engine", results, environment_fingerprint())
        if args.compare_ref:
            payload["baseline_comparison"] = make_baseline_comparison(
                payload,
                load_bench_json(args.compare_ref),
                label=args.compare_label or str(args.compare_ref),
                headline=HEADLINE_BENCHMARK,
            )

    if args.output:
        write_bench_json(args.output, payload)
        say(f"wrote     : {args.output}")

    exit_code = 0
    check_report = None
    if args.check:
        baseline = load_bench_json(args.check)
        comparison = compare_to_baseline(
            payload, baseline, threshold=args.threshold
        )
        check_report = comparison.to_dict()
        for entry in comparison.entries:
            marker = "REGRESSED" if entry.regressed else "ok"
            say(
                f"check {entry.name:<28}: {entry.current_median_s * 1000:9.2f} ms"
                f" vs baseline {entry.baseline_median_s * 1000:9.2f} ms"
                f"  x{entry.ratio:.2f}  {marker}"
            )
        for name in comparison.missing_in_current:
            say(f"check {name:<28}: missing from current run")
        for key, (cur, base) in sorted(comparison.env_mismatches.items()):
            say(f"env mismatch {key}: current={cur!r} baseline={base!r}")
        if not comparison.ok:
            message = (
                f"{len(comparison.regressions)} benchmark(s) regressed past "
                f"x{args.threshold:.2f} of {args.check}"
            )
            if args.warn_only:
                print(f"WARNING: {message}", file=sys.stderr)
            else:
                print(f"FAILED: {message}", file=sys.stderr)
                exit_code = 1
        else:
            say(f"check     : ok (threshold x{args.threshold:.2f})")

    if args.json:
        output = dict(payload)
        if check_report is not None:
            output["check"] = check_report
        print(json.dumps(output, sort_keys=True))
    return exit_code


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.analysis.experiments import ALL_EXPERIMENTS, build_experiments

    unknown = sorted(set(args.only or ()) - set(ALL_EXPERIMENTS))
    if unknown:
        print(
            f"unknown experiment(s) {unknown}; choose from "
            f"{sorted(ALL_EXPERIMENTS)}",
            file=sys.stderr,
        )
        return 2
    print(json.dumps(build_experiments(args.only), indent=2, sort_keys=True))
    return 0


def _add_cell_arguments(parser: argparse.ArgumentParser, n: int) -> None:
    """Flags naming one cell, shared by ``run``, ``check`` and ``trace``."""
    parser.add_argument(
        "--algorithm", choices=CELL_ALGORITHMS, default="randomized",
        help="MST algorithm, or mis (same as --problem mis)",
    )
    parser.add_argument(
        "--problem", choices=problem_names(), default="mst",
        help="problem bundle to dispatch: it selects the validator and the "
        "monitors 'all' expands to (mis ignores --algorithm and runs the "
        "O(log log n)-awake Sleeping-MIS protocol)",
    )
    parser.add_argument("--graph", choices=sorted(GRAPH_FAMILIES), default="gnp")
    parser.add_argument("--n", type=int, default=n)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--id-range", type=int, default=None)
    parser.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="channel spec for fault injection (e.g. drop:0.05, delay:3, "
        "dup:0.1, crash:2@50, drop:0.01+crash:1@40); the run is classified "
        "as correct / detected_wrong / silent_wrong / hung",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit one JSON object instead of text"
    )


def _add_termination_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--termination", choices=("adaptive", "fixed"), default="adaptive",
        help="MST phase budget: adaptive, or the paper's fixed count "
        "(Randomized-MST and Traditional-GHS only)",
    )


def _add_grid_arguments(parser: argparse.ArgumentParser) -> None:
    """Grid axes shared by ``batch`` and ``submit`` (one schema, two doors)."""
    parser.add_argument(
        "--algorithms", nargs="+", default=["randomized"],
        help="canonical names or aliases (randomized, deterministic, ...)",
    )
    parser.add_argument("--families", nargs="+", default=["gnp"])
    parser.add_argument("--sizes", type=int, nargs="+", default=[16, 32])
    parser.add_argument(
        "--seeds", type=int, default=2, help="number of seeds (0..N-1) per cell"
    )
    parser.add_argument("--id-range-factor", type=int, default=None)
    parser.add_argument(
        "--faults", nargs="+", default=None, metavar="SPEC",
        help="channel-spec grid axis (e.g. --faults perfect drop:0.01 "
        "crash:2@50); each cell runs under each spec",
    )
    parser.add_argument(
        "--monitors", default=None, metavar="SPEC",
        help="attach invariant monitors to every cell ('all' or a "
        "comma-separated subset); records gain violations/first_invariant",
    )
    parser.add_argument(
        "--engine", choices=ENGINES, default=None,
        help="simulation backend for every cell; the default coroutine "
        "engine stores nothing in the spec, so default grids keep their "
        "historical hashes (array = vectorized numpy backend)",
    )
    parser.add_argument(
        "--problem", choices=problem_names(), default=None,
        help="problem bundle for every cell (default mst; MST-only grids "
        "keep their historical JobSpec hashes)",
    )
    parser.add_argument(
        "--spec", default=None, metavar="PATH",
        help="JSON grid spec file; its keys override the grid flags",
    )


def _add_cell_policy_arguments(
    parser: argparse.ArgumentParser, cache_dir: Optional[str]
) -> None:
    """How each cell of a grid runs: the result cache, the per-job time
    budget and retries (``batch``, ``campaign`` and ``serve``)."""
    parser.add_argument(
        "--cache-dir", default=cache_dir, metavar="PATH",
        help="content-addressed result cache directory (default: "
        f"{cache_dir or '<root>/cache'})",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="disable the result cache"
    )
    parser.add_argument(
        "--timeout", type=float, default=None, help="per-job seconds budget"
    )
    parser.add_argument(
        "--retries", type=int, default=0, help="retries per failed job"
    )


def _add_grid_run_arguments(parser: argparse.ArgumentParser) -> None:
    """Flags of the commands that run grids in this process: ``batch``
    and ``campaign``."""
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (default 1: cells run in this process)",
    )
    _add_cell_policy_arguments(parser, cache_dir=".repro-cache")
    parser.add_argument(
        "--json", action="store_true",
        help="emit the result (batch: summary and records; campaign: the "
        "report) as one JSON object",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress progress lines on stderr"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-mst",
        description="Sleeping-model distributed MST (PODC 2022 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser("run", help="run one algorithm")
    _add_cell_arguments(run_parser, n=64)
    _add_termination_argument(run_parser)
    run_parser.add_argument(
        "--engine", choices=ENGINES, default=None,
        help="simulation backend: coroutine (default) or the vectorized "
        "numpy array engine (randomized MST, perfect channel only)",
    )
    run_parser.add_argument(
        "--save-trace",
        default=None,
        metavar="PATH",
        help="record the execution trace and save it as JSONL",
    )
    run_parser.add_argument(
        "--monitors", default=None, metavar="SPEC",
        help="attach runtime invariant monitors: 'all', 'off', or a "
        "comma-separated subset of "
        "fldt-wellformed,star-merge,... (see repro.invariants)",
    )
    run_parser.set_defaults(func=_cmd_run)

    check_parser = subparsers.add_parser(
        "check",
        help="run with invariant monitors attached; report broken lemmas",
    )
    _add_cell_arguments(check_parser, n=32)
    _add_termination_argument(check_parser)
    check_parser.add_argument(
        "--monitors", default="all", metavar="SPEC",
        help="'all' (default) or a comma-separated subset of monitor names",
    )
    check_parser.add_argument(
        "--output", default=None, metavar="PATH",
        help="also write the JSON report to this file",
    )
    check_parser.set_defaults(func=_cmd_check)

    batch_parser = subparsers.add_parser(
        "batch",
        help="run a job grid through the orchestrator (pool + cache + store)",
    )
    _add_grid_arguments(batch_parser)
    _add_grid_run_arguments(batch_parser)
    batch_parser.add_argument(
        "--store", default=None, metavar="PATH",
        help="JSONL run store (default: batch-<gridhash>.jsonl)",
    )
    batch_parser.add_argument(
        "--resume", default=None, metavar="PATH",
        help="resume from an existing store: execute only failed/missing cells",
    )
    batch_parser.set_defaults(func=_cmd_batch)

    campaign_parser = subparsers.add_parser(
        "campaign",
        help="run a declarative campaign spec: dense grids + adaptive "
        "drivers + statistical fits, into one resumable report",
    )
    campaign_parser.add_argument(
        "action", choices=("run", "resume", "report"),
        help="run executes the campaign (resuming any prior ledger); "
        "resume is an explicit alias of run; report rebuilds report.json "
        "from the ledger without running anything",
    )
    campaign_parser.add_argument(
        "spec", metavar="SPEC",
        help="campaign spec file (.toml or .json; see docs/campaigns.md)",
    )
    campaign_parser.add_argument(
        "--root", default=".repro-campaigns",
        help="campaign state directory: ledger at <root>/<name>/runs.jsonl, "
        "report at <root>/<name>/report.json",
    )
    _add_grid_run_arguments(campaign_parser)
    campaign_parser.add_argument(
        "--via-service", default=None, metavar="URL",
        help="execute grids through a running 'serve' daemon instead of "
        "in-process (records are mirrored into the local ledger)",
    )
    campaign_parser.add_argument(
        "--output", default=None, metavar="PATH",
        help="write the report here instead of <root>/<name>/report.json",
    )
    campaign_parser.set_defaults(func=_cmd_campaign)

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the simulation service daemon (job API + worker pool)",
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument(
        "--port", type=int, default=8732,
        help="TCP port (0 picks an ephemeral port, printed on start-up)",
    )
    serve_parser.add_argument(
        "--root", default=".repro-service",
        help="service state directory: per-job JSONL stores under "
        "<root>/jobs, result cache under <root>/cache",
    )
    serve_parser.add_argument(
        "--workers", type=int, default=1,
        help="drainer threads (jobs running concurrently)",
    )
    serve_parser.add_argument(
        "--job-workers", type=int, default=1,
        help="process-pool width inside each job (run_jobs workers)",
    )
    _add_cell_policy_arguments(serve_parser, cache_dir=None)
    serve_parser.add_argument(
        "--quiet", action="store_true", help="suppress per-request log lines"
    )
    serve_parser.add_argument(
        "--log-json", action="store_true",
        help="emit structured JSON log lines (one object per line)",
    )
    serve_parser.add_argument(
        "--log-file", default=None, metavar="PATH",
        help="write log lines here instead of stderr",
    )
    serve_parser.add_argument(
        "--log-level", default=None,
        choices=("debug", "info", "warning", "error"),
        help="log threshold (default: info, or warning with --quiet)",
    )
    serve_parser.set_defaults(func=_cmd_serve)

    submit_parser = subparsers.add_parser(
        "submit",
        help="submit a grid to a running service daemon (see 'serve')",
    )
    submit_parser.add_argument(
        "--url", default="http://127.0.0.1:8732",
        help="base URL of the service daemon",
    )
    _add_grid_arguments(submit_parser)
    submit_parser.add_argument(
        "--wait", action="store_true",
        help="poll until the job finishes, streaming progress lines to "
        "stderr, then fetch and print the result",
    )
    submit_parser.add_argument(
        "--timeout", type=float, default=None,
        help="(--wait) give up after this many seconds",
    )
    submit_parser.add_argument(
        "--interval", type=float, default=0.5,
        help="(--wait) longest poll interval in seconds: the gap between "
        "polls starts at a few milliseconds and doubles up to this",
    )
    submit_parser.add_argument(
        "--json", action="store_true",
        help="emit the submission (or, with --wait, the result) as JSON",
    )
    submit_parser.add_argument(
        "--quiet", action="store_true",
        help="(--wait) suppress progress lines on stderr",
    )
    submit_parser.set_defaults(func=_cmd_submit)

    top_parser = subparsers.add_parser(
        "top",
        help="live dashboard over a running service daemon "
        "(/stats + /metrics)",
    )
    top_parser.add_argument(
        "--url", default="http://127.0.0.1:8732",
        help="base URL of the service daemon",
    )
    top_parser.add_argument(
        "--interval", type=float, default=2.0,
        help="seconds between refreshes",
    )
    top_parser.add_argument(
        "--once", action="store_true",
        help="render a single frame and exit (no screen clearing)",
    )
    top_parser.add_argument(
        "--json", action="store_true",
        help="with --once: print the raw sample dict as JSON (scripting)",
    )
    top_parser.add_argument(
        "--iterations", type=int, default=None,
        help="stop after N frames (default: run until interrupted)",
    )
    top_parser.set_defaults(func=_cmd_top)

    trace_parser = subparsers.add_parser(
        "trace",
        help="run once with span observability; export a Chrome trace",
    )
    _add_cell_arguments(trace_parser, n=64)
    trace_parser.add_argument(
        "--output", default="repro-trace.json", metavar="PATH",
        help="Chrome trace-event JSON output (open in Perfetto / chrome://tracing)",
    )
    trace_parser.add_argument(
        "--ndjson", default=None, metavar="PATH",
        help="also write per-span NDJSON structured logs",
    )
    trace_parser.set_defaults(func=_cmd_trace)

    bench_parser = subparsers.add_parser(
        "bench",
        help="run the benchmark suite; write/gate BENCH_*.json results",
    )
    bench_parser.add_argument(
        "--suite",
        choices=(
            "smoke", "micro", "e2e", "fault", "monitors", "mis", "scale",
            "full",
        ),
        default="smoke",
        help="which benchmark tier to run (default: the CI smoke subset; "
        "scale = array-vs-coroutine speedup tier at n>=4096; mis = the "
        "Sleeping-MIS end-to-end tier)",
    )
    bench_parser.add_argument(
        "--names", nargs="+", default=None, metavar="NAME",
        help="run only these benchmarks (overrides --suite)",
    )
    bench_parser.add_argument("--repeats", type=int, default=5)
    bench_parser.add_argument("--warmup", type=int, default=1)
    bench_parser.add_argument(
        "--output", default=None, metavar="PATH",
        help="write results as BENCH JSON (schema repro-bench/1)",
    )
    bench_parser.add_argument(
        "--input", default=None, metavar="PATH",
        help="gate a previously written results file instead of re-running",
    )
    bench_parser.add_argument(
        "--check", default=None, metavar="BASELINE",
        help="compare medians against a committed BENCH baseline file",
    )
    bench_parser.add_argument(
        "--threshold", type=float, default=1.25,
        help="slowdown ratio above which --check fails (default 1.25)",
    )
    bench_parser.add_argument(
        "--warn-only", action="store_true",
        help="report regressions but exit 0 (for flaky shared runners)",
    )
    bench_parser.add_argument(
        "--compare-ref", default=None, metavar="REF_JSON",
        help="embed a baseline_comparison block computed against this file",
    )
    bench_parser.add_argument(
        "--compare-label", default=None,
        help="label recorded as baseline_comparison.reference",
    )
    bench_parser.add_argument(
        "--json", action="store_true", help="emit the full payload as JSON"
    )
    bench_parser.add_argument("--quiet", action="store_true")
    bench_parser.set_defaults(func=_cmd_bench)

    experiments_parser = subparsers.add_parser(
        "experiments", help="print the non-grid paper experiments as JSON"
    )
    experiments_parser.add_argument(
        "--only", action="append", metavar="NAME",
        help="run only this experiment (repeatable)",
    )
    experiments_parser.set_defaults(func=_cmd_experiments)

    return parser


#: Subcommands that execute simulations directly: each invocation gets
#: its own trace ID so exports and worker logs correlate (the service
#: path mints per-submission IDs instead; see repro.telemetry).
_TRACED_COMMANDS = ("run", "trace", "check")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "command", None) in _TRACED_COMMANDS:
        from repro.telemetry import trace_context

        with trace_context():
            return args.func(args)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
