"""Command-line interface: generate datasets and run paper analyses.

Examples::

    repro-gridftp datasets
    repro-gridftp generate NCAR-NICS --seed 7 --out ncar.log
    repro-gridftp sessions ncar.log --g 60
    repro-gridftp suitability ncar.log
    repro-gridftp summary ncar.log
    repro-gridftp analyze slac-bnl --n 10000000 --chunk-size 250000
    repro-gridftp factors ncar.log
    repro-gridftp advise ncar.log --bytes 2e11 --stripes 2
    repro-gridftp collect ncar.log --loss 0.05 --out collected.log
    repro-gridftp hntes yesterday.log today.log
    repro-gridftp arrivals ncar.log
    repro-gridftp profile --jobs 500 --compare-oracle
    repro-gridftp run campaign.toml --jobs 4
    repro-gridftp run pipeline.toml --dry-run
    repro-gridftp cache stats --json
    repro-gridftp cache gc --older-than 7d
    repro-gridftp cache verify --delete
    repro-gridftp cache prune-tmp
    repro-gridftp serve --socket /tmp/svc.sock --flaps-per-hour 12
    repro-gridftp request --socket /tmp/svc.sock submit --sizes 4e9 --wait
    repro-gridftp request --socket /tmp/svc.sock status
    repro-gridftp loadtest --arrivals poisson --n 100 --rate 0.1
    repro-gridftp loadtest --socket /tmp/svc.sock --n 50 --max-p99 2.0
    repro-gridftp loadtest --mode sim --arrivals diurnal --n 2000

A `run` campaign killed by SIGINT/SIGTERM drains in-flight cells,
flushes its checkpoint journal, and exits with code 75 (EX_TEMPFAIL);
re-running the same spec against the same cache resumes mid-batch and
executes only cells that never finished.
"""

from __future__ import annotations

import argparse
import sys

from .core.report import (
    format_gap_report,
    format_suitability_grid,
    format_summary_block,
    gap_label,
)
from .core.sessions import group_sessions, session_gap_report
from .core.throughput import path_report
from .core.vc_suitability import suitability_table
from .core.rate_advisor import RateAdvisor
from .core.variance import decompose_throughput_variance
from .gridftp.logfmt import read_usage_log, write_usage_log
from .gridftp.usagestats import simulate_collection
from .workload.datasets import DATASETS, load
from .workload.synth import STREAM_BLOCK_TRANSFERS, STREAMABLE_DATASETS

__all__ = ["main"]


def _cmd_datasets(_args: argparse.Namespace) -> int:
    for spec in DATASETS.values():
        print(f"{spec.name:18} {spec.n_transfers:>9,} transfers  {spec.period:24} "
              f"{'anonymized' if spec.anonymized else 'identified'}")
        print(f"{'':18} {spec.description}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    log = load(args.dataset, seed=args.seed)
    write_usage_log(log, args.out)
    print(f"wrote {len(log):,} transfers to {args.out}")
    return 0


def _cmd_sessions(args: argparse.Namespace) -> int:
    log = read_usage_log(args.log)
    # g = 0 is a valid gap, not "unset"; a NaN or negative g is refused,
    # by grouping at g as given first, so the refusal names it, not 2g
    s = group_sessions(log, args.g)
    rows = session_gap_report(log, sorted({0.0, args.g, 2 * args.g}))
    print(format_gap_report(f"Session structure of {args.log}", rows))
    print(f"\nat g={gap_label(args.g)}: {len(s):,} sessions, "
          f"{int(s.n_transfers.sum()):,} transfers")
    return 0


def _cmd_suitability(args: argparse.Namespace) -> int:
    log = read_usage_log(args.log)
    grid = suitability_table(log)
    print(format_suitability_grid(f"VC suitability of {args.log}", grid))
    return 0


def _cmd_summary(args: argparse.Namespace) -> int:
    log = read_usage_log(args.log)
    rep = path_report(log)
    print(
        format_summary_block(
            f"{args.log}: {rep.n_transfers:,} transfers",
            [
                ("size MB", rep.size, 1e-6),
                ("dur s", rep.duration, 1.0),
                ("tput Mbps", rep.throughput, 1e-6),
            ],
        )
    )
    return 0


def _cmd_factors(args: argparse.Namespace) -> int:
    log = read_usage_log(args.log)
    effects = decompose_throughput_variance(
        log, include_concurrency=not args.no_concurrency
    )
    print(f"throughput-variance decomposition of {args.log} (one-way eta^2)")
    for e in effects:
        print(f"  {e.factor:>12}: {e.eta_squared:6.3f}  "
              f"({e.n_groups} levels, n={e.n:,})")
    return 0


def _cmd_advise(args: argparse.Namespace) -> int:
    log = read_usage_log(args.log)
    advisor = RateAdvisor(log)
    advice = advisor.advise(
        args.bytes,
        stripes=args.stripes,
        streams=args.streams,
        rate_quantile=args.quantile,
    )
    print(f"createReservation advice for a {args.bytes / 1e9:.1f} GB session:")
    print(f"  bandwidth = {advice.rate_bps / 1e6:,.0f} Mbps "
          f"(q{args.quantile:.2f} of {advice.support:,} similar transfers)")
    print(f"  duration  = {advice.duration_s:,.0f} s")
    return 0


def _cmd_hntes(args: argparse.Namespace) -> int:
    from .core.alpha_flows import AlphaFlowCriteria
    from .vc.hntes import HntesController

    learn = read_usage_log(args.learn_log)
    apply_to = read_usage_log(args.apply_log)
    ctl = HntesController(
        criteria=AlphaFlowCriteria(
            min_rate_bps=args.min_rate_gbps * 1e9, min_size_bytes=1e9
        )
    )
    ctl.analyze(learn, cycle=0)
    report = ctl.apply_filters(apply_to, cycle=1)
    print(f"learned from {len(learn):,} transfers; "
          f"{len(ctl.active_filters())} filters installed")
    print(f"next cycle: {report.n_redirected:,}/{report.n_transfers:,} "
          f"transfers redirected ({100 * report.byte_coverage:.1f}% of bytes)")
    if not args.no_config:
        print()
        print(ctl.render_config())
    return 0


def _cmd_arrivals(args: argparse.Namespace) -> int:
    from .core.interarrival import arrival_report

    log = read_usage_log(args.log)
    r = arrival_report(log, g_seconds=args.g)
    print(f"arrival process of {args.log}")
    print(f"  transfers: {r.n_transfers:,} (interarrival CV {r.transfer_cv:.2f}, "
          f"burstiness {r.transfer_burstiness:+.2f})")
    print(f"  sessions:  {r.n_sessions:,} (interarrival CV {r.session_cv:.2f}, "
          f"burstiness {r.session_burstiness:+.2f})")
    print(f"  peak hour holds {100 * r.peak_hour_share:.1f}% of arrivals")
    print(f"  batch structure visible: {r.batching_visible}")
    return 0


#: exit code for an interrupted-but-resumable campaign (EX_TEMPFAIL)
EXIT_RESUMABLE = 75


def _cmd_run(args: argparse.Namespace) -> int:
    from .experiments.cache import ResultCache
    from .experiments.checkpoint import CHECKPOINT_SUBDIR
    from .experiments.runner import CampaignInterrupted, Runner
    from .experiments.spec import ExperimentSpec, load_spec

    spec = load_spec(args.spec)
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    checkpoint_dir = None
    if cache is not None and not args.no_checkpoint:
        checkpoint_dir = cache.root / CHECKPOINT_SUBDIR
    runner = Runner(
        jobs=args.jobs,
        cache=cache,
        cell_timeout_s=args.timeout,
        checkpoint_dir=checkpoint_dir,
    )
    if args.dry_run:
        from .experiments.runner import plan_dag_summary

        plans = runner.dry_run(spec)
        total = sum(p.n_cells for p in plans)
        hits = sum(p.n_hits for p in plans)
        print(f"dry run of '{spec.name}': {len(plans)} stage(s), "
              f"{total} cell(s), nothing executed")
        for plan in plans:
            origin = "external spec" if plan.external else "stage"
            print(f"  {origin} '{plan.name}' [{plan.scenario}]: "
                  f"{plan.n_cells} cell(s), {plan.n_hits} cached, "
                  f"{plan.n_cells - plan.n_hits} to execute  "
                  f"(fingerprint {plan.fingerprint[:12]})")
        print(f"plan: {total} cell(s) total, {hits} cached, "
              f"{total - hits} to execute")
        print(plan_dag_summary(plans, jobs=args.jobs).format())
        return 0
    try:
        if isinstance(spec, ExperimentSpec):
            campaign = runner.run(spec, force=args.force)
        else:
            campaign = runner.run_pipeline(spec, force=args.force)
    except CampaignInterrupted as exc:
        print(exc)
        return EXIT_RESUMABLE
    except RuntimeError as exc:
        # e.g. a pipeline stage quarantined cells a downstream stage needs
        print(exc)
        return 1
    print(campaign.format())
    _print_error_summary(campaign)
    return 1 if campaign.n_failed else 0


def _print_error_summary(campaign) -> int:
    """One line per quarantined cell, for flat campaigns and pipelines.

    The grid summary only *counts* failures (and pipeline stages bury
    them entirely); operators triaging a long campaign need the
    scenario, the cell identity, and the exception without replaying
    the run.  A stage every cell of which was *cancelled* (its needed
    upstream quarantined) coalesces to a single line — the culprit is
    upstream, and repeating the same reason per cell would drown it.
    Returns the number of lines printed.
    """
    stages = (
        list(campaign.stages.items())
        if hasattr(campaign, "stages")
        else [(campaign.spec.name, campaign)]
    )
    failed = []
    cancelled_stages = []
    for stage_name, stage in stages:
        bad = [c for c in stage.cells if not c.ok]
        if bad and len(bad) == len(stage.cells) and all(
            c.error is not None and c.error.startswith("cancelled: ")
            for c in bad
        ):
            cancelled_stages.append((stage_name, stage, bad[0].error))
            continue
        failed.extend((stage_name, stage.spec.scenario, c) for c in bad)
    if not failed and not cancelled_stages:
        return 0
    lines = 0
    if failed:
        print(f"\n{len(failed)} quarantined cell(s):")
        for stage_name, scenario, cell in failed:
            coords = (
                " ".join(f"{k}={v}" for k, v in sorted(cell.coords.items()))
                or "-"
            )
            print(f"  {stage_name} [{scenario}] cell {cell.index} ({coords}) "
                  f"seed={cell.seed}: {cell.error}")
            lines += 1
    if cancelled_stages:
        print(f"\n{len(cancelled_stages)} cancelled stage(s):")
        for stage_name, stage, reason in cancelled_stages:
            print(f"  {stage_name} [{stage.spec.scenario}] "
                  f"{stage.n_cells} cell(s) {reason}")
            lines += 1
    return lines


def _cmd_serve(args: argparse.Namespace) -> int:
    import logging

    from .service.daemon import DaemonConfig, run_daemon

    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        stream=sys.stderr,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    config = DaemonConfig(
        socket_path=args.socket,
        workers=args.workers,
        time_scale=args.time_scale,
        queue_limit=args.queue_limit,
        tenant_quota=args.tenant_quota,
        vc_rate_bps=args.vc_rate_bps,
        ip_rate_bps=args.ip_rate_bps,
        default_deadline_s=args.default_deadline,
        reject_prob=args.reject_prob,
        setup_timeout_prob=args.timeout_prob,
        flaps_per_hour=args.flaps_per_hour,
        flap_duration_s=args.flap_duration,
        drain_grace_s=args.drain_grace,
        chaos_ops=args.chaos_ops,
        seed=args.seed,
        scheduler=args.scheduler,
    )
    return run_daemon(config)


def _cmd_request(args: argparse.Namespace) -> int:
    import json as _json

    from .service.api import ServiceClient

    with ServiceClient(args.socket, timeout=args.timeout) as client:
        if args.request_command == "submit":
            sizes = [float(s) for s in args.sizes.split(",") if s]
            resp = client.submit(
                sizes,
                tenant=args.tenant,
                deadline_s=args.deadline,
                wait=args.wait,
            )
        elif args.request_command == "wait":
            resp = client.wait(args.request_id)
        elif args.request_command == "status":
            resp = client.status()
        elif args.request_command == "health":
            resp = client.health()
        elif args.request_command == "crash":
            resp = client.crash()
        else:  # pragma: no cover - argparse enforces the choices
            raise SystemExit(f"unknown request {args.request_command!r}")
    print(_json.dumps(resp, indent=2, sort_keys=True))
    if resp.get("ok"):
        return 0
    # an admission rejection is retryable, everything else is an error
    return EXIT_RESUMABLE if resp.get("status") == "rejected" else 1


def _cmd_loadtest(args: argparse.Namespace) -> int:
    import json as _json

    from .service.loadtest import run_loadtest, run_loadtest_sim

    params = {
        "arrivals": args.arrivals,
        "n_requests": args.n,
        "rate_per_s": args.rate,
        "n_tenants": args.tenants,
        "invalid_frac": args.invalid_frac,
        "time_scale": args.time_scale,
        "workers": args.workers,
        "queue_limit": args.queue_limit,
        "tenant_quota": args.tenant_quota,
        "reject_prob": args.reject_prob,
        "setup_timeout_prob": args.timeout_prob,
        "flaps_per_hour": args.flaps_per_hour,
        "tight_deadline_frac": args.deadline_frac,
        "scheduler": args.scheduler,
    }
    try:
        if args.mode == "sim":
            report = run_loadtest_sim(params, args.seed)
        else:
            report = run_loadtest(params, args.seed, socket_path=args.socket)
        # the report's contracts, plus those run_loadtest raises itself
        # (daemon census agreement, drain exit code, nothing lost)
        report.validate()
    except AssertionError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    print(_json.dumps(report.as_dict(), indent=2, sort_keys=True))
    if args.max_p99 is not None and report.latency_p99_s is not None:
        if report.latency_p99_s > args.max_p99:
            print(
                f"FAIL: p99 latency {report.latency_p99_s:.3f} s exceeds "
                f"the --max-p99 SLO of {args.max_p99:.3f} s",
                file=sys.stderr,
            )
            return 1
    return 0


def _parse_age(text: str) -> float:
    """``'45'``/``'45s'``/``'30m'``/``'12h'``/``'7d'``/``'2w'`` -> seconds.

    Only the text is checked here: :class:`ResultCache` refuses a NaN,
    infinite or negative age.
    """
    units = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0, "w": 604800.0}
    text = text.strip().lower()
    factor = units.get(text[-1:], None)
    number = text[:-1] if factor is not None else text
    try:
        value = float(number)
    except ValueError:
        raise ValueError(
            f"invalid age {text!r}; use e.g. 45s, 30m, 12h, 7d, 2w"
        ) from None
    return value * (factor if factor is not None else 1.0)


def _fmt_bytes(n: int) -> str:
    for unit in ("B", "kB", "MB", "GB"):
        if n < 1024 or unit == "GB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{n} B"
        n /= 1024
    return f"{n} B"  # pragma: no cover


def _cmd_cache(args: argparse.Namespace) -> int:
    from .experiments.cache import ResultCache
    from .experiments.checkpoint import CHECKPOINT_SUBDIR
    from .experiments.runner import Runner
    from .experiments.spec import load_spec

    cache = ResultCache(args.cache_dir)

    if args.cache_command == "stats":
        st = cache.stats()
        ck_dir = cache.root / CHECKPOINT_SUBDIR
        # current (.jsonl) and pre-review (.json) journal names alike
        checkpoints = sorted(
            p for pat in ("*.ckpt.jsonl", "*.ckpt.json")
            for p in ck_dir.glob(pat)
        )
        if args.json:
            import json as _json

            print(_json.dumps({
                "root": str(cache.root),
                "n_artifacts": st.n_artifacts,
                "total_bytes": st.total_bytes,
                "by_scenario": st.by_scenario,
                "n_tmp": st.n_tmp,
                "tmp_bytes": st.tmp_bytes,
                "oldest_age_s": st.oldest_age_s,
                "newest_age_s": st.newest_age_s,
                "n_checkpoints": len(checkpoints),
                "checkpoints": [p.name for p in checkpoints],
            }, indent=2, sort_keys=True))
            return 0
        print(f"cache {cache.root}: {st.n_artifacts} artifact(s), "
              f"{_fmt_bytes(st.total_bytes)}")
        for scenario in sorted(st.by_scenario):
            print(f"  {scenario:18} {st.by_scenario[scenario]:>6}")
        if st.n_artifacts:
            print(f"  oldest {st.oldest_age_s:,.0f} s ago, "
                  f"newest {st.newest_age_s:,.0f} s ago")
        print(f"  orphaned tmp files: {st.n_tmp} ({_fmt_bytes(st.tmp_bytes)})")
        print(f"  pending checkpoints: {len(checkpoints)}")
        for path in checkpoints:
            print(f"    {path.name}")
        return 0

    if args.cache_command == "gc":
        if args.older_than is None and args.spec is None:
            print("cache gc refuses to run unfiltered: pass --older-than "
                  "and/or --spec")
            return 2
        older = None if args.older_than is None else _parse_age(args.older_than)
        keys = None
        if args.spec is not None:
            # the dry-run planner yields every cell key a spec (or
            # pipeline, digests included) owns, without executing
            plans = Runner(cache=cache).dry_run(load_spec(args.spec))
            keys = {k for plan in plans for k in plan.keys}
        removed = cache.gc(older_than_s=older, keys=keys)
        if older is not None:
            # tmp files carry no cell key, so a spec-only gc must not
            # touch them: a fresh .tmp may belong to a campaign writing
            # *right now*, and deleting it would crash that run's rename
            removed += cache.prune_tmp(older_than_s=older)
        print(f"gc removed {len(removed)} file(s)")
        return 0

    if args.cache_command == "verify":
        report = cache.verify(delete=args.delete)
        print(f"verified {report.n_ok + len(report.bad)} artifact(s): "
              f"{report.n_ok} ok, {len(report.corrupt)} corrupt, "
              f"{len(report.mismatched)} key-mismatched"
              + (" (bad artifacts deleted)" if args.delete and report.bad else ""))
        for path in report.corrupt:
            print(f"  corrupt:    {path}")
        for path in report.mismatched:
            print(f"  mismatched: {path}")
        return 0 if (report.ok or args.delete) else 1

    if args.cache_command == "prune-tmp":
        older = 0.0 if args.older_than is None else _parse_age(args.older_than)
        removed = cache.prune_tmp(older_than_s=older)
        print(f"pruned {len(removed)} orphaned tmp file(s)")
        for path in removed:
            print(f"  {path}")
        return 0

    raise SystemExit(f"unknown cache command {args.cache_command!r}")


def _cmd_chaos(args: argparse.Namespace) -> int:
    import dataclasses

    from .experiments.campaigns import ChaosConfig, chaos_sweep, run_chaos

    config = ChaosConfig(
        n_jobs=args.jobs,
        rejection_prob=args.reject_prob,
        setup_timeout_prob=args.timeout_prob,
        flaps_per_hour=args.flaps_per_hour,
    )
    rates = [float(r) for r in args.sweep.split(",")] if args.sweep else None
    if rates is not None:
        reports = chaos_sweep(rates, config=config, seed=args.seed)
    else:
        reports = [run_chaos(config, seed=args.seed)]
    print("flaps/h  done  avail  goodput    degr   p50x   p99x  "
          "retry  fall  migr  flaps  rollback")
    for r in reports:
        print(
            f"{r.flaps_per_hour:7.1f}  {r.n_completed:2d}/{r.n_jobs:<2d}"
            f" {r.availability:5.2f}  {r.goodput_chaos_bps / 1e9:5.2f} Gb/s"
            f"  {r.goodput_degradation:6.1%} {r.p50_inflation:6.2f} {r.p99_inflation:6.2f}"
            f"  {r.stats.n_retries:5d} {r.stats.n_fallbacks:5d} {r.stats.n_migrations:5d}"
            f"  {r.n_flaps_injected:5d}  {r.marker_rollback_bytes / 1e6:6.1f} MB"
        )
    if args.verbose:
        for r in reports:
            print(f"\nflap rate {r.flaps_per_hour:.1f}/h, per-job detail:")
            for i, (mode, flaps, wc, wf) in enumerate(
                zip(r.modes, r.flaps_per_job, r.wall_clean_s, r.wall_chaos_s)
            ):
                print(f"  job {i:2d}: {mode:8s} flaps={flaps}  "
                      f"clean {wc:7.1f} s -> chaos {wf:7.1f} s")
            print(f"  recovery counters: {dataclasses.asdict(r.stats)}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from .experiments.campaigns import profile_campaign

    report = profile_campaign(
        n_jobs=args.jobs,
        seed=args.seed,
        allocator=args.allocator,
        compare_oracle=args.compare_oracle,
    )
    print(report.format())
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    """Chunked generate -> sessionize -> summarize in bounded memory."""
    import resource
    import time

    from .core.streaming import StreamAnalysis
    from .workload.synth import generate_stream

    t0 = time.perf_counter()
    analysis = StreamAnalysis(g=args.g)
    for chunk in generate_stream(
        args.dataset,
        args.n,
        args.chunk_size,
        seed=args.seed,
        block_transfers=args.block_transfers,
    ):
        analysis.update(chunk)
    report = analysis.finalize()
    wall = time.perf_counter() - t0

    print(f"streamed {args.dataset}: {report.n_transfers:,} transfers in "
          f"{report.n_chunks} chunks of <= {args.chunk_size:,} "
          f"({report.total_bytes / 1e12:.2f} TB)")
    print(f"sessions at g={gap_label(report.g)}: {report.n_sessions:,} "
          f"({report.n_single:,} single, {report.n_multi:,} multi) "
          f"over {report.n_pairs} host pairs")
    print(f"largest session: {report.max_transfers_in_session:,} transfers; "
          f"{report.n_sessions_100_plus:,} sessions with >= 100")
    print(
        format_summary_block(
            "streamed summaries (quartiles sketched)",
            [
                ("ses MB", report.session_size, 1e-6),
                ("ses dur s", report.session_duration, 1.0),
                ("tput Mbps", report.transfer_throughput, 1e-6),
            ],
        )
    )
    tput = report.n_transfers / wall if wall > 0 else 0.0
    print(f"pipeline: {wall:.1f} s wall, {tput:,.0f} transfers/s")
    print(f"peak streaming state: {_fmt_bytes(report.peak_state_nbytes)}")
    # ru_maxrss is KiB on Linux (bytes on macOS; this repo's CI is Linux)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"peak RSS: {rss_mb:,.0f} MB")
    if args.max_rss_mb is not None and rss_mb > args.max_rss_mb:
        print(f"FAIL: peak RSS {rss_mb:,.0f} MB exceeds budget "
              f"{args.max_rss_mb:,.0f} MB")
        return 1
    return 0


def _cmd_collect(args: argparse.Namespace) -> int:
    log = read_usage_log(args.log)
    collected, collector = simulate_collection(log, loss_rate=args.loss)
    write_usage_log(collected, args.out)
    print(f"collected {collector.n_records:,} of {len(log):,} transfers "
          f"({args.loss:.0%} UDP loss); remote hosts anonymized")
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-gridftp",
        description="GridFTP transfer-log analysis (SC'12 reproduction)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list the registered datasets").set_defaults(
        func=_cmd_datasets
    )

    g = sub.add_parser("generate", help="generate a synthetic dataset")
    g.add_argument("dataset", choices=sorted(DATASETS))
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_generate)

    s = sub.add_parser("sessions", help="session structure of a usage log")
    s.add_argument("log")
    s.add_argument("--g", type=float, default=60.0, help="gap parameter, seconds")
    s.set_defaults(func=_cmd_sessions)

    v = sub.add_parser("suitability", help="Table IV suitability grid")
    v.add_argument("log")
    v.set_defaults(func=_cmd_suitability)

    m = sub.add_parser("summary", help="six-number summaries of a usage log")
    m.add_argument("log")
    m.set_defaults(func=_cmd_summary)

    f = sub.add_parser("factors", help="variance decomposition across factors")
    f.add_argument("log")
    f.add_argument("--no-concurrency", action="store_true",
                   help="skip the O(n^2) concurrency factor")
    f.set_defaults(func=_cmd_factors)

    a = sub.add_parser("advise", help="circuit rate/duration advice")
    a.add_argument("log", help="historical usage log to learn from")
    a.add_argument("--bytes", type=float, required=True,
                   help="upcoming session size in bytes")
    a.add_argument("--stripes", type=int, default=1)
    a.add_argument("--streams", type=int, default=8)
    a.add_argument("--quantile", type=float, default=0.75)
    a.set_defaults(func=_cmd_advise)

    an = sub.add_parser(
        "analyze",
        help="stream-generate a workload and analyze it in bounded memory",
    )
    an.add_argument("dataset", choices=sorted(STREAMABLE_DATASETS))
    an.add_argument("--n", type=int, default=1_000_000,
                    help="total transfers to stream (default 1M)")
    an.add_argument("--chunk-size", type=int, default=100_000,
                    help="transfers per analysis chunk")
    an.add_argument("--g", type=float, default=60.0,
                    help="session gap parameter, seconds")
    an.add_argument("--seed", type=int, default=None)
    an.add_argument("--block-transfers", type=int,
                    default=STREAM_BLOCK_TRANSFERS,
                    help="transfers per generation block (advanced)")
    an.add_argument("--max-rss-mb", type=float, default=None,
                    help="fail (exit 1) if peak RSS exceeds this budget")
    an.set_defaults(func=_cmd_analyze)

    c = sub.add_parser("collect", help="simulate usage-stats UDP collection")
    c.add_argument("log")
    c.add_argument("--loss", type=float, default=0.0)
    c.add_argument("--out", required=True)
    c.set_defaults(func=_cmd_collect)

    h = sub.add_parser("hntes", help="learn alpha filters from one log, apply to another")
    h.add_argument("learn_log")
    h.add_argument("apply_log")
    h.add_argument("--min-rate-gbps", type=float, default=1.0)
    h.add_argument("--no-config", action="store_true")
    h.set_defaults(func=_cmd_hntes)

    r = sub.add_parser("arrivals", help="arrival-process burstiness analysis")
    r.add_argument("log")
    r.add_argument("--g", type=float, default=60.0)
    r.set_defaults(func=_cmd_arrivals)

    x = sub.add_parser("chaos", help="fault-injection campaign over the VC stack")
    x.add_argument("--jobs", type=int, default=10)
    x.add_argument("--seed", type=int, default=0)
    x.add_argument("--reject-prob", type=float, default=0.3,
                   help="per-request IDC rejection probability")
    x.add_argument("--timeout-prob", type=float, default=0.2,
                   help="per-request signalling-timeout probability")
    x.add_argument("--flaps-per-hour", type=float, default=10.0,
                   help="circuit flap rate while a transfer rides its VC")
    x.add_argument("--sweep", default=None, metavar="R1,R2,...",
                   help="comma-separated flap rates to sweep instead")
    x.add_argument("--verbose", action="store_true",
                   help="per-job modes, flap counts and wall times")
    x.set_defaults(func=_cmd_chaos)

    pr = sub.add_parser(
        "profile", help="instrumented simulator campaign with probe counters"
    )
    pr.add_argument("--jobs", type=int, default=300)
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--allocator", choices=["incremental", "oracle"],
                    default="incremental")
    pr.add_argument("--compare-oracle", action="store_true",
                    help="also run the full-recompute oracle and report speedup")
    pr.set_defaults(func=_cmd_profile)

    rn = sub.add_parser(
        "run", help="run a declarative experiment spec or pipeline (TOML/JSON)"
    )
    rn.add_argument("spec", help="path to the campaign spec or pipeline file")
    rn.add_argument("--jobs", type=int, default=1,
                    help="worker processes (1 = serial in-process); for "
                         "pipelines the pool is pipeline-wide — cells from "
                         "every runnable stage share it")
    rn.add_argument("--no-cache", action="store_true",
                    help="disable the content-addressed result cache")
    rn.add_argument("--cache-dir", default=".repro-cache",
                    help="artifact cache root (default: .repro-cache)")
    rn.add_argument("--timeout", type=float, default=None,
                    help="per-cell wall-clock budget in seconds (parallel mode)")
    rn.add_argument("--force", action="store_true",
                    help="recompute every cell even on cache hits")
    rn.add_argument("--no-checkpoint", action="store_true",
                    help="disable the crash-safe campaign checkpoint journal")
    rn.add_argument("--dry-run", action="store_true",
                    help="expand the spec/pipeline, report per-stage cell "
                         "counts, the cache-hit census, and the stage DAG's "
                         "critical path / predicted schedule; execute nothing")
    rn.set_defaults(func=_cmd_run)

    sv = sub.add_parser(
        "serve", help="run the long-lived transfer daemon on a Unix socket"
    )
    sv.add_argument("--socket", required=True,
                    help="control-socket path (JSON lines, one op per line)")
    sv.add_argument("--workers", type=int, default=4)
    sv.add_argument("--time-scale", type=float, default=60.0,
                    help="virtual service seconds per real second")
    sv.add_argument("--queue-limit", type=int, default=64,
                    help="max admitted-but-unsettled requests")
    sv.add_argument("--tenant-quota", type=int, default=8,
                    help="max outstanding requests per tenant")
    sv.add_argument("--vc-rate-bps", type=float, default=1.6e9)
    sv.add_argument("--ip-rate-bps", type=float, default=4e8)
    sv.add_argument("--default-deadline", type=float, default=None,
                    help="budget (virtual s) for submissions naming none")
    sv.add_argument("--reject-prob", type=float, default=0.0,
                    help="per-request IDC rejection probability")
    sv.add_argument("--timeout-prob", type=float, default=0.0,
                    help="per-request signalling-timeout probability")
    sv.add_argument("--flaps-per-hour", type=float, default=0.0,
                    help="circuit flap rate while a request rides its VC")
    sv.add_argument("--flap-duration", type=float, default=25.0,
                    help="mean flap outage duration, virtual seconds")
    sv.add_argument("--drain-grace", type=float, default=5.0,
                    help="real seconds SIGTERM waits before checkpointing")
    sv.add_argument("--chaos-ops", action="store_true",
                    help="honour the 'crash' chaos op (tests and fault-storm "
                         "load tests only)")
    sv.add_argument("--scheduler", default="fcfs", metavar="NAME",
                    help="scheduling policy: fcfs | predictive | global "
                         "(unknown names fail fast with the valid set)")
    sv.add_argument("--seed", type=int, default=0)
    sv.add_argument("--verbose", action="store_true")
    sv.set_defaults(func=_cmd_serve)

    rq = sub.add_parser(
        "request", help="talk to a running transfer daemon"
    )
    rq.add_argument("--socket", required=True,
                    help="the daemon's control-socket path")
    rq.add_argument("--timeout", type=float, default=30.0,
                    help="socket timeout, real seconds")
    rqsub = rq.add_subparsers(dest="request_command", required=True)
    rqs = rqsub.add_parser("submit", help="submit one transfer request")
    rqs.add_argument("--sizes", required=True, metavar="S1,S2,...",
                     help="comma-separated file sizes in bytes")
    rqs.add_argument("--tenant", default="default")
    rqs.add_argument("--deadline", type=float, default=None,
                     help="deadline budget, virtual seconds")
    rqs.add_argument("--wait", action="store_true",
                     help="block until the request settles")
    rqw = rqsub.add_parser("wait", help="block until a request settles")
    rqw.add_argument("request_id", type=int)
    rqsub.add_parser("status", help="full service dashboard")
    rqsub.add_parser("health", help="liveness verdict")
    rqsub.add_parser("crash", help="chaos op: panic one work loop")
    rq.set_defaults(func=_cmd_request)

    lt = sub.add_parser(
        "loadtest",
        help="open-loop load test of the transfer daemon (latency SLOs)",
    )
    lt.add_argument("--socket", default=None,
                    help="drive an already-running daemon at this socket "
                         "(default: boot one in-process and drain it after)")
    lt.add_argument("--mode", choices=["live", "sim"], default="live",
                    help="live = real daemon; sim = deterministic "
                         "discrete-event twin (bit-identical per seed)")
    lt.add_argument("--arrivals", choices=["poisson", "onoff", "diurnal"],
                    default="poisson")
    lt.add_argument("--n", type=int, default=100,
                    help="number of submissions to offer")
    lt.add_argument("--rate", type=float, default=0.1,
                    help="arrival rate, requests per *virtual* second")
    lt.add_argument("--tenants", type=int, default=3)
    lt.add_argument("--invalid-frac", type=float, default=0.0,
                    help="fraction of submissions made deliberately invalid")
    lt.add_argument("--deadline-frac", type=float, default=0.25,
                    help="fraction of submissions with a tight deadline")
    lt.add_argument("--time-scale", type=float, default=3000.0,
                    help="virtual seconds per real second (embedded daemon "
                         "and schedule pacing; match a --socket daemon's)")
    lt.add_argument("--workers", type=int, default=4)
    lt.add_argument("--queue-limit", type=int, default=16)
    lt.add_argument("--tenant-quota", type=int, default=8)
    lt.add_argument("--reject-prob", type=float, default=0.0)
    lt.add_argument("--timeout-prob", type=float, default=0.0)
    lt.add_argument("--flaps-per-hour", type=float, default=0.0)
    lt.add_argument("--max-p99", type=float, default=None,
                    help="fail (exit 1) if p99 latency exceeds this SLO, "
                         "seconds in the report's latency domain")
    lt.add_argument("--scheduler", default="fcfs", metavar="NAME",
                    help="scheduling policy: fcfs | predictive | global")
    lt.add_argument("--seed", type=int, default=0)
    lt.set_defaults(func=_cmd_loadtest)

    ca = sub.add_parser(
        "cache", help="maintain the content-addressed campaign result cache"
    )
    ca.add_argument("--cache-dir", default=".repro-cache",
                    help="artifact cache root (default: .repro-cache)")
    casub = ca.add_subparsers(dest="cache_command", required=True)
    stp = casub.add_parser(
        "stats", help="artifact counts, sizes, scenarios, orphans, checkpoints"
    )
    stp.add_argument("--json", action="store_true",
                     help="machine-readable JSON instead of the human summary")
    gc = casub.add_parser("gc", help="remove artifacts by age and/or by spec")
    gc.add_argument("--older-than", default=None, metavar="AGE",
                    help="only artifacts older than AGE (45s, 30m, 12h, 7d, 2w)")
    gc.add_argument("--spec", default=None, metavar="SPEC",
                    help="only artifacts belonging to this spec's cells")
    ver = casub.add_parser(
        "verify", help="re-hash every artifact against its filename key"
    )
    ver.add_argument("--delete", action="store_true",
                     help="remove corrupt or key-mismatched artifacts")
    pt = casub.add_parser(
        "prune-tmp", help="remove orphaned in-flight temp files"
    )
    pt.add_argument("--older-than", default=None, metavar="AGE",
                    help="only tmp files older than AGE (default: all)")
    ca.set_defaults(func=_cmd_cache)
    return p


def main(argv: list[str] | None = None) -> int:
    """Run one verb; a refused value or unreadable file exits 2.

    A verb's ``ValueError`` (a bad argument value, a spec naming an
    unregistered scenario) or ``OSError`` (a missing spec file) becomes
    one ``error: ...`` line on stderr, never a traceback.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
