"""Command-line interface for the approximate-component library.

The subcommands mirror the workflows a library user runs most:

* ``repro characterize-adders`` -- Table III-style characterization of
  the 1-bit cells and multi-bit ripple adders.
* ``repro explore-gear`` -- Table IV / Fig. 4 design-space sweep with
  constraint queries.
* ``repro characterize-multipliers`` -- Fig. 5 / Fig. 6 multiplier
  characterization.
* ``repro campaign`` -- the named characterization campaigns (Table IV,
  Fig. 6, ripple/SAD/filter families) through the parallel, cached,
  resumable campaign engine.
* ``repro resilience`` -- transient-fault sweeps across the stack
  (logic cells, GeAr datapath, SAD/filter/DCT accelerators), with
  QosGuard graceful degradation and hardened campaign execution
  (timeouts, retries, quarantine).
* ``repro verify`` -- cross-layer differential verification: every
  component's evaluation paths cross-checked against each other, its
  golden reference, metamorphic laws, and (for GeAr) the analytic /
  exhaustive / Monte Carlo error models.
* ``repro analytic`` -- exact PMF-convolution error analysis of block
  adders: per-configuration statistics for homogeneous GeAr and
  heterogeneous segment layouts, and ``--sweep`` for the heterogeneous
  Pareto front compared against the homogeneous Table IV front.
* ``repro encode`` -- the HEVC-lite case study with a chosen SAD
  variant (Fig. 9 data points).
* ``repro serve`` -- approximate-compute-as-a-service: the asyncio
  HTTP/JSON front-end over the campaign engine (multi-tenant
  weighted-fair queueing, shared content-addressed result store, QoS
  admission against the analytic predictor, SSE job streams).

The sweep subcommands accept ``--workers`` (process-pool fan-out) and
``--cache-dir`` (result cache: warm starts and kill/resume).  Results
are bit-identical for any worker count.

Example:
    $ python -m repro.cli explore-gear --width 11 --min-accuracy 90
    $ python -m repro.cli campaign table4 --model monte-carlo \\
          --workers 4 --cache-dir .campaign-cache
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Sequence

from .accelerators.sad import (
    SAD_VARIANT_CELLS,
    SADAccelerator,
    sad_family_tasks,
)
from .adders.characterize import (
    characterize_adder,
    characterize_ripple_family,
    ripple_family_tasks,
)
from .adders.fulladder import FULL_ADDER_NAMES, FULL_ADDERS
from .campaign import CampaignStats, run_campaign
from .characterization.report import format_records, records_to_csv
from .dse.explorer import explore_gear_space_campaign, gear_space_tasks
from .dse.selection import select_max_accuracy, select_min_area
from .logic.simulate import estimate_power
from .media.synthetic import moving_sequence
from .multipliers.characterize import (
    characterize_mul2x2_family,
    fig6_multiplier_family,
    fig6_multiplier_tasks,
)
from .video.codec import HevcLiteEncoder

__all__ = ["main", "build_parser"]


def _print(records: List[dict], columns, as_csv: bool, title: str) -> None:
    if as_csv:
        print(records_to_csv(records, columns))
    else:
        print(format_records(records, columns=columns, title=title))


def _progress_printer(enabled: bool):
    """Stderr task counter for long campaigns (None when disabled)."""
    if not enabled:
        return None

    def progress(done: int, total: int) -> None:
        end = "\n" if done == total else ""
        print(f"\r  campaign: {done}/{total} tasks", end=end,
              file=sys.stderr, flush=True)

    return progress


def _print_stats(stats: CampaignStats) -> None:
    print(f"campaign stats: {stats.summary()}", file=sys.stderr)


def _normalized_model(model: str) -> str:
    return model.replace("-", "_")


def _cmd_characterize_adders(args: argparse.Namespace) -> int:
    rows = []
    for name in FULL_ADDER_NAMES:
        fa = FULL_ADDERS[name]
        netlist = fa.netlist()
        rows.append(
            {
                "adder": name,
                "error_cases": fa.n_error_cases,
                "area_ge": round(netlist.area_ge, 2),
                "power_nw": round(estimate_power(netlist).total_nw, 1),
                "delay_ps": round(netlist.delay_ps(), 1),
            }
        )
    _print(rows, None, args.csv, "1-bit full adders (Table III)")
    if args.width:
        records = characterize_ripple_family(
            args.width, approx_lsb_counts=tuple(args.lsbs),
            n_workers=args.workers, cache_dir=args.cache_dir,
        )
        family_rows = [r.as_row() for r in records]
        _print(
            family_rows,
            ["name", "area_ge", "error_rate", "mean_error_distance",
             "max_error_distance"],
            args.csv,
            f"\n{args.width}-bit ripple adders",
        )
    return 0


def _cmd_explore_gear(args: argparse.Namespace) -> int:
    result = explore_gear_space_campaign(
        args.width,
        model=_normalized_model(args.model),
        n_samples=args.samples,
        seed=args.seed,
        n_workers=args.workers,
        cache_dir=args.cache_dir,
        progress=_progress_printer(args.workers > 1),
    )
    records = list(result.results)
    if args.workers > 1 or args.cache_dir:
        _print_stats(result.stats)
    for record in records:
        record["accuracy_percent"] = round(record["accuracy_percent"], 3)
    _print(
        records,
        ["r", "p", "k", "l", "accuracy_percent", "lut_count", "delay_ps"],
        args.csv,
        f"GeAr design space, N={args.width} (Table IV)",
    )
    best = select_max_accuracy(records)
    print(f"\nmax accuracy: {best['name']} ({best['accuracy_percent']}%)")
    if args.min_accuracy is not None:
        try:
            pick = select_min_area(records, args.min_accuracy)
            print(
                f"min area with >= {args.min_accuracy}% accuracy: "
                f"{pick['name']} ({pick['lut_count']} LUTs)"
            )
        except ValueError as exc:
            print(f"constraint infeasible: {exc}", file=sys.stderr)
            return 1
    return 0


def _cmd_characterize_multipliers(args: argparse.Namespace) -> int:
    _print(
        characterize_mul2x2_family(),
        None,
        args.csv,
        "2x2 multipliers (Fig. 5)",
    )
    if args.widths:
        records = fig6_multiplier_family(
            widths=tuple(args.widths), n_samples=args.samples,
            n_workers=args.workers, cache_dir=args.cache_dir,
        )
        rows = [r.as_row() for r in records]
        _print(
            rows,
            ["name", "width", "area_ge", "power_nw", "error_rate",
             "normalized_med"],
            args.csv,
            "\nmulti-bit multipliers (Fig. 6)",
        )
    return 0


def _cmd_characterize_sad(args: argparse.Namespace) -> int:
    from .accelerators.sad import characterize_sad_family

    records = characterize_sad_family(
        n_pixels=args.pixels,
        lsb_counts=tuple(args.lsbs),
        n_samples=args.samples,
        n_workers=args.workers,
        cache_dir=args.cache_dir,
    )
    _print(records, None, args.csv,
           f"SAD accelerator family ({args.pixels} pixels)")
    return 0


def _cmd_luts(args: argparse.Namespace) -> int:
    from .adders.netlist_builder import build_ripple_adder_netlist
    from .adders.ripple import ApproximateRippleAdder
    from .logic.mapping import map_to_luts

    rows = []
    for name in FULL_ADDER_NAMES:
        mapping = map_to_luts(FULL_ADDERS[name].netlist(), k=args.k)
        rows.append(
            {
                "component": name,
                "luts": mapping.n_luts,
                "luts_dup": mapping.n_luts_duplicated,
                "depth": mapping.depth,
            }
        )
    if args.width:
        for cell, lsbs in (("AccuFA", 0), ("ApxFA1", args.width // 2),
                           ("ApxFA5", args.width // 2)):
            adder = ApproximateRippleAdder(
                args.width, approx_fa=cell, num_approx_lsbs=lsbs
            )
            netlist = build_ripple_adder_netlist(adder)
            mapping = map_to_luts(netlist, k=args.k)
            rows.append(
                {
                    "component": adder.name,
                    "luts": mapping.n_luts,
                    "luts_dup": mapping.n_luts_duplicated,
                    "depth": mapping.depth,
                }
            )
    _print(rows, None, args.csv, f"{args.k}-LUT mapping estimates")
    return 0


def _cmd_encode(args: argparse.Namespace) -> int:
    if args.variant not in SAD_VARIANT_CELLS:
        known = ", ".join(SAD_VARIANT_CELLS)
        print(f"unknown variant {args.variant!r}; known: {known}",
              file=sys.stderr)
        return 2
    frames = moving_sequence(
        n_frames=args.frames, size=args.size, seed=args.seed,
        noise_sigma=args.noise,
    )
    encoder = HevcLiteEncoder(search_range=args.search_range, qp=args.qp)
    baseline = encoder.encode(frames, SADAccelerator(n_pixels=64))
    cell = SAD_VARIANT_CELLS[args.variant]
    accelerator = SADAccelerator(
        n_pixels=64, fa=cell, approx_lsbs=args.approx_lsbs
    )
    result = encoder.encode(frames, accelerator)
    print(f"baseline (AccuSAD): {baseline.total_bits} bits, "
          f"{baseline.psnr_db:.2f} dB")
    print(f"{args.variant} ({args.approx_lsbs} LSBs): "
          f"{result.total_bits} bits "
          f"({result.bitrate_increase_percent(baseline):+.2f}%), "
          f"{result.psnr_db:.2f} dB, "
          f"SAD energy {accelerator.energy_per_op_fj:.0f} fJ/op "
          f"(exact: {SADAccelerator(n_pixels=64).energy_per_op_fj:.0f})")
    return 0


#: Output columns per named campaign (records are flattened first).
_CAMPAIGN_COLUMNS = {
    "table4": ["r", "p", "k", "l", "accuracy_percent", "lut_count",
               "area_ge"],
    "fig6": ["name", "width", "area_ge", "power_nw", "error_rate",
             "normalized_med"],
    "ripple": ["name", "width", "area_ge", "error_rate",
               "mean_error_distance", "max_error_distance"],
    "sad": ["name", "fa", "approx_lsbs", "mean_error_distance",
            "mean_relative_error", "energy_fj"],
    "filter": ["image", "fa", "approx_lsbs", "ssim", "area_ge"],
}


def _campaign_tasks(args: argparse.Namespace) -> List:
    """Task list for the named campaign of ``repro campaign``."""
    from .campaign import CampaignTask
    from .media.synthetic import standard_images

    name = args.campaign
    if name == "table4":
        return gear_space_tasks(
            args.width or 11, model=_normalized_model(args.model),
            n_samples=args.samples or 200_000, seed=args.seed,
        )
    if name == "fig6":
        return fig6_multiplier_tasks(
            widths=tuple(args.widths), n_samples=args.samples or 50_000,
            seed=args.seed,
        )
    if name == "ripple":
        return ripple_family_tasks(
            args.width or 8, approx_lsb_counts=tuple(args.lsbs),
            n_samples=args.samples or 100_000, seed=args.seed,
        )
    if name == "sad":
        return sad_family_tasks(
            n_pixels=args.pixels, lsb_counts=tuple(args.lsbs),
            n_samples=args.samples or 3000, seed=args.seed,
        )
    if name == "filter":
        images = sorted(standard_images(size=64))
        return [
            CampaignTask(
                kind="filter_ssim",
                params={"image": image, "fa": cell, "approx_lsbs": lsbs,
                        "size": 64},
                seed=args.seed,
            )
            for image in images
            for cell in ("ApxFA1", "ApxFA2", "ApxFA3", "ApxFA4", "ApxFA5")
            for lsbs in args.lsbs
        ]
    raise ValueError(f"unknown campaign {name!r}")


def _flatten_record(record: dict) -> dict:
    """Lift nested ``metrics`` dicts into top-level report columns."""
    if not isinstance(record, dict):
        return {"result": record}
    flat = {k: v for k, v in record.items() if k != "metrics"}
    metrics = record.get("metrics")
    if isinstance(metrics, dict):
        flat.update(
            {k: round(v, 6) if isinstance(v, float) else v
             for k, v in metrics.items()}
        )
    return flat


def _cmd_campaign(args: argparse.Namespace) -> int:
    tasks = _campaign_tasks(args)
    result = run_campaign(
        tasks,
        n_workers=args.workers,
        cache_dir=args.cache_dir,
        progress=_progress_printer(not args.csv),
    )
    rows = [_flatten_record(record) for record in result.results]
    for row in rows:
        for key, value in row.items():
            if isinstance(value, float):
                row[key] = round(value, 6)
    _print(
        rows,
        _CAMPAIGN_COLUMNS[args.campaign],
        args.csv,
        f"campaign {args.campaign!r} "
        f"({len(tasks)} tasks, seed {args.seed})",
    )
    _print_stats(result.stats)
    return 0


#: Output columns per resilience sweep workload (rate is prepended).
_RESILIENCE_COLUMNS = {
    "cell": ["rate", "cell", "n_vectors", "n_flips", "n_output_errors",
             "error_rate"],
    "gear": ["rate", "name", "n_samples", "error_rate",
             "mean_error_distance"],
    "sad": ["rate", "fa", "n_blocks", "n_fault_affected",
            "block_error_rate", "qos_stage", "qos_exact"],
    "filter": ["rate", "image", "fa", "ssim", "pixel_error_rate"],
    "dct": ["rate", "n_blocks", "mean_coeff_error", "block_error_rate"],
}


def _resilience_row(record: dict) -> dict:
    """Flatten one sweep record for the report table."""
    row = {k: v for k, v in record.items()
           if k not in ("plan", "qos", "flips_per_site")}
    qos = record.get("qos")
    if isinstance(qos, dict):
        row["qos_stage"] = qos.get("final_stage")
        row["qos_exact"] = qos.get("exact_match")
    return row


def _cmd_resilience(args: argparse.Namespace) -> int:
    from .resilience.sweep import run_fault_sweep

    extra = {}
    if args.workload == "sad":
        extra["qos"] = not args.no_qos
        extra["fa"] = args.fa
        extra["approx_lsbs"] = args.approx_lsbs
    if args.workload == "filter":
        extra["image"] = args.image
    result = run_fault_sweep(
        args.workload,
        args.rates,
        seed=args.seed,
        n_workers=args.workers,
        cache_dir=args.cache_dir,
        timeout_s=args.timeout,
        max_attempts=args.retries + 1,
        progress=_progress_printer(not args.csv),
        **extra,
    )
    rows = [_resilience_row(r) for r in result.results if r is not None]
    for row in rows:
        for key, value in row.items():
            if isinstance(value, float):
                row[key] = round(value, 6)
    _print(
        rows,
        _RESILIENCE_COLUMNS[args.workload],
        args.csv,
        f"transient-fault sweep {args.workload!r} "
        f"({len(args.rates)} rates, seed {args.seed})",
    )
    _print_stats(result.stats)
    if not result.ok:
        report = result.failure_report()
        for failure in report["failures"]:
            print(f"QUARANTINED {failure['kind']} {failure['key'][:12]}: "
                  f"{failure['attempts'][-1]['message']}", file=sys.stderr)
        return 1
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify.conformance import verify_all
    from .verify.oracle import resolve_components

    try:
        components = resolve_components(args.component)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    reports = verify_all(
        components,
        budget=args.budget,
        seed=args.seed,
        n_workers=args.workers,
        cache_dir=args.cache_dir,
        progress=_progress_printer(not args.csv),
    )
    rows = [
        {
            "component": report.component,
            "budget": report.budget,
            "checks": report.n_checks,
            "failed": len(report.failures()),
            "status": "ok" if report.passed else "FAIL",
        }
        for report in reports
    ]
    _print(
        rows,
        ["component", "budget", "checks", "failed", "status"],
        args.csv,
        f"differential verification ({len(reports)} components, "
        f"budget {args.budget!r}, seed {args.seed})",
    )
    failed = [report for report in reports if not report.passed]
    for report in failed:
        for check in report.failures():
            print(
                f"FAIL {check.component} {check.check}: {check.detail}",
                file=sys.stderr,
            )
    total_checks = sum(report.n_checks for report in reports)
    print(
        f"verify: {len(reports) - len(failed)}/{len(reports)} components "
        f"passed ({total_checks} checks)",
        file=sys.stderr,
    )
    return 1 if failed else 0


def _analytic_configs(args: argparse.Namespace) -> List:
    """Parse ``--config N,R,P`` and ``--segments r:p,...`` specs."""
    from .adders.hetero import HeteroGeArConfig

    configs = []
    for spec in args.config:
        parts = spec.split(",")
        if len(parts) != 3:
            raise ValueError(f"--config expects N,R,P, got {spec!r}")
        n, r, p = (int(part) for part in parts)
        configs.append(HeteroGeArConfig.from_gear_params(n, r, p))
    for spec in args.segments:
        configs.append(HeteroGeArConfig.from_string(spec))
    return configs


def _segments_str(segments) -> str:
    """Comma-free segment spelling (CSV-safe), e.g. ``4p0-2p2-2p2``."""
    return "-".join(f"{r}p{p}" for r, p in segments)


def _cmd_analytic(args: argparse.Namespace) -> int:
    from .dse.hetero import explore_hetero_space, hetero_front_report
    from .errors.analytic import analytic_summary

    if args.sweep:
        records = explore_hetero_space(
            args.width,
            max_segments=args.max_segments,
            max_p=args.max_p,
            seed=args.seed,
            n_workers=args.workers,
            cache_dir=args.cache_dir,
            progress=_progress_printer(not args.csv),
        )
        report = hetero_front_report(records)
        rows = [
            {
                "segments": _segments_str(record["segments"]),
                "source": record["source"],
                "k": record["k"],
                "lut_count": record["lut_count"],
                "accuracy_percent": round(record["accuracy_percent"], 6),
                "error_rate": round(record["error_rate"], 6),
                "nmed": round(record["nmed"], 9),
            }
            for record in report["front"]
        ]
        _print(
            rows,
            ["segments", "source", "k", "lut_count", "accuracy_percent",
             "error_rate", "nmed"],
            args.csv,
            f"heterogeneous Pareto front, N={args.width} "
            f"({len(records)} exact design points)",
        )
        verdict = ("matches or dominates" if report["matches_or_dominates"]
                   else "DOES NOT DOMINATE")
        print(
            f"\nvs homogeneous Table IV front "
            f"({len(report['gear_front'])} points): {verdict}; "
            f"{len(report['strict_wins'])} strict heterogeneous wins"
        )
        for win in report["strict_wins"]:
            print(
                f"  {_segments_str(win['segments'])}: "
                f"{win['lut_count']} LUTs, "
                f"{win['accuracy_percent']:.6f}% accuracy"
            )
        return 0

    try:
        configs = _analytic_configs(args)
    except ValueError as exc:
        print(f"bad configuration spec: {exc}", file=sys.stderr)
        return 2
    if not configs:
        print("nothing to analyse: pass --config N,R,P and/or "
              "--segments r:p,... (or --sweep)", file=sys.stderr)
        return 2
    from .adders.hetero import HeteroGeArAdder

    rows = []
    for config in configs:
        adder = HeteroGeArAdder(config)
        summary = analytic_summary(config)
        rows.append(
            {
                "segments": _segments_str(config.segments),
                "n": config.n,
                "k": config.k,
                "error_rate": round(summary["error_rate"], 9),
                "accuracy_percent": round(summary["accuracy_percent"], 6),
                "mean": round(summary["mean"], 6),
                "med": round(summary["med"], 6),
                "nmed": round(summary["nmed"], 9),
                "max_abs": int(summary["max_abs"]),
                "lut_count": adder.lut_count,
                "delay_ps": round(adder.delay_ps, 1),
            }
        )
    _print(
        rows,
        ["segments", "n", "k", "error_rate", "accuracy_percent", "mean",
         "med", "nmed", "max_abs", "lut_count", "delay_ps"],
        args.csv,
        "exact analytic error statistics (PMF convolution)",
    )
    return 0


def _parse_tenant_spec(spec: str):
    """``name:weight[:rate[:burst[:backlog[:quota]]]]`` -> TenantConfig.

    ``quota`` caps the tenant's stored result bytes (429
    ``quota_exceeded`` past it); empty or omitted means unlimited.
    """
    from .service.tenants import TenantConfig

    parts = spec.split(":")
    if not parts[0]:
        raise ValueError(f"tenant spec needs a name: {spec!r}")
    name = parts[0]
    weight = float(parts[1]) if len(parts) > 1 and parts[1] else 1.0
    rate = float(parts[2]) if len(parts) > 2 and parts[2] else float("inf")
    burst = int(parts[3]) if len(parts) > 3 and parts[3] else 64
    backlog = int(parts[4]) if len(parts) > 4 and parts[4] else 256
    quota = int(parts[5]) if len(parts) > 5 and parts[5] else None
    return TenantConfig(name=name, weight=weight, rate_per_s=rate,
                        burst=burst, max_backlog=backlog,
                        max_result_bytes=quota)


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from .service.app import ServiceApp, ServiceConfig
    from .service.brownout import SloConfig
    from .service.http import serve, sockname

    try:
        tenants = {
            config.name: config
            for config in (_parse_tenant_spec(s) for s in args.tenant)
        }
    except ValueError as exc:
        print(f"bad --tenant spec: {exc}", file=sys.stderr)
        return 2

    slo = None
    if args.slo_latency is not None or args.slo_queue_depth is not None:
        try:
            slo = SloConfig(
                target_latency_s=args.slo_latency
                if args.slo_latency is not None else 2.0,
                max_queue_depth=args.slo_queue_depth
                if args.slo_queue_depth is not None else 128,
            )
        except ValueError as exc:
            print(f"bad --slo-* flags: {exc}", file=sys.stderr)
            return 2

    async def run() -> None:
        app = ServiceApp(ServiceConfig(
            cache_dir=args.cache_dir,
            n_workers=args.workers,
            tenants=tenants,
            allow_chaos=args.allow_chaos,
            state_dir=args.state_dir,
            slo=slo,
        ))
        await app.start()
        server = await serve(app, host=args.host, port=args.port)
        host, port = sockname(server)
        print(f"repro service on http://{host}:{port} "
              f"({args.workers} workers, "
              f"cache={'on' if app.store.disk is not None else 'off'}, "
              f"journal={'on' if app.journal is not None else 'off'})",
              file=sys.stderr)
        if app.recovery:
            print(f"recovered from journal: "
                  f"{app.recovery.get('n_restored', 0)} jobs restored, "
                  f"{app.recovery.get('n_requeued', 0)} requeued",
              file=sys.stderr)

        # Graceful drain on SIGTERM/SIGINT: new POSTs get a structured
        # 503 ``draining`` while queued/in-flight jobs get the worker
        # pool's grace period; the journal is closed cleanly on the
        # way out.  A second signal (or SIGKILL) still crashes, which
        # is precisely what the journal is for.
        shutdown = asyncio.Event()
        loop = asyncio.get_running_loop()

        def request_shutdown() -> None:
            app.begin_drain()
            shutdown.set()

        handled = []
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, request_shutdown)
                handled.append(sig)
            except (NotImplementedError, RuntimeError):
                pass  # non-Unix loop: fall back to KeyboardInterrupt
        try:
            async with server:
                serving = asyncio.ensure_future(server.serve_forever())
                await shutdown.wait()
                print("draining: refusing new jobs, finishing queued ones",
                      file=sys.stderr)
                serving.cancel()
                try:
                    await serving
                except asyncio.CancelledError:
                    pass
        finally:
            for sig in handled:
                loop.remove_signal_handler(sig)
            await app.stop()
            print("service stopped", file=sys.stderr)

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("\nservice stopped", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Cross-layer approximate computing component library",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_campaign_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--workers", type=int, default=1,
                       help="campaign worker processes (1 = serial)")
        p.add_argument("--cache-dir", default=None,
                       help="campaign result cache (warm start / resume)")

    p = sub.add_parser(
        "characterize-adders", help="Table III characterization"
    )
    p.add_argument("--width", type=int, default=0,
                   help="also characterize W-bit ripple adders")
    p.add_argument("--lsbs", type=int, nargs="+", default=[2, 4, 6],
                   help="approximated-LSB counts for the family sweep")
    p.add_argument("--csv", action="store_true")
    add_campaign_flags(p)
    p.set_defaults(func=_cmd_characterize_adders)

    p = sub.add_parser("explore-gear", help="Table IV / Fig. 4 sweep")
    p.add_argument("--width", type=int, default=11)
    p.add_argument("--min-accuracy", type=float, default=None,
                   help="also run the min-area selection at this bound")
    p.add_argument("--model", default="exact",
                   choices=["exact", "paper", "monte-carlo", "monte_carlo"],
                   help="accuracy model for each design-space row")
    p.add_argument("--samples", type=int, default=200_000,
                   help="Monte Carlo samples per configuration")
    p.add_argument("--seed", type=int, default=0,
                   help="sweep seed (per-row seeds derive from it)")
    p.add_argument("--csv", action="store_true")
    add_campaign_flags(p)
    p.set_defaults(func=_cmd_explore_gear)

    p = sub.add_parser(
        "characterize-multipliers", help="Fig. 5 / Fig. 6 characterization"
    )
    p.add_argument("--widths", type=int, nargs="*", default=[4, 8])
    p.add_argument("--samples", type=int, default=20_000)
    p.add_argument("--csv", action="store_true")
    add_campaign_flags(p)
    p.set_defaults(func=_cmd_characterize_multipliers)

    p = sub.add_parser(
        "characterize-sad", help="SAD accelerator family characterization"
    )
    p.add_argument("--pixels", type=int, default=64)
    p.add_argument("--lsbs", type=int, nargs="+", default=[2, 4, 6])
    p.add_argument("--samples", type=int, default=3000)
    p.add_argument("--csv", action="store_true")
    add_campaign_flags(p)
    p.set_defaults(func=_cmd_characterize_sad)

    p = sub.add_parser(
        "campaign",
        help="run a named characterization campaign (parallel + cached)",
    )
    p.add_argument("campaign",
                   choices=["table4", "fig6", "ripple", "sad", "filter"],
                   help="which characterization sweep to run")
    p.add_argument("--width", type=int, default=0,
                   help="operand width (table4: 11, ripple: 8 by default)")
    p.add_argument("--widths", type=int, nargs="*", default=[2, 4, 8],
                   help="fig6 multiplier widths")
    p.add_argument("--lsbs", type=int, nargs="+", default=[2, 4, 6],
                   help="approximated-LSB counts (ripple/sad/filter)")
    p.add_argument("--pixels", type=int, default=64,
                   help="pixels per SAD block")
    p.add_argument("--model", default="exact",
                   choices=["exact", "paper", "monte-carlo", "monte_carlo"],
                   help="table4 accuracy model")
    p.add_argument("--samples", type=int, default=0,
                   help="samples per task (0 = campaign default)")
    p.add_argument("--seed", type=int, default=0,
                   help="campaign seed (per-task seeds derive from it)")
    p.add_argument("--csv", action="store_true")
    add_campaign_flags(p)
    p.set_defaults(func=_cmd_campaign)

    p = sub.add_parser(
        "resilience",
        help="transient-fault sweep through the hardened campaign engine",
    )
    p.add_argument("workload",
                   choices=["cell", "gear", "sad", "filter", "dct"],
                   help="which layer/workload to inject faults into")
    p.add_argument("--rates", type=float, nargs="+",
                   default=[0.0, 1e-4, 1e-3, 1e-2],
                   help="per-bit transient fault rates to sweep")
    p.add_argument("--seed", type=int, default=0,
                   help="sweep seed (fault plans derive from it)")
    p.add_argument("--no-qos", action="store_true",
                   help="sad: run unguarded (skip the QosGuard wrapper)")
    p.add_argument("--fa", default="AccuFA",
                   help="sad: full-adder cell of the guarded stage")
    p.add_argument("--approx-lsbs", type=int, default=0,
                   help="sad: approximated LSBs of the guarded stage")
    p.add_argument("--image", default="gradient",
                   help="filter: standard image name")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-task wall-clock timeout in seconds")
    p.add_argument("--retries", type=int, default=0,
                   help="retry attempts per task before quarantine")
    p.add_argument("--csv", action="store_true")
    add_campaign_flags(p)
    p.set_defaults(func=_cmd_resilience)

    p = sub.add_parser(
        "verify",
        help="cross-layer differential verification (oracle registry)",
    )
    p.add_argument(
        "component", nargs="?", default="all",
        help="'all', a family (fa, ripple, gear, mul2x2, recmul, sad, "
             "filter), an exact component name, or a comma list",
    )
    from .verify.report import BUDGETS

    p.add_argument("--budget", default="fast", choices=sorted(BUDGETS),
                   help="verification depth (stimulus / sample counts)")
    p.add_argument("--seed", type=int, default=0,
                   help="base seed (stimulus and law seeds derive from it)")
    p.add_argument("--csv", action="store_true")
    add_campaign_flags(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "analytic",
        help="exact PMF-convolution error analysis of block adders",
    )
    p.add_argument("--config", action="append", default=[],
                   metavar="N,R,P",
                   help="homogeneous GeAr configuration (repeatable)")
    p.add_argument("--segments", action="append", default=[],
                   metavar="R:P,R:P,...",
                   help="heterogeneous segment spec, low segment first "
                        "(repeatable)")
    p.add_argument("--sweep", action="store_true",
                   help="Pareto-sweep the heterogeneous space and compare "
                        "against the homogeneous Table IV front")
    p.add_argument("--width", type=int, default=8,
                   help="sweep operand width")
    p.add_argument("--max-segments", type=int, default=3,
                   help="sweep cap on heterogeneous segment count")
    p.add_argument("--max-p", type=int, default=None,
                   help="sweep cap on per-segment prediction depth")
    p.add_argument("--seed", type=int, default=0,
                   help="sweep seed (cache identity only -- results are "
                        "exact)")
    p.add_argument("--csv", action="store_true")
    add_campaign_flags(p)
    p.set_defaults(func=_cmd_analytic)

    p = sub.add_parser("luts", help="FPGA LUT-mapping estimates")
    p.add_argument("--k", type=int, default=6)
    p.add_argument("--width", type=int, default=0,
                   help="also map W-bit ripple adders")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=_cmd_luts)

    p = sub.add_parser(
        "serve",
        help="serve approximate-compute jobs over HTTP (asyncio + SSE)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080,
                   help="TCP port (0 = pick a free one)")
    p.add_argument("--workers", type=int, default=2,
                   help="concurrent job executors")
    p.add_argument("--cache-dir", default=None,
                   help="shared content-addressed result store directory")
    p.add_argument("--tenant", action="append", default=[],
                   metavar="NAME:WEIGHT[:RATE[:BURST[:BACKLOG[:QUOTA]]]]",
                   help="per-tenant policy (repeatable); others get the "
                        "default policy; QUOTA caps stored result bytes")
    p.add_argument("--allow-chaos", action="store_true",
                   help="also serve chaos_* kinds (testing only)")
    p.add_argument("--state-dir", default=None,
                   help="crash-safety directory: durable job journal "
                        "(replayed on restart) plus the result store "
                        "unless --cache-dir overrides it")
    p.add_argument("--slo-latency", type=float, default=None,
                   metavar="SECONDS",
                   help="arm the overload brownout controller with this "
                        "end-to-end latency target")
    p.add_argument("--slo-queue-depth", type=int, default=None,
                   metavar="N",
                   help="queue depth past which brownout escalation "
                        "starts (arms the controller)")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("encode", help="HEVC-lite case study (Fig. 9)")
    p.add_argument("--variant", default="ApxSAD2")
    p.add_argument("--approx-lsbs", type=int, default=4)
    p.add_argument("--frames", type=int, default=4)
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--search-range", type=int, default=4)
    p.add_argument("--qp", type=int, default=4)
    p.add_argument("--noise", type=float, default=3.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_encode)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
