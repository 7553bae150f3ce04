"""Command-line interface: ``python -m repro <command>``.

Commands map one-to-one onto the experiment drivers plus a few utility
actions:

* ``figure3`` / ``figure4`` / ``figure5`` / ``figure6`` — regenerate the
  significance-analysis figures as text;
* ``figure7 [--benchmark NAME] [--fast]`` — the quality/energy sweeps;
* ``table2`` — the LoC table;
* ``headline [--fast]`` — the 31-91% energy summary;
* ``tune --benchmark NAME --target-psnr DB`` — demonstrate the ratio
  autotuner on an image benchmark;
* ``profile EXPERIMENT`` — run an experiment with :mod:`repro.obs`
  tracing on and print the span tree + metrics table (also available as
  ``--profile [DIR]`` on the heavier commands);
* ``serve [--host H] [--port P]`` — run the significance-analysis
  service (:mod:`repro.serve`): analyse / advise / tune over HTTP/JSON
  with Prometheus metrics at ``/metrics``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

__all__ = ["main", "build_parser"]


def _add_replay_flag(sub_parser: argparse.ArgumentParser) -> None:
    sub_parser.add_argument(
        "--replay",
        action=argparse.BooleanOptionalAction,
        default=None,
        help=(
            "analyse repeated kernel items by replaying a cached trace "
            "instead of re-recording (default: on; --no-replay forces "
            "the object-tape path)"
        ),
    )


def _add_executor_flags(
    sub_parser: argparse.ArgumentParser, default: str | None = None
) -> None:
    sub_parser.add_argument(
        "--executor",
        choices=["seq", "thread", "process"],
        default=default,
        help=(
            "where the heavy sweeps run: 'process' fans lane chunks out "
            "across worker processes over shared-memory tapes "
            "(repro.mp); 'seq'/'thread' keep everything in-process. "
            "Results are bitwise identical either way."
        ),
    )
    sub_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "worker count for --executor process/thread (default: "
            "REPRO_MP_WORKERS or the CPU count)"
        ),
    )


def _add_profile_flag(sub_parser: argparse.ArgumentParser) -> None:
    sub_parser.add_argument(
        "--profile",
        nargs="?",
        const=".",
        default=None,
        metavar="DIR",
        help=(
            "trace this run with repro.obs: append the span-tree / "
            "metrics summary to the output and write obs.json + "
            "metrics.prom + obs.trace.json (Chrome trace) to DIR "
            "(default: current directory)"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Towards Automatic Significance Analysis for "
            "Approximate Computing' (CGO 2016)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("figure3", help="Maclaurin term significances")

    p4 = sub.add_parser("figure4", help="DCT coefficient significance map")
    p4.add_argument("--size", type=int, default=64)
    p4.add_argument("--samples", type=int, default=6)
    _add_replay_flag(p4)
    _add_profile_flag(p4)

    p5 = sub.add_parser("figure5", help="InverseMapping significance map")
    p5.add_argument("--width", type=int, default=192)
    p5.add_argument("--height", type=int, default=144)
    _add_executor_flags(p5)

    sub.add_parser("figure6", help="bicubic pixel-pair significances")

    p7 = sub.add_parser("figure7", help="quality/energy ratio sweeps")
    p7.add_argument(
        "--benchmark",
        choices=["sobel", "dct", "fisheye", "nbody", "blackscholes", "all"],
        default="all",
    )
    p7.add_argument("--fast", action="store_true", help="reduced workloads")
    p7.add_argument(
        "--plot", action="store_true", help="ASCII chart instead of a table"
    )
    _add_profile_flag(p7)

    sub.add_parser("table2", help="lines-of-code accounting")

    ph = sub.add_parser("headline", help="energy-reduction summary")
    ph.add_argument("--fast", action="store_true")
    _add_replay_flag(ph)
    _add_profile_flag(ph)

    pa = sub.add_parser(
        "artifacts", help="export significance maps as PGM images"
    )
    pa.add_argument("--out-dir", default="artifacts")

    pr = sub.add_parser(
        "record", help="run every experiment and save JSON + markdown"
    )
    pr.add_argument("--out-dir", default="results")
    pr.add_argument(
        "--full", action="store_true", help="full workload sizes (slow)"
    )
    _add_replay_flag(pr)
    _add_profile_flag(pr)

    pt = sub.add_parser("tune", help="autotune the ratio knob")
    pt.add_argument("--benchmark", choices=["sobel", "dct"], default="dct")
    pt.add_argument("--target-psnr", type=float, default=35.0)
    pt.add_argument("--size", type=int, default=128)

    ps = sub.add_parser(
        "serve", help="run the significance-analysis HTTP service"
    )
    ps.add_argument("--host", default="127.0.0.1")
    ps.add_argument("--port", type=int, default=8077)
    ps.add_argument(
        "--workers",
        type=int,
        default=4,
        help="analysis thread/process pool size",
    )
    ps.add_argument(
        "--executor",
        choices=["thread", "process"],
        default="thread",
        help=(
            "/analyse backend: 'thread' (default) runs in the serving "
            "process, 'process' ships analysis to a repro.mp worker "
            "pool (responses byte-identical; /healthz reports the "
            "active backend)"
        ),
    )
    ps.add_argument(
        "--request-timeout",
        type=float,
        default=30.0,
        help="seconds to wait for a request head/body before 408",
    )
    ps.add_argument(
        "--validate",
        action="store_true",
        help="re-record the first replayed request per kernel and assert "
        "the trace is identical (TraceCache validate mode)",
    )
    ps.add_argument(
        "--max-batch",
        type=int,
        default=16,
        help="max /analyse requests coalesced into one lane-batched "
        "sweep; requests that queue while a batch runs form the next "
        "one (1 disables micro-batching)",
    )
    ps.add_argument(
        "--tape-dir",
        default=None,
        help="persistent tape store directory (default: $REPRO_TAPE_DIR "
        "if set); recorded tapes are saved there and restarts replay "
        "them from disk instead of re-recording",
    )
    ps.add_argument(
        "--default-slo-ms",
        type=float,
        default=None,
        help="per-kernel latency SLO in ms (kernels without their own "
        "slo_ms); a kernel whose most recent request exceeds it turns "
        "/healthz degraded until it recovers",
    )

    pp = sub.add_parser(
        "profile",
        help="run an experiment with repro.obs tracing and print the "
        "span tree + metrics table",
    )
    pp.add_argument(
        "experiment",
        choices=[
            "figure3",
            "figure4",
            "figure5",
            "figure6",
            "figure7",
            "headline",
        ],
    )
    pp.add_argument("--out-dir", default="profile")
    pp.add_argument(
        "--format",
        choices=["text", "chrome"],
        default="text",
        help=(
            "'text' prints the aggregated span tree; 'chrome' writes a "
            "Chrome trace-event file (obs.trace.json) with real pids, "
            "thread rows and cross-process flow arrows — load it at "
            "https://ui.perfetto.dev or chrome://tracing"
        ),
    )
    _add_replay_flag(pp)
    return parser


def _cmd_figure3(_args: argparse.Namespace) -> str:
    from repro.experiments.figure3 import figure3

    return figure3().to_text()


def _cmd_figure4(args: argparse.Namespace) -> str:
    from repro.experiments.figure4 import figure4

    return figure4(
        size=args.size, samples=args.samples, replay=args.replay
    ).to_text()


def _cmd_figure5(args: argparse.Namespace) -> str:
    from repro.experiments.figure5 import figure5

    return figure5(
        width=args.width,
        height=args.height,
        executor=args.executor,
        workers=args.workers,
    ).to_text()


def _cmd_figure6(_args: argparse.Namespace) -> str:
    from repro.experiments.figure6 import figure6

    return figure6().to_text()


def _cmd_figure7(args: argparse.Namespace) -> str:
    from repro.experiments import figure7
    from repro.experiments.plots import render_panel
    from repro.experiments.sweep import format_sweep

    renderer = render_panel if args.plot else format_sweep
    if args.benchmark == "all":
        sweeps = figure7.figure7_all(fast=args.fast)
        return "\n\n".join(renderer(s) for s in sweeps.values())
    fn = getattr(figure7, f"figure7_{args.benchmark}")
    return renderer(fn())


def _cmd_artifacts(args: argparse.Namespace) -> str:
    from repro.experiments.artifacts import save_all_artifacts

    paths = save_all_artifacts(args.out_dir)
    return "\n".join(f"wrote {p}" for p in paths)


def _cmd_table2(_args: argparse.Namespace) -> str:
    from repro.experiments.table2 import format_table2

    return format_table2()


def _cmd_headline(args: argparse.Namespace) -> str:
    from repro.experiments.headline import format_headline, headline

    with _replay_setting(args.replay):
        return format_headline(headline(fast=args.fast))


def _cmd_record(args: argparse.Namespace) -> str:
    from repro.experiments.record import save_record

    with _replay_setting(args.replay):
        json_path, md_path = save_record(args.out_dir, fast=not args.full)
    return f"wrote {json_path}\nwrote {md_path}"


class _replay_setting:
    """Scoped override of the module-wide replay default (no-op on None)."""

    def __init__(self, replay: bool | None):
        self.replay = replay
        self.previous: bool | None = None

    def __enter__(self) -> "_replay_setting":
        if self.replay is not None:
            from repro.scorpio import set_replay_default

            self.previous = set_replay_default(self.replay)
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self.previous is not None:
            from repro.scorpio import set_replay_default

            set_replay_default(self.previous)


def _cmd_tune(args: argparse.Namespace) -> str:
    from repro.images import natural_image
    from repro.metrics import psnr
    from repro.runtime import min_ratio_for_quality

    image = natural_image(args.size, args.size, seed=5)
    if args.benchmark == "sobel":
        from repro.kernels.sobel import sobel_reference as ref_fn
        from repro.kernels.sobel import sobel_significance as run_fn
    else:
        from repro.kernels.dct import dct_roundtrip_reference as ref_fn
        from repro.kernels.dct import dct_significance as run_fn

    reference = ref_fn(image)

    def evaluate(ratio: float) -> tuple[float, float]:
        run = run_fn(image, ratio)
        return min(psnr(reference, run.output), 99.0), run.joules

    result = min_ratio_for_quality(evaluate, args.target_psnr)
    lines = [
        f"benchmark: {args.benchmark} ({args.size}x{args.size})",
        f"target quality: {args.target_psnr:.1f} dB",
        f"chosen ratio:  {result.ratio:.4f}"
        + ("" if result.satisfied else "  (UNSATISFIABLE - best effort)"),
        f"quality: {result.quality:.2f} dB   energy: {result.energy:.1f} J",
        f"probes: {len(result.probes)}",
    ]
    return "\n".join(lines)


def _cmd_serve(args: argparse.Namespace) -> str:
    import asyncio

    from repro.serve import ServiceConfig, SignificanceService

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        request_timeout=args.request_timeout,
        validate=args.validate,
        executor=args.executor,
        max_batch=args.max_batch,
        store_dir=args.tape_dir,
        default_slo_ms=args.default_slo_ms,
    )
    service = SignificanceService(config=config)

    async def run() -> None:
        host, port = await service.start()
        print(
            f"repro serve listening on http://{host}:{port} "
            f"({len(service.registry)} kernels: "
            f"{', '.join(sorted(service.registry))})",
            flush=True,
        )
        try:
            await service.serve_forever()
        finally:
            await service.close()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return "repro serve stopped"


def _run_profile_target(experiment: str) -> None:
    """Dispatch one experiment under tracing (reduced workloads)."""
    fast_flags = {"figure7": ["--fast"], "headline": ["--fast"]}
    inner = build_parser().parse_args(
        [experiment] + fast_flags.get(experiment, [])
    )
    _COMMANDS[experiment](inner)
    if experiment == "figure4":
        # figure4 is pure analysis over a simplify=False kernel; run one
        # small task-runtime frame plus the (cheap) Maclaurin analysis so
        # the span tree also covers the runtime stages (taskwait, tasks)
        # and the object path with S4 simplification.
        from repro.experiments.figure3 import figure3
        from repro.images import natural_image
        from repro.kernels.dct import dct_significance

        dct_significance(natural_image(32, 32, seed=5), 0.5)
        figure3()


def _cmd_profile(args: argparse.Namespace) -> str:
    from pathlib import Path

    from repro import obs

    obs.reset_metrics()
    obs.clear()
    previous = obs.set_enabled(True)
    # One root trace context for the whole profiled run: every span
    # carries its trace id, so the dump (and any worker-side spans merged
    # back by repro.mp) re-link into one trace.
    ctx = obs.new_trace()
    try:
        with _replay_setting(args.replay), obs.context.use(ctx):
            _run_profile_target(args.experiment)
    finally:
        obs.set_enabled(previous)
    json_path, prom_path = obs.dump_profile(args.out_dir)
    chrome_path = obs.dump_chrome_trace(
        Path(args.out_dir) / "obs.trace.json"
    )
    if args.format == "chrome":
        return (
            f"profiled: {args.experiment} (trace {ctx.trace_id})\n"
            f"wrote {chrome_path} — open at https://ui.perfetto.dev "
            "or chrome://tracing\n"
            f"wrote {json_path}\nwrote {prom_path}"
        )
    body = obs.format_profile()
    return (
        f"profiled: {args.experiment} (trace {ctx.trace_id})\n\n{body}\n\n"
        f"wrote {json_path}\nwrote {prom_path}\nwrote {chrome_path}"
    )


_COMMANDS = {
    "figure3": _cmd_figure3,
    "figure4": _cmd_figure4,
    "figure5": _cmd_figure5,
    "figure6": _cmd_figure6,
    "figure7": _cmd_figure7,
    "artifacts": _cmd_artifacts,
    "table2": _cmd_table2,
    "headline": _cmd_headline,
    "record": _cmd_record,
    "tune": _cmd_tune,
    "profile": _cmd_profile,
    "serve": _cmd_serve,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    profile_dir = getattr(args, "profile", None)
    if profile_dir is None:
        output = _COMMANDS[args.command](args)
    else:
        from pathlib import Path

        from repro import obs

        obs.reset_metrics()
        obs.clear()
        previous = obs.set_enabled(True)
        ctx = obs.new_trace()
        try:
            with obs.context.use(ctx):
                output = _COMMANDS[args.command](args)
        finally:
            obs.set_enabled(previous)
        json_path, prom_path = obs.dump_profile(profile_dir)
        chrome_path = obs.dump_chrome_trace(
            Path(profile_dir) / "obs.trace.json"
        )
        output = (
            f"{output}\n\n{obs.format_profile()}\n"
            f"trace: {ctx.trace_id}\n"
            f"wrote {json_path}\nwrote {prom_path}\nwrote {chrome_path}"
        )
    print(output)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
