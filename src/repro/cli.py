"""Command-line interface: regenerate any figure from the paper.

Examples::

    repro-livelock list
    repro-livelock figure 6-1
    repro-livelock figure 6-1 --jobs 4            # parallel trials
    repro-livelock figure 6-5 --fast --csv --no-cache
    repro-livelock trial --variant polling --quota 5 --rate 12000

Figure and trial runs go through the sweep engine
(:mod:`repro.experiments.engine`): ``--jobs N`` fans independent trials
across N worker processes, and results are cached on disk keyed by the
full kernel configuration (``--no-cache`` recomputes, ``--cache-dir``
relocates the cache). Serial, parallel and cached runs print identical
output.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .core import variants
from .experiments.engine import SweepError, TrialFailure, run_trials
from .experiments.extensions import EXTENSION_EXPERIMENTS
from .experiments.figures import ALL_FIGURES
from .experiments.harness import (
    DEFAULT_RATE_GRID,
    FAST_RATE_GRID,
)
from .experiments.results import render_report, to_csv
from .faults import CANNED_PLANS

#: Everything `figure` can regenerate: the paper's figures plus the
#: extension experiments.
ALL_EXPERIMENTS = dict(ALL_FIGURES)
ALL_EXPERIMENTS.update(EXTENSION_EXPERIMENTS)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-livelock",
        description=(
            "Reproduce figures from 'Eliminating Receive Livelock in an "
            "Interrupt-driven Kernel' (Mogul & Ramakrishnan, USENIX 1996)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list reproducible figures")

    def add_engine_flags(command):
        command.add_argument(
            "--jobs",
            type=int,
            default=None,
            metavar="N",
            help="fan trials across N worker processes (default: serial)",
        )
        command.add_argument(
            "--no-cache",
            action="store_true",
            help="recompute every trial instead of using the on-disk cache",
        )
        command.add_argument(
            "--cache-dir",
            default=None,
            metavar="DIR",
            help="result cache location (default: $REPRO_CACHE_DIR or "
            "~/.cache/repro-livelock)",
        )
        command.add_argument(
            "--backend",
            choices=["pure", "fast"],
            default=None,
            help="simulator core: the pure-python oracle or the compiled "
            "repro._fastcore backend (bit-identical results; default: "
            "$REPRO_BACKEND or pure)",
        )

    def add_profile_flags(command):
        command.add_argument(
            "--profile",
            action="store_true",
            help="run under cProfile and print the top 20 functions by "
            "cumulative time to stderr (with --jobs, only the parent's "
            "dispatch work is profiled, not the workers)",
        )
        command.add_argument(
            "--profile-out",
            default=None,
            metavar="FILE",
            help="dump raw profiling data to FILE for `python -m pstats` "
            "(implies --profile)",
        )

    def add_resilience_flags(command):
        command.add_argument(
            "--strict",
            action="store_true",
            help="fail fast: abort (nonzero exit) on the first trial "
            "failure instead of recording it and continuing",
        )
        command.add_argument(
            "--timeout",
            type=float,
            default=None,
            metavar="S",
            help="per-trial wall-clock limit in seconds (forces pool "
            "execution so a hung trial can be abandoned)",
        )
        command.add_argument(
            "--retries",
            type=int,
            default=1,
            metavar="N",
            help="extra attempts for crashed/hung workers (default: 1)",
        )

    def add_machine_flags(command):
        command.add_argument(
            "--cores",
            type=int,
            default=1,
            metavar="N",
            help="simulated core count (default: 1, the paper's machine)",
        )
        command.add_argument(
            "--steering",
            choices=["affinity", "rss"],
            default="affinity",
            help="IRQ steering policy on multi-core machines: static "
            "round-robin affinity or RSS-style seeded flow hashing",
        )
        command.add_argument(
            "--isolate-polling",
            action="store_true",
            help="dedicate polling cores (role model: core 0 "
            "housekeeping, up to two polling cores, rest isolated "
            "IRQ targets)",
        )
        command.add_argument(
            "--coalesce-us",
            type=float,
            default=0.0,
            metavar="US",
            help="adaptive interrupt-coalescing timer bound for the "
            "hybrid driver, in microseconds (0 disables)",
        )

    def add_variant_flags(command):
        command.add_argument(
            "--variant",
            choices=[
                "unmodified",
                "modified_no_polling",
                "polling",
                "clocked",
                "high_ipl",
                "hybrid",
            ],
            default="unmodified",
        )
        command.add_argument(
            "--input-feedback",
            action="store_true",
            help="classic kernel with §5.1 interrupt-rate limiting",
        )
        command.add_argument("--rate", type=float, default=8_000)
        command.add_argument("--quota", type=int, default=None)
        command.add_argument("--screend", action="store_true")
        command.add_argument("--feedback", action="store_true")
        command.add_argument("--cycle-limit", type=float, default=None)
        command.add_argument("--duration", type=float, default=0.5)
        command.add_argument("--compute", action="store_true")
        command.add_argument("--seed", type=int, default=0)
        command.add_argument(
            "--fault-plan",
            choices=sorted(CANNED_PLANS),
            default=None,
            help="inject a canned deterministic hardware-fault plan",
        )
        command.add_argument(
            "--watchdog",
            action="store_true",
            help="attach the livelock watchdog and report its verdict",
        )
        command.add_argument(
            "--sanitize",
            action="store_true",
            help="run the runtime invariant sanitizer during the trial",
        )

    fig = sub.add_parser("figure", help="regenerate one figure/experiment")
    fig.add_argument("figure_id", choices=sorted(ALL_EXPERIMENTS))
    fig.add_argument(
        "--fast", action="store_true", help="coarser rate grid, shorter trials"
    )
    fig.add_argument("--csv", action="store_true", help="emit CSV instead of a report")
    fig.add_argument("--seed", type=int, default=0)
    fig.add_argument(
        "--trace",
        action="store_true",
        help="run every trial with the scheduling trace armed; per-series "
        "timelines attach to the figure result",
    )
    fig.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="write the collected per-series timelines as JSON "
        "(implies --trace)",
    )
    add_machine_flags(fig)
    add_engine_flags(fig)
    add_resilience_flags(fig)
    add_profile_flags(fig)

    trial = sub.add_parser("trial", help="run a single measurement")
    add_variant_flags(trial)
    add_machine_flags(trial)
    trial.add_argument(
        "--trace",
        action="store_true",
        help="collect the windowed trace timeline alongside the measurement",
    )
    trial.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="also export a Perfetto trace_event JSON of the trial "
        "(runs in-process; implies --trace)",
    )
    add_engine_flags(trial)
    add_resilience_flags(trial)
    add_profile_flags(trial)

    trace = sub.add_parser(
        "trace",
        help="run one traced trial and export its Perfetto/CSV timeline",
    )
    add_variant_flags(trace)
    add_machine_flags(trace)
    trace.add_argument(
        "--warmup", type=float, default=None, help="warmup seconds"
    )
    trace.add_argument(
        "--capacity",
        type=int,
        default=None,
        metavar="N",
        help="trace ring capacity in records (default: 65536)",
    )
    trace.add_argument(
        "--out",
        default="trace.json",
        metavar="FILE",
        help="Perfetto trace_event JSON path (default: trace.json); "
        "open with ui.perfetto.dev or chrome://tracing",
    )
    trace.add_argument(
        "--csv-records",
        default=None,
        metavar="FILE",
        help="also dump the raw record stream as CSV",
    )
    trace.add_argument(
        "--csv-timeline",
        default=None,
        metavar="FILE",
        help="also dump the windowed timeline as CSV",
    )
    trace.add_argument(
        "--backend",
        choices=["pure", "fast"],
        default=None,
        help="simulator core (bit-identical results; default: "
        "$REPRO_BACKEND or pure)",
    )

    scenario = sub.add_parser(
        "scenario",
        help="run a named adversarial-overload scenario with SLO verdict",
    )
    from .experiments.scenarios import SCENARIOS

    scenario.add_argument("scenario_name", choices=sorted(SCENARIOS))
    scenario.add_argument(
        "--attack-rate",
        type=float,
        default=None,
        metavar="PPS",
        help="override the scenario's peak attack rate",
    )
    scenario.add_argument(
        "--mitigate",
        action="store_true",
        help="arm the closed-loop mitigation controller on the kernel "
        "under attack (default: the bare livelock-prone kernel)",
    )
    scenario.add_argument("--seed", type=int, default=0)
    scenario.add_argument(
        "--slo-out",
        default=None,
        metavar="FILE",
        help="write the structured SLO verdict as JSON",
    )
    scenario.add_argument(
        "--trace",
        action="store_true",
        help="arm the scheduling trace; phase marks land in the timeline",
    )
    scenario.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="export a Perfetto trace_event JSON with attack_start/"
        "attack_end/recovered marks (implies --trace)",
    )
    scenario.add_argument(
        "--check",
        action="store_true",
        help="exit nonzero unless every SLO passed",
    )
    scenario.add_argument(
        "--backend",
        choices=["pure", "fast"],
        default=None,
        help="simulator core (bit-identical results; default: "
        "$REPRO_BACKEND or pure)",
    )
    add_machine_flags(scenario)

    chaos = sub.add_parser(
        "chaos",
        help="seeded chaos/soak: fuzzed trials, differential bit-identity",
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument(
        "--budget",
        type=int,
        default=20,
        metavar="N",
        help="number of fuzzed cases to run (default: 20)",
    )
    chaos.add_argument(
        "--smoke",
        action="store_true",
        help="CI smoke run: cap the budget at 8 cases",
    )
    chaos.add_argument(
        "--replay",
        type=int,
        default=None,
        metavar="INDEX",
        help="re-run exactly one case of the run rooted at --seed",
    )
    chaos.add_argument(
        "--backend",
        choices=["pure", "both"],
        default="both",
        help="'both' (default) differentially checks the compiled "
        "fastcore leg against pure; 'pure' skips it",
    )
    chaos.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="write the full chaos report as JSON",
    )

    matrix = sub.add_parser(
        "faultmatrix",
        help="smoke the driver x fault-plan matrix with watchdog + sanitizer",
    )
    matrix.add_argument("--rate", type=float, default=12_000)
    add_machine_flags(matrix)
    matrix.add_argument("--duration", type=float, default=0.08)
    matrix.add_argument("--warmup", type=float, default=0.03)
    matrix.add_argument(
        "--check",
        action="store_true",
        help="exit nonzero unless the clean column shows the expected "
        "verdicts (unmodified livelocked, fixed variants healthy) and "
        "every cell completes with zero leaked packets",
    )
    add_engine_flags(matrix)
    add_resilience_flags(matrix)
    return parser


def _run_profiled(args, fn):
    """Call ``fn()``, under cProfile when ``--profile``/``--profile-out``
    was given. The report goes to stderr so ``--csv`` output stays
    machine-readable.

    cProfile cannot see inside the compiled fast core — a fast-backend
    run shows one opaque ``run`` entry — so when the C extension is
    loaded this also arms its wall-clock buckets and prints the
    compiled-core vs python-callback split alongside the summary."""
    if not (getattr(args, "profile", False) or getattr(args, "profile_out", None)):
        return fn()
    import cProfile
    import pstats

    try:
        from ._fastcore import _corec
    except ImportError:
        _corec = None
    buckets = _corec if hasattr(_corec, "profile_buckets") else None
    if buckets is not None:
        buckets.profile_buckets(True)
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
        stats = pstats.Stats(profiler, stream=sys.stderr)
        stats.sort_stats("cumulative").print_stats(20)
        if buckets is not None:
            split = buckets.profile_snapshot()
            buckets.profile_buckets(False)
            if split["run_s"] > 0:
                print(
                    "fast-core split: %.3fs in compiled run loops = %.3fs "
                    "compiled core (%.0f%%) + %.3fs python callbacks "
                    "(%d calls; with --jobs only the parent is counted)"
                    % (
                        split["run_s"],
                        split["compiled_s"],
                        100 * split["compiled_s"] / split["run_s"],
                        split["python_callback_s"],
                        split["python_callback_calls"],
                    ),
                    file=sys.stderr,
                )
        if args.profile_out:
            stats.dump_stats(args.profile_out)
            print(
                "profile data written to %s" % args.profile_out, file=sys.stderr
            )
    return result


def _machine_from_args(args: argparse.Namespace):
    """Round-trip the ``--cores``/``--steering``/``--isolate-polling``/
    ``--coalesce-us`` flags through one validated MachineSpec; None when
    the flags spell the default single-core machine."""
    from .hw.machine import SINGLE_CORE, MachineSpec

    machine = MachineSpec(
        cores=getattr(args, "cores", 1),
        steering=getattr(args, "steering", "affinity"),
        isolate_polling=bool(getattr(args, "isolate_polling", False)),
        coalesce_us=getattr(args, "coalesce_us", 0.0),
    )
    return None if machine == SINGLE_CORE else machine


def _config_from_args(args: argparse.Namespace):
    if args.variant == "unmodified":
        return variants.unmodified(
            screend=args.screend, input_feedback=args.input_feedback
        )
    if args.variant == "modified_no_polling":
        return variants.modified_no_polling(screend=args.screend)
    if args.variant == "polling":
        return variants.polling(
            quota=args.quota if args.quota is not None else 10,
            screend=args.screend,
            feedback=args.feedback or None,
            cycle_limit=args.cycle_limit,
        )
    if args.variant == "clocked":
        return variants.clocked(quota=args.quota)
    if args.variant == "high_ipl":
        return variants.high_ipl(
            quota=args.quota if args.quota is not None else 10,
            screend=args.screend,
        )
    if args.variant == "hybrid":
        return variants.hybrid(
            quota=args.quota if args.quota is not None else 10,
            screend=args.screend,
        )
    raise ValueError("unknown variant %r" % args.variant)


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)

    try:
        return _dispatch(args)
    except NotADirectoryError as exc:
        print("repro-livelock: error: %s" % exc, file=sys.stderr)
        return 2
    except SweepError as exc:
        print("repro-livelock: error: %s" % exc, file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    if args.command == "list":
        for figure_id in sorted(ALL_FIGURES):
            print("figure %s" % figure_id)
        for figure_id in sorted(EXTENSION_EXPERIMENTS):
            print("experiment %s" % figure_id)
        return 0

    if args.command == "figure":
        kwargs = {
            "seed": args.seed,
            "jobs": args.jobs,
            "cache": not args.no_cache,
            "cache_dir": args.cache_dir,
            "timeout_s": args.timeout,
            "retries": args.retries,
            "strict": args.strict,
        }
        if args.fast:
            kwargs["duration_s"] = 0.3
            kwargs["warmup_s"] = 0.1
            if args.figure_id not in ("7-1", "ext-endhost"):
                kwargs["rates"] = FAST_RATE_GRID
        if getattr(args, "trace", False) or getattr(args, "trace_out", None):
            kwargs["trace"] = True
        if args.backend is not None:
            kwargs["backend"] = args.backend
        machine = _machine_from_args(args)
        if machine is not None:
            kwargs["machine"] = machine
        result = _run_profiled(
            args, lambda: ALL_EXPERIMENTS[args.figure_id](**kwargs)
        )
        sys.stdout.write(to_csv(result) if args.csv else render_report(result))
        if getattr(args, "trace_out", None):
            import json

            with open(args.trace_out, "w", encoding="utf-8") as handle:
                json.dump(result.timelines, handle, sort_keys=True)
            print("timelines written to %s" % args.trace_out, file=sys.stderr)
        return 0

    if args.command == "trial":
        trial_kwargs = {
            "duration_s": args.duration,
            "with_compute": args.compute,
            "seed": args.seed,
        }
        if args.fault_plan is not None:
            trial_kwargs["fault_plan"] = args.fault_plan
        if args.watchdog:
            trial_kwargs["watchdog"] = True
        if args.sanitize:
            trial_kwargs["sanitize"] = True
        if args.backend is not None:
            trial_kwargs["backend"] = args.backend
        trial_kwargs["machine"] = _machine_from_args(args)
        trace_buffer = None
        if args.trace_out:
            # A caller-owned buffer keeps the raw record ring in this
            # process for export (the engine runs such specs in-process).
            from .trace import TraceBuffer

            trace_buffer = TraceBuffer()
            trial_kwargs["trace"] = trace_buffer
        elif args.trace:
            trial_kwargs["trace"] = True
        from .experiments.spec import TrialSpec

        spec = TrialSpec(_config_from_args(args), args.rate, **trial_kwargs)
        [trial] = _run_profiled(
            args,
            lambda: run_trials(
                [spec],
                jobs=args.jobs,
                cache=not args.no_cache,
                cache_dir=args.cache_dir,
                timeout_s=args.timeout,
                retries=args.retries,
                strict=args.strict,
            ),
        )
        if isinstance(trial, TrialFailure):
            print(
                "trial FAILED (%s after %d attempt(s)): %s"
                % (trial.kind, trial.attempts, trial.error)
            )
            return 0
        print("variant:        %s" % trial.variant)
        if trial.backend is not None:
            print("backend:        %s" % trial.backend)
        print("offered rate:   %8.0f pkt/s" % trial.offered_rate_pps)
        print("output rate:    %8.0f pkt/s" % trial.output_rate_pps)
        print("loss fraction:  %8.3f" % trial.loss_fraction)
        if trial.user_cpu_share is not None:
            print("user CPU share: %8.1f %%" % (100 * trial.user_cpu_share))
        if trial.latency_us.get("count"):
            print(
                "latency us:     mean %.0f  median %.0f  p99 %.0f"
                % (
                    trial.latency_us["mean"],
                    trial.latency_us["median"],
                    trial.latency_us["p99"],
                )
            )
        if trial.drops:
            print("drops:")
            for name, value in sorted(trial.drops.items()):
                print("  %-36s %d" % (name, value))
        if trial.watchdog is not None:
            print(
                "watchdog:       %s (%d/%d loaded windows healthy, "
                "delivered fraction %s)"
                % (
                    trial.watchdog["verdict"],
                    trial.watchdog["healthy_windows"],
                    trial.watchdog["loaded_windows"],
                    (
                        "%.3f" % trial.watchdog["delivered_fraction"]
                        if trial.watchdog["delivered_fraction"] is not None
                        else "n/a"
                    ),
                )
            )
        if trial.faults is not None:
            injected = ", ".join(
                "%s=%d" % item for item in sorted(trial.faults["injected"].items())
            )
            print("faults:         %s" % (injected or "none fired"))
            print(
                "teardown:       %d recovered, leaked=%s"
                % (
                    trial.faults["teardown"]["recovered"],
                    trial.faults["teardown"]["leaked"],
                )
            )
        if trial.timeline is not None:
            print(
                "timeline:       %d windows of %.1f ms"
                % (
                    len(trial.timeline["windows"]),
                    trial.timeline["window_ns"] / 1e6,
                )
            )
        if trace_buffer is not None:
            from .trace import write_perfetto

            write_perfetto(args.trace_out, trace_buffer)
            print(
                "trace written:  %s (%d records, %d overwritten)"
                % (args.trace_out, len(trace_buffer), trace_buffer.overwritten)
            )
        return 0

    if args.command == "trace":
        return _run_trace(args)

    if args.command == "scenario":
        return _run_scenario(args)

    if args.command == "chaos":
        return _run_chaos(args)

    if args.command == "faultmatrix":
        return _run_faultmatrix(args)

    return 2  # pragma: no cover - argparse enforces the choices


def _run_trace(args) -> int:
    """Run one traced trial in-process and export its timeline.

    The trace rides on the exact measurement the ``trial`` command
    performs — tracing never perturbs the simulation — so the summary
    printed here matches an untraced run of the same arguments.
    """
    from .experiments.spec import TrialSpec
    from .trace import (
        TraceBuffer,
        timeline_to_csv,
        trace_to_csv,
        write_perfetto,
    )

    buffer = TraceBuffer(args.capacity) if args.capacity else TraceBuffer()
    kwargs = {
        "duration_s": args.duration,
        "with_compute": args.compute,
        "seed": args.seed,
        "trace": buffer,
    }
    if args.warmup is not None:
        kwargs["warmup_s"] = args.warmup
    if args.fault_plan is not None:
        kwargs["fault_plan"] = args.fault_plan
    if args.watchdog:
        kwargs["watchdog"] = True
    if args.sanitize:
        kwargs["sanitize"] = True
    if args.backend is not None:
        kwargs["backend"] = args.backend
    kwargs["machine"] = _machine_from_args(args)
    spec = TrialSpec(_config_from_args(args), args.rate, **kwargs)
    trial = spec.run()

    print("variant:        %s" % trial.variant)
    if trial.backend is not None:
        print("backend:        %s" % trial.backend)
    print("offered rate:   %8.0f pkt/s" % trial.offered_rate_pps)
    print("output rate:    %8.0f pkt/s" % trial.output_rate_pps)
    if trial.watchdog is not None:
        print("watchdog:       %s" % trial.watchdog["verdict"])
        onset = trial.watchdog.get("trace_onset")
        if onset is not None:
            print(
                "onset:          t=%.1f ms (%d trace records captured)"
                % (onset["t_ns"] / 1e6, len(onset["records"]))
            )
    print(
        "trace:          %d records collected, %d in ring, %d overwritten"
        % (buffer.recorded, len(buffer), buffer.overwritten)
    )
    windows = trial.timeline["windows"] if trial.timeline else []
    print(
        "timeline:       %d windows of %.1f ms"
        % (len(windows), trial.timeline["window_ns"] / 1e6)
    )
    write_perfetto(args.out, buffer)
    print("perfetto trace: %s" % args.out)
    if args.csv_records:
        with open(args.csv_records, "w", encoding="utf-8") as handle:
            handle.write(trace_to_csv(buffer))
        print("record CSV:     %s" % args.csv_records)
    if args.csv_timeline:
        with open(args.csv_timeline, "w", encoding="utf-8") as handle:
            handle.write(timeline_to_csv(buffer.timeline))
        print("timeline CSV:   %s" % args.csv_timeline)
    return 0


def _run_scenario(args) -> int:
    """Run one named overload scenario and print its SLO verdict."""
    import json

    from .experiments.scenarios import get_scenario, run_scenario

    scenario = get_scenario(args.scenario_name).with_attack_rate(
        args.attack_rate
    )
    trace = False
    trace_buffer = None
    if args.trace_out:
        from .trace import TraceBuffer

        trace_buffer = TraceBuffer()
        trace = trace_buffer
    elif args.trace:
        trace = True
    result = run_scenario(
        scenario,
        mitigate=args.mitigate,
        seed=args.seed,
        trace=trace,
        backend=args.backend,
        machine=_machine_from_args(args),
    )
    slo = result.slo

    print("scenario:       %s (%s attack)" % (scenario.name, scenario.attack))
    print("kernel:         %s" % result.variant)
    print(
        "attack rate:    %8.0f pkt/s over %8.0f pkt/s background"
        % (scenario.attack_rate_pps, scenario.background_rate_pps)
    )
    print("baseline:       %8.0f pkt/s goodput" % slo["baseline"]["goodput_pps"])
    attack = slo["attack_phase"]
    print(
        "under attack:   %8.0f pkt/s goodput (%.0f%% of baseline), "
        "%d unhealthy watchdog window(s)"
        % (
            attack["goodput_pps"],
            100 * attack["goodput_fraction"],
            attack["unhealthy_windows"],
        )
    )
    if attack["p99_latency_us"] is not None:
        print("p99 latency:    %8.0f us during attack" % attack["p99_latency_us"])
    recovery = slo["recovery"]
    if recovery["recovered"]:
        print(
            "recovery:       %.0f ms after attack end (bound %.0f ms)"
            % (
                1e3 * recovery["time_to_recovery_s"],
                1e3 * recovery["bound_s"],
            )
        )
    else:
        print(
            "recovery:       NONE within %.0f ms of attack end"
            % (1e3 * recovery["bound_s"])
        )
    if slo["mitigation"] is not None:
        mit = slo["mitigation"]
        print(
            "mitigation:     peak level %d, %d escalation(s), "
            "%d inhibit pulse(s), restored=%s"
            % (
                mit["max_level_reached"],
                mit["escalations"],
                mit["inhibit_pulses"],
                mit["restored"],
            )
        )
    print("verdict:        %s" % ("PASS" if slo["passed"] else "FAIL"))
    for violation in slo["violations"]:
        print("  violated:     %s" % violation)
    if args.slo_out:
        with open(args.slo_out, "w", encoding="utf-8") as handle:
            json.dump(slo, handle, sort_keys=True, indent=2)
        print("slo verdict:    %s" % args.slo_out, file=sys.stderr)
    if trace_buffer is not None:
        from .trace import write_perfetto

        write_perfetto(args.trace_out, trace_buffer)
        print("perfetto trace: %s" % args.trace_out, file=sys.stderr)
    if args.check and not slo["passed"]:
        return 1
    return 0


def _run_chaos(args) -> int:
    """Fuzz-and-differentially-check chaos run (or replay one case)."""
    import json

    from .experiments.chaos import replay_case, run_chaos

    fast = args.backend == "both"
    if args.replay is not None:
        record = replay_case(args.seed, args.replay, fast=fast)
        print(record["describe"])
        if record["ok"]:
            print(
                "ok: verdict=%s delivered=%d"
                % (record["verdict"], record["delivered"])
            )
            return 0
        failure = record["failure"]
        print(
            "FAILED at stage %s: %s\n%s"
            % (failure["stage"], failure["reason"], failure["detail"])
        )
        return 1

    budget = min(args.budget, 8) if args.smoke else args.budget

    def progress(record):
        status = (
            "ok verdict=%s" % record.get("verdict")
            if record["ok"]
            else "FAILED (%s)" % record["failure"]["reason"]
        )
        print("  %s -> %s" % (record["describe"], status))

    report = run_chaos(seed=args.seed, budget=budget, fast=fast, progress=progress)
    print(report.summary())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, sort_keys=True, indent=2)
        print("chaos report:   %s" % args.out, file=sys.stderr)
    return 0 if report.ok else 1


#: The faultmatrix driver column: every driver architecture the paper
#: compares.
_MATRIX_VARIANTS = (
    ("unmodified", variants.unmodified),
    ("polling", variants.polling),
    ("clocked", variants.clocked),
    ("high_ipl", variants.high_ipl),
)


def _run_faultmatrix(args) -> int:
    """Drivers x fault plans, each cell watched and sanitized.

    With ``--check``, exits nonzero unless (a) every cell produced a
    result with zero leaked packets and (b) the fault-free column shows
    the paper's signature: the unmodified kernel livelocked above the
    cliff, every fixed variant healthy.
    """
    from .experiments.spec import TrialSpec

    machine = _machine_from_args(args)
    plans = [None] + sorted(CANNED_PLANS)
    specs = []
    for _, factory in _MATRIX_VARIANTS:
        for plan in plans:
            kwargs = {
                "duration_s": args.duration,
                "warmup_s": args.warmup,
                "watchdog": True,
                "sanitize": True,
                "machine": machine,
            }
            if plan is not None:
                kwargs["fault_plan"] = plan
            specs.append(TrialSpec(factory(), args.rate, **kwargs))
    results = run_trials(
        specs,
        jobs=args.jobs,
        cache=not args.no_cache,
        cache_dir=args.cache_dir,
        timeout_s=args.timeout,
        retries=args.retries,
        strict=args.strict,
    )

    width = max(len(name) for name, _ in _MATRIX_VARIANTS)
    header = ["%-*s" % (width, "driver")] + [
        "%18s" % (plan or "clean") for plan in plans
    ]
    print(" ".join(header))
    failures = []
    clean_verdicts = {}
    index = 0
    for name, _ in _MATRIX_VARIANTS:
        row = ["%-*s" % (width, name)]
        for plan in plans:
            result = results[index]
            index += 1
            if isinstance(result, TrialFailure):
                row.append("%18s" % ("FAILED:" + result.kind))
                failures.append((name, plan, result))
                continue
            verdict = result.watchdog["verdict"]
            leaked = (
                result.faults["teardown"]["leaked"]
                if result.faults is not None
                else 0
            )
            if leaked:
                verdict += "+leak"
                failures.append((name, plan, result))
            if plan is None:
                clean_verdicts[name] = verdict
            row.append("%18s" % verdict)
        print(" ".join(row))

    if not args.check:
        return 0
    expected = dict.fromkeys(
        (name for name, _ in _MATRIX_VARIANTS), "healthy"
    )
    if machine is None or machine.cores == 1:
        expected["unmodified"] = "livelocked"
    else:
        # Steering the device IRQs off the housekeeping core leaves
        # netisr runnable: the classic kernel no longer livelocks at
        # this rate (the point of the SMP column).
        expected["unmodified"] = "healthy"
        if machine.isolate_polling:
            # With a single isolated IRQ target every device line
            # lands on one core. The high-IPL driver's rx handler
            # never leaves device IPL under overload, so the output
            # interface's tx interrupt starves on that core — tx only
            # ever delivers in the dispatch gap after a handler
            # completes, and on a saturated dedicated core that gap
            # never opens (DESIGN.md §14). The SMP analogue of why
            # the paper prefers the polling thread.
            expected["high_ipl"] = "livelocked"
    ok = not failures and clean_verdicts == expected
    if not ok:
        for name, plan, result in failures:
            print(
                "check failed: %s / %s -> %r"
                % (name, plan or "clean", result),
                file=sys.stderr,
            )
        if clean_verdicts != expected:
            print(
                "check failed: clean verdicts %r, expected %r"
                % (clean_verdicts, expected),
                file=sys.stderr,
            )
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
