"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``inventory`` — print the platform/probe tables (paper Tables 2 & 3);
* ``attack`` — run a Volt Boot (or cold boot) attack against a fresh
  simulated device with a demo victim and print what was recovered;
* ``experiment`` — run one named paper experiment and print its report;
* ``list-experiments`` — show the available experiment names;
* ``render-figures`` — regenerate every figure as PGM images;
* ``progress`` — tail a live (or crashed) exec checkpoint journal and
  report shards done/total, rolling throughput, and ETA;
* ``chaos`` — the deterministic fault-injection harness
  (:mod:`repro.chaos`): ``--faults SPEC`` runs one seeded faulted
  campaign and asserts byte-identity with the fault-free reference,
  ``--matrix`` runs the full fault-class × ``--jobs`` grid, and
  ``--smoke`` runs the subprocess ``kill -9``/resume end-to-end check.

``attack`` and ``experiment`` accept observability flags: ``--trace
FILE`` streams a JSONL span/event trace, ``--metrics`` reports the
collected physics metrics, and ``--json`` replaces the human-readable
output with one machine-readable JSON document (including the run
manifest).  With none of these flags, output is byte-identical to an
uninstrumented run.

``experiment`` and ``render-figures`` accept ``--jobs N`` to shard
their independent work units over N processes via :mod:`repro.exec`;
results are byte-identical to ``--jobs 1`` by construction (see
``docs/determinism.md``).
"""

from __future__ import annotations

import argparse
import difflib
import inspect
import sys
from collections.abc import Sequence
from contextlib import nullcontext

from . import __version__, experiments, obs
from .chaos import targets as chaos_targets
from .core.coldboot import ColdBootAttack
from .core.report import AttackReport
from .core.voltboot import VoltBootAttack
from .devices import DEVICES, build_device, platform_table, probe_table
from .errors import CampaignInterrupted, ReproError
from .exec import (
    SupervisionPolicy,
    checkpointing,
    clear_incidents,
    incidents,
    supervised,
)
from .soc.bootrom import BootMedia

#: Process exit codes (documented in docs/robustness.md).
EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
#: A checkpointed campaign was interrupted (SIGINT); the partial
#: journal was written and the run can be completed with ``--resume``.
EXIT_INTERRUPTED = 3
#: The run *completed*, but around recorded incidents — quarantined
#: work units and/or a degraded (in-memory) checkpoint journal.  The
#: report and manifest were still produced; details went to stderr.
EXIT_DEGRADED = 4

#: Experiment name -> (module, needs-report-arg) registry for the CLI.
EXPERIMENTS = {
    "table1": experiments.table1,
    "figure3": experiments.figure3,
    "table4": experiments.table4,
    "figure7": experiments.figure7,
    "figure8": experiments.figure8,
    "figure9": experiments.figure9,
    "figure10": experiments.figure10,
    "registers": experiments.registers,
    "accessibility": experiments.accessibility,
    "retention-sweep": experiments.retention_sweep,
    "probe-sweep": experiments.probe_sweep,
    "countermeasures": experiments.countermeasures,
    "platforms": experiments.platforms,
    "dram-coldboot": experiments.dram_coldboot,
    "microarch-leak": experiments.microarch_leak,
    "standby-retention": experiments.standby_retention,
    "policy-ablation": experiments.policy_ablation,
    "glitch-campaign": experiments.glitch_campaign,
    "noisy-rig": experiments.noisy_rig,
    "chaos-probe": chaos_targets,
}

#: Targets the attack command accepts per device.
_DEVICE_TARGETS = {
    "rpi4": ("l1-caches", "registers"),
    "rpi3": ("l1-caches", "registers"),
    "imx53": ("iram",),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Volt Boot reproduction toolkit (simulated hardware)",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("inventory", help="print paper Tables 2 & 3")

    attack = commands.add_parser("attack", help="attack a simulated device")
    attack.add_argument("--device", choices=sorted(DEVICES), default="rpi4")
    attack.add_argument(
        "--target", default=None,
        help="memory target (default: the device's headline target)",
    )
    attack.add_argument(
        "--method", choices=("voltboot", "coldboot"), default="voltboot"
    )
    attack.add_argument("--seed", type=int, default=2022)
    attack.add_argument(
        "--temperature", type=float, default=-40.0,
        help="chamber temperature for coldboot (degC)",
    )
    _add_observability_flags(attack)

    experiment = commands.add_parser(
        "experiment", help="run one paper experiment"
    )
    experiment.add_argument(
        "name", metavar="NAME",
        help="experiment name (see list-experiments)",
    )
    experiment.add_argument("--seed", type=int, default=2022)
    _add_jobs_flag(experiment)
    experiment.add_argument(
        "--checkpoint", metavar="DIR", default=None,
        help="journal completed work units under DIR so an interrupted "
        "run can be completed with --resume "
        "(default DIR: checkpoints/<name>-seed<seed>)",
    )
    experiment.add_argument(
        "--resume", action="store_true",
        help="resume from an earlier checkpoint journal, running only "
        "the missing work units (implies --checkpoint)",
    )
    experiment.add_argument(
        "--quarantine", action="store_true",
        help="quarantine work units that exhaust their retries instead "
        "of failing the campaign (completed run exits "
        f"{EXIT_DEGRADED} and records a partial-result manifest "
        "section)",
    )
    _add_observability_flags(experiment)

    commands.add_parser("list-experiments", help="list experiment names")

    render = commands.add_parser(
        "render-figures", help="regenerate every figure as PGM images"
    )
    render.add_argument("--out", default="figures", help="output directory")
    render.add_argument("--seed", type=int, default=2022)
    _add_jobs_flag(render)

    chaos = commands.add_parser(
        "chaos",
        help="deterministic fault injection against the supervised "
        "runtime (repro.chaos)",
    )
    chaos.add_argument(
        "experiment", nargs="?", default=None, metavar="NAME",
        help="target experiment (default: chaos-probe; noisy-rig for "
        "--smoke)",
    )
    chaos_mode = chaos.add_mutually_exclusive_group(required=True)
    chaos_mode.add_argument(
        "--faults", metavar="SPEC", default=None,
        help="fault spec, e.g. 'kill@unit=3,torn@record=1' "
        "(<kind>@<target>=<index>[:times=K][:s=V], comma-separated)",
    )
    chaos_mode.add_argument(
        "--matrix", action="store_true",
        help="run every fault class at every --jobs grid level and "
        "assert byte-identical (or resume-to-byte-identical) manifests",
    )
    chaos_mode.add_argument(
        "--smoke", action="store_true",
        help="subprocess kill -9 / --resume end-to-end check",
    )
    chaos.add_argument("--seed", type=int, default=2022)
    _add_jobs_flag(chaos)
    chaos.add_argument(
        "--workdir", default="chaos-runs", metavar="DIR",
        help="base directory for seeded chaos workdirs (journals, "
        "fault markers); no tempfile entropy",
    )
    chaos.add_argument(
        "--hang-timeout", type=float, default=None, metavar="S",
        help="supervisor hang detection timeout for injected hangs "
        "(default: 5s per run, 2s in the matrix)",
    )
    chaos.add_argument(
        "--timeout", type=float, default=300.0, metavar="S",
        help="--smoke only: how long to wait for the victim process "
        "to journal its first unit",
    )
    chaos.add_argument(
        "--keep", action="store_true",
        help="keep the workdir (journals, fault markers) after the run",
    )
    chaos.add_argument(
        "--json", action="store_true",
        help="emit machine-readable JSON instead of text",
    )

    progress = commands.add_parser(
        "progress",
        help="report done/total, throughput, and ETA from an exec "
        "checkpoint journal (live or crashed)",
    )
    progress.add_argument(
        "path", metavar="JOURNAL",
        help="journal file, or a --checkpoint directory of journals",
    )
    progress.add_argument(
        "--json", action="store_true",
        help="emit machine-readable JSON instead of text",
    )
    return parser


def _add_jobs_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for shardable work "
        "(results are byte-identical to --jobs 1)",
    )


def _add_observability_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", metavar="FILE", default=None,
        help="stream a JSONL span/event trace to FILE",
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="report collected physics metrics after the run",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit one machine-readable JSON document on stdout",
    )


def _wants_observability(args: argparse.Namespace) -> bool:
    return bool(args.trace or args.metrics or args.json)


def _configure_observability(args: argparse.Namespace) -> bool:
    """Enable collection; False (after a one-line error) if the trace
    file cannot be opened."""
    try:
        obs.OBS.configure(trace_path=args.trace)
    except OSError as error:
        print(f"error: cannot open trace file: {error}", file=sys.stderr)
        return False
    return True


def _print_metrics() -> None:
    """Render the metrics snapshot as an aligned text table."""
    report = AttackReport("Observability metrics")
    for name, value in obs.OBS.metrics.snapshot().items():
        if isinstance(value, dict):
            value = (
                f"count={value['count']} mean={value['mean']:.4f} "
                f"min={value['min']:.4f} max={value['max']:.4f}"
            )
        report.add_row(metric=name, value=value)
    print()
    print(report.render())


def _cmd_inventory() -> int:
    report = AttackReport("Evaluated platforms (paper Table 2)")
    for row in platform_table():
        report.add_row(**row)
    print(report.render())
    print()
    pads = AttackReport("Probe points (paper Table 3)")
    for row in probe_table():
        pads.add_row(**row)
    print(pads.render())
    return 0


def _prepare_demo_victim(board, target: str) -> bytes:
    """Park a recognisable secret in the target memory; returns it."""
    secret_line = b"\xaa" * 64
    if target == "iram":
        iram = board.soc.iram
        payload = (b"VOLTBOOT-DEMO-SECRET" * 7)[:128]
        iram.write_block(iram.base_addr + 0x8000, payload)
        return payload
    unit = board.soc.core(0)
    if target == "registers":
        unit.vreg.write_bytes(0, b"\xaa" * 16)
        return b"\xaa" * 16
    unit.l1d.invalidate_all()
    unit.l1d.enabled = True
    unit.l1d.write(0x40000, secret_line)
    return secret_line


def _cmd_attack(args: argparse.Namespace) -> int:
    device = args.device
    target = args.target or _DEVICE_TARGETS[device][0]
    if target not in _DEVICE_TARGETS[device]:
        valid = ", ".join(_DEVICE_TARGETS[device])
        print(
            f"error: unknown target {target!r} for {device}; "
            f"valid targets: {valid}",
            file=sys.stderr,
        )
        return 2
    observed = _wants_observability(args)
    if observed and not _configure_observability(args):
        return 2
    try:
        return _run_attack(args, device, target)
    finally:
        if observed:
            obs.OBS.reset()


def _run_attack(args: argparse.Namespace, device: str, target: str) -> int:
    board = build_device(device, seed=args.seed)
    media = None if device == "imx53" else BootMedia("victim-os")
    board.boot(media)
    secret = _prepare_demo_victim(board, target)
    attacker_media = None if device == "imx53" else BootMedia("attacker-usb")

    doc: dict[str, object] = {
        "command": "attack",
        "device": device,
        "target": target,
        "method": args.method,
        "seed": args.seed,
    }

    if args.method == "coldboot":
        attack = ColdBootAttack(
            board, temperature_c=args.temperature, boot_media=attacker_media
        )
        result = attack.execute()
        recovered = (
            result.cache_images is not None
            and secret in result.cache_images.dcache(0)
        )
        if args.json:
            doc["temperature_c"] = args.temperature
            doc["recovered"] = recovered
            _emit_json(doc, include_metrics=args.metrics)
            return 0
        print(f"cold boot at {args.temperature:g}C: "
              f"secret {'RECOVERED' if recovered else 'NOT recovered'} "
              f"(expected: not recovered — SRAM has no chill)")
        if args.metrics:
            _print_metrics()
        return 0

    attack = VoltBootAttack(board, target=target, boot_media=attacker_media)
    plan = attack.identify()
    if not args.json:
        print(f"plan: {plan.describe()}")
    result = attack.execute()
    if target == "iram":
        recovered = secret in result.iram_image
    elif target == "registers":
        recovered = any(
            secret == value for value in result.vector_registers[0]
        )
    else:
        recovered = secret in result.cache_images.dcache(0)
    if args.json:
        doc["plan"] = plan.describe()
        doc["recovered"] = recovered
        doc["surge_clean"] = result.surge_clean
        doc["cells_lost_in_surge"] = result.cells_lost_in_surge
        _emit_json(doc, include_metrics=args.metrics)
        return 0
    print(f"volt boot on {device}/{target}: "
          f"secret {'RECOVERED' if recovered else 'NOT recovered'} "
          f"(surge {'clean' if result.surge_clean else 'lossy'})")
    if args.metrics:
        _print_metrics()
    return 0


def _emit_json(doc: dict[str, object], include_metrics: bool) -> None:
    """Finish a ``--json`` document with manifest/metrics and print it."""
    manifest = obs.OBS.last_manifest
    doc["manifest"] = manifest.to_dict() if manifest is not None else None
    if include_metrics:
        doc["metrics"] = obs.OBS.metrics.snapshot()
    print(obs.dumps(doc))


def _run_experiment(args: argparse.Namespace, module) -> object:
    """Invoke ``module.run``, passing ``--jobs`` through if supported."""
    if "jobs" in inspect.signature(module.run).parameters:
        return module.run(seed=args.seed, jobs=args.jobs)
    if args.jobs != 1:
        print(
            f"note: experiment {args.name!r} has no shardable axis; "
            f"running serially",
            file=sys.stderr,
        )
    return module.run(seed=args.seed)


def _cmd_experiment(args: argparse.Namespace) -> int:
    args.name = args.name.replace("_", "-")
    if args.name not in EXPERIMENTS:
        close = difflib.get_close_matches(args.name, EXPERIMENTS, n=1)
        hint = f" (did you mean {close[0]!r}?)" if close else ""
        print(
            f"error: unknown experiment {args.name!r}{hint}; choose from: "
            f"{', '.join(sorted(EXPERIMENTS))}",
            file=sys.stderr,
        )
        return 2
    module = EXPERIMENTS[args.name]
    observed = _wants_observability(args)
    if observed and not _configure_observability(args):
        return 2
    clear_incidents()
    supervision = (
        supervised(SupervisionPolicy(quarantine=True))
        if args.quarantine
        else nullcontext()
    )
    try:
        with supervision:
            if args.checkpoint or args.resume:
                directory = args.checkpoint or (
                    f"checkpoints/{args.name}-seed{args.seed}"
                )
                with checkpointing(directory, resume=args.resume):
                    result = _run_experiment(args, module)
            else:
                result = _run_experiment(args, module)
        report = module.report(result)
        if args.json:
            doc: dict[str, object] = {
                "command": "experiment",
                "name": args.name,
                "seed": args.seed,
                "report": report.to_dict(),
            }
            _emit_json(doc, include_metrics=args.metrics)
        else:
            print(report.render())
            if args.metrics:
                _print_metrics()
        return _degraded_exit()
    finally:
        if observed:
            obs.OBS.reset()


def _degraded_exit() -> int:
    """0 for a clean run; ``EXIT_DEGRADED`` (with stderr warnings) when
    the run completed *around* incidents — quarantined units or a
    journal that degraded to its in-memory bank."""
    recorded = incidents()
    if not recorded:
        return EXIT_OK
    for incident in recorded:
        detail = ", ".join(
            f"{key}={value}" for key, value in sorted(incident.detail.items())
        )
        print(
            f"warning: {incident.kind} [{incident.failure_class}]: {detail}",
            file=sys.stderr,
        )
    print(
        f"degraded: run completed around {len(recorded)} incident(s); "
        f"results above are partial or were journalled in memory only "
        f"(exit code {EXIT_DEGRADED})",
        file=sys.stderr,
    )
    return EXIT_DEGRADED


def _cmd_chaos(args: argparse.Namespace) -> int:
    import os
    import shutil

    from . import chaos

    experiment = args.experiment or (
        "noisy-rig" if args.smoke else "chaos-probe"
    )
    if args.smoke:
        result = chaos.run_smoke(
            experiment=experiment,
            seed=args.seed,
            jobs=args.jobs,
            timeout_s=args.timeout,
            workdir_base=args.workdir,
            keep=args.keep,
        )
        if args.json:
            print(obs.dumps(result.to_dict()))
        else:
            print(chaos.render_smoke(result))
        return EXIT_OK if result.passed else EXIT_FAILURE
    if args.matrix:
        workdir = os.path.join(
            args.workdir, f"matrix-{experiment}-seed{args.seed}"
        )
        report = chaos.run_matrix(
            workdir,
            seed=args.seed,
            experiment=experiment,
            hang_timeout_s=(
                2.0 if args.hang_timeout is None else args.hang_timeout
            ),
        )
        if not args.keep:
            shutil.rmtree(workdir, ignore_errors=True)
        if args.json:
            print(obs.dumps(report.to_dict()))
        else:
            print(chaos.render_matrix(report))
        return EXIT_OK if report.passed else EXIT_FAILURE
    workdir = os.path.join(args.workdir, f"{experiment}-seed{args.seed}")
    if os.path.exists(workdir):
        shutil.rmtree(workdir)
    result = chaos.run_chaos(
        experiment,
        args.faults,
        seed=args.seed,
        jobs=args.jobs,
        workdir=workdir,
        hang_timeout_s=(
            5.0 if args.hang_timeout is None else args.hang_timeout
        ),
    )
    if not args.keep:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.json:
        print(obs.dumps(result.to_dict()))
    else:
        classes = ", ".join(result.failure_classes) or "none"
        verdict = (
            "byte-identical to"
            if result.identical
            else "DIVERGES from"
        )
        print(
            f"chaos run: {result.experiment} faults='{result.faults}' "
            f"seed={result.seed} jobs={result.jobs}\n"
            f"  resumes={result.interruptions}  "
            f"failure classes: {classes}\n"
            f"  final manifest {verdict} the fault-free reference"
        )
    return EXIT_OK if result.identical else EXIT_FAILURE


def _cmd_progress(args: argparse.Namespace) -> int:
    from . import perf

    reports = [
        perf.read_progress(journal)
        for journal in perf.find_journals(args.path)
    ]
    if args.json:
        print(
            obs.dumps(
                {"journals": [report.to_dict() for report in reports]}
            )
        )
    else:
        for report in reports:
            print(perf.render_progress(report))
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "inventory":
            return _cmd_inventory()
        if args.command == "attack":
            return _cmd_attack(args)
        if args.command == "experiment":
            return _cmd_experiment(args)
        if args.command == "list-experiments":
            for name in sorted(EXPERIMENTS):
                print(name)
            return 0
        if args.command == "render-figures":
            from .experiments.render import render_all

            for path in render_all(args.out, seed=args.seed, jobs=args.jobs):
                print(path)
            return 0
        if args.command == "chaos":
            return _cmd_chaos(args)
        if args.command == "progress":
            return _cmd_progress(args)
    except CampaignInterrupted as error:
        print(f"interrupted: {error}", file=sys.stderr)
        resume_cmd = _resume_hint(args)
        print(
            f"hint: the journal is crash-safe — rerun with {resume_cmd} "
            f"to complete only the missing work units",
            file=sys.stderr,
        )
        return EXIT_INTERRUPTED
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_FAILURE
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_USAGE  # pragma: no cover - argparse enforces the choices


def _resume_hint(args: argparse.Namespace) -> str:
    """The exact rerun command to print after an interruption."""
    parts = [f"`repro experiment {getattr(args, 'name', '<name>')}"]
    seed = getattr(args, "seed", None)
    if seed is not None:
        parts.append(f"--seed {seed}")
    checkpoint = getattr(args, "checkpoint", None)
    if checkpoint:
        parts.append(f"--checkpoint {checkpoint}")
    parts.append("--resume`")
    return " ".join(parts)
