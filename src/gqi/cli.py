"""Command-line front end.

Subcommands: snr, sweep, discord, threshold, reproduce. Each registers the
flags it reads and no other. Probe and scenario parameters come from an
optional flat key=value config file, overridden by flags. Exit codes: 0
success, 2 validation error (an unknown flag included), 1 internal error.
"""

import argparse
import os
import sys

import numpy as np

from .discord import gaussian_discord, remained_discord
from .probes import ProbeKind, ProbeSpec, TargetScenario, astm_state
from .sweeps import (
    FIGURE_IDS,
    FIT_POINTS_DEFAULT,
    FIT_TO_DEFAULT,
    SWEEP_AXES,
    SweepTable,
    advantage_threshold,
    gnuplot_script,
    reproduce_figure,
    run_scenario,
    sweep,
    write_table,
)
from .symplectic import ValidationError

# Each input a command may read: its config key and the keywords of its flag,
# --<name> for the key <section>.<name>.
_INPUTS = {"probe.kind": {"choices": [k.value for k in ProbeKind]}, **{
    key: {"type": float, "help": text} for key, text in (
        ("probe.n0", "initial TMSV photons per mode"),
        ("probe.n1", "signal-mode squeezer photons"),
        ("probe.n2", "idler-mode squeezer photons"), ("probe.ns", "coherent probe |alpha|^2"),
        ("scenario.kappa", "target reflectivity"), ("scenario.nb", "receiver noise photons"),
        ("scenario.ensembles", "number of copies M"))}}
CONFIG_KEYS = {key: flag.get("type", str) for key, flag in _INPUTS.items()}


def load_config(path: str) -> dict:
    """Parse a flat key = value config file."""
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValidationError(f"{path}:{lineno}: expected key = value")
            key, _, text = line.partition("=")
            key = key.strip()
            if key not in CONFIG_KEYS:
                raise ValidationError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = CONFIG_KEYS[key](text.strip())
            except ValueError:
                raise ValidationError(
                    f"{path}:{lineno}: bad value for {key!r}: {text.strip()!r}"
                ) from None
    return values


def _add_inputs(parser: argparse.ArgumentParser, names: str) -> None:
    """--config and the flags of the named inputs: those the command reads."""
    parser.add_argument("--config", help="flat key = value parameter file")
    for key, flag in _INPUTS.items():
        name = key.split(".")[1]
        if name in names.split():
            parser.add_argument(f"--{name}", **flag)


def build_inputs(args) -> tuple[ProbeSpec | None, TargetScenario]:
    """The probe and scenario from the inputs the command registered, each
    from its flag, else the config file, else the default. Config keys of
    other inputs are not read, and a command without --kind gets no probe."""
    cfg = load_config(args.config) if args.config else {}
    given = {"probe": {}, "scenario": {"kappa": 0.01, "nb": 0.0}}
    for key in CONFIG_KEYS:
        section, name = key.split(".")
        value = getattr(args, name, None)  # None: not given, or not registered
        if value is None and hasattr(args, name):
            value = cfg.get(key)
        if value is not None:
            given[section][name] = value
    probe = ProbeSpec(**given["probe"]) if hasattr(args, "kind") else None
    return probe, TargetScenario(**given["scenario"])


def cmd_snr(args) -> int:
    probe, scenario = build_inputs(args)
    row = run_scenario(probe, scenario, with_discord=args.with_discord)
    result = f"kind={row.kind} ns={row.ns!r} s_star={row.s_star!r} " \
             f"q_min={row.q_min!r} log_error_prob={row.log_error_prob!r} " \
             f"snr={row.snr!r}"
    if row.discord is not None:
        result += f" discord={row.discord!r}"
    print(result)
    if args.out:
        write_table(SweepTable(axis="", grid=[], rows=[row]), args.out)
    return 0


def cmd_sweep(args) -> int:
    if args.steps < 1:
        raise ValidationError(f"--steps must be >= 1, got {args.steps}")
    probe, scenario = build_inputs(args)
    grid = np.linspace(args.from_, args.to, args.steps)
    table = sweep(args.axis, grid, probe, scenario,
                  with_discord=args.with_discord)
    for message in table.errors:
        print(f"skipped {message}", file=sys.stderr)
    out = args.out or f"sweep_{args.axis}.csv"
    write_table(table, out)
    print(f"wrote {out} ({len(table.rows)} rows)")
    if args.plot:
        gnuplot_script([out], os.path.splitext(out)[0] + ".gp")
    return 0


def cmd_discord(args) -> int:
    probe, scenario = build_inputs(args)
    if probe.kind is ProbeKind.COHERENT:  # from --config: --kind refuses it
        raise ValidationError("probe.kind = coherent: discord takes a tmsv or astm probe")
    probe_discord = gaussian_discord(astm_state(probe))
    after = remained_discord(probe, scenario)
    print(f"probe_discord={probe_discord.value!r} "
          f"remained_discord={after.value!r} branch={after.branch}")
    return 0


def cmd_threshold(args) -> int:
    _, scenario = build_inputs(args)
    n0_star = advantage_threshold(
        scenario,
        bracket=(args.n0_min, args.n0_max),
        fit_from=args.fit_from,
        fit_to=args.fit_to,
        points=args.fit_points,
    )
    print(f"n0_threshold={n0_star!r}")
    return 0


def cmd_reproduce(args) -> int:
    paths = reproduce_figure(args.figure, args.out)
    for path in paths:
        print(f"wrote {path}")
    if args.plot and paths:
        script = os.path.join(args.out, f"{args.figure}.gp")
        gnuplot_script(paths, script)
        print(f"wrote {script}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gqi",
        description="Gaussian quantum illumination with asymmetrically "
                    "squeezed two-mode probes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("snr", help="Chernoff-bound SNR for one scenario")
    _add_inputs(p, "kind n0 n1 n2 ns kappa nb ensembles")
    p.add_argument("--out", help="output path")
    p.add_argument("--with-discord", action="store_true")
    p.set_defaults(func=cmd_snr)

    p = sub.add_parser("sweep", help="sweep one parameter axis to CSV")
    _add_inputs(p, "kind n0 n1 n2 ns kappa nb ensembles")
    p.add_argument("--out", help="output path")
    p.add_argument("--plot", action="store_true",
                   help="also write a gnuplot script next to the CSV")
    p.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p.add_argument("--from", dest="from_", type=float, required=True)
    p.add_argument("--to", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--with-discord", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("discord", help="Gaussian discord before/after channel")
    _add_inputs(p, "n0 n1 n2 kappa nb")
    # A coherent probe has one mode and no discord.
    p.add_argument("--kind", choices=[ProbeKind.TMSV.value, ProbeKind.ASTM.value])
    p.set_defaults(func=cmd_discord)

    p = sub.add_parser(
        "threshold",
        help="N0 where the ASTM SNR slope meets the coherent-state Chernoff "
             "benchmark (|alpha|^2 = N_S); on the figure presets the ASTM "
             "slope stays below it, so this reports 'no slope crossing'")
    _add_inputs(p, "kappa nb ensembles")
    p.add_argument("--n0-min", type=float, default=0.02)
    p.add_argument("--n0-max", type=float, default=1.0)
    p.add_argument("--fit-from", type=float, default=None)
    p.add_argument("--fit-to", type=float, default=FIT_TO_DEFAULT)
    p.add_argument("--fit-points", type=int, default=FIT_POINTS_DEFAULT)
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("reproduce", help="write the CSV tables behind a figure")
    p.add_argument("figure", choices=FIGURE_IDS)
    p.add_argument("--out", default=".")
    p.add_argument("--plot", action="store_true")
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
