"""Command-line front end.

Subcommands: snr, sweep, discord, threshold, reproduce. Probe and scenario
parameters come from an optional flat key=value config file, overridden by
flags. Exit codes: 0 success, 2 validation error, 1 internal error.
"""

import argparse
import os
import sys

import numpy as np

from .chernoff import snr
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

CONFIG_KEYS = {
    "probe.kind": str,
    "probe.n0": float,
    "probe.n1": float,
    "probe.n2": float,
    "probe.ns": float,
    "scenario.kappa": float,
    "scenario.nb": float,
    "scenario.ensembles": float,
}


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


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value parameter file")
    parser.add_argument("--kind", choices=[k.value for k in ProbeKind])
    parser.add_argument("--n0", type=float, help="initial TMSV photons per mode")
    parser.add_argument("--n1", type=float, help="signal-mode squeezer photons")
    parser.add_argument("--n2", type=float, help="idler-mode squeezer photons")
    parser.add_argument("--ns", type=float, help="coherent probe |alpha|^2")
    parser.add_argument("--kappa", type=float, help="target reflectivity")
    parser.add_argument("--nb", type=float, help="receiver noise photons")
    parser.add_argument("--ensembles", type=float, help="number of copies M")
    parser.add_argument("--out", help="output path")
    parser.add_argument("--plot", action="store_true",
                        help="also write a gnuplot script next to the CSVs")


def build_inputs(args) -> tuple[ProbeSpec, TargetScenario]:
    cfg = load_config(args.config) if args.config else {}

    def pick(flag: str, key: str, default):
        value = getattr(args, flag, None)
        if value is not None:
            return value
        return cfg.get(key, default)

    probe = ProbeSpec(
        kind=ProbeKind(pick("kind", "probe.kind", "tmsv")),
        n0=pick("n0", "probe.n0", 0.0),
        n1=pick("n1", "probe.n1", 0.0),
        n2=pick("n2", "probe.n2", 0.0),
        ns=pick("ns", "probe.ns", 0.0),
    )
    scenario = TargetScenario(
        kappa=pick("kappa", "scenario.kappa", 0.01),
        nb=pick("nb", "scenario.nb", 0.0),
        ensembles=pick("ensembles", "scenario.ensembles", 1.0),
    )
    return probe, scenario


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
        table = SweepTable(axis="", grid=[], rows=[row])
        write_table(table, args.out)
    return 0


def cmd_sweep(args) -> int:
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
    _add_common(p)
    p.add_argument("--with-discord", action="store_true")
    p.set_defaults(func=cmd_snr)

    p = sub.add_parser("sweep", help="sweep one parameter axis to CSV")
    _add_common(p)
    p.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p.add_argument("--from", dest="from_", type=float, required=True)
    p.add_argument("--to", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--with-discord", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("discord", help="Gaussian discord before/after channel")
    _add_common(p)
    p.set_defaults(func=cmd_discord)

    p = sub.add_parser(
        "threshold",
        help="N0 where the ASTM SNR slope meets the coherent-state Chernoff "
             "benchmark (|alpha|^2 = N_S); on the figure presets the ASTM "
             "slope stays below it, so this reports 'no slope crossing'")
    _add_common(p)
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
