"""Command-line interface.

Every subcommand is deterministic given its flags (seeds included) and
emits machine-readable CSV or JSON only; plotting is left to external
tools.  Exit codes: 0 success or pass, 1 quantitative check failed,
2 input or feasibility error.

All flags have config-file equivalents: ``--config`` names a key=value
file (one pair per line, ``#`` comments allowed) whose keys match the long
flag names with dashes or underscores; explicit flags override file values.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import io
from .evolve import (
    HomogeneousCoinParams,
    McConfig,
    asymptotic_density,
    closed_form_wavefield,
    evolve_qw,
    evolve_qw_complex,
    evolve_rw_exact,
    simulate_rw,
)
from .feasibility import validate_sequence
from .lattice import (
    CoinSchedule,
    ProbabilitySequence,
    WalkError,
    flat_sites,
    probability_from_wavefield,
    site_positions,
)
from .synthesis import (
    mimic_quantum_walk,
    reconstruct_wavefield,
    synthesize_coins,
    synthesize_jumps,
)
from .targets import target_from_spec

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2

ROUNDTRIP_TOL = 1e-10

# Quasi-symmetric initial state: eta = 3 pi / 8 gives
# (sqrt(2 - sqrt 2) / 2, sqrt(2 + sqrt 2) / 2); gamma = 0 keeps it real.
FIG1_PARAMS = HomogeneousCoinParams(theta=math.pi / 4, eta=3 * math.pi / 8,
                                    gamma=0.0)
FIG2_PARAMS = HomogeneousCoinParams(theta=math.pi / 4, eta=math.pi / 4,
                                    gamma=math.pi / 2)


def _destination(args, name):
    """Where an output goes: stdout, the ``--out`` file, or ``<dir>/name``
    when ``--out`` names a directory."""
    if args.out is None:
        return sys.stdout
    out = Path(args.out)
    return out / name if out.is_dir() else out


def _emit_field(field, args) -> None:
    write = io.write_field_csv if args.format == "csv" else io.write_field_json
    write(field, _destination(args, f"rho.{args.format}"))


def _print_json(doc, fh=None) -> None:
    (fh or sys.stdout).write(json.dumps(doc, indent=2) + "\n")


def _require(args, *names) -> None:
    """Presence check deferred past config merging, so every flag can come
    from a --config file instead of the command line."""
    missing = [name for name in names if getattr(args, name, None) is None]
    if missing:
        flags = ", ".join("--" + m.replace("_", "-") for m in missing)
        raise WalkError(f"missing required argument(s): {flags}")


def _target_sequence(args) -> ProbabilitySequence:
    _require(args, "target")
    return target_from_spec(args.target, getattr(args, "horizon", None))


def cmd_validate(args) -> int:
    rho = _target_sequence(args)
    report = validate_sequence(rho)
    _print_json({**report.to_dict(), "schema_version": io.SCHEMA_VERSION})
    return EXIT_OK if report.feasible else EXIT_FAIL


def _synthesize(rho: ProbabilitySequence, walk: str):
    """The ``walk`` schedule of ``rho``; synthesis checks the flux bound."""
    if walk == "rw":
        return synthesize_jumps(rho)
    return synthesize_coins(reconstruct_wavefield(rho))


def _evolve(schedule, init=(1.0, 0.0), horizon=None) -> ProbabilitySequence:
    """rho of a coin schedule evolved from ``init``, or of a jump schedule."""
    if isinstance(schedule, CoinSchedule):
        return probability_from_wavefield(evolve_qw(schedule, init, horizon))
    return evolve_rw_exact(schedule, horizon)


def cmd_synth(args) -> int:
    _require(args, "walk", "out")
    rho = _target_sequence(args)
    schedule = _synthesize(rho, args.walk)
    io.write_schedule_json(schedule, args.out)
    return EXIT_OK


def cmd_evolve(args) -> int:
    _require(args, "schedule")
    schedule = io.read_schedule_json(args.schedule)
    kind = "qw" if isinstance(schedule, CoinSchedule) else "rw"
    if args.walk not in (None, kind):
        raise WalkError(f"--walk {args.walk} does not match {args.schedule}, "
                        f"which holds a {kind} schedule")
    if kind == "rw" and args.init is not None:
        raise WalkError(f"--init applies to qw schedules only; "
                        f"{args.schedule} holds an rw schedule")
    text = "1,0" if args.init is None else args.init
    try:
        a, b = map(float, text.split(","))
    except ValueError:
        raise WalkError("--init takes two comma-separated amplitudes, "
                        f"got {text!r}") from None
    _emit_field(_evolve(schedule, (a, b), args.horizon), args)
    return EXIT_OK


def cmd_mc(args) -> int:
    _require(args, "schedule")
    schedule = io.read_schedule_json(args.schedule)
    if isinstance(schedule, CoinSchedule):
        raise WalkError(f"{args.schedule} holds a qw schedule; Monte Carlo "
                        "samples rw (jump) schedules only")
    steps = args.horizon if args.horizon is not None else schedule.steps
    cfg = McConfig(trajectories=args.trajectories, seed=args.seed,
                   horizon=steps)
    rho_hat, stderr = simulate_rw(schedule, cfg)
    io.write_mc_csv(rho_hat, stderr, _destination(args, "mc.csv"))
    return EXIT_OK


def cmd_hadamard(args) -> int:
    _require(args, "theta", "horizon")
    params = HomogeneousCoinParams(theta=args.theta, eta=args.eta,
                                   gamma=args.gamma, alpha=args.alpha,
                                   beta=args.beta, chi=args.chi)
    t = args.horizon
    if args.route == "asymptotic":
        limit = t * abs(math.cos(params.theta))
        rows = [(n, asymptotic_density(params, n, t))
                for n in site_positions(t).tolist() if abs(n) < limit]
        with io.open_write(_destination(args, f"rho.{args.format}")) as fh:
            if args.format == "csv":
                fh.write("t,n,value\n")
                fh.writelines(f"{t},{n},{v!r}\n" for n, v in rows)
            else:
                _print_json({
                    "schema_version": io.SCHEMA_VERSION,
                    "t": t,
                    "entries": [{"n": n, "value": v} for n, v in rows],
                }, fh)
        return EXIT_OK
    engine = (closed_form_wavefield if args.route == "closed-form"
              else evolve_qw_complex)
    _emit_field(probability_from_wavefield(engine(params, t)), args)
    return EXIT_OK


def cmd_roundtrip(args) -> int:
    _require(args, "walk")
    rho = _target_sequence(args)
    evolved = _evolve(_synthesize(rho, args.walk))
    err = np.abs(evolved.buf - rho.buf)
    worst = int(np.argmax(err))  # the earliest, then leftmost, largest error
    n, t = flat_sites(worst)
    max_err = float(err[worst])
    passed = max_err < ROUNDTRIP_TOL
    _print_json({
        "schema_version": io.SCHEMA_VERSION,
        "walk": args.walk,
        "target": args.target,
        "max_error": max_err,
        "max_error_site": {"n": int(n), "t": int(t)},
        "tolerance": ROUNDTRIP_TOL,
        "pass": passed,
    })
    return EXIT_OK if passed else EXIT_FAIL


def cmd_figure(args) -> int:
    _require(args, "which")
    params = FIG1_PARAMS if args.which == "fig1" else FIG2_PARAMS
    t_plot = args.horizon
    field = evolve_qw_complex(params, t_plot + 1)
    exact = probability_from_wavefield(field)
    schedule = mimic_quantum_walk(field)
    cfg = McConfig(trajectories=args.trajectories, seed=args.seed,
                   horizon=t_plot)
    rho_hat, stderr = simulate_rw(schedule, cfg)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / f"{args.which}.csv"
    columns = (f.slices[t_plot].tolist() for f in (exact, rho_hat, stderr))
    with open(out, "w") as fh:
        fh.write("n,exact,mc,stderr\n")
        for row in zip(site_positions(t_plot).tolist(), *columns):
            fh.write("%d,%r,%r,%r\n" % row)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as WalkError, which main reports as JSON."""

    def error(self, message):
        raise WalkError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="walkforge",
        description="Inverse design and simulation of discrete-time walks "
                    "on the integer line.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, target=False, horizon=False, out_field=False):
        p.add_argument("--config", default=None,
                       help="key=value file with flag defaults")
        if target:
            p.add_argument("--target", default=None,
                           help="uniform | binomial:p | "
                                "hadamard:theta,eta,gamma | file:path")
        if horizon:
            p.add_argument("-T", "--horizon", type=int, default=None,
                           help="time horizon")
        if out_field:
            p.add_argument("--out", default=None,
                           help="output file or directory (default: stdout)")
            p.add_argument("--format", choices=("csv", "json"),
                           default="json")

    p = sub.add_parser("validate", help="check a target against the flux bound")
    common(p, target=True, horizon=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("synth", help="synthesize a coin or jump schedule")
    common(p, target=True, horizon=True)
    p.add_argument("--walk", choices=("qw", "rw"), default=None)
    p.add_argument("--out", default=None, help="schedule JSON path")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("evolve", help="forward-evolve a schedule exactly")
    common(p, horizon=True, out_field=True)
    p.add_argument("--walk", choices=("qw", "rw"), default=None,
                   help="must match the schedule kind if given")
    p.add_argument("--schedule", default=None)
    p.add_argument("--init", default=None,
                   help="initial chirality amplitudes a,b (qw; default 1,0)")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("mc", help="Monte Carlo random-walk trajectories")
    common(p, horizon=True)
    p.add_argument("--schedule", default=None)
    p.add_argument("-N", "--trajectories", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None,
                   help="CSV file, or a directory for mc.csv "
                        "(default: stdout)")
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("hadamard", help="homogeneous complex walk distribution")
    common(p, horizon=True, out_field=True)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--eta", type=float, default=0.0)
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--chi", type=float, default=0.0)
    route = p.add_mutually_exclusive_group()
    route.add_argument("--closed-form", dest="route", action="store_const",
                       const="closed-form")
    route.add_argument("--recursion", dest="route", action="store_const",
                       const="recursion")
    route.add_argument("--asymptotic", dest="route", action="store_const",
                       const="asymptotic")
    p.set_defaults(route="recursion", func=cmd_hadamard)

    p = sub.add_parser("roundtrip",
                       help="synthesize, evolve, and compare against the target")
    common(p, target=True, horizon=True)
    p.add_argument("--walk", choices=("qw", "rw"), default=None)
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("figure",
                       help="emit exact-vs-sampled comparison data series")
    common(p)
    p.add_argument("--which", choices=("fig1", "fig2"), default=None)
    p.add_argument("-N", "--trajectories", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-T", "--horizon", type=int, default=30)
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=cmd_figure)

    return parser


def _load_config(path: str) -> dict[str, str]:
    with io._reading(path):
        text = Path(path).read_text(encoding="utf-8")
    pairs = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise WalkError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        pairs[key.strip().replace("-", "_")] = value.strip()
    return pairs


def _parse_args(parser, argv):
    """Parse ``argv``; with ``--config``, parse it again with the file's
    values as the subcommand's defaults, so argparse converts them with each
    flag's type and explicit flags win."""
    args = parser.parse_args(argv)
    if not getattr(args, "config", None):
        return args
    config = _load_config(args.config)
    subparser = next(a for a in parser._actions if isinstance(
        a, argparse._SubParsersAction)).choices[args.command]
    unknown = set(config) - {a.dest for a in subparser._actions}
    if unknown:
        raise WalkError(f"unknown config keys: {sorted(unknown)}")
    subparser.set_defaults(**config)
    args = parser.parse_args(argv)
    # Argparse checks the values of explicit flags only: a flag's choices,
    # or the consts of the flags that store into its dest.
    consts = [a for a in subparser._actions
              if isinstance(a, argparse._StoreConstAction)]
    for action in subparser._actions:
        values = action.choices or tuple(
            a.const for a in consts if a.dest == action.dest)
        if values and action.dest in config and \
                getattr(args, action.dest) not in values:
            raise WalkError(f"config value {action.dest}="
                            f"{config[action.dest]!r} not in {values}")
    return args


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = _parse_args(parser, argv)
        return args.func(args)
    except (WalkError, OSError, MemoryError) as exc:
        json.dump({"error": str(exc) or type(exc).__name__}, sys.stderr)
        sys.stderr.write("\n")
        return EXIT_INPUT


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
