"""Command-line laboratory driver.

Subcommands run one experiment each and write gnuplot-ready data files plus
a short summary.  Exit status reports the outcome: 0 when every numeric
check passed, 1 when a check failed, 2 on a usage problem.  A subcommand
only resolves its inputs, writes files and prints: the criterion it reports
is measured and judged by ``verify`` (``backward_rate``, ``forward_rate``,
``orbit_angle``, ``bound_ratios``), the same function ``run_all`` uses.

Each flag is declared once, in ``_FLAGS``, and each subcommand takes only
the flags it reads (``_COMMANDS``); any other flag is a usage error.
A configuration file of ``key = value`` lines can stand in for those
flags; explicit flags always win.  Output location: ``--out`` flag, else
the ``PETALLAB_OUT`` environment variable, else ``./out``.  All experiments
are deterministic: randomized ones draw from ``random.Random`` seeded with
20260817 unless ``--seed`` overrides it.  The module, like the whole
package, runs on the standard library alone.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .bounds import BoundaryProfile, gaussian_profile, logrecip_profile, profile_from_file
from .hmeasure import _MIN_POINTS, ROUNDING_FLOOR
from .hypcore import DomainError
from .models import KoenigsModel, MODEL_NAMES, Petal, by_name
from .speeds import dyadic_grid, speed_series
from .verify import (
    DEFAULT_SEED,
    backward_rate,
    bound_ratios,
    forward_rate,
    orbit_angle,
    run_all,
)

__all__ = ["main"]


class UsageError(Exception):
    """Bad flags, config, or inputs; maps to exit status 2."""


# Every flag but --config, once: its type and help.  The subcommand parsers
# and the --config reader are both built from this table; a config key is
# the flag's name with "_" or "-".
_FLAGS: Dict[str, Tuple[Callable[[str], object], str]] = {
    "model": (str, f"model name: {', '.join(MODEL_NAMES)}"),
    "petal": (int, "petal index (default 0)"),
    "base_re": (float, "real part of the base point (domain coordinates)"),
    "base_im": (float, "imaginary part of the base point"),
    "kmin": (int, "smallest dyadic exponent"),
    "kmax": (int, "largest dyadic exponent"),
    "grid": (str, "explicit comma-separated times (overrides kmin/kmax); write "
                  "--grid=-1e3,-1e4 so the leading minus is not read as a flag"),
    "profile": (str, "boundary profile: logrecip, gaussian, or a two-column table file"),
    "out": (str, "output directory (default $PETALLAB_OUT or ./out)"),
    "seed": (int, f"seed for randomized checks (default {DEFAULT_SEED})"),
    "tol": (float, "pass tolerance for rate checks (default petallab.verify.RATE_TOL)"),
}


def _merge_config(args: argparse.Namespace) -> None:
    # Flags beat config-file values; config beats built-in defaults.
    path = args.config
    if not path:
        return
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    values: Dict[str, object] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _FLAGS:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        if key not in _COMMANDS[args.command][2]:
            raise UsageError(f"{path}:{lineno}: {args.command} takes no key {key!r}")
        try:
            values[key] = _FLAGS[key][0](value.strip())
        except ValueError as exc:
            raise UsageError(f"{path}:{lineno}: {exc}") from exc
    for key, value in values.items():
        if getattr(args, key) is None:
            setattr(args, key, value)


def _out_dir(args: argparse.Namespace) -> str:
    out = args.out or os.environ.get("PETALLAB_OUT") or "out"
    os.makedirs(out, exist_ok=True)
    return out


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def _resolve_model(args: argparse.Namespace) -> KoenigsModel:
    if args.model is None:
        raise UsageError(
            f"--model is required (one of {', '.join(MODEL_NAMES)})"
        )
    try:
        return by_name(args.model)
    except KeyError as exc:
        raise UsageError(str(exc.args[0])) from exc


def _resolve_petal(model: KoenigsModel, args: argparse.Namespace) -> Petal:
    index = 0 if args.petal is None else args.petal
    if not 0 <= index < len(model.petals):
        raise UsageError(
            f"model {model.name} has petal indices 0..{len(model.petals) - 1}, "
            f"got {index}"
        )
    return model.petals[index]


def _resolve_base(petal: Petal, args: argparse.Namespace) -> complex:
    if args.base_re is None and args.base_im is None:
        return petal.base_default
    base = complex(
        args.base_re if args.base_re is not None else petal.base_default.real,
        args.base_im if args.base_im is not None else petal.base_default.imag,
    )
    return base


def _parse_grid(text: str) -> List[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise UsageError(f"bad --grid value: {exc}") from exc
    if not values:
        raise UsageError("--grid must list at least one time")
    return values


def _resolve_exponents(
    args: argparse.Namespace, default_kmin: int, default_kmax: int
) -> Tuple[int, int]:
    kmin = default_kmin if args.kmin is None else args.kmin
    kmax = default_kmax if args.kmax is None else args.kmax
    if kmin > kmax:
        raise UsageError(f"kmin {kmin} exceeds kmax {kmax}")
    return kmin, kmax


def _resolve_backward_grid(
    args: argparse.Namespace, default_kmin: int, default_kmax: int
) -> List[float]:
    if args.grid is not None:
        return _parse_grid(args.grid)
    return dyadic_grid(*_resolve_exponents(args, default_kmin, default_kmax))


def _num(x: float) -> str:
    return format(float(x), ".17g")


def _cmd_speeds(args: argparse.Namespace) -> int:
    model = _resolve_model(args)
    petal = _resolve_petal(model, args)
    base = _resolve_base(petal, args)
    grid = _resolve_backward_grid(args, 0, 16)
    series = speed_series(model, petal, base, grid)
    out = _out_dir(args)
    path = os.path.join(out, f"speeds_{model.name}_p{model.petals.index(petal)}.csv")
    _write_text(path, series.to_csv())
    print(f"wrote {path} ({len(series.samples)} rows)")
    return 0


def _cmd_asymptote(args: argparse.Namespace) -> int:
    model = _resolve_model(args)
    petal = _resolve_petal(model, args)
    base = _resolve_base(petal, args)
    grid = _resolve_backward_grid(args, 4, 16)
    series, r2, rate = backward_rate(model, petal, base, grid, tol=args.tol)
    out = _out_dir(args)
    tag = f"{model.name}_p{model.petals.index(petal)}"
    data_path = os.path.join(out, f"asymptote_{tag}.csv")
    _write_text(data_path, series.to_csv())
    summary_path = os.path.join(out, f"asymptote_{tag}_summary.txt")
    summary = (
        f"model = {model.name}\n"
        f"petal = {petal.label}\n"
        f"component = v\n"
        f"slope = {_num(rate.slope)}\n"
        f"r2 = {_num(r2)}\n"
        f"target = {_num(rate.target)}\n"
        f"threshold = {_num(rate.threshold)}\n"
        f"status = {'pass' if rate.passed else 'fail'}\n"
    )
    _write_text(summary_path, summary)
    print(f"wrote {data_path} and {summary_path}")
    print(
        f"{'PASS' if rate.passed else 'FAIL'} asymptote {model.name}/{petal.label}: "
        f"slope {rate.slope:.6f}, target {rate.target:.6f}, r2 {r2:.6f}"
    )
    return 0 if rate.passed else 1


def _cmd_forward(args: argparse.Namespace) -> int:
    model = _resolve_model(args)
    petal = _resolve_petal(model, args)
    base = _resolve_base(petal, args)
    kmin, kmax = _resolve_exponents(args, 4, 16)
    ts, vs, rate = forward_rate(model, base, kmin, kmax, args.tol)
    out = _out_dir(args)
    path = os.path.join(out, f"forward_{model.name}.csv")
    rows = ["t,v"] + [f"{_num(t)},{_num(v)}" for t, v in zip(ts, vs)]
    _write_text(path, "\n".join(rows) + "\n")
    print(f"wrote {path} ({len(ts)} rows)")
    print(
        f"{'PASS' if rate.passed else 'FAIL'} forward {model.name}: "
        f"slope {rate.slope:.6f}, target {rate.target:.6f}"
    )
    return 0 if rate.passed else 1


def _cmd_hmeasure(args: argparse.Namespace) -> int:
    model = _resolve_model(args)
    petal = _resolve_petal(model, args)
    base = _resolve_base(petal, args)
    kmax = 18 if args.kmax is None else args.kmax
    times, report, passed = orbit_angle(model, petal, base, kmax)
    if report.used < _MIN_POINTS:
        raise UsageError(
            "backward orbit leaves the disk chart too quickly; "
            f"need at least {_MIN_POINTS} points"
        )
    if report.used < len(times):
        stop = f"disk_z within {ROUNDING_FLOOR:.3g} of sigma at t = {times[report.used]:g}"
    elif len(times) < kmax:
        stop = f"disk chart lost at t = {-(len(times) + 1)}"
    else:
        stop = f"kmax {kmax} reached"
    out = _out_dir(args)
    tag = f"{model.name}_p{model.petals.index(petal)}"
    data_path = os.path.join(out, f"hmeasure_{tag}.dat")
    lines = ["# t  harmonic_measure"]
    lines += [f"{_num(t)} {_num(m)}" for t, m in zip(times, report.measures)]
    _write_text(data_path, "\n".join(lines) + "\n")
    summary_path = os.path.join(out, f"hmeasure_{tag}_summary.txt")
    orbit = f"points = {report.used}\norbit_stop = {stop}\n"
    if report.inconclusive:
        summary = (
            f"model = {model.name}\npetal = {petal.label}\n{orbit}"
            f"status = inconclusive\nreason = {report.reason}\n"
        )
        _write_text(summary_path, summary)
        print(f"wrote {data_path} and {summary_path}")
        print(f"FAIL hmeasure {model.name}/{petal.label}: inconclusive")
        return 1
    summary = (
        f"model = {model.name}\npetal = {petal.label}\n{orbit}"
        f"theta = {_num(report.theta)}\n"
        f"theta_over_pi = {_num(report.theta / math.pi)}\n"
        f"tangential = {report.tangential}\n"
        f"status = {'pass' if passed else 'fail'}\n"
    )
    _write_text(summary_path, summary)
    print(f"wrote {data_path} and {summary_path}")
    print(
        f"{'PASS' if passed else 'FAIL'} hmeasure {model.name}/{petal.label}: "
        f"theta/pi = {report.theta / math.pi:.4f}"
    )
    return 0 if passed else 1


def _resolve_profile(args: argparse.Namespace) -> BoundaryProfile:
    name = args.profile
    if name is None:
        raise UsageError("--profile is required (logrecip, gaussian, or a file path)")
    if name == "logrecip":
        return logrecip_profile()
    if name == "gaussian":
        return gaussian_profile()
    if os.path.exists(name):
        return profile_from_file(name)
    raise UsageError(
        f"unknown profile {name!r}; use logrecip, gaussian, or a table file"
    )


def _cmd_bounds(args: argparse.Namespace) -> int:
    profile = _resolve_profile(args)
    if args.grid is not None:
        grid = _parse_grid(args.grid)
    else:
        grid = [-(10.0**k) for k in range(2, 7)]
    series, rule, passed = bound_ratios(profile, grid)
    out = _out_dir(args)
    path = os.path.join(out, f"bounds_{profile.name}.dat")
    lines = ["# t  bound_over_t_squared"]
    lines += [f"{_num(t)} {_num(r)}" for t, r in series]
    _write_text(path, "\n".join(lines) + "\n")
    print(f"wrote {path} ({len(series)} rows)")
    print(
        f"{'PASS' if passed else 'FAIL'} bounds {profile.name}: {rule}; "
        f"ratios {', '.join(f'{r:.6g}' for _, r in series)}"
    )
    return 0 if passed else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    seed = DEFAULT_SEED if args.seed is None else args.seed
    results = run_all(seed=seed)
    lines = []
    for result in results:
        line = f"{'PASS' if result.passed else 'FAIL'} {result.name}: {result.detail}"
        print(line)
        lines.append(line)
    out = _out_dir(args)
    path = os.path.join(out, "verify_report.txt")
    _write_text(path, "\n".join(lines) + "\n")
    print(f"wrote {path}")
    return 0 if all(r.passed for r in results) else 1


# Each subcommand: its function, its help, and the flags it reads.  It takes
# those flags and --config, and no other.
_POINT = ("model", "petal", "base_re", "base_im")
_COMMANDS: Dict[str, Tuple[Callable[[argparse.Namespace], int], str, Tuple[str, ...]]] = {
    "speeds": (_cmd_speeds, "tabulate total/orthogonal/tangential backward speeds",
               _POINT + ("kmin", "kmax", "grid", "out")),
    "asymptote": (_cmd_asymptote, "fit the backward speed slope and compare to the "
                                  "spectral target",
                  _POINT + ("kmin", "kmax", "grid", "tol", "out")),
    "forward": (_cmd_forward, "tabulate forward-orbit speeds and fit their rate",
                _POINT + ("kmin", "kmax", "tol", "out")),
    "hmeasure": (_cmd_hmeasure, "harmonic-measure approach angle along a backward orbit",
                 _POINT + ("kmax", "out")),
    "bounds": (_cmd_bounds, "distance-bound ratio series for a boundary profile",
               ("grid", "profile", "out")),
    "verify": (_cmd_verify, "run the full verification suite", ("out", "seed")),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="petallab",
        description=(
            "Numerical laboratory for holomorphic flows on the unit disk: "
            "backward-orbit speeds, asymptotic rates, boundary diagnostics, "
            "and distance bounds."
        ),
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    for command, (_, help_text, takes) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name, (kind, flag_help) in _FLAGS.items():
            if name in takes:
                p.add_argument("--" + name.replace("_", "-"), type=kind, help=flag_help)
        p.add_argument("--config", help="key = value file supplying defaults "
                                        "for any of these flags; flags win")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        _merge_config(args)
        return _COMMANDS[args.command][0](args)
    except (UsageError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
