"""Command-line laboratory driver.

Subcommands run one experiment each and write gnuplot-ready data files plus
a short summary.  Exit status reports the outcome: 0 when every numeric
check passed, 1 when a check failed, 2 on a usage problem.

Output location: ``--out`` flag, else the ``PETALLAB_OUT`` environment
variable, else ``./out``.  A configuration file of ``key = value`` lines
can stand in for flags; explicit flags always win.  All experiments are
deterministic: randomized ones draw from ``random.Random`` seeded with
20260817 unless ``--seed`` overrides it.  The module, like the whole
package, runs on the standard library alone.
"""

from __future__ import annotations

import argparse
import cmath
import math
import os
import sys
from typing import Callable, Dict, List, Optional, Sequence

from .bounds import (
    BoundaryProfile,
    bound_ratio_series,
    gaussian_profile,
    logrecip_profile,
    profile_from_file,
)
from .hmeasure import ROUNDING_FLOOR, Arc, approach_angle
from .hypcore import DomainError
from .models import KoenigsModel, MODEL_NAMES, Petal, by_name
from .semigroup import flow
from .speeds import dyadic_grid, forward_speed, linear_fit, slope_estimate, speed_series
from .verify import (
    APPROACH_ANGLE_WINDOW,
    DEFAULT_SEED,
    GAUSSIAN_RATIO_WINDOW,
    RATE_TOL,
    rate_threshold,
    run_all,
)

__all__ = ["main"]


class UsageError(Exception):
    """Bad flags, config, or inputs; maps to exit status 2."""


_CONFIG_KEYS: Dict[str, Callable[[str], object]] = {
    "model": str,
    "petal": int,
    "base_re": float,
    "base_im": float,
    "kmin": int,
    "kmax": int,
    "grid": str,
    "profile": str,
    "out": str,
    "seed": int,
    "tol": float,
}


def _load_config(path: str) -> Dict[str, object]:
    values: Dict[str, object] = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _CONFIG_KEYS:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _CONFIG_KEYS[key](value.strip())
        except ValueError as exc:
            raise UsageError(f"{path}:{lineno}: {exc}") from exc
    return values


def _merge_config(args: argparse.Namespace) -> None:
    # Flags beat config-file values; config beats built-in defaults.
    if not getattr(args, "config", None):
        return
    config = _load_config(args.config)
    for key, value in config.items():
        if getattr(args, key, None) is None:
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


def _resolve_backward_grid(
    args: argparse.Namespace, default_kmin: int, default_kmax: int
) -> List[float]:
    if args.grid is not None:
        return _parse_grid(args.grid)
    kmin = default_kmin if args.kmin is None else args.kmin
    kmax = default_kmax if args.kmax is None else args.kmax
    if kmin > kmax:
        raise UsageError(f"kmin {kmin} exceeds kmax {kmax}")
    return dyadic_grid(kmin, kmax)


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
    tol = RATE_TOL if args.tol is None else args.tol
    series = speed_series(model, petal, base, grid)
    slope, r2 = slope_estimate(series, mode="linear_in_t", component="v")
    # Parabolic speeds are sub-linear: the slope target is zero.
    target = 0.5 * petal.lam if petal.kind == "hyperbolic" else 0.0
    threshold = rate_threshold(target, tol)
    passed = abs(slope - target) <= threshold
    out = _out_dir(args)
    tag = f"{model.name}_p{model.petals.index(petal)}"
    data_path = os.path.join(out, f"asymptote_{tag}.csv")
    _write_text(data_path, series.to_csv())
    summary_path = os.path.join(out, f"asymptote_{tag}_summary.txt")
    summary = (
        f"model = {model.name}\n"
        f"petal = {petal.label}\n"
        f"component = v\n"
        f"slope = {_num(slope)}\n"
        f"r2 = {_num(r2)}\n"
        f"target = {_num(target)}\n"
        f"threshold = {_num(threshold)}\n"
        f"status = {'pass' if passed else 'fail'}\n"
    )
    _write_text(summary_path, summary)
    print(f"wrote {data_path} and {summary_path}")
    print(
        f"{'PASS' if passed else 'FAIL'} asymptote {model.name}/{petal.label}: "
        f"slope {slope:.6f}, target {target:.6f}, r2 {r2:.6f}"
    )
    return 0 if passed else 1


def _cmd_forward(args: argparse.Namespace) -> int:
    model = _resolve_model(args)
    petal = _resolve_petal(model, args)
    base = _resolve_base(petal, args)
    kmin = 4 if args.kmin is None else args.kmin
    kmax = 16 if args.kmax is None else args.kmax
    if kmin > kmax:
        raise UsageError(f"kmin {kmin} exceeds kmax {kmax}")
    if kmax - kmin < 2:
        # The slope is fitted to the grid's tail half: at least two points.
        raise UsageError(f"forward needs kmax - kmin >= 2, got kmin {kmin}, kmax {kmax}")
    ts = [2.0**k for k in range(kmin, kmax + 1)]
    vs = [forward_speed(model, base, t) for t in ts]
    tol = RATE_TOL if args.tol is None else args.tol
    # Parabolic drift is sub-linear and elliptic orbits stay bounded.
    target = 0.5 * model.mu if model.kind == "hyperbolic" else 0.0
    threshold = rate_threshold(target, tol)
    tail = len(ts) // 2
    slope, _ = linear_fit(ts[tail:], vs[tail:])
    passed = abs(slope - target) <= threshold
    out = _out_dir(args)
    path = os.path.join(out, f"forward_{model.name}.csv")
    rows = ["t,v"] + [f"{_num(t)},{_num(v)}" for t, v in zip(ts, vs)]
    _write_text(path, "\n".join(rows) + "\n")
    print(f"wrote {path} ({len(ts)} rows)")
    print(
        f"{'PASS' if passed else 'FAIL'} forward {model.name}: "
        f"slope {slope:.6f}, target {target:.6f}"
    )
    return 0 if passed else 1


def _cmd_hmeasure(args: argparse.Namespace) -> int:
    model = _resolve_model(args)
    petal = _resolve_petal(model, args)
    base = _resolve_base(petal, args)
    kmax = 18 if args.kmax is None else args.kmax
    sigma_bp = model.disk_sigma(petal)
    if sigma_bp.is_infinity:
        raise UsageError(
            f"petal {petal.label} of {model.name} has no finite disk endpoint"
        )
    sigma = sigma_bp.value
    times: List[float] = []
    points: List[complex] = []
    stop = f"kmax {kmax} reached"
    for k in range(1, kmax + 1):
        point = flow(model, base, float(-k))
        if point.disk_z is None:
            stop = f"disk chart lost at t = {-k}"
            break
        times.append(float(-k))
        points.append(point.disk_z)
    arc = Arc(cmath.phase(sigma), cmath.phase(sigma) + math.pi / 2)
    report = approach_angle(points, sigma, arc)
    if report.used < 5:
        raise UsageError(
            "backward orbit leaves the disk chart too quickly; "
            "need at least 5 points"
        )
    if report.used < len(points):
        stop = f"disk_z within {ROUNDING_FLOOR:.3g} of sigma at t = {times[report.used]:g}"
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
    lo, hi = APPROACH_ANGLE_WINDOW
    passed = lo < report.theta < hi
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
        try:
            return profile_from_file(name)
        except DomainError as exc:
            raise UsageError(str(exc)) from exc
    raise UsageError(
        f"unknown profile {name!r}; use logrecip, gaussian, or a table file"
    )


def _cmd_bounds(args: argparse.Namespace) -> int:
    profile = _resolve_profile(args)
    if args.grid is not None:
        grid = _parse_grid(args.grid)
    else:
        grid = [-(10.0**k) for k in range(2, 7)]
    try:
        series = bound_ratio_series(profile, grid)
    except DomainError as exc:
        raise UsageError(str(exc)) from exc
    out = _out_dir(args)
    path = os.path.join(out, f"bounds_{profile.name}.dat")
    lines = ["# t  bound_over_t_squared"]
    lines += [f"{_num(t)} {_num(r)}" for t, r in series]
    _write_text(path, "\n".join(lines) + "\n")
    ratios = [r for _, r in series]
    if profile.name == "gaussian":
        lo, hi = GAUSSIAN_RATIO_WINDOW
        passed = all(lo <= r <= hi for r in ratios)
        rule = f"every ratio in [{lo}, {hi}]"
    else:
        passed = all(a > b for a, b in zip(ratios, ratios[1:]))
        rule = "ratios strictly decreasing"
    print(f"wrote {path} ({len(series)} rows)")
    print(
        f"{'PASS' if passed else 'FAIL'} bounds {profile.name}: {rule}; "
        f"ratios {', '.join(f'{r:.6g}' for r in ratios)}"
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


_COMMANDS = {
    "speeds": _cmd_speeds,
    "asymptote": _cmd_asymptote,
    "forward": _cmd_forward,
    "hmeasure": _cmd_hmeasure,
    "bounds": _cmd_bounds,
    "verify": _cmd_verify,
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

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--model", help=f"model name: {', '.join(MODEL_NAMES)}")
        p.add_argument("--petal", type=int, help="petal index (default 0)")
        p.add_argument("--base-re", type=float, dest="base_re",
                       help="real part of the base point (domain coordinates)")
        p.add_argument("--base-im", type=float, dest="base_im",
                       help="imaginary part of the base point")
        p.add_argument("--kmin", type=int, help="smallest dyadic exponent")
        p.add_argument("--kmax", type=int, help="largest dyadic exponent")
        p.add_argument("--grid", help="explicit comma-separated times "
                                      "(overrides kmin/kmax); write "
                                      "--grid=-1e3,-1e4 so the leading "
                                      "minus is not read as a flag")
        p.add_argument("--profile", help="boundary profile: logrecip, gaussian, "
                                         "or a two-column table file")
        p.add_argument("--out", help="output directory (default $PETALLAB_OUT "
                                     "or ./out)")
        p.add_argument("--seed", type=int,
                       help=f"seed for randomized checks (default {DEFAULT_SEED})")
        p.add_argument("--tol", type=float,
                       help=f"pass tolerance for rate checks (default {RATE_TOL})")
        p.add_argument("--config", help="key = value file supplying defaults "
                                        "for any flag; flags win")
        return p

    add("speeds", "tabulate total/orthogonal/tangential backward speeds")
    add("asymptote", "fit the backward speed slope and compare to the "
                     "spectral target")
    add("forward", "tabulate forward-orbit speeds and fit their rate")
    add("hmeasure", "harmonic-measure approach angle along a backward orbit")
    add("bounds", "distance-bound ratio series for a boundary profile")
    add("verify", "run the full verification suite")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        _merge_config(args)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
