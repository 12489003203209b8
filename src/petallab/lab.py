"""Command-line laboratory driver.

Subcommands run one experiment each and write gnuplot-ready data files plus
a short summary.  Exit status reports the outcome: 0 when every numeric
check passed, 1 when a check failed or could not decide, 2 on a usage
problem, including inputs a measurement cannot take (``DomainError``,
``EstimationError``), such as a grid too short to fit a slope to, and
unreadable input files.
This module holds no measurement rule.  A subcommand only resolves its
point (one resolver), writes files (one writer, one number format, one
``key = value`` summary formatter) and prints PASS or FAIL (one verdict
printer): the criterion it reports, and any reason it is inconclusive, come
from ``verify`` (``backward_rate``, ``forward_rate``, ``orbit_angle``,
``bound_ratios``), as in ``run_all``; the ``bounds`` and ``hmeasure``
subcommands also take their default inputs from there (``BOUND_GRID``,
``ORBIT_KMAX``), as the rate fits do their exponents (``RATE_KMIN``,
``RATE_KMAX``).

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
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .bounds import BoundaryProfile, gaussian_profile, logrecip_profile, profile_from_file
from .hypcore import DomainError
from .models import KoenigsModel, MODEL_NAMES, Petal, by_name
from .speeds import EstimationError, SpeedSeries, dyadic_grid, speed_series
from .verify import (
    BOUND_GRID,
    DEFAULT_SEED,
    ORBIT_KMAX,
    RATE_KMAX,
    RATE_KMIN,
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
    except (OSError, UnicodeError) as exc:
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


def _write(args: argparse.Namespace, name: str, rows: Iterable[str]) -> str:
    out = args.out or os.environ.get("PETALLAB_OUT") or "out"
    path = os.path.join(out, name)
    try:
        os.makedirs(out, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.writelines(f"{row}\n" for row in rows)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc
    return path


def _verdict(passed: bool, text: str) -> int:
    print(f"{'PASS' if passed else 'FAIL'} {text}")
    return 0 if passed else 1


def _summarize(
    args: argparse.Namespace, model: KoenigsModel, petal: Petal, tag: str, data_path: str,
    fields: Sequence[Tuple[str, object]], passed: bool, verdict: str,
) -> int:
    """Write the model, the petal and ``fields`` as the ``key = value`` lines
    of ``<command>_<tag>_summary.txt``; print both paths, then the verdict."""
    rows = [("model", model.name), ("petal", petal.label), *fields]
    path = _write(args, f"{args.command}_{tag}_summary.txt", [f"{k} = {v}" for k, v in rows])
    print(f"wrote {data_path} and {path}")
    return _verdict(passed, f"{args.command} {model.name}/{petal.label}: {verdict}")


def _resolve_point(args: argparse.Namespace) -> Tuple[KoenigsModel, Petal, complex, str]:
    """The model, petal and base point the flags name (by default petal 0
    and its default base), and the ``<model>_p<index>`` tag of its files."""
    if args.model is None:
        raise UsageError(
            f"--model is required (one of {', '.join(MODEL_NAMES)})"
        )
    try:
        model = by_name(args.model)
    except KeyError as exc:
        raise UsageError(str(exc.args[0])) from exc
    index = 0 if args.petal is None else args.petal
    if not 0 <= index < len(model.petals):
        raise UsageError(
            f"model {model.name} has petal indices 0..{len(model.petals) - 1}, "
            f"got {index}"
        )
    petal = model.petals[index]
    default = petal.base_default
    base = complex(
        default.real if args.base_re is None else args.base_re,
        default.imag if args.base_im is None else args.base_im,
    )
    return model, petal, base, f"{model.name}_p{index}"


def _parse_grid(text: str) -> List[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise UsageError(f"bad --grid value: {exc}") from exc
    if not values:
        raise UsageError("--grid must list at least one time")
    return values


def _resolve_exponents(args: argparse.Namespace, default_kmin: int) -> Tuple[int, int]:
    # --kmax defaults to verify's RATE_KMAX for every subcommand that reads
    # it but hmeasure, which takes ORBIT_KMAX.
    kmin = default_kmin if args.kmin is None else args.kmin
    kmax = RATE_KMAX if args.kmax is None else args.kmax
    return kmin, kmax


def _resolve_backward_grid(args: argparse.Namespace, default_kmin: int) -> List[float]:
    if args.grid is not None:
        return _parse_grid(args.grid)
    return dyadic_grid(*_resolve_exponents(args, default_kmin))


def _num(x: float) -> str:
    return format(float(x), ".17g")


def _speed_rows(series: SpeedSeries) -> List[str]:
    return ["t,v,v_o,v_T"] + [
        ",".join(_num(x) for x in (s.t, s.v, s.v_o, s.v_T)) for s in series.samples
    ]


def _cmd_speeds(args: argparse.Namespace) -> int:
    model, petal, base, tag = _resolve_point(args)
    grid = _resolve_backward_grid(args, 0)
    series = speed_series(model, petal, base, grid)
    path = _write(args, f"speeds_{tag}.csv", _speed_rows(series))
    print(f"wrote {path} ({len(series.samples)} rows)")
    return 0


def _cmd_asymptote(args: argparse.Namespace) -> int:
    model, petal, base, tag = _resolve_point(args)
    grid = _resolve_backward_grid(args, RATE_KMIN)
    series, r2, rate = backward_rate(model, petal, base, grid, tol=args.tol)
    data_path = _write(args, f"asymptote_{tag}.csv", _speed_rows(series))
    fields = [
        ("component", "v"), ("slope", _num(rate.slope)), ("r2", _num(r2)),
        ("target", _num(rate.target)), ("threshold", _num(rate.threshold)),
        ("status", "pass" if rate.passed else "fail"),
    ]
    return _summarize(args, model, petal, tag, data_path, fields, rate.passed,
                      f"slope {rate.slope:.6f}, target {rate.target:.6f}, r2 {r2:.6f}")


def _cmd_forward(args: argparse.Namespace) -> int:
    model, _, base, _ = _resolve_point(args)
    ts, vs, rate = forward_rate(model, base, *_resolve_exponents(args, RATE_KMIN), args.tol)
    rows = ["t,v"] + [f"{_num(t)},{_num(v)}" for t, v in zip(ts, vs)]
    path = _write(args, f"forward_{model.name}.csv", rows)
    print(f"wrote {path} ({len(ts)} rows)")
    return _verdict(
        rate.passed,
        f"forward {model.name}: slope {rate.slope:.6f}, target {rate.target:.6f}",
    )


def _cmd_hmeasure(args: argparse.Namespace) -> int:
    model, petal, base, tag = _resolve_point(args)
    kmax = ORBIT_KMAX if args.kmax is None else args.kmax
    times, report, stop, passed = orbit_angle(model, petal, base, kmax)
    rows = ["# t  harmonic_measure"]
    rows += [f"{_num(t)} {_num(m)}" for t, m in zip(times, report.measures)]
    data_path = _write(args, f"hmeasure_{tag}.dat", rows)
    fields = [("points", report.used), ("orbit_stop", stop)]
    if report.inconclusive:
        fields += [("status", "inconclusive"), ("reason", report.reason)]
        verdict = "inconclusive"
    else:
        fields += [
            ("theta", _num(report.theta)), ("theta_over_pi", _num(report.theta / math.pi)),
            ("tangential", report.tangential), ("status", "pass" if passed else "fail"),
        ]
        verdict = f"theta/pi = {report.theta / math.pi:.4f}"
    return _summarize(args, model, petal, tag, data_path, fields, passed, verdict)


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
        except (OSError, UnicodeError) as exc:
            raise UsageError(f"cannot read profile file {name}: {exc}") from exc
    raise UsageError(
        f"unknown profile {name!r}; use logrecip, gaussian, or a table file"
    )


def _cmd_bounds(args: argparse.Namespace) -> int:
    profile = _resolve_profile(args)
    grid = BOUND_GRID if args.grid is None else _parse_grid(args.grid)
    series, rule, passed = bound_ratios(profile, grid)
    rows = ["# t  bound_over_t_squared"] + [f"{_num(t)} {_num(r)}" for t, r in series]
    path = _write(args, f"bounds_{profile.name}.dat", rows)
    print(f"wrote {path} ({len(series)} rows)")
    return _verdict(
        passed,
        f"bounds {profile.name}: {rule}; ratios {', '.join(f'{r:.6g}' for _, r in series)}",
    )


def _cmd_verify(args: argparse.Namespace) -> int:
    seed = DEFAULT_SEED if args.seed is None else args.seed
    results = run_all(seed=seed)
    lines = [f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}" for r in results]
    for line in lines:
        print(line)
    print(f"wrote {_write(args, 'verify_report.txt', lines)}")
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
    except (UsageError, DomainError, EstimationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
