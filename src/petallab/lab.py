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
Flags are read as ``--flag value`` or ``--flag=value`` and spelled in full;
``-h`` or ``--help`` prints help built from the same two tables.
A configuration file of ``key = value`` lines can stand in for those
flags; explicit flags always win.  A flag and a config line pass the one
key check and conversion (``_take``).  Output location: ``--out`` flag, else
the ``PETALLAB_OUT`` environment variable, else ``./out``.  All experiments
are deterministic: randomized ones draw from ``random.Random`` seeded with
20260817 unless ``--seed`` overrides it.  The module, like the whole
package, runs on the standard library alone.
"""

from __future__ import annotations

import math
import os
import sys
from types import SimpleNamespace
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


# Every flag but --config, once: its type and help.  The flag reader, the
# --config reader and the help all read this table; a flag or config key is
# its name with "_" or "-".
_FLAGS: Dict[str, Tuple[Callable[[str], object], str]] = {
    "model": (str, f"model name: {', '.join(MODEL_NAMES)}"),
    "petal": (int, "petal index (default 0)"),
    "base_re": (float, "real part of the base point (domain coordinates)"),
    "base_im": (float, "imaginary part of the base point"),
    "kmin": (int, "smallest dyadic exponent"),
    "kmax": (int, "largest dyadic exponent"),
    "grid": (str, "explicit comma-separated times, such as -1e3,-1e4 (overrides "
                  "kmin/kmax)"),
    "profile": (str, "boundary profile: logrecip, gaussian, or a two-column table file"),
    "out": (str, "output directory (default $PETALLAB_OUT or ./out)"),
    "seed": (int, f"seed for randomized checks (default {DEFAULT_SEED})"),
    "tol": (float, "pass tolerance for rate checks (default petallab.verify.RATE_TOL)"),
}


def _take(command: str, key: str, text: str, name: str) -> object:
    """``text`` converted by ``key``'s type, once ``key`` is found to be one
    ``command`` takes: the one key check and conversion of flags and config
    lines alike.  ``name`` shows the key in a refusal.  A failed conversion
    raises its ``ValueError``, which the caller prefixes with the flag or
    with the config file and line."""
    if key not in _FLAGS:
        raise UsageError(f"unknown {name}")
    if key not in _COMMANDS[command][2]:
        raise UsageError(f"{command} takes no {name}")
    return _FLAGS[key][0](text)


def _parse_argv(argv: Sequence[str]) -> Tuple[str, SimpleNamespace]:
    """The command ``argv`` names and a namespace of its flags: one
    attribute per ``_FLAGS`` key, and ``config``, each None unless given.

    After the command come ``--name value`` or ``--name=value`` pairs; the
    token after ``--name`` is its value even when it starts with a minus,
    and a repeated flag keeps its last value.  ``-h`` or ``--help`` raises
    ``_Help``; anything else that does not read raises ``UsageError``.
    """
    if argv[0] in _HELP_FLAGS:
        raise _Help(_help(None))
    command = argv[0]
    if command not in _COMMANDS:
        raise UsageError(f"unknown command {command!r} (one of {', '.join(_COMMANDS)})")
    args = SimpleNamespace(config=None, **dict.fromkeys(_FLAGS))
    tokens = iter(argv[1:])
    for token in tokens:
        if token in _HELP_FLAGS:
            raise _Help(_help(command))
        if not token.startswith("--"):
            raise UsageError(f"unexpected argument {token!r}")
        flag, eq, text = token.partition("=")
        if not eq:
            text = next(tokens, None)
            if text is None:
                raise UsageError(f"{flag} needs a value")
        key = flag[2:].replace("-", "_")
        if key == "config":
            args.config = text
            continue
        try:
            setattr(args, key, _take(command, key, text, f"flag {flag}"))
        except ValueError as exc:
            raise UsageError(f"{flag}: {exc}") from exc
    return command, args


def _merge_config(command: str, args: SimpleNamespace) -> None:
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
        try:
            values[key] = _take(command, key, value.strip(), f"key {key!r}")
        except (UsageError, ValueError) as exc:
            raise UsageError(f"{path}:{lineno}: {exc}") from exc
    for key, value in values.items():
        if getattr(args, key) is None:
            setattr(args, key, value)


def _write(args: SimpleNamespace, name: str, rows: Iterable[str]) -> str:
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
    args: SimpleNamespace, command: str, model: KoenigsModel, petal: Petal, tag: str,
    data_path: str, fields: Sequence[Tuple[str, object]], passed: bool, verdict: str,
) -> int:
    """Write the model, the petal and ``fields`` as the ``key = value`` lines
    of ``<command>_<tag>_summary.txt``; print both paths, then the verdict."""
    rows = [("model", model.name), ("petal", petal.label), *fields]
    path = _write(args, f"{command}_{tag}_summary.txt", [f"{k} = {v}" for k, v in rows])
    print(f"wrote {data_path} and {path}")
    return _verdict(passed, f"{command} {model.name}/{petal.label}: {verdict}")


def _resolve_point(args: SimpleNamespace) -> Tuple[KoenigsModel, Petal, complex, str]:
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


def _resolve_exponents(args: SimpleNamespace, default_kmin: int) -> Tuple[int, int]:
    # --kmax defaults to verify's RATE_KMAX for every subcommand that reads
    # it but hmeasure, which takes ORBIT_KMAX.
    kmin = default_kmin if args.kmin is None else args.kmin
    kmax = RATE_KMAX if args.kmax is None else args.kmax
    return kmin, kmax


def _resolve_backward_grid(args: SimpleNamespace, default_kmin: int) -> List[float]:
    if args.grid is not None:
        return _parse_grid(args.grid)
    return dyadic_grid(*_resolve_exponents(args, default_kmin))


def _num(x: float) -> str:
    return format(float(x), ".17g")


def _speed_rows(series: SpeedSeries) -> List[str]:
    return ["t,v,v_o,v_T"] + [
        ",".join(_num(x) for x in (s.t, s.v, s.v_o, s.v_T)) for s in series.samples
    ]


def _cmd_speeds(args: SimpleNamespace) -> int:
    model, petal, base, tag = _resolve_point(args)
    grid = _resolve_backward_grid(args, 0)
    series = speed_series(model, petal, base, grid)
    path = _write(args, f"speeds_{tag}.csv", _speed_rows(series))
    print(f"wrote {path} ({len(series.samples)} rows)")
    return 0


def _cmd_asymptote(args: SimpleNamespace) -> int:
    model, petal, base, tag = _resolve_point(args)
    grid = _resolve_backward_grid(args, RATE_KMIN)
    series, r2, rate = backward_rate(model, petal, base, grid, tol=args.tol)
    data_path = _write(args, f"asymptote_{tag}.csv", _speed_rows(series))
    fields = [
        ("component", "v"), ("slope", _num(rate.slope)), ("r2", _num(r2)),
        ("target", _num(rate.target)), ("threshold", _num(rate.threshold)),
        ("status", "pass" if rate.passed else "fail"),
    ]
    return _summarize(args, "asymptote", model, petal, tag, data_path, fields, rate.passed,
                      f"slope {rate.slope:.6f}, target {rate.target:.6f}, r2 {r2:.6f}")


def _cmd_forward(args: SimpleNamespace) -> int:
    model, _, base, _ = _resolve_point(args)
    ts, vs, rate = forward_rate(model, base, *_resolve_exponents(args, RATE_KMIN), args.tol)
    rows = ["t,v"] + [f"{_num(t)},{_num(v)}" for t, v in zip(ts, vs)]
    path = _write(args, f"forward_{model.name}.csv", rows)
    print(f"wrote {path} ({len(ts)} rows)")
    return _verdict(
        rate.passed,
        f"forward {model.name}: slope {rate.slope:.6f}, target {rate.target:.6f}",
    )


def _cmd_hmeasure(args: SimpleNamespace) -> int:
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
    return _summarize(args, "hmeasure", model, petal, tag, data_path, fields, passed, verdict)


def _resolve_profile(args: SimpleNamespace) -> BoundaryProfile:
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


def _cmd_bounds(args: SimpleNamespace) -> int:
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


def _cmd_verify(args: SimpleNamespace) -> int:
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
_COMMANDS: Dict[str, Tuple[Callable[[SimpleNamespace], int], str, Tuple[str, ...]]] = {
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


_HELP_FLAGS = ("-h", "--help")
_USAGE = f"usage: petallab {{{','.join(_COMMANDS)}}} [--flag value ...]"


class _Help(Exception):
    """``-h`` or ``--help`` was read; the exception's text is the help."""


def _help(command: Optional[str]) -> str:
    """The commands and their help, or one command's flags and theirs."""
    if command is None:
        head = [_USAGE, "", "Numerical laboratory for holomorphic flows on the unit disk: "
                "backward-orbit speeds, asymptotic rates, boundary diagnostics, and "
                "distance bounds.", "", "commands:"]
        rows = [(name, help_text) for name, (_, help_text, _) in _COMMANDS.items()]
        tail = ["", "petallab <command> --help lists the flags that command takes."]
    else:
        _, help_text, takes = _COMMANDS[command]
        head = [f"usage: petallab {command} [--flag value ...]", "", help_text, "",
                "flags, each as --flag value or --flag=value:"]
        rows = [("--" + name.replace("_", "-"), flag_help)
                for name, (_, flag_help) in _FLAGS.items() if name in takes]
        rows.append(("--config", "key = value file supplying defaults for any of "
                                 "these flags; flags win"))
        tail = []
    width = max(len(name) for name, _ in rows)
    return "\n".join(head + [f"  {name:<{width}}  {text}" for name, text in rows] + tail)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv:
        print(_USAGE, file=sys.stderr)
        return 2
    try:
        command, args = _parse_argv(argv)
        _merge_config(command, args)
        return _COMMANDS[command][0](args)
    except _Help as text:
        print(text)
        return 0
    except (UsageError, DomainError, EstimationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
