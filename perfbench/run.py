"""petallab benchmark harness.

Run from the root of a petallab checkout:

    python3 perfbench/run.py --workload deep_orbits --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs the operations in passes that alternate between spans recorded at
petallab's module boundaries and no tracing, and reports the per-layer
metrics and the tracing overhead.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The lines before it, each starting with ``#``, give every
metric with its unit and sample count, failures by kind, the raw times,
and the environment.  A full record of the run goes to ``perfbench/out/``.

Timing metrics are adjusted to a reference speed of the host, measured
next to each operation with ``reference.reference_ns``; README.md says why
and how.

petallab is imported from ``src/`` of the current directory, never from an
installed copy; without ``src/petallab`` the harness exits with status 2.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from array import array
from importlib import metadata

import reference
import tracing
import workloads

# Fresh set-ups timed per run, one before each of as many parts of the
# timed loop; setup_s is their median.
SETUP_REPEATS = 6
# The timed loop runs in slices of this many seconds, with a sample of the
# reference loop between slices.
SLICE_S = 0.05
IMPORTTIME_REPEATS = 3
CHILD_TIMEOUT_S = 150
# One process, no threads: keep numerical libraries single-threaded.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _source_hash(root: str) -> str:
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(d for d in dirnames if d not in ("__pycache__", "out"))
            for name in sorted(f for f in filenames if f.endswith(".py")):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def _commit(root: str):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or None


def environment(root: str) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "reference_us_start": reference.reference_ns() / 1e3,
        "commit": _commit(root),
        "source_sha256": _source_hash(root),
    }


def time_setup(args, root: str, scratch: str) -> tuple[float, float, float]:
    """Time a fresh interpreter that sets up the workload and exits.

    Returns raw seconds, seconds adjusted to the reference host speed, and
    the child's peak resident set in MB.
    The child samples the reference loop through its life, on the core it
    runs on (``reference.ChildSampler``); the host's speed flips between
    two levels within a second, so the parent's own samples do not tell
    the child's speed.  The time spent sampling is taken off.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    with open(scratch, "w+b") as stdout:
        elapsed, code, peak_mb = workloads.run_child(cmd, root, workloads.child_env(root),
                                                     stdout, CHILD_TIMEOUT_S)
        stdout.seek(0)
        report = stdout.read().decode()
    os.remove(scratch)
    if code != 0:
        raise RuntimeError(f"set-up exited with status {code}")
    mean_ns, sampling_ns = reference.read_report(report)
    raw = elapsed - sampling_ns / 1e9
    return raw, reference.adjust(raw, mean_ns), peak_mb


def _setup_only(args, root: str) -> None:
    """Set the workload up; print the reference samples' report."""
    sampler = reference.ChildSampler()
    sampler.start()
    workloads.WORKLOADS[args.workload](args.seed, root).setup()
    print(sampler.stop())


def import_times(root: str) -> dict[str, float]:
    """Median import cost of petallab, scipy and numpy from ``-X importtime``.

    A package's cost is the cumulative time of each of its modules that was
    not imported from inside the same package: everything its imports pulled
    in, standard library included, counted once.
    """
    runs = []
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import petallab"],
                              cwd=root, env=workloads.child_env(root), capture_output=True,
                              text=True, check=True, timeout=CHILD_TIMEOUT_S)
        entries = []
        for line in proc.stderr.splitlines():
            parts = line.partition("import time:")[2].split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue  # not an importtime line, or the column header
            name = parts[2].rstrip()
            depth = (len(name) - len(name.lstrip())) // 2
            entries.append((depth, int(parts[1]), name.strip().split(".")[0]))
        # importtime prints a module after its imports; reversed, every
        # module follows its importer, so a stack of packages tracks ancestry.
        totals = {"petallab": 0, "scipy": 0, "numpy": 0}
        ancestors: list[str] = []
        for depth, cumulative_us, package in reversed(entries):
            del ancestors[depth:]
            if package in totals and package not in ancestors:
                totals[package] += cumulative_us
            ancestors.append(package)
        runs.append(totals)
    return {key: statistics.median(r[key] for r in runs) / 1e6 for key in runs[0]}


def measure(wl, seconds=None, n_ops=None, tracer=None, first_op=0):
    """Closed loop: run operations for ``seconds``, or exactly ``n_ops``.

    Returns raw ns and adjusted ns per operation, the reference loop's
    times, and whether every repeat reproduced its input.  Operations
    run in slices of ``SLICE_S``; the reference loop is timed between
    slices, and an operation's adjusted time is its raw time scaled by
    the reference speed over the mean of the reference times on either
    side of its slice.  A slow spell of the host slows both alike, so the
    ratio stays.  An operation run in a child interpreter brings the
    child's own reference times instead.
    """
    lat, adj, refs, reproduced = array("q"), array("d"), array("q"), True
    start = time.perf_counter()
    i = first_op

    def done():
        if n_ops is not None:
            return i >= first_op + n_ops
        return time.perf_counter() - start >= seconds

    ref_before = reference.reference_ns()
    refs.append(ref_before)
    while not done():
        own_refs = []
        slice_start = time.perf_counter()
        while not done() and time.perf_counter() - slice_start < SLICE_S:
            if tracer is not None:
                tracer.op = i
            elapsed, same, own = wl.run(i)
            lat.append(elapsed)
            own_refs.append(own)
            reproduced = reproduced and same
            i += 1
        ref_after = reference.reference_ns()
        refs.append(ref_after)
        around = (ref_before + ref_after) / 2
        adj.extend(reference.adjust(x, own or around)
                   for x, own in zip(lat[len(lat) - len(own_refs):], own_refs))
        ref_before = ref_after
    return lat, adj, refs, reproduced


def best_per_input(lat, n_inputs: int) -> list[int]:
    """Fastest repeat of each input; operation i ran input i % n_inputs."""
    return [min(lat[k::n_inputs]) for k in range(min(n_inputs, len(lat)))]


def _tail(lat_ns: list[int]):
    """Highest of p99.9/p99/p90 with at least ten samples beyond it."""
    ordered = sorted(lat_ns)
    n = len(ordered)
    for q in (99.9, 99.0, 90.0):
        if n * (1.0 - q / 100.0) >= 10.0:
            k = min(n - 1, int(q / 100.0 * n))
            return q, ordered[k] / 1e3
    return None


def run_plain(args, root: str):
    cls = workloads.WORKLOADS[args.workload]
    wl = cls(args.seed, root)
    wl.setup()
    # Fresh set-ups are spread over the run, so that one short slow spell
    # of the host does not cover them all.
    os.makedirs(wl.out_dir, exist_ok=True)
    scratch = os.path.join(wl.out_dir, f"setup_{args.workload}_seed{args.seed}.out")
    setups, lat, adj, refs, reproduced = [], array("q"), array("d"), array("q"), True
    for _ in range(SETUP_REPEATS):
        setups.append(time_setup(args, root, scratch))
        part, part_adj, part_refs, same = measure(
            wl, seconds=args.seconds / SETUP_REPEATS, first_op=len(lat))
        lat.extend(part)
        adj.extend(part_adj)
        refs.extend(part_refs)
        reproduced = reproduced and same
    wl.check_all()
    metrics = {
        "setup_s": (statistics.median(adjusted for _, adjusted, _ in setups), "s",
                    len(setups)),
        "peak_rss_mb": (wl.peak_rss_mb([peak for _, _, peak in setups]), "MB", 1),
        "ops_per_s": (len(adj) / (sum(adj) / 1e9), "1/s", len(adj)),
        "op_p50_us": (statistics.median(adj) / 1e3, "us", len(adj)),
    }
    notes = {"raw_setup_s": [round(raw, 6) for raw, _, _ in setups],
             "reference_us_p50": statistics.median(refs) / 1e3,
             "raw_ops_per_s": len(lat) / (sum(lat) / 1e9),
             "raw_op_p50_us": statistics.median(lat) / 1e3,
             "repeats_per_input": len(lat) // len(wl.inputs)}
    tail = _tail(adj)
    if tail is not None:
        notes[f"op_p{tail[0]:g}_us"] = tail[1]
    for key in range(min(len(wl.inputs), len(adj))):
        label = wl.input_label(key)
        if label is not None:
            notes[f"p50_{label}_us"] = statistics.median(adj[key::len(wl.inputs)]) / 1e3
    return wl, metrics, reproduced, notes


def run_traced(args, root: str):
    cls = workloads.WORKLOADS[args.workload]
    wl = cls(args.seed, root)
    wl.fresh = False
    wl.setup()
    tracer = tracing.Tracer()
    n_in = len(wl.inputs)
    # Traced and untraced passes over every input alternate, so that the
    # host's drift in speed falls on both sides alike.
    adj = {True: array("d"), False: array("d")}
    reproduced = True
    op = 0
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds and not tracer.full():
        for traced in (True, False):
            wl.tracer = tracer if traced else None
            with tracer.installed() if traced else contextlib.nullcontext():
                _, part, _, same = measure(wl, n_ops=n_in, tracer=wl.tracer, first_op=op)
            adj[traced].extend(part)
            reproduced = reproduced and same
            op += n_in
    wl.tracer = None
    overhead = (sum(best_per_input(adj[True], n_in))
                / sum(best_per_input(adj[False], n_in)) - 1.0)
    metrics = {}
    for label, values in tracer.layer_metrics().items():
        metrics[f"{label}.calls"] = (values["calls"], "count", 1)
        metrics[f"{label}.us"] = (values["us"], "us", values["calls"])
        metrics[f"{label}.self_us"] = (values["self_us"], "us", values["calls"])
        metrics[f"{label}.failed"] = (values["failed"], "count", 1)
    metrics["hmeasure.inconclusive"] = (tracer.inconclusive, "count", 1)
    for key, value in import_times(root).items():
        metrics[f"import.{key}_s"] = (value, "s", IMPORTTIME_REPEATS)
    metrics["trace_overhead_frac"] = (overhead, "frac", len(adj[True]))
    os.makedirs(wl.out_dir, exist_ok=True)
    spans = os.path.join(wl.out_dir, f"spans_{args.workload}_seed{args.seed}.csv.gz")
    tracer.write(spans)
    notes = {"passes_per_side": len(adj[True]) // n_in,
             "spans": len(tracer.ids), "spans_file": os.path.relpath(spans, root)}
    return wl, metrics, reproduced, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up the workload and exit (times setup_s)")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "petallab", "__init__.py")):
        print("error: no src/petallab here; run from the root of a petallab checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"

    if args.setup_only:
        _setup_only(args, root)
        return 0

    env = environment(root)
    runner = run_traced if args.trace else run_plain
    wl, metrics, reproduced, notes = runner(args, root)
    attempted, failed = wl.attempted, wl.failed
    env["loadavg_end"] = os.getloadavg()
    env["reference_us_end"] = reference.reference_ns() / 1e3

    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print(f"# operation: {wl.operation}")
    print(f"# env {json.dumps(env)}")
    print(f"# {'metric':<40} {'value':>16} {'unit':<6} n")
    for name, (value, unit, n) in metrics.items():
        print(f"# {name:<40} {value:>16.6g} {unit:<6} {n}")
    print(f"# attempted {attempted} failed {failed} "
          f"failed_frac {failed / attempted:.6g} reproduced {reproduced}")
    for label, count in sorted(wl.failures.items()):
        print(f"# failed {label} {count}")
    for label, count in sorted(wl.outcomes.items()):
        print(f"# outcome {label} {count}")
    for key, value in notes.items():
        print(f"# {key} {value}")

    result = {
        "correct": reproduced,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    os.makedirs(wl.out_dir, exist_ok=True)
    record = os.path.join(wl.out_dir, f"result_{args.workload}_seed{args.seed}"
                                      f"_trace{args.trace}.json")
    with open(record, "w", encoding="utf-8") as handle:
        json.dump({"args": vars(args), "env": env, "result": result,
                   "samples": {k: v[2] for k, v in metrics.items()},
                   "failures": dict(wl.failures), "outcomes": dict(wl.outcomes),
                   "notes": notes}, handle, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
