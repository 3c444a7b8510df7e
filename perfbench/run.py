"""Benchmark for cvbounds: one closed-loop workload per run.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload grid --seed 0 --seconds 25 --trace 0

One client in one process runs numbered ops back to back (the next op
starts when the previous one returns) for whole cycles of the
workload's input mix, stopping at the cycle boundary nearest to
--seconds. The inputs depend only on --seed; the program sees only the
generated configs, datasets and argv.

--trace 0 prints the end-to-end metrics, with times given at a nominal
machine speed: reference work that does not touch cvbounds is timed
between ops, and op and set-up times are scaled by how far it ran from
its nominal time (see reference()). --trace 1 runs the same ops
once untraced and once with the layer entry points wrapped (see
spans.py), checks that both give identical outputs, and prints the
per-layer metrics. Each op's output is checked right after it returns,
outside the timed region, and then dropped. The last line of stdout is
the result object; a provenance line precedes it, and the full record
(plus spans, when traced) is written under .perfbench_out/ in the
checkout.

cvbounds, and the benchmark modules that import it, are imported inside
functions only: after the check that src/cvbounds exists and after the
BLAS/OpenMP thread caps are set.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
EXPECTED = os.path.join(HERE, "expected_digests.json")
PIN_SEED = 0
SETUP_REPS = 5
# Reference work is timed after every op, outside its timed region, to
# sample the machine's speed, which changes by phases (see NOTES.md,
# "Run-to-run noise"). Its time on the machine the benchmark was built on,
# as a round figure, only sets the scale of the speed-scaled metrics.
REF_NOMINAL_S = {"python": 0.002, "array": 0.06, "numpy": 0.2, "scipy": 1.3}
REF_IMPORTS = {"numpy": "import numpy", "scipy": "from scipy import integrate, stats"}

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "learners.sample_s": "s",
    "learners.samples": "count",
    "learners.erm_atom_s": "s",
    "learners.erm_full_s": "s",
    "learners.erm_rows": "count",
    "learners.erm_cells": "count",
    "harness.self_s": "s",
    "harness.plan_builds_per_op": "count",
    "resampling.build_s": "s",
    "resampling.atoms_built": "count",
    "resampling.build_peak_mb": "MB",
    "learners.interval_erm_s": "s",
    "learners.interval_fits": "count",
    "cv.self_s": "s",
    "cv.fits_per_atom": "ratio",
    "cli.import_s": "s",
    "cli.import_scipy_s": "s",
    "cli.main_ms": "ms",
    "bounds.self_s": "s",
    "toolkit.verify_s": "s",
    "trace.overhead": "ratio",
}

clock = time.perf_counter


def cap_threads(nproc: int) -> None:
    """Cap BLAS/OpenMP pools at nproc, here and in every child process."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= nproc:
            os.environ[var] = str(nproc)


def git_commit() -> str | None:
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2:
        return None
    if os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def provenance(workload: str, seed: int, nproc: int) -> dict:
    import numpy

    tree = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(SRC, "cvbounds"))):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                tree.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    tree.update(fh.read())
    return {
        "workload": workload,
        "seed": seed,
        "nproc": nproc,
        "threads_cap": os.environ["OMP_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "platform": platform.platform(),
        "commit": git_commit(),
        "src_sha256": tree.hexdigest(),
    }


def reference(kind: str):
    """A function that times one run of the `kind` reference work.

    In the benchmark process: "python" is a pure-Python scan plus small
    numpy calls (about 2 ms), like the per-atom interval ERM; "array" is
    a batched sort, cumulative sum and argmin over a fixed 20000 x 40
    array, drawn anew each time (about 60 ms), like the batched
    threshold ERM. In a fresh Python process: "numpy" imports numpy
    (about 0.2 s), and "scipy" the scipy modules that cvbounds.toolkit
    imports (about 1.3 s); they pay process start-up and the loading of
    the same third-party modules as the set-up probes and the cli
    processes do. None touches cvbounds.
    """
    from workloads import run_child

    if kind == "python":
        work = python_reference
    elif kind == "array":
        work = array_reference
    else:
        cmd = [sys.executable, "-c", REF_IMPORTS[kind]]

        def work() -> None:
            run_child(cmd, cwd=ROOT).check_returncode()

    def timed() -> float:
        t0 = clock()
        work()
        return clock() - t0

    return timed


def python_reference() -> int:
    import numpy

    xs = list(range(300))
    total = 0
    for i in range(300):
        best = 0
        for j in range(i, 300, 7):
            if xs[j] - xs[i] > best:
                best = xs[j] - xs[i]
        total += best
    a = numpy.arange(50.0)
    for i in range(400):
        m = a[a > i % 50]
        total += int(m.sum()) + int(numpy.count_nonzero(m))
    return total


def array_reference() -> int:
    """Draws its arrays anew on each call, so that they do not stay
    resident and add to the peak RSS of the workload between calls."""
    import numpy

    rng = numpy.random.default_rng(0)
    xs = rng.random((20000, 40))
    ys = (rng.random((20000, 40)) < 0.3).astype(numpy.int64)
    order = numpy.argsort(xs, axis=1, kind="stable")
    xs_s = numpy.take_along_axis(xs, order, axis=1)
    ys_s = numpy.take_along_axis(ys, order, axis=1)
    errors = 2 * numpy.cumsum(ys_s, axis=1) - numpy.arange(xs.shape[1])[None, :]
    separates = 0.5 * (xs_s[:, :-1] + xs_s[:, 1:]) > xs_s[:, :-1]
    return int(numpy.argmin(numpy.where(separates, errors[:, 1:], xs.shape[1]), axis=1).sum())


def setup_probe(w):
    """A function that times the workload's set-up reference, then one
    fresh process importing cvbounds and setting up; it returns both times."""
    from workloads import run_child

    setup_reference = reference(w.setup_reference)
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), w.name]
    env = dict(os.environ, PYTHONPATH=SRC)

    def probe() -> tuple[float, float]:
        ref = setup_reference()
        t0 = clock()
        run_child(cmd, cwd=ROOT, env=env).check_returncode()
        return ref, clock() - t0

    return probe


def more_ops(w, i: int, busy: float, seconds: float) -> bool:
    """Whole cycles only, ending at the cycle boundary nearest to `seconds`."""
    if i % w.cycle:
        return True
    cycles = i // w.cycle
    return cycles == 0 or busy + 0.5 * busy / cycles < seconds


def load_pinned(w, seed: int) -> list:
    if seed != PIN_SEED:
        return []
    with open(EXPECTED) as fh:
        return json.load(fh).get(w.name, [])


def run_ops(w, passes, pinned, problems, seconds=None, count=None, probe=None,
            speed_ref=None) -> list[dict]:
    """Closed loop from op 0: `count` ops, or whole cycles for about `seconds`.

    passes is a list of (op, tracer, extra); op i runs once in each pass,
    in turn, before op i+1 starts. Interleaving the passes exposes them to
    the same phases of machine speed. Right after each op, outside its
    timed region, its output is checked and reduced to a digest (plus
    extra(out), if given) and then dropped, so that the process holds no
    more than one output at a time. `seconds` counts op time only.

    probe, if given, is called SETUP_REPS times, spread evenly over the
    op time of the run, so that its samples see the same phases of
    machine speed as the ops; run["probes"] holds what it returned.

    speed_ref, if given, is called after every op, outside its timed
    region; run["reference_s"] holds what it returned.
    """
    runs = [{"latencies": [], "digests": [], "extra": [], "failed": set(), "reference_s": []}
            for _ in passes]
    probes = []
    i = 0
    busy = 0.0
    while i < count if count is not None else more_ops(w, i, busy, seconds):
        if probe is not None and len(probes) < SETUP_REPS and busy >= len(probes) * seconds / SETUP_REPS:
            probes.append(probe())
        for (op, tracer, extra), run in zip(passes, runs):
            tracer.start_op(i)
            raised = None
            t0 = clock()
            try:
                out = op(i, tracer)
            except Exception:  # an op that raises counts as failed; the loop goes on
                raised = traceback.format_exc()
            latency = clock() - t0
            tracer.end_op()
            busy += latency
            run["latencies"].append(latency)
            if speed_ref is not None:
                run["reference_s"].append(speed_ref())
            if raised is not None:
                sys.stderr.write(raised)
                run["failed"].add(i)
                run["digests"].append(None)
                continue
            found = w.check(i, out)
            digest = w.digest(out)
            if i < len(pinned) and digest != pinned[i]:
                found.append(f"digest {digest[:12]} differs from the pinned value")
            if found:
                run["failed"].add(i)
                problems.extend(f"op {i}: {p}" for p in found)
            run["digests"].append(digest)
            if extra is not None:
                run["extra"].append(extra(out))
            del out
        i += 1
    while probe is not None and len(probes) < SETUP_REPS:
        probes.append(probe())
    for run in runs:
        run["elapsed"] = math.fsum(run["latencies"])
        run["probes"] = probes
    return runs


def end_to_end(w, seed: int, seconds: float, problems: list) -> tuple[dict, int, int, dict]:
    from workloads import NullTracer

    probe = setup_probe(w)
    w.setup(seed)
    tracer = NullTracer()
    w.op(0, tracer)  # warm-up: lazy caches and first-call costs are not timed
    (run,) = run_ops(w, [(w.op, tracer, None)], load_pinned(w, seed), problems,
                     seconds=seconds, probe=probe, speed_ref=reference(w.reference))
    who = resource.RUSAGE_CHILDREN if w.name == "cli" else resource.RUSAGE_SELF
    peak_kb = resource.getrusage(who).ru_maxrss
    lat, elapsed, probes, ref = run["latencies"], run["elapsed"], run["probes"], run["reference_s"]
    raw_ops_per_s = len(lat) / elapsed
    # Both figures are given at the nominal machine speed: op time is
    # measured in units of the reference timed after each op, and each
    # set-up time in units of the set-up reference timed just before it,
    # so that a phase that slows both cancels.
    speed = statistics.fmean(ref) / REF_NOMINAL_S[w.reference]
    nominal = REF_NOMINAL_S[w.setup_reference]
    setups = [setup_s * nominal / ref_s for ref_s, setup_s in probes]
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": raw_ops_per_s * speed,
        "peak_rss_mb": peak_kb / 1024,
    }
    record = {"ops": len(lat), "elapsed_s": elapsed, "latencies_s": lat,
              "op_ms_p50": statistics.median(lat) * 1e3,
              "raw_ops_per_s": raw_ops_per_s, "reference_s": ref, "speed": speed,
              "raw_setup_s": statistics.median(p[1] for p in probes), "setup_probes_s": probes,
              "trials_per_s": sum(w.trials(i) for i in range(len(lat))) / elapsed}
    if len(lat) >= 100:  # p90 has at least ten samples beyond it
        record["op_ms_p90"] = statistics.quantiles(lat, n=10, method="inclusive")[8] * 1e3
    return metrics, len(lat), len(run["failed"]), record


def compare_digests(reference, other, problems, what) -> None:
    for i, (x, y) in enumerate(zip(reference["digests"], other["digests"])):
        if x != y:
            other["failed"].add(i)
            problems.append(f"op {i}: {what} differs from untraced")


def per_layer(w, seed: int, seconds: float, problems: list) -> tuple[dict, int, int, dict]:
    from workloads import NullTracer

    import spans

    w.setup(seed)
    null = NullTracer()
    w.op(0, null)
    tracer = spans.Tracer()
    pinned = load_pinned(w, seed)
    import_s, scipy_s = [0.0], [0.0]
    if w.name == "cli":
        def importtime_op(i, t):
            return w.op(i, t, python_flags=("-X", "importtime"))

        def importtime(out):
            return spans.parse_importtime(out[3])

        untraced, traced = run_ops(
            w, [(w.op, null, None), (importtime_op, null, importtime)], pinned, problems,
            seconds=seconds,
        )
        compare_digests(untraced, traced, problems, "output under -X importtime")
        import_s = [p[0] for p in traced["extra"]]
        scipy_s = [p[1] for p in traced["extra"]]
        count = len(untraced["latencies"])
        (inproc,) = run_ops(w, [(w.main_in_process, tracer, None)], pinned, problems, count=count)
        compare_digests(untraced, inproc, problems, "output of cli.main in-process")
        runs = (untraced, traced, inproc)
    else:
        untraced, traced = run_ops(w, [(w.op, null, None), (w.op, tracer, None)], pinned,
                                   problems, seconds=seconds)
        compare_digests(untraced, traced, problems, "traced output")
        count = len(traced["latencies"])
        runs = (untraced, traced)
    overhead = untraced["elapsed"] / traced["elapsed"]
    st, c = tracer.self_times(), tracer.counts
    if w.name in ("grid", "loo_n1000"):
        root = tracer.root_total("harness.run_experiment")
        if abs(sum(st.values()) - root) > 1e-6 * root:
            problems.append(f"layer self times {sum(st.values())} != run_experiment {root}")
    metrics = {
        "learners.sample_s": st["sample"] / count,
        "learners.samples": c["samples"] / count,
        "learners.erm_atom_s": st["erm_atom"] / count,
        "learners.erm_full_s": st["erm_full"] / count,
        "learners.erm_rows": c["erm_rows"] / count,
        "learners.erm_cells": c["erm_cells"] / count,
        "harness.self_s": st["harness"] / count,
        "harness.plan_builds_per_op": c["plan_builds"] / count,
        "resampling.build_s": st["build"] / count,
        "resampling.atoms_built": c["atoms_built"] / count,
        "resampling.build_peak_mb": tracer.build_peak_mb(),
        "learners.interval_erm_s": st["interval_erm"] / count,
        "learners.interval_fits": c["interval_fits"] / count,
        "cv.self_s": st["cv"] / count,
        "cv.fits_per_atom": c["cv_fits"] / c["cv_pair_atoms"] if c["cv_pair_atoms"] else 0.0,
        "cli.import_s": statistics.median(import_s),
        "cli.import_scipy_s": statistics.median(scipy_s),
        "cli.main_ms": tracer.root_total("cli.main") / count * 1e3,
        "bounds.self_s": st["bounds"] / count,
        "toolkit.verify_s": st["toolkit"] / count,
        "trace.overhead": overhead,
    }
    record = {
        "ops": count,
        "self_s_total": dict(st),
        "run_experiment_s_total": tracer.root_total("harness.run_experiment"),
        "counts": dict(c),
        "spans": tracer.spans,
    }
    attempted = sum(len(r["latencies"]) for r in runs)
    failed = sum(len(r["failed"]) for r in runs)
    return metrics, attempted, failed, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=PIN_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cvbounds", "__init__.py")):
        sys.stderr.write(f"perfbench: no cvbounds sources under {SRC}; run from a checkout root\n")
        return 2
    nproc = len(os.sched_getaffinity(0))
    cap_threads(nproc)
    sys.path.insert(0, SRC)
    import cvbounds
    import workloads

    if not os.path.realpath(cvbounds.__file__).startswith(os.path.realpath(SRC) + os.sep):
        sys.stderr.write(f"perfbench: cvbounds imported from {cvbounds.__file__}, not {SRC}\n")
        return 2
    w = workloads.make(args.workload)
    problems: list[str] = []
    measure = per_layer if args.trace else end_to_end
    metrics, attempted, failed, record = measure(w, args.seed, args.seconds, problems)
    units = PER_LAYER if args.trace else END_TO_END
    prov = provenance(args.workload, args.seed, nproc)
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    spans_rows = record.pop("spans", None)
    if spans_rows is not None:
        with open(stem + "-spans.json", "w") as fh:
            json.dump(spans_rows, fh, separators=(",", ":"))
    with open(stem + ".json", "w") as fh:
        json.dump({"provenance": prov, "metrics": metrics, "problems": problems, **record},
                  fh, indent=2, sort_keys=True)
    for p in problems:
        sys.stderr.write(f"perfbench: {p}\n")
    print(json.dumps({"provenance": prov}, sort_keys=True))
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
