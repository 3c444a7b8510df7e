"""The benchmark workloads, each a closed loop of numbered ops.

BENCHMARK.json declares which of them are measured; loo_n1000 is defined
here and runnable by name but not declared (see NOTES.md).

An op is a pure function of (workload seed, op index), so a traced rerun
of the same indices must reproduce the untraced outputs exactly. Every
workload exposes the same small interface:

    setup(seed)       build configs and plans once (counted in setup_s)
    ready()           what a fresh process does before the first op
    op(i, tracer)     one closed-loop operation; returns its output
    trials(i)         Monte Carlo trials (datasets) completed by op i
    digest(out)       hash of the exact-machinery fields of an output
    check(i, out)     invariant violations of one output, as strings

`cycle` is the number of ops after which the input mix repeats; runs
always end on a whole cycle so medians compare like with like.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import threading
from dataclasses import replace

from cvbounds import cv, harness, resampling
from cvbounds.learners import HypothesisClass, SyntheticDistribution, ZERO_ONE


class NullTracer:
    """Stand-in used by untraced ops: a span is one no-op context manager."""

    def span(self, name, bucket, **counts):
        return contextlib.nullcontext()

    def start_op(self, i: int) -> None:
        pass

    def end_op(self) -> None:
        pass


def run_child(cmd: list[str], timeout: float = 120, **kwargs) -> subprocess.CompletedProcess:
    """subprocess.run with a blocking wait; a timer kills a child that hangs.

    subprocess.run(timeout=...) polls for the child's exit with sleeps of
    up to 50 ms, which would quantize every time taken around it.
    """
    with subprocess.Popen(cmd, **kwargs) as proc:
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            out, err = proc.communicate()
        finally:
            timer.cancel()
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def derive_seed(workload: str, seed: int, i) -> int:
    """Per-op master seed: a 63-bit hash of (workload, seed, op index)."""
    h = hashlib.sha256(f"{workload}/{seed}/{i}".encode()).digest()
    return int.from_bytes(h[:8], "big") >> 1


def _sha(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def report_digest(report: harness.ExperimentReport) -> str:
    """Digest of the fields later work must keep byte-identical.

    slack, bound_total and bound_branch are left out on purpose: the
    planned slack and bound-applicability changes alter them.
    """
    return _sha(
        {
            "rows": [
                [r.plan, r.eps, r.empirical_tail, r.lemma_violations]
                for r in report.rows
            ],
            "l1": [[r.plan, r.empirical_mean_abs_dev] for r in report.l1_rows],
        }
    )


def report_problems(report: harness.ExperimentReport) -> list[str]:
    """Invariants of a report whose plans are all symmetric."""
    problems = []
    if any(report.lemma_violations):
        problems.append(f"lemma violations {report.lemma_violations}")
    by_plan: dict[str, list] = {}
    for r in report.rows:
        by_plan.setdefault(r.plan, []).append(r)
    for plan, rows in by_plan.items():
        tails = [r.empirical_tail for r in sorted(rows, key=lambda r: r.eps)]
        if not all(0.0 <= t <= 1.0 for t in tails):
            problems.append(f"{plan}: tail outside [0, 1]: {tails}")
        if any(a < b for a, b in zip(tails, tails[1:])):
            problems.append(f"{plan}: tails increase in eps: {tails}")
    for r in report.l1_rows:
        if not 0.0 <= r.empirical_mean_abs_dev <= 1.0:
            problems.append(f"{r.plan}: mean |dev| {r.empirical_mean_abs_dev}")
    return problems


class Grid:
    """The nine acceptance-grid shapes through run_experiment.

    2000 trials per call is harness._chunk_size's cap, so every call
    handles at least one full production-size chunk (one at n=20, four at
    n=50, twelve at n=100), as the 10,000-trial validation runs do, and
    per-call costs weigh no more than there.
    """

    name = "grid"
    cycle = 9
    # Batched numpy work on large arrays, as in the array reference (see
    # run.reference and NOTES.md); set-up probes load numpy and cvbounds.
    reference = "array"
    setup_reference = "numpy"
    TRIALS = 2000

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.configs = harness.default_acceptance_configs(trials=self.TRIALS)
        for cfg in self.configs:
            cfg.built_plans()

    def ready(self) -> None:
        self.setup(0)

    def config(self, i: int) -> harness.ExperimentConfig:
        return replace(
            self.configs[i % self.cycle],
            master_seed=derive_seed(self.name, self.seed, i),
        )

    def op(self, i: int, tracer):
        return harness.run_experiment(self.config(i))

    def trials(self, i: int) -> int:
        return self.TRIALS

    def digest(self, out) -> str:
        return report_digest(out)

    def check(self, i: int, out) -> list[str]:
        return report_problems(out)


class LooN1000(Grid):
    """Leave-one-out at n=1000; the plan is rebuilt inside every call."""

    name = "loo_n1000"
    cycle = 1
    TRIALS = 2

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.configs = [
            harness.ExperimentConfig(
                theta_star=0.3,
                eta=0.1,
                n=1000,
                plans=(harness.PlanSpec(kind="loo"),),
                trials=self.TRIALS,
                master_seed=0,
            )
        ]
        self.configs[0].built_plans()


class ExactCv:
    """Library use on one n=50 dataset at a time, entering the cv layer.

    run_experiment cannot reach the per-atom interval ERM: with
    hyp_kind="interval" learners.true_risk raises ValueError, so this
    workload calls cv directly.
    """

    name = "exact_cv"
    cycle = 1
    # Interpreter-bound: its speed followed that of the pure-Python
    # reference and not a process one (see run.reference and NOTES.md).
    reference = "python"
    setup_reference = "numpy"
    N = 50

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.dist = SyntheticDistribution(theta_star=0.3, eta=0.1)
        self.threshold = HypothesisClass.threshold()
        self.interval = HypothesisClass.interval()
        self.plans = {
            "kfold-5": resampling.make_kfold(self.N, 5),
            "loo": resampling.make_loo(self.N),
        }

    def ready(self) -> None:
        self.setup(0)

    def op(self, i: int, tracer):
        with tracer.span("learners.sample", "sample", samples=1):
            d = self.dist.sample(self.N, harness.trial_generator(self.seed, i))
        out = {}
        for label, plan in self.plans.items():
            out[label] = {
                "estimates": cv.estimates(
                    plan, d, self.threshold, ZERO_ONE, dist=self.dist
                ),
                "lemma_threshold": cv.cv_at_least_resub_exact(
                    plan, d, self.threshold, ZERO_ONE
                ),
                "cv_interval": cv.cross_validate(plan, d, self.interval, ZERO_ONE),
                "lemma_interval": cv.cv_at_least_resub_exact(
                    plan, d, self.interval, ZERO_ONE
                ),
            }
        return d, out

    def trials(self, i: int) -> int:
        return 1

    def digest(self, out) -> str:
        _, results = out
        return _sha(
            {
                label: {
                    **{k: v for k, v in r.items() if k != "estimates"},
                    "estimates": vars(r["estimates"]),
                }
                for label, r in results.items()
            }
        )

    def check(self, i: int, out) -> list[str]:
        d, results = out
        problems = []
        for label, r in results.items():
            est = r["estimates"]
            if not (r["lemma_threshold"] and r["lemma_interval"]):
                problems.append(f"{label}: cv_at_least_resub_exact is false")
            values = (est.r_hat_n, est.r_cv, est.r_tilde_n, est.r_bar, r["cv_interval"])
            if not all(0.0 <= v <= 1.0 for v in values):
                problems.append(f"{label}: estimate outside [0, 1]: {values}")
            plan = self.plans[label]
            r_cv = cv.cross_validate(plan, d, self.threshold, ZERO_ONE)
            if r_cv != est.r_cv:
                problems.append(f"{label}: cross_validate {r_cv!r} != r_cv {est.r_cv!r}")
        return problems


class Cli:
    """`python -m cvbounds.cli` verbs as separate processes, in a fixed mix.

    Sizes, test fractions and deviations come from the seed; `ci` uses
    the fixed query n=1000, vc=1, alpha=0.05 and `verify` its own default
    seeds, so that no op can fail on a benign Monte Carlo draw.
    """

    name = "cli"
    cycle = 8
    # Each op is a process that loads numpy and scipy, as the reference
    # does, and a little of cvbounds' own work (see run.reference).
    reference = "scipy"
    setup_reference = "scipy"
    SIMULATE_TRIALS = 200
    TEXT_COLUMNS = {"procedure", "branch", "bound_branch", "mode", "snap", "plan"}

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.root = os.getcwd()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(self.root, "src")]
            + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )

    def ready(self) -> None:
        import cvbounds.cli  # noqa: F401

    def argv(self, i: int) -> list[str]:
        c = derive_seed(self.name, self.seed, i // self.cycle)
        n = (500, 1000, 2000, 5000)[c % 4]
        k = (2, 4, 5, 10)[(c >> 4) % 4]
        eps = repr((0.05, 0.1, 0.2, 0.3)[(c >> 8) % 4])
        common = ["--n", str(n), "--eps", eps]
        mix = [
            ["bound", *common, "--p", repr(1 / k), "--procedure", "symmetric-combined"],
            ["bound", *common, "--k", str(k), "--procedure", "kfold"],
            ["bound", *common, "--p", repr(1 / k), "--procedure", "holdout"],
            ["curve", *common],
            ["split", "--n", str(n)],
            ["ci", "--n", "1000", "--vc", "1", "--alpha", "0.05"],
            ["verify"],
            [
                "simulate", "--n", "20", "--k", "5",
                "--trials", str(self.SIMULATE_TRIALS), "--seed", str(c % 2**31),
            ],
        ]
        return mix[i % self.cycle]

    def op(self, i: int, tracer, python_flags: tuple[str, ...] = ()):
        argv = self.argv(i)
        proc = run_child(
            [sys.executable, *python_flags, "-m", "cvbounds.cli", *argv],
            cwd=self.root,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        return argv, proc.returncode, proc.stdout, proc.stderr

    def trials(self, i: int) -> int:
        return self.SIMULATE_TRIALS if self.argv(i)[0] == "simulate" else 0

    def digest(self, out) -> str:
        return hashlib.sha256(out[2].encode()).hexdigest()

    def check(self, i: int, out) -> list[str]:
        argv, code, stdout, stderr = out
        if code != 0:
            return [f"{argv}: exit code {code}: {stderr.strip()[-200:]}"]
        try:
            if argv[0] == "verify":
                reports = json.loads(stdout)
                if not reports or not all(e["holds"] for r in reports for e in r["grid"]):
                    return [f"{argv}: verify output incomplete or failing"]
                return []
            rows = list(csv.reader(io.StringIO(stdout)))
            header, body = rows[0], [r for r in rows[1:] if r]
            if not body or any(len(r) != len(header) for r in body):
                return [f"{argv}: CSV rows do not match the header"]
            for row in body:
                for name, cell in zip(header, row):
                    if name not in self.TEXT_COLUMNS and cell:
                        float(cell)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"{argv}: output does not parse: {exc!r}"]
        return []

    def main_in_process(self, i: int, tracer):
        """The same op through cli.main in this process, for the layer split."""
        from cvbounds import cli

        argv = self.argv(i)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with tracer.span("cli.main", "cli"):
                code = cli.main(argv)
        return argv, code, out.getvalue(), err.getvalue()


WORKLOADS = {w.name: w for w in (Grid, LooN1000, ExactCv, Cli)}


def make(name: str):
    if name not in WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    return WORKLOADS[name]()
