"""Monte Carlo experiment engine.

Draws synthetic learning samples, runs exact ERM and cross-validation
under configured resampling plans, checks the comparison lemma (CV risk
at least resubstitution risk) in exact arithmetic, estimates deviation
tails empirically, and lines them up against the theoretical bounds.

Reproducibility contract: trial t of an experiment with master seed s
derives a two-word Philox key via the SplitMix64 finalizer,
key = (mix64(s + (2t+1)*GOLDEN), mix64(s + (2t+2)*GOLDEN)) mod 2^64,
and draws n sample points first, then n label-flip uniforms, from
Generator(Philox(key)). Any implementation following that recipe
reproduces the same datasets bit for bit. Trials are independent, so
execution order and chunking cannot change any reported number.

The harness follows the recipe for a whole chunk of trials at once, in
array arithmetic: the SplitMix64 keys of every trial, the Philox4x64-10
blocks under each key for counters (b, 0, 0, 0), b = 1, 2, ..., and the
doubles (word >> 11)·2^-53 that Generator.random makes of their words
(_trial_uniforms; run_trial uses the same sampler for one trial).
trial_generator is the reference it is tested against bit for bit.

run_experiment draws each chunk of trials as plain arrays on the calling
thread and checks them once. It splits the chunk into one contiguous
slice of trials per CPU the process may use; the calling thread scores
the first slice and a thread pool the others. Each slice is sorted once
into a learners.SortedSamples batch, which the full-sample fits and the
exact ERM of every atom of every plan all read, at O(n log n + sum of
test sizes) per trial. Slices return integer tallies and deviations in
trial order, merged in slice order, so the report has the same bytes
whatever the number of CPUs or threads.
"""

from __future__ import annotations

import json
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import bounds, cv, learners, resampling
from .learners import Dataset, HypothesisClass, SyntheticDistribution, ZERO_ONE

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15

DEFAULT_EPS_GRID = (0.05, 0.1, 0.2, 0.4)


def splitmix64(z: int) -> int:
    """SplitMix64 finalizer: the standard 64-bit avalanche mix."""
    z &= MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & MASK64
    z ^= z >> 31
    return z


def trial_key(master_seed: int, trial_id: int) -> tuple[int, int]:
    """Two independent 64-bit words for one trial's generator key."""
    if trial_id < 0:
        raise ValueError("trial_id must be nonnegative")
    a = splitmix64(master_seed + (2 * trial_id + 1) * GOLDEN)
    b = splitmix64(master_seed + (2 * trial_id + 2) * GOLDEN)
    return a, b


def trial_generator(master_seed: int, trial_id: int) -> np.random.Generator:
    """The generator of one trial: the reference for _trial_uniforms."""
    key = np.array(trial_key(master_seed, trial_id), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 on a uint64 array, wrapping mod 2^64."""
    z = z ^ (z >> np.uint64(30))
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _trial_keys(master_seed: int, t0: int, t1: int) -> tuple[np.ndarray, np.ndarray]:
    """trial_key of trials t0..t1-1 as two uint64 arrays."""
    if t0 < 0:
        raise ValueError("trial_id must be nonnegative")
    base = (master_seed + (2 * t0 + 1) * GOLDEN) & MASK64
    z = np.arange(t1 - t0, dtype=np.uint64) * np.uint64(2 * GOLDEN & MASK64)
    z += np.uint64(base)
    return _mix64(z), _mix64(z + np.uint64(GOLDEN))


_M32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)
# Philox4x64 round multipliers and Weyl key increments (Salmon et al., SC'11)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_BUMP = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))


def _mulhilo(a: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products a·m, from 32-bit halves
    (Warren, Hacker's Delight, mulhu)."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    a_lo, a_hi = a & _M32, a >> _S32
    t = a_lo * m_lo
    t >>= _S32
    t += a_hi * m_lo
    w = t & _M32
    w += a_lo * m_hi
    hi = a_hi * m_hi
    hi += t >> _S32
    hi += w >> _S32
    return hi, a * np.uint64(m)


def _philox_words(k0: np.ndarray, k1: np.ndarray, m: int) -> np.ndarray:
    """The first m raw words of Philox4x64-10 under each key (k0[i], k1[i]),
    shape (keys, m): blocks of counters (b, 0, 0, 0) for b = 1, 2, ...,
    words v0..v3 of each, as np.random.Philox(key).random_raw(m) gives."""
    blocks = -(-m // 4)
    k0, k1 = k0[:, None], k1[:, None]
    # the first round's counters are the same for every key
    c0 = np.arange(1, blocks + 1, dtype=np.uint64)[None, :]
    c1 = c2 = c3 = np.zeros_like(c0)
    for r in range(10):
        if r:
            k0 = k0 + _PHILOX_BUMP[0]
            k1 = k1 + _PHILOX_BUMP[1]
        hi0, lo0 = _mulhilo(c0, _PHILOX_M[0])
        hi1, lo1 = _mulhilo(c2, _PHILOX_M[1])
        hi1 ^= c1
        hi0 ^= c3
        c0, c1, c2, c3 = hi1 ^ k0, lo1, hi0 ^ k1, lo0
    return np.stack((c0, c1, c2, c3), axis=-1).reshape(len(k0), 4 * blocks)[:, :m]


def _trial_uniforms(master_seed: int, t0: int, t1: int, m: int) -> np.ndarray:
    """The first m doubles of trial_generator(master_seed, t).random for
    trials t0..t1-1, shape (t1 - t0, m): (word >> 11)·2^-53."""
    words = _philox_words(*_trial_keys(master_seed, t0, t1), m)
    return (words >> np.uint64(11)).astype(np.float64) * 2.0**-53


@dataclass(frozen=True)
class PlanSpec:
    """Declarative description of a resampling plan, buildable for any n.

    kinds: "kfold" (k folds), "loo", "lvo" (leave v out, exhaustive or
    montecarlo with m draws and a seed), "holdout" (test fraction p;
    test_indices defaults to the leading block of n*p indices).
    """

    kind: str
    k: int | None = None
    v: int | None = None
    mode: str = "exhaustive"
    m: int | None = None
    seed: int | None = None
    p: float | None = None
    test_indices: tuple[int, ...] | None = None

    @property
    def label(self) -> str:
        if self.kind == "kfold":
            return f"kfold-{self.k}"
        if self.kind == "loo":
            return "loo"
        if self.kind == "lvo":
            tag = "exhaustive" if self.mode == "exhaustive" else "mc"
            return f"lvo-{self.v}-{tag}"
        if self.kind == "holdout":
            return f"holdout-{self.p}"
        raise ValueError(f"unknown plan kind {self.kind!r}")

    def build(self, n: int) -> resampling.ResamplingPlan:
        if self.kind == "kfold":
            if self.k is None:
                raise ValueError("kfold plan needs k")
            return resampling.make_kfold(n, self.k)
        if self.kind == "loo":
            return resampling.make_loo(n)
        if self.kind == "lvo":
            if self.v is None:
                raise ValueError("lvo plan needs v")
            return resampling.make_leave_v_out(
                n, self.v, mode=self.mode, m=self.m, seed=self.seed
            )
        if self.kind == "holdout":
            if self.p is None:
                raise ValueError("holdout plan needs p")
            test = self.test_indices
            if test is None:
                want = n * self.p
                if abs(want - round(want)) > 1e-9:
                    raise ValueError(f"n*p = {want!r} is not an integer")
                test = tuple(range(round(want)))
            return resampling.make_holdout(n, self.p, test)
        raise ValueError(f"unknown plan kind {self.kind!r}")

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        for name in ("k", "v", "m", "seed", "p"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        if self.kind == "lvo":
            out["mode"] = self.mode
        if self.test_indices is not None:
            out["test_indices"] = list(self.test_indices)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "PlanSpec":
        data = dict(data)
        if "test_indices" in data and data["test_indices"] is not None:
            data["test_indices"] = tuple(data["test_indices"])
        return cls(**data)


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of a Monte Carlo experiment.

    The synthetic distribution is a uniform design with labels flipped at
    rate eta around the step at theta_star; the analytic true risk of
    every fitted threshold makes tail estimation exact up to Monte Carlo
    over datasets only.
    """

    theta_star: float
    eta: float
    n: int
    plans: tuple[PlanSpec, ...]
    trials: int
    master_seed: int
    vc: int = 1
    hyp_kind: str = "threshold"
    eps_grid: tuple[float, ...] = DEFAULT_EPS_GRID
    grid_provenance: str = "artifact-default"

    def validate(self) -> None:
        if self.trials < 1:
            raise ValueError("need trials >= 1")
        if self.n < 2:
            raise ValueError("need n >= 2")
        if not self.plans:
            raise ValueError("need at least one plan")
        if not all(e > 0 for e in self.eps_grid):
            raise ValueError("eps grid values must be positive")
        if any(a >= b for a, b in zip(self.eps_grid, self.eps_grid[1:])):
            raise ValueError("eps grid must be strictly increasing")
        if self.vc < 1:
            raise ValueError("need vc >= 1")
        if not (0.0 <= self.eta < 0.5):
            raise ValueError("need 0 <= eta < 1/2")
        if not (0.0 <= self.theta_star <= 1.0):
            raise ValueError("theta_star must lie in [0, 1]")
        if self.hyp_kind != "threshold":
            raise ValueError(
                f"hypothesis kind {self.hyp_kind!r} is not supported: the true "
                "risk r_tilde_n has a closed form only for thresholds"
            )

    @property
    def dist(self) -> SyntheticDistribution:
        return SyntheticDistribution(theta_star=self.theta_star, eta=self.eta)

    @cached_property
    def _built_plans(self) -> tuple[resampling.ResamplingPlan, ...]:
        self.validate()
        return tuple(spec.build(self.n) for spec in self.plans)

    def built_plans(self) -> tuple[resampling.ResamplingPlan, ...]:
        """The validated config's plans, built once per instance."""
        return self._built_plans

    def to_dict(self) -> dict:
        return {
            "theta_star": self.theta_star,
            "eta": self.eta,
            "n": self.n,
            "plans": [spec.to_dict() for spec in self.plans],
            "class": {"kind": self.hyp_kind, "vc": self.vc},
            "eps_grid": list(self.eps_grid),
            "trials": self.trials,
            "master_seed": self.master_seed,
            "grid_provenance": self.grid_provenance,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        hyp = data.get("class", {})
        return cls(
            theta_star=float(data["theta_star"]),
            eta=float(data["eta"]),
            n=int(data["n"]),
            plans=tuple(PlanSpec.from_dict(p) for p in data["plans"]),
            trials=int(data["trials"]),
            master_seed=int(data["master_seed"]),
            vc=int(hyp.get("vc", 1)),
            hyp_kind=hyp.get("kind", "threshold"),
            eps_grid=tuple(float(e) for e in data.get("eps_grid", DEFAULT_EPS_GRID)),
            grid_provenance=data.get("grid_provenance", "user-config"),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class TrialRecord:
    """One trial's estimates per plan, with the deviation decomposition
    (|r_cv - r_tilde|, r_cv - r_bar, r_bar - r_tilde) and the exact
    lemma check (None for plans the lemma does not cover)."""

    trial_id: int
    estimates: tuple[cv.CvEstimates, ...]
    deviations: tuple[tuple[float, float, float], ...]
    lemma_ok: tuple[bool | None, ...]


def run_trial(cfg: ExperimentConfig, trial_id: int) -> TrialRecord:
    """Run one fully deterministic trial: record depends only on (cfg, trial_id)."""
    plans = cfg.built_plans()
    xs, ys = _batch_labels(cfg.dist, cfg.n, cfg.master_seed, trial_id, trial_id + 1)
    d = Dataset(xs[0], ys[0])
    ests = []
    devs = []
    lemma = []
    for plan in plans:
        fit = cv.fit_plan(plan, d, HypothesisClass.threshold(), ZERO_ONE)
        est = fit.estimates(cfg.dist)
        ests.append(est)
        devs.append(
            (
                abs(est.r_cv - est.r_tilde_n),
                est.r_cv - est.r_bar,
                est.r_bar - est.r_tilde_n,
            )
        )
        lemma.append(fit.lemma_ok() if plan.symmetric() else None)
    return TrialRecord(
        trial_id=trial_id,
        estimates=tuple(ests),
        deviations=tuple(devs),
        lemma_ok=tuple(lemma),
    )


@dataclass(frozen=True)
class ReportRow:
    plan: str
    p: float
    eps: float
    empirical_tail: float
    slack: float
    bound_total: float
    bound_branch: str
    lemma_violations: int


@dataclass(frozen=True)
class L1Row:
    plan: str
    p: float
    empirical_mean_abs_dev: float
    l1_bound_large: float
    l1_bound_small: float


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    rows: tuple[ReportRow, ...]
    l1_rows: tuple[L1Row, ...]
    lemma_violations: tuple[int, ...]

    def to_csv(self) -> str:
        lines = [
            "plan,p,eps,empirical_tail,slack,bound_total,bound_branch,lemma_violations"
        ]
        for r in self.rows:
            lines.append(
                f"{r.plan},{r.p!r},{r.eps!r},{r.empirical_tail!r},"
                f"{r.slack!r},{r.bound_total!r},{r.bound_branch},{r.lemma_violations}"
            )
        return "\n".join(lines) + "\n"

    def problems(self) -> list[str]:
        """Why this run fails validation: comparison-lemma violations and
        empirical tails above bound plus slack. Empty when it passes."""
        out = []
        total_lemma = sum(self.lemma_violations)
        if total_lemma > 0:
            out.append(f"{total_lemma} comparison-lemma violations")
        for row in self.rows:
            if not math.isnan(row.bound_total) and (
                row.empirical_tail > row.bound_total + row.slack
            ):
                out.append(
                    f"empirical tail {row.empirical_tail} above bound "
                    f"{row.bound_total} for {row.plan} at eps={row.eps}"
                )
        return out

    def to_json(self) -> str:
        payload = {
            "config": self.config.to_dict(),
            "rows": [vars(r) for r in self.rows],
            "l1": [vars(r) for r in self.l1_rows],
            "lemma_violations": list(self.lemma_violations),
        }
        return json.dumps(payload, sort_keys=True, indent=2)


def attach_bound(
    plan: resampling.ResamplingPlan, n: int, eps: float, vc: int
) -> tuple[float, str]:
    """Clamped theoretical tail for a plan: the tightest bound in
    bounds.REGISTRY whose hypotheses the plan meets, the first listed
    winning ties. Symmetric plans get the symmetric bound, partition plans
    (k-fold, leave-one-out) the k-fold bound as well, and single-atom plans
    the hold-out bound; (nan, "none") when nothing applies.
    """
    best = (math.nan, "none")
    for entry in bounds.REGISTRY.values():
        if entry.applies is not None and entry.applies(plan):
            value = entry.value(n, plan.p, eps, vc, clamp=True)
            if math.isnan(best[0]) or value.total < best[0]:
                best = (value.total, f"{entry.prefix}:{value.branch}")
    return best


class _PlanAccumulator:
    """Running tallies for one plan across trial chunks."""

    def __init__(self, plan: resampling.ResamplingPlan, label: str, eps_grid):
        self.plan = plan
        self.label = label
        self.tail_counts = np.zeros(len(eps_grid), dtype=np.int64)
        self.abs_devs: list[float] = []
        self.lemma_violations = 0


def _batch_labels(dist: SyntheticDistribution, n: int, master_seed: int, t0: int, t1: int):
    """Samples of trials t0..t1-1 as (trials, n) feature and label arrays,
    checked once for the domain of exact 0/1 ERM."""
    xs, ys = dist.from_uniforms(_trial_uniforms(master_seed, t0, t1, 2 * n))
    if not np.isfinite(xs).all():
        raise ValueError("features must be finite")
    learners.check_zero_one_sample(xs, ys)
    return xs, ys


def _chunk_size(n: int, plans) -> int:
    """Trials per chunk: the sorted batch holds about n·log n keys per trial
    and a plan's atoms about (test size + 1)·atoms more, each with some
    150 bytes of temporaries, so a chunk stays near cv.CELL_BUDGET cells.
    Plans too large for one trial are split by cv.threshold_atom_counts."""
    cells = (n + 1) * (n + 1).bit_length()
    cells += sum(p.num_atoms * (p.test_size + 1) for p in plans)
    return max(1, min(2000, cv.CELL_BUDGET // cells))


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Aggregate cfg.trials deterministic trials into an ExperimentReport.

    Trials run in chunks, each split across CPUs and sorted once per
    slice, through batched exact threshold ERM over trials x atoms
    (cv.threshold_atom_counts). Per-atom counts are exact integers, so
    chunk size, slicing and execution order cannot affect the report.
    """
    plans = cfg.built_plans()
    labels = [spec.label for spec in cfg.plans]
    eps_grid = cfg.eps_grid
    accs = [
        _PlanAccumulator(plan, label, eps_grid)
        for plan, label in zip(plans, labels)
    ]
    _run_chunks(cfg, accs)
    rows = []
    l1_rows = []
    lemma_counts = []
    for acc in accs:
        plan = acc.plan
        mean_dev = math.fsum(acc.abs_devs) / cfg.trials
        l1_rows.append(
            L1Row(
                plan=acc.label,
                p=plan.p,
                empirical_mean_abs_dev=mean_dev,
                l1_bound_large=bounds.l1_bound_large(cfg.n, plan.p, cfg.vc),
                l1_bound_small=bounds.l1_bound_small(cfg.n, plan.p, cfg.vc),
            )
        )
        lemma_counts.append(acc.lemma_violations)
        for j, eps in enumerate(eps_grid):
            phat = acc.tail_counts[j] / cfg.trials
            total, branch = attach_bound(plan, cfg.n, eps, cfg.vc)
            rows.append(
                ReportRow(
                    plan=acc.label,
                    p=plan.p,
                    eps=eps,
                    empirical_tail=float(phat),
                    slack=bounds.sampling_slack(phat, cfg.trials),
                    bound_total=total,
                    bound_branch=branch,
                    lemma_violations=acc.lemma_violations,
                )
            )
    return ExperimentReport(
        config=cfg,
        rows=tuple(rows),
        l1_rows=tuple(l1_rows),
        lemma_violations=tuple(lemma_counts),
    )


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


_POOL: ThreadPoolExecutor | None = None
_POOL_LOCK = threading.Lock()


def _pool() -> ThreadPoolExecutor:
    """The threads that score all but the first slice of each chunk,
    started on first use."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = ThreadPoolExecutor(max(1, _cpu_count() - 1), thread_name_prefix="cvbounds")
        return _POOL


def _score_slice(cfg: ExperimentConfig, plans, xs: np.ndarray, ys: np.ndarray):
    """Tail counts, |r_cv - r_tilde| in trial order and lemma violations of
    each plan, for the samples xs, ys of consecutive trials."""
    batch = learners.SortedSamples(xs, ys)
    r_tilde = cfg.eta + (1.0 - 2.0 * cfg.eta) * np.abs(batch.full_cuts - cfg.theta_star)
    out = []
    for plan in plans:
        # elementwise multiply + pairwise sum keeps the reduction order
        # fixed regardless of BLAS threading; that order follows the
        # memory layout, so the counts are read in C order
        counts = np.ascontiguousarray(cv.threshold_atom_counts(plan, batch)[1])
        r_cv = (counts / plan.test_size * plan.probs[None, :]).sum(axis=1)
        dev = np.abs(r_cv - r_tilde)
        tails = [int(np.count_nonzero(dev >= eps)) for eps in cfg.eps_grid]
        violations = 0
        if plan.symmetric():
            violations = int(np.count_nonzero(~cv.lemma_holds(plan, counts, batch.full_errs)))
        out.append((tails, dev.tolist(), violations))
    return out


def _run_chunks(cfg: ExperimentConfig, accs) -> None:
    plans = [acc.plan for acc in accs]
    for plan in plans:
        # compute the lazy plan properties here, before the slices read them
        plan.symmetric()
        _ = plan.test_index_matrix, plan.uniform
    chunk = _chunk_size(cfg.n, plans)
    done = 0
    while done < cfg.trials:
        t1 = min(done + chunk, cfg.trials)
        xs, ys = _batch_labels(cfg.dist, cfg.n, cfg.master_seed, done, t1)
        # split the chunk into one contiguous slice of trials per CPU
        workers = min(_cpu_count(), t1 - done)
        edges = [(t1 - done) * i // workers for i in range(workers + 1)]
        parts = [(cfg, plans, xs[a:b], ys[a:b]) for a, b in zip(edges, edges[1:])]
        # the calling thread scores the first slice itself
        futures = [_pool().submit(_score_slice, *part) for part in parts[1:]]
        try:
            first = _score_slice(*parts[0])
        finally:
            rest = [f.result() for f in futures]
        # integer tallies, and deviations appended in trial order: the
        # report does not depend on the split
        for scored in [first, *rest]:
            for acc, (tails, devs, violations) in zip(accs, scored):
                acc.tail_counts += tails
                acc.abs_devs.extend(devs)
                acc.lemma_violations += violations
        done = t1


def compare_procedures(cfg: ExperimentConfig) -> dict:
    """Side-by-side tails and bounds for the configured plans at equal p,
    plus the two bound ratios evaluated on the config eps grid.

    The training-term ratio is defined for any admissible (n, p); the
    test-term ratio is null where the improved k-fold term is undefined
    (bounds.improved_kfold_folds; p = 1/k with k >= 3).
    """
    return comparison_table(run_experiment(cfg))


def comparison_table(report: ExperimentReport) -> dict:
    """The compare_procedures payload for an existing report."""
    cfg = report.config
    ratios = []
    for spec, plan in zip(cfg.plans, cfg.built_plans()):
        for eps in cfg.eps_grid:
            b_ratio = bounds.ratio_b_sym_over_b_hold(cfg.n, plan.p, eps, cfg.vc)
            v_ratio = None
            if bounds.improved_kfold_folds(cfg.n, plan.p, eps, cfg.vc) is not None:
                v_ratio = bounds.ratio_v_kfold_over_v_sym(cfg.n, plan.p, eps, cfg.vc)
            ratios.append(
                {
                    "plan": spec.label,
                    "p": plan.p,
                    "eps": eps,
                    "b_sym_over_b_hold": b_ratio,
                    "v_kfold_over_v_sym": v_ratio,
                }
            )
    return {
        "rows": [vars(r) for r in report.rows],
        "l1": [vars(r) for r in report.l1_rows],
        "ratios": ratios,
        "config": cfg.to_dict(),
    }


def default_acceptance_configs(trials: int = 10_000, master_seed: int = 20240) -> list[ExperimentConfig]:
    """The desk-scale validation grid: n in {20,50,100}, k in {2,5,10,n},
    eta in {0, 0.1, 0.3}, one config per (n, eta) carrying all four plans."""
    configs = []
    for n in (20, 50, 100):
        for eta in (0.0, 0.1, 0.3):
            ks = []
            for k in (2, 5, 10, n):
                if k not in ks:
                    ks.append(k)
            plans = tuple(
                PlanSpec(kind="loo") if k == n else PlanSpec(kind="kfold", k=k)
                for k in ks
            )
            configs.append(
                ExperimentConfig(
                    theta_star=0.3,
                    eta=eta,
                    n=n,
                    plans=plans,
                    trials=trials,
                    master_seed=master_seed,
                    vc=1,
                    eps_grid=DEFAULT_EPS_GRID,
                )
            )
    return configs
