"""Closed-form deviation bounds for cross-validation procedures.

Every probability bound splits into a training-side term (b_term, grows
with the test fraction p because training data shrinks) and a test-side
term (v_term, shrinks with p); combined procedures take the minimum over
several admissible test-side forms and tag which branch won. Power terms
are evaluated in log space, and the log values travel with the linear
ones so extreme regimes stay inspectable after under/overflow.

Also here: the L1 (expected absolute deviation) bounds, the estimation
curve p -> b_term + v_term with branch-transition detection, the optimal
training/test split rules, and the grid search for the smallest
confidence-interval half-width meeting a target level.

REGISTRY is the one table of procedures: each name maps to its
evaluator, its admissible test fractions, the optional inputs it reads
and, for the bounds the Monte Carlo harness attaches, a branch-tag prefix
and the test on a plan's structure that says the bound applies. The
evaluators, the curve, the interval search, the harness and the CLI read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

LOG_OVERFLOW = 709.0
GRID_TOL = 1e-9

# (extra doublings, scale) of the improved k-fold exponent, k = 1/p:
# 2^(k + extra) exp(-n eps^2 / (scale (sqrt(vc ln(2(2np+1))) + 2))).
# The standalone term and branch 3 of bound_kfold_combined carry
# different constants; tests/oracles.py pins each one.
IMPROVED_STANDALONE = (0, 64.0)
IMPROVED_IN_COMBINED = (1, 25.0 * 64.0)


class InfeasibleCiError(ValueError):
    """No grid point meets the requested confidence level."""


def _exp(logv: float) -> float:
    if logv > LOG_OVERFLOW:
        return math.inf
    return math.exp(logv)


def fold_count(p: float) -> int | None:
    """The integer k with p = 1/k (within GRID_TOL), or None; needs p > 0."""
    k = round(1.0 / p)
    return k if abs(1.0 / p - k) <= GRID_TOL else None


def sampling_slack(phat: float, m: int) -> float:
    """Monte Carlo allowance on a frequency phat over m draws: three
    binomial standard errors, 3 sqrt(phat (1 - phat) / m)."""
    return 3.0 * math.sqrt(phat * (1.0 - phat) / m)


@dataclass(frozen=True)
class BoundQuery:
    """Inputs shared by the probability-bound evaluators.

    n is the sample size, p the test fraction (n*p must be an integer),
    eps the deviation, vc the configured shattering dimension. clamp caps
    totals at 1 (the informative range for probabilities); off by default
    for library use so loose regimes remain inspectable.
    strict_proposition switches the small-test factor from 16/eps to the
    tighter printed variant 1/(16*eps).
    """

    n: int
    p: float
    eps: float
    vc: int
    procedure: str = "symmetric-combined"
    clamp: bool = False
    strict_proposition: bool = False

    def validate(self) -> None:
        if self.n < 2:
            raise ValueError("need n >= 2")
        if not (0.0 < self.p < 1.0):
            raise ValueError("test fraction p must lie in (0,1)")
        np_ = self.n * self.p
        if abs(np_ - round(np_)) > GRID_TOL:
            raise ValueError(f"n*p = {np_!r} is not an integer")
        if round(np_) < 1 or self.n - round(np_) < 1:
            raise ValueError("both n*p and n*(1-p) must be at least 1")
        if not (self.eps > 0.0):
            raise ValueError("eps must be positive")
        if self.vc < 1:
            raise ValueError("vc must be >= 1")


@dataclass(frozen=True)
class BoundValue:
    """A computed bound: the two terms, their logs, total, active branch."""

    b_term: float
    v_term: float
    total: float
    branch: str
    log_b_term: float
    log_v_term: float


def _assemble(log_b: float, log_v: float, branch: str, clamp: bool) -> BoundValue:
    b = _exp(log_b)
    v = _exp(log_v)
    total = b + v
    if clamp:
        total = min(1.0, total)
    return BoundValue(
        b_term=b, v_term=v, total=total, branch=branch,
        log_b_term=log_b, log_v_term=log_v,
    )


def _log_poly(n: int, p: float, vc: int) -> float:
    """log of (2n(1-p)+1)^(4 vc / (1-p)), the shatter-driven factor."""
    return (4.0 * vc / (1.0 - p)) * math.log(2.0 * n * (1.0 - p) + 1.0)


def _log_train(q: BoundQuery, lead: float = 5.0, scale: float = 64.0) -> float:
    """log of lead (2n(1-p)+1)^(4vc/(1-p)) exp(-n eps^2/scale)."""
    return math.log(lead) + _log_poly(q.n, q.p, q.vc) - q.n * q.eps**2 / scale


def _log_hoeffding(q: BoundQuery) -> float:
    """log of exp(-2np eps^2/25), the Hoeffding-type test-side term."""
    return -2.0 * q.n * q.p * q.eps**2 / 25.0


def _small_test_inner(n: int, p: float, vc: int) -> float:
    """vc (ln(2n(1-p)+1) + 4) / (n(1-p))."""
    return vc * (math.log(2.0 * n * (1.0 - p) + 1.0) + 4.0) / (n * (1.0 - p))


def _log_small_test(q: BoundQuery) -> float:
    factor = 1.0 / (16.0 * q.eps) if q.strict_proposition else 16.0 / q.eps
    return math.log(factor) + 0.5 * math.log(_small_test_inner(q.n, q.p, q.vc))


def _log_improved(n: int, p: float, k: int, eps: float, vc: int, constants) -> float:
    """log of the improved k-fold term under (extra doublings, scale)."""
    doublings, scale = constants
    denom = scale * (math.sqrt(vc * math.log(2.0 * (2.0 * n * p + 1.0))) + 2.0)
    return (k + doublings) * math.log(2.0) - n * eps**2 / denom


def improved_kfold_folds(n: int, p: float, eps: float, vc: int) -> int | None:
    """k = 1/p if p < 1/2, 1/p is an integer, eps > 0, vc >= 1 and n >= 2
    (where the improved k-fold term is defined), else None."""
    if not (0.0 < p < 0.5 and eps > 0.0 and vc >= 1 and n >= 2):
        return None
    return fold_count(p)


def _log_improved_standalone(n: int, p: float, eps: float, vc: int) -> float:
    k = improved_kfold_folds(n, p, eps, vc)
    if k is None:
        raise ValueError("improved k-fold term needs p = 1/k < 1/2, eps > 0, vc >= 1, n >= 2")
    return _log_improved(n, p, k, eps, vc, IMPROVED_STANDALONE)


def bound_large_upper(q: BoundQuery) -> BoundValue:
    """One-sided deviation bound for symmetric plans with a large test side.

    b_term = 4 (2n(1-p)+1)^(4vc/(1-p)) exp(-n eps^2/25),
    v_term = exp(-2np eps^2/25).
    """
    q.validate()
    return _assemble(_log_train(q, 4.0, 25.0), _log_hoeffding(q), "hoeffding", q.clamp)


def bound_large_lower(q: BoundQuery) -> float:
    """Bound on the opposite deviation: (2n+1)^(4vc) exp(-n eps^2)."""
    q.validate()
    return _exp(4.0 * q.vc * math.log(2.0 * q.n + 1.0) - q.n * q.eps**2)


def bound_abs_large(q: BoundQuery) -> BoundValue:
    """Two-sided version of the large-test bound; leading constant 5."""
    q.validate()
    return _assemble(_log_train(q, 5.0, 25.0), _log_hoeffding(q), "hoeffding", q.clamp)


def _l1_large_terms(n: int, p: float, vc: int) -> tuple[float, float]:
    BoundQuery(n=n, p=p, eps=1.0, vc=vc).validate()
    return 10.0 * math.sqrt(_small_test_inner(n, p, vc)), 5.0 * math.sqrt(2.0 / (n * p))


def l1_bound_large(n: int, p: float, vc: int) -> float:
    """Expected-absolute-deviation bound for the large-test regime."""
    return sum(_l1_large_terms(n, p, vc))


def bound_abs_small(q: BoundQuery) -> BoundValue:
    """Two-sided bound whose test-side term tolerates tiny test samples.

    b_term = 5 (2n(1-p)+1)^(4vc/(1-p)) exp(-n eps^2/64),
    v_term = (16/eps) sqrt(vc (ln(2n(1-p)+1)+4) / (n(1-p))), or the
    1/(16 eps) variant under strict_proposition.
    """
    q.validate()
    return _assemble(_log_train(q), _log_small_test(q), "small-test", q.clamp)


def _l1_small_terms(n: int, p: float, vc: int) -> tuple[float, float]:
    BoundQuery(n=n, p=p, eps=1.0, vc=vc).validate()
    inner = _small_test_inner(n, p, vc)
    return 16.0 * math.sqrt(inner) * (math.log(math.sqrt(1.0 / inner)) + 2.0), 0.0


def l1_bound_small(n: int, p: float, vc: int) -> float:
    """Expected-absolute-deviation bound driven by the training side only.

    16 s (ln(1/s) + 2) with s = sqrt(vc (ln(2n(1-p)+1)+4) / (n(1-p))).
    Positive and increasing while s < e; for extreme vc/n combinations
    (s > e^2) the raw value turns negative, i.e. vacuous, and is returned
    as computed.
    """
    return sum(_l1_small_terms(n, p, vc))


def bound_sym_combined(q: BoundQuery) -> BoundValue:
    """Two-sided bound for symmetric plans; test side takes the better of
    the Hoeffding-type and small-test forms.

    b_term = 5 (2n(1-p)+1)^(4vc/(1-p)) exp(-n eps^2/64);
    v_term = min(exp(-2np eps^2/25), small-test factor).
    """
    q.validate()
    log_v_hoef = _log_hoeffding(q)
    log_v_small = _log_small_test(q)
    if log_v_hoef <= log_v_small:
        return _assemble(_log_train(q), log_v_hoef, "hoeffding", q.clamp)
    return _assemble(_log_train(q), log_v_small, "small-test", q.clamp)


def bound_kfold_improved(n: int, p: float, eps: float, vc: int) -> float:
    """Sharper k-fold tail term; requires p < 1/2 with 1/p an integer.

    2^(1/p) exp(-n eps^2 / (64 (sqrt(vc ln(2(2np+1))) + 2))). Decays
    exponentially in n even when np is held fixed, provided eps^2 exceeds
    64 (sqrt(vc ln(2(2np+1))) + 2) ln2 / (np).
    """
    return _exp(_log_improved_standalone(n, p, eps, vc))


def bound_kfold_combined(q: BoundQuery) -> BoundValue:
    """Two-sided k-fold bound; test side takes the best of three forms.

    With k = 1/p: b_term = 5 (2n(1-1/k)+1)^(4vc/(1-1/k)) exp(-n eps^2/64);
    v_term = min(exp(-2n eps^2/(25k)), small-test factor,
    2 * 2^k exp(-n eps^2/(25*64*(sqrt(vc ln(2(2n/k+1)))+2)))). All three
    branches are evaluated for every k >= 2.
    """
    q.validate()
    k = fold_count(q.p)
    if k is None or k < 2:
        raise ValueError("k-fold bound needs p = 1/k for an integer k >= 2")
    branches = [
        (-2.0 * q.n * q.eps**2 / (25.0 * k), "hoeffding"),
        (_log_small_test(q), "small-test"),
        (_log_improved(q.n, q.p, k, q.eps, q.vc, IMPROVED_IN_COMBINED), "improved"),
    ]
    log_v, branch = min(branches, key=lambda item: item[0])
    return _assemble(_log_train(q), log_v, branch, q.clamp)


def bound_holdout(q: BoundQuery) -> BoundValue:
    """Single-split bound: both exponents see their own sample size.

    b_term = 8 (2n(1-p)+1)^(4vc) exp(-2n(1-p) eps^2/25),
    v_term = 2 exp(-2np eps^2/25). The test-side term cannot vanish
    unless np itself grows.
    """
    q.validate()
    log_b = (
        math.log(8.0)
        + 4.0 * q.vc * math.log(2.0 * q.n * (1.0 - q.p) + 1.0)
        - 2.0 * q.n * (1.0 - q.p) * q.eps**2 / 25.0
    )
    return _assemble(log_b, math.log(2.0) + _log_hoeffding(q), "hoeffding", q.clamp)


def _l1_chained_terms(n: int, p: float, vc: int, c: float) -> tuple[float, float]:
    BoundQuery(n=n, p=p, eps=1.0, vc=vc).validate()
    if c < 0.0:
        raise ValueError("constant c must be nonnegative")
    return c * math.sqrt(vc / (n * (1.0 - p))), 2.0 * math.sqrt(6.0 / (n * p))


def l1_bound_chained(n: int, p: float, vc: int, c: float) -> float:
    """Expected-absolute-deviation bound with a caller-supplied leading
    constant c on the training side: c sqrt(vc/(n(1-p))) + 2 sqrt(6/(np))."""
    return sum(_l1_chained_terms(n, p, vc, c))


@dataclass(frozen=True)
class Procedure:
    """One row of REGISTRY. evaluator names the module function; it is
    looked up at each call, so patching it reaches every caller. Bounds
    that read eps take a BoundQuery; the others return (b_term, v_term)
    from (n, p, vc[, c]). folds: admissible p are 1/k with k dividing n,
    not every p with n*p an integer. prefix, applies: for the bounds
    harness.attach_bound may attach, the branch tag and the plan test."""

    evaluator: str
    folds: bool = False
    reads_eps: bool = True
    reads_strict: bool = False
    reads_c: bool = False
    prefix: str | None = None
    applies: Callable[..., bool] | None = None

    def value(self, n, p, eps, vc, clamp=False, strict_proposition=False, c=1.0) -> BoundValue:
        """The bound at one split, reading eps and c only where it uses them."""
        fn = globals()[self.evaluator]
        if self.reads_eps:
            q = BoundQuery(n, p, float(eps), vc, clamp=clamp, strict_proposition=strict_proposition)
            return fn(q)
        b, v = fn(n, p, vc, c) if self.reads_c else fn(n, p, vc)
        logs = [math.log(x) if x > 0.0 else -math.inf for x in (b, v)]
        return BoundValue(b, v, min(1.0, b + v) if clamp else b + v, "l1", *logs)


REGISTRY = {
    "symmetric-large": Procedure("bound_abs_large"),
    "symmetric-small": Procedure("bound_abs_small", reads_strict=True),
    "symmetric-combined": Procedure("bound_sym_combined", reads_strict=True,
                                    prefix="sym", applies=lambda plan: plan.symmetric()),
    "kfold": Procedure("bound_kfold_combined", folds=True, reads_strict=True,
                       prefix="kf", applies=lambda plan: plan.partition),
    "holdout": Procedure("bound_holdout", prefix="hold", applies=lambda plan: plan.num_atoms == 1),
    "l1-large": Procedure("_l1_large_terms", reads_eps=False),
    "l1-small": Procedure("_l1_small_terms", reads_eps=False),
    "l1-chained": Procedure("_l1_chained_terms", reads_eps=False, reads_c=True),
}


def procedure_entry(name: str, probability: bool = False) -> Procedure:
    """REGISTRY[name]; with probability=True only a bound that reads eps."""
    entry = REGISTRY.get(name)
    if entry is None:
        raise ValueError(f"unknown procedure {name!r}")
    if probability and not entry.reads_eps:
        names = ", ".join(k for k, e in REGISTRY.items() if e.reads_eps)
        raise ValueError(
            f"{name!r} bounds the expected deviation; "
            f"a probability procedure is needed: {names}"
        )
    return entry


def evaluate_procedure(q: BoundQuery) -> BoundValue:
    """Dispatch a BoundQuery to the probability bound named by its procedure tag."""
    return globals()[procedure_entry(q.procedure, probability=True).evaluator](q)


@dataclass(frozen=True)
class CurvePoint:
    p: float
    value: BoundValue


@dataclass(frozen=True)
class Transition:
    """Grid interval on which the active test-side branch changes."""

    p_before: float
    p_after: float
    branch_before: str
    branch_after: str


@dataclass(frozen=True)
class CurveResult:
    points: tuple[CurvePoint, ...]
    transitions: tuple[Transition, ...]
    snapped: tuple[tuple[float, float], ...]
    dropped: tuple[float, ...]


def _default_p_grid(n: int, entry: Procedure) -> list[float]:
    if entry.folds:
        ks = [k for k in range(2, min(n, 100) + 1) if n % k == 0]
        if n > 100 and n not in ks:
            ks.append(n)
        return [1.0 / k for k in ks]
    return [1.0 / n] + [j / 100.0 for j in range(1, 51)]


def _snap_grid(n: int, entry: Procedure, p_grid) -> tuple[list[float], list, list]:
    """Snap p values down to admissible grid points; dedupe, keep order."""
    used: list[float] = []
    snapped: list[tuple[float, float]] = []
    dropped: list[float] = []
    seen = set()
    for p in p_grid:
        if entry.folds:
            k = round(1.0 / p) if p > 0 else 0
            if k < 2 or n % k != 0:
                dropped.append(p)
                continue
            q = 1.0 / k
        else:
            m = math.floor(n * p + GRID_TOL)
            if m < 1 or m > n - 1:
                dropped.append(p)
                continue
            q = m / n
        if abs(q - p) > GRID_TOL:
            snapped.append((p, q))
        if q not in seen:
            seen.add(q)
            used.append(q)
    return used, snapped, dropped


def estimation_curve(
    n: int,
    eps: float | None,
    vc: int,
    procedure: str,
    p_grid=None,
    clamp: bool = False,
    strict_proposition: bool = False,
    c: float = 1.0,
) -> CurveResult:
    """Evaluate a bound along a grid of test fractions.

    Returns per-point totals plus the detected transitions: grid intervals
    where the active test-side branch changes. Grid points whose n*p is
    not an integer are snapped down and deduplicated; points that cannot
    be made admissible (kfold grids need 1/p to divide n) are dropped and
    reported. Probability procedures need eps; the others ignore it.
    """
    entry = procedure_entry(procedure)
    if entry.reads_eps and eps is None:
        raise ValueError(f"procedure {procedure!r} needs eps")
    if p_grid is None:
        p_grid = _default_p_grid(n, entry)
    used, snapped, dropped = _snap_grid(n, entry, p_grid)
    if not used:
        raise ValueError("no admissible p values on the grid")
    points = [
        CurvePoint(p=p, value=entry.value(n, p, eps, vc, clamp, strict_proposition, c))
        for p in used
    ]
    transitions = tuple(
        Transition(a.p, b.p, a.value.branch, b.value.branch)
        for a, b in zip(points, points[1:])
        if a.value.branch != b.value.branch
    )
    return CurveResult(tuple(points), transitions, tuple(snapped), tuple(dropped))


@dataclass(frozen=True)
class OptimalSplit:
    """A closed-form split suggestion, snapped to an integer test count."""

    p_raw: float
    p: float
    snap: str
    mode: str


def optimal_split_l1(n: int, vc: int, c: float | None = None, mode: str = "computable") -> OptimalSplit:
    """Test fraction minimizing the L1 trade-off, by closed form.

    chained mode: p = ((c^2 vc / (2 sqrt 6))^(1/3) + 1)^(-1), needs c > 0.
    computable mode: same shape with c^2 vc replaced by the data-driven
    lead vc (ln(2n) + 4); ignores c. The raw value is snapped to the
    nearest p with n*p an integer and the direction is recorded.
    """
    if n < 2 or vc < 1:
        raise ValueError("need n >= 2 and vc >= 1")
    if mode == "chained":
        if c is None or not (c > 0.0):
            raise ValueError("chained mode needs a constant c > 0")
        inner = c * c * vc / (2.0 * math.sqrt(6.0))
    elif mode == "computable":
        inner = vc * (math.log(2.0 * n) + 4.0) / (2.0 * math.sqrt(6.0))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    p_raw = 1.0 / (inner ** (1.0 / 3.0) + 1.0)
    m = min(max(int(round(n * p_raw)), 1), n - 1)
    p = m / n
    if abs(p - p_raw) <= GRID_TOL:
        snap = "exact"
    elif p < p_raw:
        snap = "down"
    else:
        snap = "up"
    return OptimalSplit(p_raw=p_raw, p=p, snap=snap, mode=mode)


@dataclass(frozen=True)
class CiResult:
    """Smallest half-width meeting the level, with its minimizing split."""

    eps_star: float
    p_star: float
    achieved_bound: float
    procedure: str


def default_ci_p_grid(n: int) -> list[float]:
    """Fold-menu default: p = 1/k for k in {2,3,4,5,10} dividing n."""
    return [1.0 / k for k in (10, 5, 4, 3, 2) if n % k == 0][::-1]


def default_ci_eps_grid() -> list[float]:
    return [i / 20.0 for i in range(1, 41)]


def confidence_interval_search(
    n: int,
    vc: int,
    alpha: float,
    procedure: str = "symmetric-combined",
    p_grid=None,
    eps_grid=None,
    clamp: bool = True,
    strict_proposition: bool = False,
) -> CiResult:
    """Smallest grid eps whose best-over-p bound is at most alpha.

    Scans eps in increasing order; for the winning eps returns the
    smallest minimizing p. Raises InfeasibleCiError when no grid pair
    qualifies.
    """
    if not (0.0 < alpha):
        raise ValueError("alpha must be positive")
    if p_grid is None:
        p_grid = default_ci_p_grid(n)
        if not p_grid:
            raise ValueError(
                "no default split divides n evenly; pass an explicit p_grid"
            )
    if eps_grid is None:
        eps_grid = default_ci_eps_grid()
    entry = procedure_entry(procedure, probability=True)
    p_used, _, _ = _snap_grid(n, entry, sorted(p_grid))
    if not p_used or not eps_grid:
        raise ValueError("grids must be nonempty and admissible")
    for eps in sorted(eps_grid):
        # ties go to the smaller p, the earlier one on the ascending grid
        best_total, best_p = min(
            (entry.value(n, p, eps, vc, clamp, strict_proposition).total, p) for p in p_used
        )
        if best_total <= alpha:
            return CiResult(
                eps_star=eps, p_star=best_p, achieved_bound=best_total,
                procedure=procedure,
            )
    raise InfeasibleCiError("no (eps, p) on grid meets alpha")


def log_ratio_b_sym_over_b_hold(n: int, p: float, eps: float, vc: int) -> float:
    """Log of the crossing/no-crossing training-term ratio.

    (4 vc p / (1-p)) ln(2n(1-p)+1) - n p eps^2: negative and diverging
    once n p eps^2 outruns the logarithmic factor, so the crossing bound's
    training term wins for large n at fixed p.
    """
    BoundQuery(n=n, p=p, eps=eps, vc=vc).validate()
    return (4.0 * vc * p / (1.0 - p)) * math.log(2.0 * n * (1.0 - p) + 1.0) - n * p * eps**2


def ratio_b_sym_over_b_hold(n: int, p: float, eps: float, vc: int) -> float:
    return _exp(log_ratio_b_sym_over_b_hold(n, p, eps, vc))


def log_ratio_v_kfold_over_v_sym(n: int, p: float, eps: float, vc: int) -> float:
    """Log of improved k-fold tail term over the Hoeffding-type term.

    The Hoeffding-type term exp(-2np eps^2/25) is constant when np is held
    fixed, while the improved term keeps decaying in n whenever eps^2
    exceeds 64 (sqrt(vc ln(2(2np+1))) + 2) ln2 / (np); the ratio then
    falls to zero.
    """
    return _log_improved_standalone(n, p, eps, vc) + 2.0 * n * p * eps**2 / 25.0


def ratio_v_kfold_over_v_sym(n: int, p: float, eps: float, vc: int) -> float:
    return _exp(log_ratio_v_kfold_over_v_sym(n, p, eps, vc))
