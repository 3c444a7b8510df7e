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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

LOG_OVERFLOW = 709.0
GRID_TOL = 1e-9

PROCEDURES = (
    "symmetric-large",
    "symmetric-small",
    "symmetric-combined",
    "kfold",
    "holdout",
)
L1_PROCEDURES = ("l1-large", "l1-small", "l1-chained")


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


def _log_small_test(n: int, p: float, eps: float, vc: int, strict: bool) -> float:
    inner = vc * (math.log(2.0 * n * (1.0 - p) + 1.0) + 4.0) / (n * (1.0 - p))
    factor = 1.0 / (16.0 * eps) if strict else 16.0 / eps
    return math.log(factor) + 0.5 * math.log(inner)


def bound_large_upper(q: BoundQuery) -> BoundValue:
    """One-sided deviation bound for symmetric plans with a large test side.

    b_term = 4 (2n(1-p)+1)^(4vc/(1-p)) exp(-n eps^2/25),
    v_term = exp(-2np eps^2/25).
    """
    q.validate()
    log_b = math.log(4.0) + _log_poly(q.n, q.p, q.vc) - q.n * q.eps**2 / 25.0
    log_v = -2.0 * q.n * q.p * q.eps**2 / 25.0
    return _assemble(log_b, log_v, "hoeffding", q.clamp)


def bound_large_lower(q: BoundQuery) -> float:
    """Bound on the opposite deviation: (2n+1)^(4vc) exp(-n eps^2)."""
    q.validate()
    return _exp(4.0 * q.vc * math.log(2.0 * q.n + 1.0) - q.n * q.eps**2)


def bound_abs_large(q: BoundQuery) -> BoundValue:
    """Two-sided version of the large-test bound; leading constant 5."""
    q.validate()
    log_b = math.log(5.0) + _log_poly(q.n, q.p, q.vc) - q.n * q.eps**2 / 25.0
    log_v = -2.0 * q.n * q.p * q.eps**2 / 25.0
    return _assemble(log_b, log_v, "hoeffding", q.clamp)


def _l1_large_terms(n: int, p: float, vc: int) -> tuple[float, float]:
    BoundQuery(n=n, p=p, eps=1.0, vc=vc).validate()
    lead = math.log(2.0 * n * (1.0 - p) + 1.0) + 4.0
    return 10.0 * math.sqrt(vc * lead / (n * (1.0 - p))), 5.0 * math.sqrt(2.0 / (n * p))


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
    log_b = math.log(5.0) + _log_poly(q.n, q.p, q.vc) - q.n * q.eps**2 / 64.0
    log_v = _log_small_test(q.n, q.p, q.eps, q.vc, q.strict_proposition)
    return _assemble(log_b, log_v, "small-test", q.clamp)


def l1_bound_small(n: int, p: float, vc: int) -> float:
    """Expected-absolute-deviation bound driven by the training side only.

    16 s (ln(1/s) + 2) with s = sqrt(vc (ln(2n(1-p)+1)+4) / (n(1-p))).
    Positive and increasing while s < e; for extreme vc/n combinations
    (s > e^2) the raw value turns negative, i.e. vacuous, and is returned
    as computed.
    """
    BoundQuery(n=n, p=p, eps=1.0, vc=vc).validate()
    inner = vc * (math.log(2.0 * n * (1.0 - p) + 1.0) + 4.0) / (n * (1.0 - p))
    s = math.sqrt(inner)
    return 16.0 * s * (math.log(math.sqrt(1.0 / inner)) + 2.0)


def bound_sym_combined(q: BoundQuery) -> BoundValue:
    """Two-sided bound for symmetric plans; test side takes the better of
    the Hoeffding-type and small-test forms.

    b_term = 5 (2n(1-p)+1)^(4vc/(1-p)) exp(-n eps^2/64);
    v_term = min(exp(-2np eps^2/25), small-test factor).
    """
    q.validate()
    log_b = math.log(5.0) + _log_poly(q.n, q.p, q.vc) - q.n * q.eps**2 / 64.0
    log_v_hoef = -2.0 * q.n * q.p * q.eps**2 / 25.0
    log_v_small = _log_small_test(q.n, q.p, q.eps, q.vc, q.strict_proposition)
    if log_v_hoef <= log_v_small:
        return _assemble(log_b, log_v_hoef, "hoeffding", q.clamp)
    return _assemble(log_b, log_v_small, "small-test", q.clamp)


def bound_kfold_improved(n: int, p: float, eps: float, vc: int) -> float:
    """Sharper k-fold tail term; requires p < 1/2 with 1/p an integer.

    2^(1/p) exp(-n eps^2 / (64 (sqrt(vc ln(2(2np+1))) + 2))). Decays
    exponentially in n even when np is held fixed, provided eps^2 exceeds
    64 (sqrt(vc ln(2(2np+1))) + 2) ln2 / (np).
    """
    if not (0.0 < p < 0.5):
        raise ValueError("improved k-fold term needs p < 1/2")
    k = fold_count(p)
    if k is None:
        raise ValueError("1/p must be an integer")
    if not (eps > 0.0) or vc < 1 or n < 2:
        raise ValueError("need eps > 0, vc >= 1, n >= 2")
    denom = 64.0 * (math.sqrt(vc * math.log(2.0 * (2.0 * n * p + 1.0))) + 2.0)
    return _exp(k * math.log(2.0) - n * eps**2 / denom)


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
    log_b = math.log(5.0) + _log_poly(q.n, q.p, q.vc) - q.n * q.eps**2 / 64.0
    log_v1 = -2.0 * q.n * q.eps**2 / (25.0 * k)
    log_v2 = _log_small_test(q.n, q.p, q.eps, q.vc, q.strict_proposition)
    np_ = q.n * q.p
    denom3 = 25.0 * 64.0 * (math.sqrt(q.vc * math.log(2.0 * (2.0 * np_ + 1.0))) + 2.0)
    log_v3 = (k + 1) * math.log(2.0) - q.n * q.eps**2 / denom3
    branches = [(log_v1, "hoeffding"), (log_v2, "small-test"), (log_v3, "improved")]
    log_v, branch = min(branches, key=lambda item: item[0])
    return _assemble(log_b, log_v, branch, q.clamp)


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
    log_v = math.log(2.0) - 2.0 * q.n * q.p * q.eps**2 / 25.0
    return _assemble(log_b, log_v, "hoeffding", q.clamp)


def _l1_chained_terms(n: int, p: float, vc: int, c: float) -> tuple[float, float]:
    BoundQuery(n=n, p=p, eps=1.0, vc=vc).validate()
    if c < 0.0:
        raise ValueError("constant c must be nonnegative")
    return c * math.sqrt(vc / (n * (1.0 - p))), 2.0 * math.sqrt(6.0 / (n * p))


def l1_bound_chained(n: int, p: float, vc: int, c: float) -> float:
    """Expected-absolute-deviation bound with a caller-supplied leading
    constant c on the training side: c sqrt(vc/(n(1-p))) + 2 sqrt(6/(np))."""
    return sum(_l1_chained_terms(n, p, vc, c))


def evaluate_procedure(q: BoundQuery) -> BoundValue:
    """Dispatch a BoundQuery to the evaluator named by its procedure tag."""
    table = {
        "symmetric-large": bound_abs_large,
        "symmetric-small": bound_abs_small,
        "symmetric-combined": bound_sym_combined,
        "kfold": bound_kfold_combined,
        "holdout": bound_holdout,
    }
    if q.procedure not in table:
        raise ValueError(f"unknown procedure {q.procedure!r}")
    return table[q.procedure](q)


def _l1_value(procedure: str, n: int, p: float, vc: int, c: float, clamp: bool) -> BoundValue:
    def _log(x: float) -> float:
        return math.log(x) if x > 0.0 else -math.inf

    if procedure == "l1-large":
        b, v = _l1_large_terms(n, p, vc)
    elif procedure == "l1-small":
        b, v = l1_bound_small(n, p, vc), 0.0
    elif procedure == "l1-chained":
        b, v = _l1_chained_terms(n, p, vc, c)
    else:
        raise ValueError(f"unknown procedure {procedure!r}")
    total = b + v
    if clamp:
        total = min(1.0, total)
    return BoundValue(b, v, total, "l1", _log(b), _log(v))


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


def _default_p_grid(n: int, procedure: str) -> list[float]:
    if procedure == "kfold":
        ks = [k for k in range(2, min(n, 100) + 1) if n % k == 0]
        if n > 100 and n not in ks:
            ks.append(n)
        return [1.0 / k for k in ks]
    grid = [1.0 / n] + [j / 100.0 for j in range(1, 51)]
    return grid


def _snap_grid(n: int, procedure: str, p_grid) -> tuple[list[float], list, list]:
    """Snap p values down to admissible grid points; dedupe, keep order."""
    used: list[float] = []
    snapped: list[tuple[float, float]] = []
    dropped: list[float] = []
    seen = set()
    for p in p_grid:
        if procedure == "kfold":
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
    reported.
    """
    if procedure not in PROCEDURES + L1_PROCEDURES:
        raise ValueError(f"unknown procedure {procedure!r}")
    if p_grid is None:
        p_grid = _default_p_grid(n, procedure)
    used, snapped, dropped = _snap_grid(n, procedure, p_grid)
    if not used:
        raise ValueError("no admissible p values on the grid")
    points = []
    for p in used:
        if procedure in L1_PROCEDURES:
            value = _l1_value(procedure, n, p, vc, c, clamp)
        else:
            q = BoundQuery(
                n=n, p=p, eps=float(eps), vc=vc, procedure=procedure,
                clamp=clamp, strict_proposition=strict_proposition,
            )
            value = evaluate_procedure(q)
        points.append(CurvePoint(p=p, value=value))
    transitions = []
    for a, b in zip(points, points[1:]):
        if a.value.branch != b.value.branch:
            transitions.append(
                Transition(a.p, b.p, a.value.branch, b.value.branch)
            )
    return CurveResult(
        points=tuple(points),
        transitions=tuple(transitions),
        snapped=tuple(snapped),
        dropped=tuple(dropped),
    )


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
    p_used, _, _ = _snap_grid(n, procedure, sorted(p_grid))
    if not p_used or not eps_grid:
        raise ValueError("grids must be nonempty and admissible")
    for eps in sorted(eps_grid):
        best_p = None
        best_total = math.inf
        for p in p_used:
            q = BoundQuery(
                n=n, p=p, eps=eps, vc=vc, procedure=procedure,
                clamp=clamp, strict_proposition=strict_proposition,
            )
            total = evaluate_procedure(q).total
            if total < best_total:
                best_total = total
                best_p = p
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
    if not (0.0 < p < 0.5):
        raise ValueError("improved k-fold term needs p < 1/2")
    k = fold_count(p)
    if k is None:
        raise ValueError("1/p must be an integer")
    denom = 64.0 * (math.sqrt(vc * math.log(2.0 * (2.0 * n * p + 1.0))) + 2.0)
    return k * math.log(2.0) - n * eps**2 / denom + 2.0 * n * p * eps**2 / 25.0


def ratio_v_kfold_over_v_sym(n: int, p: float, eps: float, vc: int) -> float:
    return _exp(log_ratio_v_kfold_over_v_sym(n, p, eps, vc))
