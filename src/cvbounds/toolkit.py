"""Tail inequalities, tail-to-expectation conversions, and the
subgaussian moment chain, each paired with a numerical verifier.

The closed forms here are the raw material the procedure bounds are
assembled from. Verifiers estimate the left side of each inequality by
Monte Carlo or quadrature and report, per grid point, the empirical
value, the bound, the sampling slack, and whether the inequality held.
The slack everywhere is bounds.sampling_slack, 3*sqrt(phat(1-phat)/m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, stats

from . import bounds
from .bounds import _exp, sampling_slack

# Coefficient of sigma in the gamma closed form. The two variants are
# algebraically identical ((2pi)^(1/4) 2^(3/4) = 2 pi^(1/4)); both are
# kept so either printed shape can be requested and cross-checked.
KAPPA_STATEMENT = math.pi ** 0.25 * 3.0 ** (1.0 / 3.0) * 2.0 * math.exp(-0.5)
KAPPA_PROOF = (
    (2.0 * math.pi) ** 0.25 * 3.0 ** (1.0 / 3.0) * 2.0 ** 0.75 * math.exp(-0.5)
)

LAPLACE_CONSTANT = math.sqrt(2.0) * math.exp(1.0 / 6.0)


@dataclass(frozen=True)
class TailSpec:
    """A subgaussian (or generic) tail envelope P(X >= t) <= c e^(-t^2/(2 sigma2))."""

    c: float
    sigma2: float
    form: str = "subgaussian"

    def __post_init__(self) -> None:
        if self.form not in ("subgaussian", "generic"):
            raise ValueError(f"unknown tail form {self.form!r}")
        if self.sigma2 <= 0.0:
            raise ValueError("sigma2 must be positive")
        if self.form == "subgaussian" and self.c < 2.0:
            raise ValueError("subgaussian form needs c >= 2")


def hoeffding_tail(ranges, eps: float, n: int | None = None) -> float:
    """Upper tail of a mean of independent bounded variables.

    exp(-2 n^2 eps^2 / sum (b_i-a_i)^2) for the deviation of the mean by
    eps; a single (a,b) pair is broadcast to all n coordinates.
    """
    ranges = list(ranges)
    if ranges and not hasattr(ranges[0], "__len__"):
        ranges = [tuple(ranges)]
    if n is None:
        n = len(ranges)
    if n < 1:
        raise ValueError("need n >= 1")
    if len(ranges) == 1:
        ranges = ranges * n
    if len(ranges) != n:
        raise ValueError("ranges length must equal n (or be a single pair)")
    if eps < 0.0:
        raise ValueError("eps must be nonnegative")
    span2 = math.fsum((b - a) ** 2 for a, b in ranges)
    if any(b <= a for a, b in ranges):
        raise ValueError("each range needs b > a")
    return _exp(-2.0 * n * n * eps * eps / span2)


def vc_tail(n: int, vc: int, eps: float) -> float:
    """Uniform-deviation tail over a class of finite shattering dimension.

    min(2(2n+1)^vc, 2(2ne/vc)^vc) * exp(-n eps^2/8); the second constant
    is admissible only when n >= vc and the smaller one is used.
    """
    if n < 1 or vc < 1:
        raise ValueError("need n >= 1 and vc >= 1")
    if eps < 0.0:
        raise ValueError("eps must be nonnegative")
    log_c = math.log(2.0) + vc * math.log(2.0 * n + 1.0)
    if n >= vc:
        log_alt = math.log(2.0) + vc * math.log(2.0 * n * math.e / vc)
        log_c = min(log_c, log_alt)
    return _exp(log_c - n * eps * eps / 8.0)


def mcdiarmid_tail(c_i, eps: float) -> float:
    """Bounded-differences tail: exp(-2 eps^2 / sum c_i^2)."""
    cs = [float(c) for c in c_i]
    if not cs or any(c <= 0.0 for c in cs):
        raise ValueError("need a nonempty sequence of positive c_i")
    if eps < 0.0:
        raise ValueError("eps must be nonnegative")
    return _exp(-2.0 * eps * eps / math.fsum(c * c for c in cs))


def expectation_from_subgaussian_tail(C: float, K: float) -> float:
    """E X <= sqrt((ln C + 2)/K) for X >= 0 with P(X >= t) <= C e^(-K t^2)."""
    if C < 1.0:
        raise ValueError("need C >= 1")
    if K <= 0.0:
        raise ValueError("need K > 0")
    return math.sqrt((math.log(C) + 2.0) / K)


def expectation_from_pareto_tail(A: float) -> float:
    """E X <= A(1 - ln A) for X in [0,1] with P(X >= t) <= A/t; capped at 1."""
    if A <= 0.0:
        raise ValueError("need A > 0")
    if A >= 1.0:
        return 1.0
    return A * (1.0 - math.log(A))


def reverse_markov_check(sample, eps: float, grid_points: int = 1024):
    """Empirical check of P(X >= eps) <= (integral of P(X <= -x) dx)/eps.

    The sample must look centered (mean within 3 standard errors of 0,
    the regime the inequality addresses) and live in [-1, 1]. Returns
    (lhs, rhs, holds) where the integral runs over x in [0,1] by the
    trapezoid rule and holds allows the Monte Carlo slack on lhs.
    """
    xs = np.asarray(sample, dtype=np.float64)
    if xs.ndim != 1 or xs.size < 2:
        raise ValueError("sample must be a 1-d sequence with >= 2 points")
    if xs.min() < -1.0 or xs.max() > 1.0:
        raise ValueError("sample values must lie in [-1, 1]")
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    m = xs.size
    mean = float(xs.mean())
    se = float(xs.std(ddof=1)) / math.sqrt(m)
    if abs(mean) > 3.0 * se and mean != 0.0:
        raise ValueError("sample mean is not within 3 standard errors of 0")
    lhs = float(np.count_nonzero(xs >= eps)) / m
    sorted_xs = np.sort(xs)
    grid = np.linspace(0.0, 1.0, grid_points)
    below = np.searchsorted(sorted_xs, -grid, side="right") / m
    rhs = float(np.trapezoid(below, grid)) / eps
    holds = lhs <= rhs + sampling_slack(lhs, m)
    return lhs, rhs, holds


def subgaussian_moment_gamma(sigma: float, c: float, proof_form: bool = False) -> float:
    """gamma with (E max(Y,0)^q)^(1/q) <= sqrt(gamma q) for subgaussian Y.

    gamma = (sigma sqrt(4 ln c) + kappa sigma)^2 with kappa per the chosen
    printed variant; proof_form switches the coefficient shape.
    """
    if c < 2.0:
        raise ValueError("need c >= 2")
    if sigma <= 0.0:
        raise ValueError("need sigma > 0")
    kappa = KAPPA_PROOF if proof_form else KAPPA_STATEMENT
    root = sigma * math.sqrt(4.0 * math.log(c)) + kappa * sigma
    return root * root


def laplace_bound_from_moments(gamma: float, s: float) -> float:
    """Moment generating bound: E e^(sY) <= sqrt2 e^(1/6) e^(s^2 e gamma/2)."""
    if gamma < 0.0:
        raise ValueError("need gamma >= 0")
    return LAPLACE_CONSTANT * _exp(s * s * math.e * gamma / 2.0)


def log_chernoff_sum(alpha: float, beta2: float, V: int, eps: float) -> float:
    if alpha <= 0.0 or beta2 <= 0.0:
        raise ValueError("need alpha > 0 and beta2 > 0")
    if V < 1:
        raise ValueError("need V >= 1")
    if eps < 0.0:
        raise ValueError("eps must be nonnegative")
    return V * math.log(alpha) - V * eps * eps / (2.0 * beta2)


def chernoff_sum(alpha: float, beta2: float, V: int, eps: float) -> float:
    """Tail of an average of V variables with MGF bound alpha e^(s^2 beta2/2):
    alpha^V exp(-V eps^2/(2 beta2)), evaluated in log space."""
    return _exp(log_chernoff_sum(alpha, beta2, V, eps))


def _kfold_chain_inputs(n: int, p: float, vc: int) -> tuple[int, float, float]:
    """V = 1/p, n·p and the shatter constant c = 2(2np+1)^vc of the k-fold
    chain; p must be 1/V for an integer V and n·p a positive integer."""
    V = bounds.fold_count(p) if 0.0 < p < 1.0 else None
    if V is None:
        raise ValueError("need p = 1/V for an integer V")
    np_ = n * p
    if abs(np_ - round(np_)) > 1e-9 or round(np_) < 1:
        raise ValueError("n*p must be a positive integer")
    return V, np_, 2.0 * (2.0 * np_ + 1.0) ** vc


def log_kfold_pipeline(n: int, p: float, eps: float, vc: int, proof_form: bool = False) -> float:
    """Chain the moment lemmas into the sharpened k-fold tail term.

    Uses sigma^2 = 4/(np), shatter constant c = 2(2np+1)^vc, V = 1/p:
    log of chernoff_sum(sqrt2 e^(1/6), e*gamma(sigma, c), V, eps).
    """
    V, np_, c = _kfold_chain_inputs(n, p, vc)
    sigma = 2.0 / math.sqrt(np_)
    gamma = subgaussian_moment_gamma(sigma, c, proof_form=proof_form)
    return log_chernoff_sum(LAPLACE_CONSTANT, math.e * gamma, V, eps)


def log_kfold_proof_form(n: int, p: float, eps: float, vc: int) -> float:
    """The same tail term written the way the derivation's last line prints it:
    (sqrt2 e^(1/6))^(1/p) exp(-(1/p) eps^2 / (2 sigma^2 (e^(1/2) sqrt(4 ln c)
    + pi^(1/4) 3^(1/3) 2)^2)) with sigma^2 = 4/(np), c = 2(2np+1)^vc."""
    V, np_, c = _kfold_chain_inputs(n, p, vc)
    sigma2 = 4.0 / np_
    root = math.sqrt(math.e) * math.sqrt(4.0 * math.log(c)) + (
        math.pi ** 0.25 * 3.0 ** (1.0 / 3.0) * 2.0
    )
    return V * math.log(LAPLACE_CONSTANT) - V * eps * eps / (2.0 * sigma2 * root * root)


# ---------------------------------------------------------------------------
# Verifiers. Each returns {"inequality", "params", "grid": [...]} with one
# grid entry per test point: {"eps", "empirical", "bound", "slack", "holds"}.
# ---------------------------------------------------------------------------

def _generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def _report(inequality: str, params: dict, grid: list) -> dict:
    return {"inequality": inequality, "params": params, "grid": grid}


def _entry(eps: float, empirical: float, bound: float, slack: float) -> dict:
    return {
        "eps": float(eps),
        "empirical": float(empirical),
        "bound": float(bound),
        "slack": float(slack),
        "holds": bool(empirical <= bound + slack),
    }


def verify_hoeffding(
    n: int = 100,
    eps_grid=(0.02, 0.05, 0.1, 0.15, 0.2),
    reps: int = 100_000,
    seed: int = 0,
) -> dict:
    """Tail of the mean of n uniforms against the unit-range bound."""
    rng = _generator(seed)
    exceed = np.zeros(len(eps_grid), dtype=np.int64)
    done = 0
    while done < reps:
        block = min(20_000, reps - done)
        means = rng.random((block, n)).mean(axis=1)
        for j, eps in enumerate(eps_grid):
            exceed[j] += int(np.count_nonzero(means - 0.5 >= eps))
        done += block
    grid = []
    for j, eps in enumerate(eps_grid):
        phat = exceed[j] / reps
        bound = hoeffding_tail([(0.0, 1.0)], eps, n)
        grid.append(_entry(eps, phat, bound, sampling_slack(phat, reps)))
    return _report("hoeffding", {"n": n, "reps": reps, "seed": seed}, grid)


def _threshold_sup_deviation(xs: np.ndarray, ys: np.ndarray, theta_star: float, eta: float) -> np.ndarray:
    """Exact sup over all threshold predictors of |empirical - true risk|.

    Empirical risk as a function of the cut is piecewise constant with
    jumps at the data points; true risk is piecewise linear with a kink
    at theta_star. The sup over each constancy interval is attained at an
    endpoint or at the kink, so a finite candidate set is exact.
    """
    m, n = xs.shape
    order = np.argsort(xs, axis=1, kind="stable")
    xs_s = np.take_along_axis(xs, order, axis=1)
    ys_s = np.take_along_axis(ys, order, axis=1)
    prefix1 = np.zeros((m, n + 1), dtype=np.int64)
    np.cumsum(ys_s.astype(np.int64), axis=1, out=prefix1[:, 1:])
    total1 = prefix1[:, -1:]
    below = np.arange(n + 1, dtype=np.int64)[None, :]
    # errors(i) = ones among the first i points + zeros among the rest
    errors = 2 * prefix1 - below + (n - total1)
    rhat = errors / n
    left = np.concatenate([np.zeros((m, 1)), xs_s], axis=1)
    right = np.concatenate([xs_s, np.ones((m, 1))], axis=1)
    slope = 1.0 - 2.0 * eta
    risk_left = eta + slope * np.abs(left - theta_star)
    risk_right = eta + slope * np.abs(right - theta_star)
    dev = np.maximum(np.abs(rhat - risk_left), np.abs(rhat - risk_right))
    kink_inside = (left <= theta_star) & (theta_star <= right)
    dev_kink = np.where(kink_inside, np.abs(rhat - eta), 0.0)
    return np.maximum(dev, dev_kink).max(axis=1)


def verify_vc(
    n: int = 200,
    eps_grid=(0.1, 0.2, 0.3, 0.5, 0.7),
    reps: int = 3000,
    seed: int = 0,
    theta_star: float = 0.3,
    eta: float = 0.2,
) -> dict:
    """Exact sup-deviation of threshold predictors against the class tail."""
    rng = _generator(seed)
    sups = np.empty(reps, dtype=np.float64)
    done = 0
    while done < reps:
        block = min(2000, reps - done)
        xs = rng.random((block, n))
        flips = rng.random((block, n)) < eta
        ys = np.where(flips, xs < theta_star, xs >= theta_star).astype(np.float64)
        sups[done : done + block] = _threshold_sup_deviation(xs, ys, theta_star, eta)
        done += block
    grid = []
    for eps in eps_grid:
        phat = float(np.count_nonzero(sups >= eps)) / reps
        grid.append(_entry(eps, phat, vc_tail(n, 1, eps), sampling_slack(phat, reps)))
    params = {
        "n": n, "vc": 1, "reps": reps, "seed": seed,
        "theta_star": theta_star, "eta": eta,
    }
    return _report("vc", params, grid)


def verify_mcdiarmid(
    n: int = 100,
    eps_grid=(0.02, 0.05, 0.1, 0.15, 0.2),
    reps: int = 100_000,
    seed: int = 0,
) -> dict:
    """Weighted mean of uniforms (weights 1..n) against bounded differences."""
    rng = _generator(seed)
    weights = np.arange(1, n + 1, dtype=np.float64)
    weights /= weights.sum()
    exceed = np.zeros(len(eps_grid), dtype=np.int64)
    done = 0
    while done < reps:
        block = min(20_000, reps - done)
        f = (rng.random((block, n)) * weights).sum(axis=1)
        for j, eps in enumerate(eps_grid):
            exceed[j] += int(np.count_nonzero(f - 0.5 >= eps))
        done += block
    bound_at = {eps: mcdiarmid_tail(weights, eps) for eps in eps_grid}
    grid = []
    for j, eps in enumerate(eps_grid):
        phat = exceed[j] / reps
        grid.append(_entry(eps, phat, bound_at[eps], sampling_slack(phat, reps)))
    return _report("mcdiarmid", {"n": n, "reps": reps, "seed": seed}, grid)


def verify_reverse_markov(
    eps_grid=(0.1, 0.2, 0.3, 0.5),
    reps: int = 100_000,
    seed: int = 0,
    scale: float = 0.3,
) -> dict:
    """Centered clipped Gaussian sample run through reverse_markov_check."""
    rng = _generator(seed)
    sample = np.clip(rng.normal(0.0, scale, size=reps), -1.0, 1.0)
    grid = []
    for eps in eps_grid:
        lhs, rhs, _ = reverse_markov_check(sample, eps)
        grid.append(_entry(eps, lhs, rhs, sampling_slack(lhs, reps)))
    return _report(
        "reverse-markov", {"reps": reps, "seed": seed, "scale": scale}, grid
    )


def verify_pareto(a_grid=(0.05, 0.1, 0.3, 1.0 / math.e, 0.8), seed: int = 0) -> dict:
    """Quadrature mean of the law with P(X >= t) = min(1, A/t) on [0,1].

    The mean equals the bound exactly for this law, so the check exercises
    the equality case; the grid coordinate reported as eps is A. The seed
    is accepted for interface uniformity and unused (no sampling).
    """
    grid = []
    for a in a_grid:
        mean, err = integrate.quad(lambda t, a=a: min(1.0, a / t), 0.0, 1.0, points=[a])
        bound = expectation_from_pareto_tail(a)
        grid.append(_entry(a, mean, bound, max(err, 1e-12)))
    return _report("pareto-expectation", {"a_grid": list(a_grid)}, grid)


def verify_moment_gamma(
    sigma: float = 0.2,
    q_max: int = 20,
    seed: int = 0,
    proof_form: bool = False,
) -> dict:
    """Moments of |N(0, sigma^2)| clipped to [0,1] against sqrt(gamma q).

    The tail constant is measured as sup over t of the true tail divided
    by e^(-t^2/(2 sigma^2)) and floored at the admissible minimum 2. The
    grid coordinate reported as eps is q. Both gamma variants are put in
    params; they agree to rounding, and the report records that.
    """
    ts = np.linspace(0.0, 1.0, 2001)[1:]
    tails = 2.0 * stats.norm.sf(ts / sigma)
    envelope = np.exp(-(ts**2) / (2.0 * sigma**2))
    c = max(2.0, float(np.max(tails / envelope)))
    gamma_stmt = subgaussian_moment_gamma(sigma, c, proof_form=False)
    gamma_proof = subgaussian_moment_gamma(sigma, c, proof_form=True)
    gamma = gamma_proof if proof_form else gamma_stmt
    grid = []
    for q in range(1, q_max + 1):
        moment, err = integrate.quad(
            lambda z, q=q: min(sigma * abs(z), 1.0) ** q
            * math.exp(-z * z / 2.0) / math.sqrt(2.0 * math.pi),
            -12.0, 12.0,
        )
        empirical = moment ** (1.0 / q)
        bound = math.sqrt(gamma * q)
        grid.append(_entry(float(q), empirical, bound, max(err, 1e-12)))
    params = {
        "sigma": sigma, "c": c,
        "gamma_statement": gamma_stmt, "gamma_proof": gamma_proof,
        "tighter": "equal" if math.isclose(gamma_stmt, gamma_proof, rel_tol=1e-12)
        else ("statement" if gamma_stmt < gamma_proof else "proof"),
        "variant": "proof" if proof_form else "statement",
    }
    return _report("moment-gamma", params, grid)


def verify_pipeline(
    n: int = 1000,
    p: float = 0.1,
    eps_grid=(0.5, 1.0, 1.5, 2.0),
    seed: int = 0,
    vc: int = 1,
) -> dict:
    """Composed moment chain against the directly printed tail expression."""
    grid = []
    for eps in eps_grid:
        lhs = log_kfold_pipeline(n, p, eps, vc)
        rhs = log_kfold_proof_form(n, p, eps, vc)
        grid.append(
            {
                "eps": eps, "empirical": lhs, "bound": rhs, "slack": 1e-10,
                "holds": bool(abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))),
            }
        )
    return _report("kfold-pipeline", {"n": n, "p": p, "vc": vc}, grid)


VERIFIERS = {
    "hoeffding": verify_hoeffding,
    "vc": verify_vc,
    "mcdiarmid": verify_mcdiarmid,
    "reverse-markov": verify_reverse_markov,
    "pareto": verify_pareto,
    "moment-gamma": verify_moment_gamma,
    "pipeline": verify_pipeline,
}
