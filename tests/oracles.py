"""Independent reimplementations used as test oracles.

Deliberately naive on purpose: mpmath transcriptions of the closed forms
at 50 significant digits, loop-based risk minimization built from
direct predictor evaluation, and resampling plans written out bit by bit.
Nothing here shares code with the package.
"""

from __future__ import annotations

import itertools
import json
import math
import random

import numpy as np
from mpmath import mp, mpf

mp.dps = 50


# ---------------------------------------------------------------------------
# High-precision transcriptions of the bound formulas. Each returns log
# values (mpf) so the tests can compare in log space and, where the linear
# value is representable, relative in linear space too.
# ---------------------------------------------------------------------------

def o_large_upper(n, p, eps, vc):
    n, p, eps, vc = mpf(n), mpf(p), mpf(eps), mpf(vc)
    log_b = mp.log(4) + (4 * vc / (1 - p)) * mp.log(2 * n * (1 - p) + 1) - n * eps**2 / 25
    log_v = -2 * n * p * eps**2 / 25
    return log_b, log_v


def o_large_lower(n, eps, vc):
    n, eps, vc = mpf(n), mpf(eps), mpf(vc)
    return 4 * vc * mp.log(2 * n + 1) - n * eps**2


def o_abs_large(n, p, eps, vc):
    n, p, eps, vc = mpf(n), mpf(p), mpf(eps), mpf(vc)
    log_b = mp.log(5) + (4 * vc / (1 - p)) * mp.log(2 * n * (1 - p) + 1) - n * eps**2 / 25
    log_v = -2 * n * p * eps**2 / 25
    return log_b, log_v


def o_l1_large(n, p, vc):
    n, p, vc = mpf(n), mpf(p), mpf(vc)
    lead = mp.log(2 * n * (1 - p) + 1) + 4
    return 10 * mp.sqrt(vc * lead / (n * (1 - p))) + 5 * mp.sqrt(2 / (n * p))


def o_small_test_log(n, p, eps, vc, strict):
    n, p, eps, vc = mpf(n), mpf(p), mpf(eps), mpf(vc)
    inner = vc * (mp.log(2 * n * (1 - p) + 1) + 4) / (n * (1 - p))
    factor = 1 / (16 * eps) if strict else 16 / eps
    return mp.log(factor) + mp.log(inner) / 2


def o_abs_small(n, p, eps, vc, strict=False):
    n_, p_, eps_, vc_ = mpf(n), mpf(p), mpf(eps), mpf(vc)
    log_b = (
        mp.log(5)
        + (4 * vc_ / (1 - p_)) * mp.log(2 * n_ * (1 - p_) + 1)
        - n_ * eps_**2 / 64
    )
    return log_b, o_small_test_log(n, p, eps, vc, strict)


def o_l1_small(n, p, vc):
    n, p, vc = mpf(n), mpf(p), mpf(vc)
    inner = vc * (mp.log(2 * n * (1 - p) + 1) + 4) / (n * (1 - p))
    s = mp.sqrt(inner)
    return 16 * s * (mp.log(1 / s) + 2)


def o_sym_combined(n, p, eps, vc, strict=False):
    log_b, _ = o_abs_small(n, p, eps, vc, strict)
    log_v_hoef = -2 * mpf(n) * mpf(p) * mpf(eps) ** 2 / 25
    log_v_small = o_small_test_log(n, p, eps, vc, strict)
    return log_b, log_v_hoef, log_v_small


def o_kfold_improved(n, p, eps, vc):
    n, p, eps, vc = mpf(n), mpf(p), mpf(eps), mpf(vc)
    denom = 64 * (mp.sqrt(vc * mp.log(2 * (2 * n * p + 1))) + 2)
    return (1 / p) * mp.log(2) - n * eps**2 / denom


def o_kfold_combined(n, p, eps, vc, strict=False):
    k = round(1.0 / p)
    log_b, _ = o_abs_small(n, p, eps, vc, strict)
    n_, p_, eps_, vc_ = mpf(n), mpf(p), mpf(eps), mpf(vc)
    log_v1 = -2 * n_ * eps_**2 / (25 * k)
    log_v2 = o_small_test_log(n, p, eps, vc, strict)
    denom3 = 25 * 64 * (mp.sqrt(vc_ * mp.log(2 * (2 * n_ * p_ + 1))) + 2)
    log_v3 = (k + 1) * mp.log(2) - n_ * eps_**2 / denom3
    return log_b, log_v1, log_v2, log_v3


def o_holdout(n, p, eps, vc):
    n, p, eps, vc = mpf(n), mpf(p), mpf(eps), mpf(vc)
    log_b = mp.log(8) + 4 * vc * mp.log(2 * n * (1 - p) + 1) - 2 * n * (1 - p) * eps**2 / 25
    log_v = mp.log(2) - 2 * n * p * eps**2 / 25
    return log_b, log_v


def o_l1_chained(n, p, vc, c):
    n, p, vc, c = mpf(n), mpf(p), mpf(vc), mpf(c)
    return c * mp.sqrt(vc / (n * (1 - p))) + 2 * mp.sqrt(6 / (n * p))


def o_split_raw(n, vc, c, mode):
    if mode == "chained":
        inner = mpf(c) ** 2 * mpf(vc) / (2 * mp.sqrt(6))
    else:
        inner = mpf(vc) * (mp.log(2 * mpf(n)) + 4) / (2 * mp.sqrt(6))
    return 1 / (inner ** (mpf(1) / 3) + 1)


def o_ratio_b(n, p, eps, vc):
    n, p, eps, vc = mpf(n), mpf(p), mpf(eps), mpf(vc)
    return (4 * vc * p / (1 - p)) * mp.log(2 * n * (1 - p) + 1) - n * p * eps**2


def o_ratio_v(n, p, eps, vc):
    k = round(1.0 / p)
    n, p, eps, vc = mpf(n), mpf(p), mpf(eps), mpf(vc)
    denom = 64 * (mp.sqrt(vc * mp.log(2 * (2 * n * p + 1))) + 2)
    return k * mp.log(2) - n * eps**2 / denom + 2 * n * p * eps**2 / 25


# Appendix-toolkit transcriptions used where examples demand a formula oracle.

def o_vc_tail(n, vc, eps):
    n_, vc_, eps_ = mpf(n), mpf(vc), mpf(eps)
    log_c = mp.log(2) + vc_ * mp.log(2 * n_ + 1)
    if n >= vc:
        log_c = min(log_c, mp.log(2) + vc_ * mp.log(2 * n_ * mp.e / vc_))
    return log_c - n_ * eps_**2 / 8


def o_moment_gamma(sigma, c):
    sigma, c = mpf(sigma), mpf(c)
    kappa = mp.pi ** mpf("0.25") * mpf(3) ** (mpf(1) / 3) * 2 * mp.exp(mpf("-0.5"))
    root = sigma * mp.sqrt(4 * mp.log(c)) + kappa * sigma
    return root * root


def o_laplace(gamma, s):
    gamma, s = mpf(gamma), mpf(s)
    return mp.sqrt(2) * mp.exp(mpf(1) / 6) * mp.exp(s**2 * mp.e * gamma / 2)


def o_chernoff_log(alpha, beta2, V, eps):
    alpha, beta2, eps = mpf(alpha), mpf(beta2), mpf(eps)
    return V * mp.log(alpha) - V * eps**2 / (2 * beta2)


# ---------------------------------------------------------------------------
# Loop-based exact risk minimization (threshold class) and cross-validation.
# Candidate cuts: the domain edges when admissible and midpoints of
# consecutive distinct sorted features; risk by direct predictor
# evaluation; ties resolve to the smallest cut.
# ---------------------------------------------------------------------------

def brute_threshold_erm(x, y):
    xs = sorted(float(v) for v in x)
    cands = []
    if xs[0] >= 0.0:
        cands.append(0.0)
    for a, b in zip(xs, xs[1:]):
        mid = 0.5 * (a + b)
        if a < mid <= b:
            cands.append(mid)
    if xs[-1] < 1.0:
        cands.append(1.0)
    best_t = None
    best_e = None
    for t in cands:
        errs = sum(
            1 for xi, yi in zip(x, y) if (1.0 if float(xi) >= t else 0.0) != float(yi)
        )
        if best_e is None or errs < best_e:
            best_t, best_e = t, errs
    return best_t, best_e


def brute_interval_erm(x, y):
    """Minimal 0/1 error count over interval predictors, empty included."""
    xs = sorted(float(v) for v in x)
    cands = [0.0]
    for a, b in zip(xs, xs[1:]):
        if a < b:
            cands.append(0.5 * (a + b))
    cands.append(1.0)
    best = sum(1 for yi in y if float(yi) == 1.0)  # empty interval
    for i, a in enumerate(cands):
        for b in cands[i:]:
            errs = sum(
                1
                for xi, yi in zip(x, y)
                if (1.0 if a <= float(xi) <= b else 0.0) != float(yi)
            )
            best = min(best, errs)
    return best


def loop_interval_erm(x, y):
    """Exact 0/1 ERM over intervals by a double scan over cut pairs: the
    tie-rule reference for learners._interval_erm. Returns ((low, high),
    errors); ties resolve to the empty interval first, then to scan order
    over (left cut, right cut)."""
    order = np.argsort(x, kind="stable")
    xs = np.asarray(x, dtype=np.float64)[order]
    ys = np.asarray(y).astype(np.int64)[order]
    m = len(xs)
    prefix1 = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(ys, out=prefix1[1:])
    total1 = int(prefix1[m])
    best_err = total1
    best_ab = (1.0, 0.0)
    for i in range(m):
        if i == 0:
            a = 0.0
            if xs[0] < 0.0:
                continue
        else:
            a = 0.5 * (xs[i - 1] + xs[i])
            if not (xs[i - 1] < a <= xs[i]):
                continue
        for j in range(i + 1, m + 1):
            if j == m:
                b = 1.0
                if xs[m - 1] > 1.0:
                    continue
            else:
                b = 0.5 * (xs[j - 1] + xs[j])
                if not (xs[j - 1] <= b < xs[j]):
                    continue
            ones_in = int(prefix1[j] - prefix1[i])
            err = total1 - ones_in + (j - i) - ones_in
            if err < best_err:
                best_err = err
                best_ab = (a, b)
    return best_ab, int(best_err)


def brute_cv(atoms, x, y):
    """Plan-weighted mean test risk from explicit (bits, prob) pairs."""
    terms = []
    for bits, prob in atoms:
        train = [i for i, b in enumerate(bits) if b == 1]
        test = [i for i, b in enumerate(bits) if b == 0]
        t, _ = brute_threshold_erm([x[i] for i in train], [y[i] for i in train])
        errs = sum(
            1 for i in test if (1.0 if float(x[i]) >= t else 0.0) != float(y[i])
        )
        terms.append(prob * errs / len(test))
    return math.fsum(terms)


def close_log(lib_log: float, mp_log, tol: float = 1e-10) -> bool:
    ref = float(mp_log)
    return abs(lib_log - ref) <= tol * max(1.0, abs(ref))


def close_linear(lib_value: float, mp_value, rel: float = 1e-12) -> bool:
    ref = float(mp_value)
    return abs(lib_value - ref) <= rel * max(abs(ref), 1e-300)


# ---------------------------------------------------------------------------
# Resampling plans as explicit per-atom bit tuples, built index by index.
# Each reference returns (atoms, p, equal_test_sizes, json text) with atoms
# a list of (bits, prob) pairs in construction order; the random calls are
# the same as the library's, in the same order.
# ---------------------------------------------------------------------------

def _ref_plan(n, kind, test_sets, probs=None):
    atoms = []
    for a, test in enumerate(test_sets):
        bits = [1] * n
        for i in test:
            bits[i] = 0
        prob = 1.0 / len(test_sets) if probs is None else probs[a]
        atoms.append((tuple(bits), prob))
    zeros = [bits.count(0) for bits, _ in atoms]
    equal = len(set(zeros)) == 1
    if equal:
        p = zeros[0] / n
    else:
        p = math.fsum(prob * (z / n) for (_, prob), z in zip(atoms, zeros))
    payload = {
        "n": n,
        "p": p,
        "kind": kind,
        "atoms": [
            {"bits": "".join(str(b) for b in bits), "prob": prob} for bits, prob in atoms
        ],
    }
    return atoms, p, equal, json.dumps(payload, sort_keys=True)


def ref_kfold(n, k, shuffle_seed=None):
    order = list(range(n))
    if shuffle_seed is not None:
        random.Random(shuffle_seed).shuffle(order)
    fold = n // k
    return _ref_plan(n, "k-fold", [order[j * fold : (j + 1) * fold] for j in range(k)])


def ref_loo(n):
    return _ref_plan(n, "leave-one-out", [[i] for i in range(n)])


def ref_leave_v_out(n, v, mode="exhaustive", m=None, seed=None):
    if mode == "exhaustive":
        return _ref_plan(n, "leave-v-out-exhaustive", list(itertools.combinations(range(n), v)))
    rng = random.Random(seed)
    return _ref_plan(n, "leave-v-out-montecarlo", [rng.sample(range(n), v) for _ in range(m)])


def ref_holdout(n, test_indices):
    return _ref_plan(n, "hold-out", [sorted(set(test_indices))])


def ref_custom(n, atoms, kind="custom"):
    """atoms: (bits, prob) pairs, taken as given."""
    test_sets = [[i for i, b in enumerate(bits) if b == 0] for bits, _ in atoms]
    return _ref_plan(n, kind, test_sets, [float(prob) for _, prob in atoms])
