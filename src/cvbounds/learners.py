"""Datasets, bounded losses, and hypothesis classes with exact ERM.

Two predictor families are provided over features in [0,1]: half-line
indicators 1{x >= t} (threshold class, vc_dim 1) and interval indicators
1{a <= x <= b} (interval class, vc_dim 2). Both admit exact minimization of
the 0/1 empirical risk by scanning canonical cut positions, which keeps
every downstream cross-validation quantity free of optimization error.
The batched kernels (SortedSamples for thresholds, _interval_erm for
intervals) serve the atoms of equal-test-size plans; erm_fit fits one
subsample, which cv uses for the full sample and, as a fallback, for
each atom of a plan with unequal test sizes.
The synthetic noisy-threshold distribution has a closed-form risk, so the
generalization error of a fitted threshold is known exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .resampling import BinaryVector


@dataclass(frozen=True)
class Dataset:
    """Immutable feature/label pairs; features 1-d float, labels in [0,1]."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        x = np.array(self.x, dtype=np.float64)
        y = np.array(self.y, dtype=np.float64)
        if x.ndim != 1 or y.shape != x.shape:
            raise ValueError("x and y must be 1-d arrays of equal length")
        if x.size < 1:
            raise ValueError("dataset must contain at least one pair")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("features and labels must be finite")
        if np.any(y < 0.0) or np.any(y > 1.0):
            raise ValueError("labels must lie in [0,1]")
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return int(self.x.size)

    @classmethod
    def from_pairs(cls, pairs) -> "Dataset":
        xs, ys = zip(*pairs)
        return cls(np.array(xs, dtype=np.float64), np.array(ys, dtype=np.float64))

    def to_csv(self, path) -> None:
        """Write "x,y" rows at full decimal precision (repr round-trip)."""
        lines = ["x,y"]
        for xi, yi in zip(self.x, self.y):
            lines.append(f"{float(xi)!r},{float(yi)!r}")
        with open(path, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def from_csv(cls, path) -> "Dataset":
        with open(path, "r", encoding="ascii") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
        if not lines or lines[0] != "x,y":
            raise ValueError('dataset CSV must start with the header "x,y"')
        pairs = []
        for ln in lines[1:]:
            sx, sy = ln.split(",")
            pairs.append((float(sx), float(sy)))
        return cls.from_pairs(pairs)


@dataclass(frozen=True)
class Loss:
    """Bounded loss with values in [0,1]; evaluator is vectorized."""

    kind: str

    def evaluate(self, y: np.ndarray, y_hat: np.ndarray) -> np.ndarray:
        if self.kind == "zero-one":
            return np.not_equal(y, y_hat).astype(np.float64)
        if self.kind == "clipped-absolute":
            return np.minimum(1.0, np.abs(np.asarray(y, dtype=np.float64) - y_hat))
        raise ValueError(f"unknown loss kind {self.kind!r}")

    def __call__(self, y, y_hat):
        return self.evaluate(np.asarray(y), np.asarray(y_hat))


ZERO_ONE = Loss("zero-one")
CLIPPED_ABSOLUTE = Loss("clipped-absolute")


@dataclass(frozen=True)
class ThresholdPredictor:
    """Half-line indicator 1{x >= threshold}."""

    threshold: float

    def predict(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=np.float64) >= self.threshold).astype(np.float64)

    def __call__(self, x):
        return self.predict(x)


@dataclass(frozen=True)
class IntervalPredictor:
    """Interval indicator 1{low <= x <= high}; low > high means empty."""

    low: float
    high: float

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return ((x >= self.low) & (x <= self.high)).astype(np.float64)

    def __call__(self, x):
        return self.predict(x)


EMPTY_INTERVAL = (1.0, 0.0)


@dataclass(frozen=True)
class HypothesisClass:
    """Predictor family tag plus its configured set-shattering dimension.

    vc_dim is explicit configuration, not inferred: 1 for thresholds,
    2 for intervals.
    """

    kind: str
    vc_dim: int

    def __post_init__(self) -> None:
        if self.kind not in ("threshold", "interval"):
            raise ValueError(f"unknown hypothesis class {self.kind!r}")
        if self.vc_dim < 1:
            raise ValueError("vc_dim must be >= 1")

    @classmethod
    def threshold(cls) -> "HypothesisClass":
        return cls("threshold", 1)

    @classmethod
    def interval(cls) -> "HypothesisClass":
        return cls("interval", 2)

    def sample_predictor(self, rng: np.random.Generator):
        """Random member of the class, for probabilistic minimality checks."""
        if self.kind == "threshold":
            return ThresholdPredictor(float(rng.uniform(0.0, 1.0)))
        a, b = np.sort(rng.uniform(0.0, 1.0, size=2))
        return IntervalPredictor(float(a), float(b))


@dataclass(frozen=True)
class SyntheticDistribution:
    """X uniform on [0,1]; Y = 1{X >= theta_star} flipped with probability eta."""

    theta_star: float
    eta: float
    kind: str = "noisy-threshold"

    def __post_init__(self) -> None:
        if self.kind != "noisy-threshold":
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        if not (0.0 <= self.theta_star <= 1.0):
            raise ValueError("theta_star must lie in [0,1]")
        if not (0.0 <= self.eta < 0.5):
            raise ValueError("eta must lie in [0, 0.5)")

    @property
    def bayes_risk(self) -> float:
        """Minimal risk over all predictors, attained at t = theta_star."""
        return self.eta

    def from_uniforms(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Samples of n pairs from uniforms u of shape (..., 2n): the first
        n are the features, the next n flip their labels below eta."""
        n = u.shape[-1] // 2
        x = u[..., :n]
        flips = u[..., n : 2 * n] < self.eta
        return x, ((x >= self.theta_star) != flips).astype(np.float64)

    def draw(self, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Draw n (x, y) pairs as two arrays from 2n uniforms of rng."""
        return self.from_uniforms(rng.random(2 * n))

    def sample(self, n: int, rng: np.random.Generator) -> Dataset:
        """Draw n pairs as a Dataset (see draw)."""
        return Dataset(*self.draw(n, rng))


def empirical_risk(phi, v: BinaryVector, d: Dataset, loss: Loss) -> float:
    """Mean loss of a predictor on the subsample selected by the mask.

    With the all-ones mask this is the resubstitution estimate. The sum is
    compensated (math.fsum), so the result does not depend on index order.
    """
    if v.n != d.n:
        raise ValueError(f"mask length {v.n} does not match dataset size {d.n}")
    idx = np.array(v.bits, dtype=bool)
    count = int(idx.sum())
    if count == 0:
        raise ValueError("mask selects an empty subsample")
    losses = loss.evaluate(d.y[idx], phi.predict(d.x[idx]))
    return math.fsum(losses.tolist()) / count


def _batch_threshold_erm(xs: np.ndarray, ys: np.ndarray):
    """Exact 0/1 ERM over the threshold class for a batch of subsamples.

    xs, ys have shape (B, m). Returns (thresholds, error_counts) of shape
    (B,). Candidate cuts are midpoints of consecutive sorted features with
    the two boundary positions mapped to the domain edges 0.0 and 1.0;
    among minimizers the smallest cut wins (first argmin).
    """
    xs = np.asarray(xs, dtype=np.float64)
    order = np.argsort(xs, axis=1, kind="stable")
    xs_s = np.take_along_axis(xs, order, axis=1)
    ys_s = np.take_along_axis(np.asarray(ys).astype(np.int64), order, axis=1)
    errors, cuts, realizable = _cut_positions(xs_s, ys_s)
    masked = np.where(realizable, errors, np.int64(xs.shape[1] + 1))
    j_star = np.argmin(masked, axis=1)
    rows = np.arange(xs.shape[0])
    return cuts[rows, j_star], masked[rows, j_star]


def _cut_positions(xs_s: np.ndarray, ys_s: np.ndarray):
    """Error counts, cuts and realizability of the m + 1 cut positions of
    sorted samples xs_s, ys_s (B, m). Position j predicts 0 for the first j
    points and 1 for the rest."""
    bsz, m = xs_s.shape
    prefix1 = np.zeros((bsz, m + 1), dtype=np.int64)
    np.cumsum(ys_s, axis=1, out=prefix1[:, 1:])
    errors = 2 * prefix1 - np.arange(m + 1) + (m - prefix1[:, -1:])
    cuts = np.empty((bsz, m + 1), dtype=np.float64)
    cuts[:, 0] = 0.0
    cuts[:, m] = 1.0
    realizable = np.ones((bsz, m + 1), dtype=bool)
    realizable[:, 0] = xs_s[:, 0] >= 0.0
    realizable[:, m] = xs_s[:, -1] < 1.0
    if m > 1:
        mids = 0.5 * (xs_s[:, :-1] + xs_s[:, 1:])
        cuts[:, 1:m] = mids
        # a midpoint must actually separate its neighbors after rounding
        realizable[:, 1:m] = (mids > xs_s[:, :-1]) & (mids <= xs_s[:, 1:])
    return errors, cuts, realizable


class SortedSamples:
    """Exact threshold ERM for c samples of size n and for every subsample
    that leaves out a set of indices, from one stable sort per sample.

    Leaving a test set T out shifts the full-sample error curve E(j) by a
    constant between consecutive test points: the test ones before j plus
    the test zeros from j onwards. A sparse table of range minima over the
    packed keys E(j)·(n+1) + j, E masked by the midpoint realizability rule,
    answers each of the |T| + 1 stretches between test points in O(1) with
    first-argmin ties (Bender & Farach-Colton 2000). Gaps whose training
    neighbours straddle test points, and the two domain edges, are scored
    from their actual training neighbours. With one test point there are
    two stretches, a prefix and a suffix of the sorted sample, so
    leave_one_out fits all n one-point training sets of each sample from
    running prefix and suffix minima instead of the table. Cuts, counts
    and tie-breaking equal those of _batch_threshold_erm on each gathered
    training set.
    """

    def __init__(self, xs: np.ndarray, ys: np.ndarray):
        self.xs = np.asarray(xs, dtype=np.float64)
        self.ys = np.asarray(ys, dtype=np.float64)
        c, n = self.xs.shape
        order = np.argsort(self.xs, axis=1, kind="stable")
        # rank_t[i, t]: sorted position of index i in sample t
        self.rank_t = np.empty((n, c), dtype=np.intp)
        self.rank_t[order, np.arange(c)[:, None]] = np.arange(n)
        self.xs_s = np.take_along_axis(self.xs, order, axis=1)
        self.ys_s = np.take_along_axis(self.ys.astype(np.int64), order, axis=1)
        self.errors, cuts, realizable = _cut_positions(self.xs_s, self.ys_s)
        # above any training error even after the largest shift
        masked = np.where(realizable, self.errors, np.int64(2 * n + 1))
        keys = masked * (n + 1) + np.arange(n + 1)
        best = keys.min(axis=1)
        self.full_cuts = cuts[np.arange(c), best % (n + 1)]
        self.full_errs = best // (n + 1)
        # level k holds the minimum of keys[i : i + 2**k], clipped at the end
        self.table = np.empty(((n + 1).bit_length(), c, n + 1), dtype=np.int64)
        self.table[0] = keys
        for k in range(1, len(self.table)):
            h = 1 << (k - 1)
            prev, cur = self.table[k - 1], self.table[k]
            np.minimum(prev[:, :-h], prev[:, h:], out=cur[:, :-h])
            cur[:, -h:] = prev[:, -h:]
        # floor(log2(length)) for every query length 1..n+1
        self.level = np.zeros(n + 2, dtype=np.intp)
        self.level[2:] = np.log2(np.arange(2, n + 2)).astype(np.intp)

    def _range_min(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Minimum key over positions lo..hi (inclusive, lo <= hi) of each
        sample; the last axis of lo and hi runs over the samples."""
        _, c, width = self.table.shape
        level = self.level[hi - lo + 1]
        row = (level * c + np.arange(c)) * width
        flat = self.table.reshape(-1)
        return np.minimum(flat[row + lo], flat[row + hi + 1 - (1 << level)])

    def leave_out(self, test_idx: np.ndarray):
        """ERM cuts and training-error counts, shape (c, a), of the training
        sets that leave out the index rows of test_idx (a, v), v >= 1."""
        c, n = self.xs.shape
        test_idx = np.asarray(test_idx)
        a, v = test_idx.shape
        w = n + 1
        big = np.int64(2 * n + 1) * w
        at_n, at_w = np.arange(c) * n, np.arange(c) * w
        xs_s, errors = self.xs_s.reshape(-1), self.errors.reshape(-1)
        # arrays are (stretch or test point, atom, sample)
        pos = self.rank_t[test_idx.T]
        pos.sort(axis=0)
        ones = np.zeros((v + 1, a, c), dtype=np.int64)
        np.cumsum(self.ys_s.reshape(-1)[pos + at_n], axis=0, out=ones[1:])
        # stretch s sees E shifted by the test ones before it and the test
        # zeros from it on: 2·ones[s] - s + (v - ones[v])
        shift = (2 * ones - np.arange(v + 1)[:, None, None] + (v - ones[-1])) * w
        # stretch s holds the training points at sorted positions lo..hi
        lo = np.empty_like(ones)
        lo[0] = 0
        np.add(pos, 1, out=lo[1:])
        hi = np.empty_like(ones)
        np.subtract(pos, 1, out=hi[:-1])
        hi[-1] = n - 1
        # inner gaps lo+1..hi: both neighbours are adjacent training points
        inner = lo < hi
        found = self._range_min(np.where(inner, lo + 1, 0), np.where(inner, hi, 0))
        best = np.where(inner, found - shift, big).min(axis=0)
        # the gap before each stretch's first point, from its real neighbours
        filled = lo <= hi
        first = np.minimum(lo, n - 1)
        left = np.empty_like(ones)
        left[0] = -1
        np.maximum.accumulate(np.where(filled, hi, -1)[:-1], axis=0, out=left[1:])
        x_first = xs_s[first + at_n]
        x_left = xs_s[np.maximum(left, 0) + at_n]
        mids = 0.5 * (x_left + x_first)
        ok = filled & np.where(left < 0, x_first >= 0.0, (mids > x_left) & (mids <= x_first))
        gap = errors[first + at_w] * w + first - shift
        np.minimum(best, np.where(ok, gap, big).min(axis=0), out=best)
        # the right domain edge predicts 0 everywhere, so the training ones
        # err: all ones, E(n), less the test ones
        last = np.where(filled[-1], n - 1, left[-1])
        right = (errors[at_w + n] - ones[-1]) * w + n
        np.minimum(best, np.where(xs_s[last + at_n] < 1.0, right, big), out=best)
        # winning position g -> training gap j: its neighbours are the
        # training points of ranks j - 1 and j, the latter at position g
        g = best % w
        j = g - (pos < g).sum(axis=0)
        before = np.maximum(j - 1, 0)
        left_g = before + (pos - np.arange(v)[:, None, None] <= before).sum(axis=0)
        mid = 0.5 * (xs_s[left_g + at_n] + xs_s[np.minimum(g, n - 1) + at_n])
        cuts = np.where(g == n, 1.0, np.where(j == 0, 0.0, mid))
        # C order, as the callers' float reductions over atoms assume
        return np.ascontiguousarray(cuts.T), np.ascontiguousarray((best // w).T)

    def leave_one_out(self):
        """ERM cuts and training-error counts, shape (c, n), of the training
        sets that leave out one point: column p leaves out the point at
        sorted position p. These are leave_out's candidates for one test
        point, in O(n) per sample: the inner gaps before p from a prefix
        minimum of the packed keys over positions 1..p-1, those after p
        from a suffix minimum over p+2..n-1, the left domain edge, the gap
        that straddles p and the right domain edge."""
        c, n = self.xs.shape
        w = n + 1
        p = np.arange(n)
        keys, errors, xs_s = self.table[0], self.errors, self.xs_s
        # E is shifted by the test zero before p and by the test one after it
        shift_before = (1 - self.ys_s) * w
        shift_after = self.ys_s * w
        best = np.full((c, n), np.int64(2 * n + 1) * w)
        if n > 2:
            # p >= 2 reads min keys[1 .. p-1]; p <= n-3 reads min keys[p+2 .. n-1]
            best[:, 2:] = np.minimum.accumulate(keys[:, 1 : n - 1], axis=1) - shift_before[:, 2:]
            after = np.minimum.accumulate(keys[:, n - 1 : 1 : -1], axis=1)[:, ::-1]
            np.minimum(best[:, :-2], after - shift_after[:, :-2], out=best[:, :-2])
            # the gap between p - 1 and p + 1, for 0 < p < n - 1
            x_left, x_right = xs_s[:, :-2], xs_s[:, 2:]
            mids = 0.5 * (x_left + x_right)
            gap = errors[:, 2:n] * w + np.arange(2, n) - shift_after[:, 1:-1]
            ok = (mids > x_left) & (mids <= x_right)
            np.minimum(best[:, 1:-1], np.where(ok, gap, best[:, 1:-1]), out=best[:, 1:-1])
        # the left domain edge sits before the first training point: 0, or
        # 1 when p = 0
        edge = errors[:, :1] * w - shift_before
        edge[:, 0] = errors[:, 1] * w + 1 - shift_after[:, 0]
        first_x = np.where(p == 0, xs_s[:, 1:2], xs_s[:, :1])
        np.minimum(best, np.where(first_x >= 0.0, edge, best), out=best)
        # the right domain edge predicts 0 everywhere, so the training ones
        # err; its left neighbour is n - 1, or n - 2 when p = n - 1
        right = (errors[:, n:] - self.ys_s) * w + n
        last_x = np.where(p == n - 1, xs_s[:, -2:-1], xs_s[:, -1:])
        np.minimum(best, np.where(last_x < 1.0, right, best), out=best)
        # winning position g -> training gap j, as in leave_out
        g = best % w
        j = g - (p < g)
        before = np.maximum(j - 1, 0)
        left_g = before + (p <= before)
        mid = 0.5 * (
            np.take_along_axis(xs_s, left_g, axis=1)
            + np.take_along_axis(xs_s, np.minimum(g, n - 1), axis=1)
        )
        cuts = np.where(g == n, 1.0, np.where(j == 0, 0.0, mid))
        return cuts, best // w


def _threshold_erm(x: np.ndarray, y: np.ndarray):
    t, err = _batch_threshold_erm(x[None, :], y[None, :])
    return float(t[0]), int(err[0])


def _interval_erm(xs: np.ndarray, ys: np.ndarray):
    """Exact 0/1 ERM over intervals for a batch of subsamples.

    xs, ys have shape (B, m). Returns (lows, highs, error_counts) of shape
    (B,). The interval from cut position i to cut position j > i predicts
    1 on the sorted points i..j-1; its candidate ends are those of
    _batch_threshold_erm, a left end must separate its neighbours as a
    threshold does and a right end the other way round (the midpoint may
    equal the point before it, not the one after). With E the threshold
    error curve, the interval errs total1 - (E(j) - E(i)) times. A suffix
    maximum of the packed keys E(j)·(m+1) + (m - j) over the realizable
    right ends gives, for each left end, the largest gain and then the
    smallest j; the first left end with the largest gain wins. Hence ties
    go to the empty interval EMPTY_INTERVAL unless a pair is strictly
    better, then to the smallest left end, then to the smallest right end.
    """
    xs = np.asarray(xs, dtype=np.float64)
    bsz, m = xs.shape
    order = np.argsort(xs, axis=1, kind="stable")
    xs_s = np.take_along_axis(xs, order, axis=1)
    ys_s = np.take_along_axis(np.asarray(ys).astype(np.int64), order, axis=1)
    errors, cuts, left_ok = _cut_positions(xs_s, ys_s)
    right_ok = np.zeros((bsz, m + 1), dtype=bool)
    right_ok[:, m] = xs_s[:, -1] <= 1.0
    if m > 1:
        mids = cuts[:, 1:m]
        right_ok[:, 1:m] = (mids >= xs_s[:, :-1]) & (mids < xs_s[:, 1:])
    keys = np.where(right_ok, errors * (m + 1) + (m - np.arange(m + 1)), -1)
    # after[:, i]: the best key over right ends j > i
    after = np.maximum.accumulate(keys[:, :0:-1], axis=1)[:, ::-1]
    ok = left_ok[:, :m] & (after >= 0)
    gains = np.where(ok, after // (m + 1) - errors[:, :m], -1)
    i = np.argmax(gains, axis=1)
    rows = np.arange(bsz)
    gain = gains[rows, i]
    j = m - after[rows, i] % (m + 1)
    hit = gain > 0
    lows = np.where(hit, cuts[rows, i], EMPTY_INTERVAL[0])
    highs = np.where(hit, cuts[rows, j], EMPTY_INTERVAL[1])
    total1 = ys_s.sum(axis=1)
    return lows, highs, total1 - np.maximum(gain, 0)


def check_zero_one_sample(x: np.ndarray, y: np.ndarray) -> None:
    """Reject data outside the domain of exact 0/1 ERM: both classes are
    defined over features in [0,1], and labels must lie in {0,1}."""
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise ValueError("both classes are defined over features in [0,1]")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("zero-one minimization needs labels in {0,1}")


def erm_fit(cls: HypothesisClass, v: BinaryVector, d: Dataset, loss: Loss):
    """Predictor attaining the exact minimum empirical risk on a subsample.

    Only the zero-one loss is supported; other losses are accepted by
    empirical_risk but rejected here. Deterministic under the documented
    tie-breaking rules. The batch kernels run with one row here; cv calls
    this for the full sample and for the atoms of plans with unequal test
    sizes only.
    """
    if loss.kind != "zero-one":
        raise ValueError("exact risk minimization is supported for the zero-one loss only")
    if v.n != d.n:
        raise ValueError(f"mask length {v.n} does not match dataset size {d.n}")
    idx = np.array(v.bits, dtype=bool)
    if not idx.any():
        raise ValueError("mask selects an empty subsample")
    x = d.x[idx]
    y = d.y[idx]
    check_zero_one_sample(x, y)
    if cls.kind == "threshold":
        t, _ = _threshold_erm(x, y)
        return ThresholdPredictor(t)
    lows, highs, _ = _interval_erm(x[None, :], y[None, :])
    return IntervalPredictor(float(lows[0]), float(highs[0]))


def true_risk(phi, dist: SyntheticDistribution, loss: Loss) -> float:
    """Exact risk of a threshold under the noisy-threshold distribution.

    Closed form eta + (1 - 2 eta) |t - theta_star|; any other
    predictor/loss/distribution combination is rejected, never
    approximated.
    """
    if loss.kind != "zero-one":
        raise ValueError("closed-form risk requires the zero-one loss")
    if dist.kind != "noisy-threshold":
        raise ValueError(f"unsupported distribution kind {dist.kind!r}")
    if not isinstance(phi, ThresholdPredictor):
        raise ValueError("closed-form risk requires a threshold predictor")
    t = phi.threshold
    if not (0.0 <= t <= 1.0):
        raise ValueError("threshold outside [0,1]")
    return dist.eta + (1.0 - 2.0 * dist.eta) * abs(t - dist.theta_star)


@dataclass(frozen=True)
class ShatterBound:
    """(n+1)^vc in log space, with the linear value when it fits a float."""

    log_value: float
    value: float | None


def shatter_bound(n: int, vc: int) -> ShatterBound:
    """Upper bound (n+1)^vc on the n-th shatter coefficient."""
    if n < 1 or vc < 1:
        raise ValueError("need n >= 1 and vc >= 1")
    log_value = vc * math.log(n + 1)
    value = math.exp(log_value) if log_value <= 709.0 else None
    return ShatterBound(log_value=log_value, value=value)
