"""Outside-in tracing: spans around the module attributes that enter each layer.

For each traced op the benchmark's own process replaces every attribute
named by layer_map() with a wrapper that records a span (name, layer
bucket, start, end, parent) and a few work counts, and restores the
originals when the op ends. Spans stay in memory until the run ends. A
missing attribute raises at install time, so a refactor that renames an
entry point must update this map instead of letting its layer read as
zero.

Self time of a span is its duration minus the durations of its direct
children; spans are strictly nested (one thread), so the self times of a
tree sum to the duration of its root.
"""

from __future__ import annotations

import contextlib
import time
import tracemalloc
from collections import Counter

from cvbounds import bounds, cv, harness, learners, resampling, toolkit

_clock = time.perf_counter


class Tracer:
    """Spans and work counts for the traced pass of one benchmark run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, bucket, start, end, parent, op]
        self.counts: Counter = Counter()
        self.op = -1
        self.n = None  # sample size of the enclosing run_experiment / cv call
        self.builds: set = set()  # distinct plan-builder calls, for build_peak_mb
        self._stack: list[int] = []
        self._cv_depth = 0
        self._cv_pairs: dict = {}
        self._restore: list = []

    # -- span bookkeeping -------------------------------------------------
    def _enter(self, name: str, bucket: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, bucket, _clock(), None, parent, self.op])
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][3] = _clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, bucket: str, **counts):
        idx = self._enter(name, bucket)
        try:
            yield
        finally:
            self._exit(idx)
        self.counts.update(counts)

    def start_op(self, i: int) -> None:
        """Wrap the layer entry points for op i; cv pairs are counted per op."""
        self.op = i
        self._cv_pairs = {}
        self.install()

    def end_op(self) -> None:
        self.uninstall()
        self.counts["cv_pair_atoms"] += sum(self._cv_pairs.values())

    # -- wrapping ---------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, bucket, before=None, after=None):
        """Replace owner.attr (or owner[attr] for a dict) by a span wrapper.

        bucket is a layer name or a function of the call arguments.
        """
        is_dict = isinstance(owner, dict)
        fn = owner[attr] if is_dict else getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = tracer._enter(name, bucket(args) if callable(bucket) else bucket)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._exit(idx)
                if after is not None:
                    after(args, kwargs, result)

        wrapper.__wrapped__ = fn
        if is_dict:
            owner[attr] = wrapper
        else:
            setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, fn, is_dict))

    def install(self) -> None:
        """Wrap every layer entry point; raises if any attribute is missing."""
        for owner, attr, name, bucket, before, after in layer_map(self):
            self.wrap(owner, attr, name, bucket, before, after)

    def uninstall(self) -> None:
        for owner, attr, fn, is_dict in reversed(self._restore):
            if is_dict:
                owner[attr] = fn
            else:
                setattr(owner, attr, fn)
        self._restore.clear()

    # -- hooks ------------------------------------------------------------
    def _set_n_from_config(self, args, kwargs):
        self.n = args[0].n

    def _count_samples(self, args, kwargs):
        _, _, _, t0, t1 = args
        self.counts["samples"] += t1 - t0

    def _erm_batch_bucket(self, args) -> str:
        rows, m = args[0].shape
        self.counts["erm_rows"] += rows
        self.counts["erm_cells"] += rows * m
        if self._cv_depth:
            self.counts["cv_fits"] += rows
        return "erm_full" if m == self.n else "erm_atom"

    @staticmethod
    def _erm_fit_bucket(args) -> str:
        """Interval fits go with the interval scan, so erm_* stay threshold-only."""
        if args[0].kind != "threshold":
            return "interval_erm"
        return "erm_full" if args[1].zeros == 0 else "erm_atom"

    def _interval_bucket(self, args) -> str:
        self.counts["interval_fits"] += 1
        if self._cv_depth:
            self.counts["cv_fits"] += 1
        return "interval_erm"

    def _cv_before(self, args, kwargs):
        plan, d, cls = args[0], args[1], args[2]
        self.n = plan.n
        if self._cv_depth == 0:
            self._cv_pairs[(id(d), id(plan), cls.kind)] = plan.num_atoms + 1
        self._cv_depth += 1

    def _cv_after(self, args, kwargs, result):
        self._cv_depth -= 1

    def _build_after(self, attr):
        def after(args, kwargs, plan):
            self.counts["plan_builds"] += 1
            if plan is not None:
                self.counts["atoms_built"] += plan.num_atoms
            try:
                self.builds.add((attr, args, tuple(sorted(kwargs.items()))))
            except TypeError:  # unhashable arguments (custom atoms): not re-measured
                pass

        return after

    # -- results ----------------------------------------------------------
    def self_times(self) -> Counter:
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: Counter = Counter()
        for idx, (_, bucket, start, end, _, _) in enumerate(self.spans):
            out[bucket] += (end - start) - child[idx]
        return out

    def root_total(self, name: str) -> float:
        return sum(
            end - start
            for n, _, start, end, parent, _ in self.spans
            if n == name and parent is None
        )

    def build_peak_mb(self) -> float:
        """Largest tracemalloc peak over one rebuild of each distinct plan."""
        peak = 0
        for attr, args, kwargs in self.builds:
            fn = getattr(resampling, attr)
            tracemalloc.start()
            try:
                fn(*args, **dict(kwargs))
                peak = max(peak, tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return peak / 2**20


PLAN_BUILDERS = ("make_kfold", "make_loo", "make_leave_v_out", "make_holdout", "make_custom")
CV_ENTRIES = ("estimates", "cross_validate", "cv_at_least_resub_exact")


def _public_functions(module) -> list[str]:
    names = [
        name
        for name, value in vars(module).items()
        if not name.startswith("_")
        and callable(value)
        and not isinstance(value, type)
        and getattr(value, "__module__", None) == module.__name__
    ]
    if not names:
        raise RuntimeError(f"no public functions found in {module.__name__}")
    return names


def layer_map(t: Tracer):
    """(owner, attribute, span name, bucket, before, after) for each entry."""

    def entry(module, attr, bucket, before=None, after=None):
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        return (module, attr, name, bucket, before, after)

    entries = [
        entry(harness, "run_experiment", "harness", before=t._set_n_from_config),
        entry(harness, "attach_bound", "harness"),
        entry(harness, "_batch_labels", "sample", before=t._count_samples),
        entry(learners, "_batch_threshold_erm", t._erm_batch_bucket),
        entry(learners, "erm_fit", t._erm_fit_bucket),
        entry(learners, "_interval_erm", t._interval_bucket),
    ]
    entries += [entry(resampling, a, "build", after=t._build_after(a)) for a in PLAN_BUILDERS]
    entries += [entry(cv, a, "cv", t._cv_before, t._cv_after) for a in CV_ENTRIES]
    entries += [entry(bounds, a, "bounds") for a in _public_functions(bounds)]
    if not toolkit.VERIFIERS:
        raise RuntimeError("toolkit.VERIFIERS is empty")
    entries += [
        (toolkit.VERIFIERS, name, f"toolkit.{name}", "toolkit", None, None)
        for name in list(toolkit.VERIFIERS)
    ]
    return entries


def parse_importtime(stderr: str) -> tuple[float, float]:
    """(seconds importing cvbounds and what the CLI pulls in, scipy share).

    Reads `python -X importtime` output. With `-m cvbounds.cli` the package
    `cvbounds` is the first top-level import of the run; every top-level
    import from there on is charged to the CLI. The scipy share is the
    cumulative time of each scipy subtree whose parent is not scipy.
    """
    entries = []  # (depth, name, cumulative seconds), in post-order
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        _, cumulative, raw = line[len("import time:"):].split("|")
        depth = (len(raw) - len(raw.lstrip(" ")) - 1) // 2
        entries.append((depth, raw.strip(), int(cumulative) / 1e6))
    start = next(
        (k for k, (depth, name, _) in enumerate(entries) if depth == 0 and name == "cvbounds"),
        None,
    )
    if start is None:
        raise ValueError("importtime output has no top-level cvbounds import")
    total = sum(cum for depth, _, cum in entries[start:] if depth == 0)
    scipy = 0.0
    stack: list[tuple[int, str]] = []  # ancestors while walking in reverse
    for depth, name, cum in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        parent = stack[-1][1] if stack else ""
        if name.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
            scipy += cum
        stack.append((depth, name))
    return total, scipy
