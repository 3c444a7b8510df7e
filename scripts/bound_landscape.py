"""Print deviation-bound curves over the split fraction.

For each probability-scale procedure: the grid minimum at --eps and any
branch transitions along the way. The expected-deviation curve and both
closed-form split rules are appended for context.
"""

import argparse

from cvbounds import bounds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=10_000)
    ap.add_argument("--eps", type=float, default=0.7)
    ap.add_argument("--vc", type=int, default=1)
    ap.add_argument("--c", type=float, default=1.0)
    ap.add_argument("--strict-proposition", action="store_true")
    args = ap.parse_args(argv)

    for proc, entry in bounds.REGISTRY.items():
        if not entry.reads_eps:
            continue
        curve = bounds.estimation_curve(
            args.n,
            args.eps,
            args.vc,
            proc,
            clamp=True,
            strict_proposition=args.strict_proposition,
        )
        best = min(curve.points, key=lambda pt: pt.value.total)
        print(
            f"{proc}: {len(curve.points)} points, "
            f"min total {best.value.total:.4g} at p={best.p:.4g}"
        )
        for t in curve.transitions:
            print(
                f"  branch {t.branch_before} -> {t.branch_after} "
                f"between p={t.p_before:.4g} and p={t.p_after:.4g}"
            )

    l1 = bounds.estimation_curve(args.n, None, args.vc, "l1-chained", c=args.c)
    best = min(l1.points, key=lambda pt: pt.value.total)
    chained = bounds.optimal_split_l1(args.n, args.vc, c=args.c, mode="chained")
    computable = bounds.optimal_split_l1(args.n, args.vc)
    print(
        f"l1-chained: grid argmin p={best.p:.4g}; closed-form "
        f"p*={chained.p:.4g} (chained), p*={computable.p:.4g} (computable)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
