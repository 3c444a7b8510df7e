"""Run the default Monte Carlo validation grid and summarize it.

Writes one CSV per configuration into --out-dir and prints a one-line
summary per run. Exit status 1 if any comparison-lemma violation or any
tail above its bound plus slack shows up.
"""

import argparse
import pathlib
import time

from cvbounds import harness


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=10_000)
    ap.add_argument("--seed", type=int, default=20240)
    ap.add_argument("--out-dir", type=str, default="validation_out")
    args = ap.parse_args(argv)
    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    problems = 0
    start = time.perf_counter()
    for cfg in harness.default_acceptance_configs(
        trials=args.trials, master_seed=args.seed
    ):
        report = harness.run_experiment(cfg)
        name = f"grid_n{cfg.n}_eta{cfg.eta}".replace(".", "_")
        (out / f"{name}.csv").write_text(report.to_csv())
        lemma = sum(report.lemma_violations)
        # negative everywhere when the bounds hold
        excess = max(r.empirical_tail - r.bound_total - r.slack for r in report.rows)
        problems += len(report.problems())
        print(
            f"n={cfg.n:4d} eta={cfg.eta:.1f} lemma_violations={lemma} "
            f"worst_tail_excess={excess:+.4f}"
        )
    print(f"done in {time.perf_counter() - start:.1f}s; problems={problems}")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
