"""Rewrite expected_digests.json: digests of the first ops at the pin seed.

The digests cover only the exact-machinery fields (see
workloads.report_digest and ExactCv.digest). Regenerate them only when a
change is meant to alter those numbers, and say so in the change. Run
from a checkout root:

    python3 perfbench/pin.py
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import run  # noqa: E402
import workloads  # noqa: E402

OPS = {"grid": 18, "loo_n1000": 4, "exact_cv": 8}


def main() -> None:
    pinned = {}
    for name, count in OPS.items():
        w = workloads.make(name)
        w.setup(run.PIN_SEED)
        tracer = workloads.NullTracer()
        pinned[name] = [w.digest(w.op(i, tracer)) for i in range(count)]
    with open(run.EXPECTED, "w") as fh:
        json.dump({"seed": run.PIN_SEED, **pinned}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
