"""Command-line front end.

Verbs: bound, curve, split, ci, simulate, compare, verify. Default output
is CSV (--json switches); `verify` always emits JSON because its reports
are nested. bound, curve and ci clamp totals to 1 unless --no-clamp is
given and take --strict-proposition; --gamma-proof-form belongs to verify;
a verb refuses flags it does not read. Exit codes: 0 success, 1 usage
error, 2 infeasible confidence-interval search, 3 invariant violation
detected during simulate/verify. Errors print one line to stderr prefixed
"ERROR <code>:". Output depends only on argv and the seed, never on
wall-clock state, so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import bounds, harness, toolkit
from .bounds import BoundQuery, InfeasibleCiError


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); route to our codes
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="cvbounds", description=__doc__, add_help=True)
    sub = parser.add_subparsers(dest="verb", required=True, parser_class=_Parser)

    option_types = {
        "n": int, "p": float, "k": int, "vc": int, "eps": float, "alpha": float,
        "procedure": str, "trials": int, "seed": int, "config": str, "c": float,
    }
    switches = {
        "no_clamp": "--no-clamp",
        "strict_proposition": "--strict-proposition",
        "gamma_proof_form": "--gamma-proof-form",
    }

    def add_verb(verb, *names, **defaults):
        sp = sub.add_parser(verb)
        for name in names:
            if name in switches:
                sp.add_argument(switches[name], dest=name, action="store_true")
            else:
                sp.add_argument(f"--{name}", type=option_types[name], default=defaults.get(name))
        sp.add_argument("--out", type=str, default=None)
        sp.add_argument("--json", action="store_true")

    bound_switches = ("no_clamp", "strict_proposition")
    add_verb("bound", "n", "p", "k", "vc", "eps", "procedure", *bound_switches, vc=1)
    add_verb("curve", "n", "vc", "eps", "procedure", "c", *bound_switches, vc=1)
    add_verb("split", "n", "vc", "c", vc=1)
    add_verb("ci", "n", "vc", "alpha", "procedure", *bound_switches, vc=1)
    add_verb("simulate", "n", "k", "vc", "trials", "seed", "config")
    add_verb("compare", "n", "k", "vc", "trials", "seed", "config")
    add_verb("verify", "n", "p", "procedure", "trials", "seed", "gamma_proof_form")
    return parser


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="\n") as fh:
            fh.write(text)


def _emit_record(args, payload: dict, lines: list[str]) -> None:
    """payload as JSON under --json, else the CSV lines."""
    if args.json:
        _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    else:
        _emit("\n".join(lines) + "\n", args.out)


def _require(value, flag: str):
    if value is None:
        raise UsageError(f"missing required flag {flag}")
    return value


def _resolve_p(args) -> float:
    if args.p is not None and args.k is not None:
        raise UsageError("pass --p or --k, not both")
    if args.p is not None:
        return args.p
    if args.k is not None:
        if args.k < 2:
            raise UsageError("--k must be at least 2")
        return 1.0 / args.k
    raise UsageError("one of --p or --k is required")


def _procedure(args, probability: bool = False) -> str:
    """--procedure, symmetric-combined by default, after refusing --eps,
    --strict-proposition and --c where its REGISTRY entry does not read
    them and requiring --eps where it does."""
    procedure = args.procedure or "symmetric-combined"
    entry = bounds.procedure_entry(procedure, probability)
    if entry.reads_eps and "eps" in vars(args) and args.eps is None:
        raise UsageError("--eps is required for probability-bound curves")
    for flag, dest, read in (
        ("--eps", "eps", entry.reads_eps),
        ("--strict-proposition", "strict_proposition", entry.reads_strict),
        ("--c", "c", entry.reads_c),
    ):
        if vars(args).get(dest) not in (None, False) and not read:
            raise UsageError(f"procedure {procedure} does not read {flag}")
    return procedure


def _cmd_bound(args) -> int:
    n = _require(args.n, "--n")
    eps = _require(args.eps, "--eps")
    p = _resolve_p(args)
    procedure = _procedure(args, probability=True)
    q = BoundQuery(
        n, p, eps, args.vc, procedure=procedure,
        clamp=not args.no_clamp, strict_proposition=args.strict_proposition,
    )
    value = bounds.evaluate_procedure(q)
    payload = {
        "procedure": procedure, "n": n, "p": q.p, "eps": eps, "vc": args.vc,
        "b_term": value.b_term, "v_term": value.v_term, "total": value.total,
        "branch": value.branch, "log_b_term": value.log_b_term,
        "log_v_term": value.log_v_term, "clamped": not args.no_clamp,
    }
    lines = [
        "procedure,n,p,eps,vc,b_term,v_term,total,branch",
        f"{procedure},{n},{q.p!r},{eps!r},{args.vc},"
        f"{value.b_term!r},{value.v_term!r},{value.total!r},{value.branch}",
    ]
    _emit_record(args, payload, lines)
    return 0


def _cmd_curve(args) -> int:
    n = _require(args.n, "--n")
    procedure = _procedure(args)
    curve = bounds.estimation_curve(
        n, args.eps, args.vc, procedure, clamp=not args.no_clamp,
        strict_proposition=args.strict_proposition, c=1.0 if args.c is None else args.c,
    )
    payload = {
        "procedure": procedure, "n": n, "eps": args.eps, "vc": args.vc,
        "points": [
            {
                "p": pt.p, "b_term": pt.value.b_term, "v_term": pt.value.v_term,
                "total": pt.value.total, "branch": pt.value.branch,
            }
            for pt in curve.points
        ],
        "transitions": [vars(t) for t in curve.transitions],
        "snapped": [list(s) for s in curve.snapped],
        "dropped": list(curve.dropped),
    }
    lines = ["p,B,V,total,branch"] + [
        f"{pt.p!r},{pt.value.b_term!r},{pt.value.v_term!r},{pt.value.total!r},{pt.value.branch}"
        for pt in curve.points
    ]
    _emit_record(args, payload, lines)
    return 0


def _cmd_split(args) -> int:
    n = _require(args.n, "--n")
    mode = "chained" if args.c is not None else "computable"
    split = bounds.optimal_split_l1(n, args.vc, c=args.c, mode=mode)
    payload = {
        "mode": split.mode, "n": n, "vc": args.vc, "c": args.c,
        "p_raw": split.p_raw, "p": split.p, "snap": split.snap,
    }
    lines = [
        "mode,n,vc,c,p_raw,p,snap",
        f"{split.mode},{n},{args.vc},"
        f"{'' if args.c is None else repr(args.c)},"
        f"{split.p_raw!r},{split.p!r},{split.snap}",
    ]
    _emit_record(args, payload, lines)
    return 0


def _cmd_ci(args) -> int:
    n = _require(args.n, "--n")
    alpha = _require(args.alpha, "--alpha")
    procedure = _procedure(args, probability=True)
    result = bounds.confidence_interval_search(
        n, args.vc, alpha, procedure, clamp=not args.no_clamp,
        strict_proposition=args.strict_proposition,
    )
    payload = {
        "procedure": result.procedure, "n": n, "vc": args.vc, "alpha": alpha,
        "eps_star": result.eps_star, "p_star": result.p_star,
        "achieved_bound": result.achieved_bound,
    }
    lines = [
        "procedure,n,vc,alpha,eps_star,p_star,achieved_bound",
        f"{result.procedure},{n},{args.vc},{alpha!r},"
        f"{result.eps_star!r},{result.p_star!r},{result.achieved_bound!r}",
    ]
    _emit_record(args, payload, lines)
    return 0


def _load_config(args, default_plans) -> harness.ExperimentConfig:
    if args.config is not None:
        with open(args.config) as fh:
            data = json.load(fh)
    else:
        data = {
            "theta_star": 0.3,
            "eta": 0.1,
            "n": 50,
            "plans": default_plans,
            "class": {"kind": "threshold", "vc": 1},
            "trials": 1000,
            "master_seed": 0,
            "grid_provenance": "artifact-default",
        }
    if args.n is not None:
        data["n"] = args.n
    if args.k is not None:
        data["plans"] = [{"kind": "kfold", "k": args.k}]
    if args.trials is not None:
        data["trials"] = args.trials
    if args.seed is not None:
        data["master_seed"] = args.seed
    if args.vc is not None:
        data.setdefault("class", {"kind": "threshold"})["vc"] = args.vc
    return harness.ExperimentConfig.from_dict(data)


def _exit_status(report: harness.ExperimentReport) -> int:
    problems = report.problems()
    if problems:
        sys.stderr.write(f"ERROR 3: {problems[0]}\n")
        return 3
    return 0


def _cmd_simulate(args) -> int:
    cfg = _load_config(args, default_plans=[{"kind": "kfold", "k": 5}])
    report = harness.run_experiment(cfg)
    _emit(report.to_json() + "\n" if args.json else report.to_csv(), args.out)
    return _exit_status(report)


def _compare_default_plans(n: int, k: int) -> list[dict]:
    if n < 2:
        raise UsageError("--n must be at least 2")
    if k < 2:
        raise UsageError("--k must be at least 2")
    if n % k != 0:
        raise UsageError(f"--k {k} must divide n = {n}")
    v = n // k
    plans: list[dict] = [{"kind": "kfold", "k": k}]
    if math.comb(n, v) <= 10**6:
        plans.append({"kind": "lvo", "v": v, "mode": "exhaustive"})
    else:
        plans.append({"kind": "lvo", "v": v, "mode": "montecarlo", "m": 2000, "seed": 1})
    plans.append({"kind": "holdout", "p": v / n})
    return plans


def _cmd_compare(args) -> int:
    n = args.n if args.n is not None else (50 if args.config is None else None)
    k = args.k if args.k is not None else 5
    if args.config is None:
        # the plans already encode k; keep _load_config from replacing them
        cfg = _load_config(argparse.Namespace(**{**vars(args), "k": None}),
                           default_plans=_compare_default_plans(n, k))
    else:
        cfg = _load_config(args, default_plans=[])
    report = harness.run_experiment(cfg)
    table = harness.comparison_table(report)
    lines = [report.to_csv(), "plan,p,eps,b_sym_over_b_hold,v_kfold_over_v_sym"]
    for r in table["ratios"]:
        v_ratio = "" if r["v_kfold_over_v_sym"] is None else repr(r["v_kfold_over_v_sym"])
        lines.append(
            f"{r['plan']},{r['p']!r},{r['eps']!r},"
            f"{r['b_sym_over_b_hold']!r},{v_ratio}"
        )
    _emit_record(args, table, lines)
    return _exit_status(report)


_VERIFIER_FLAGS = {
    "hoeffding": ("n", "reps", "seed"),
    "vc": ("n", "reps", "seed"),
    "mcdiarmid": ("n", "reps", "seed"),
    "reverse-markov": ("reps", "seed"),
    "pareto": ("seed",),
    "moment-gamma": ("seed", "proof_form"),
    "pipeline": ("n", "p", "seed"),
}


def _cmd_verify(args) -> int:
    names = list(toolkit.VERIFIERS) if args.procedure in (None, "all") else [args.procedure]
    for name in names:
        if name not in toolkit.VERIFIERS:
            raise UsageError(
                f"unknown inequality {name!r}; choose from "
                + ", ".join(sorted(toolkit.VERIFIERS))
            )
    candidates = {
        "n": args.n, "p": args.p, "reps": args.trials, "seed": args.seed,
        "proof_form": args.gamma_proof_form or None,
    }
    reports = []
    for name in names:
        kwargs = {
            key: candidates[key]
            for key in _VERIFIER_FLAGS[name]
            if candidates.get(key) is not None
        }
        reports.append(toolkit.VERIFIERS[name](**kwargs))
    # nested reports: always JSON regardless of --json
    _emit(json.dumps(reports, sort_keys=True, indent=2) + "\n", args.out)
    for report in reports:
        for entry in report["grid"]:
            if not entry["holds"]:
                sys.stderr.write(
                    f"ERROR 3: inequality {report['inequality']} failed "
                    f"at eps={entry['eps']}\n"
                )
                return 3
    return 0


_DISPATCH = {
    "bound": _cmd_bound,
    "curve": _cmd_curve,
    "split": _cmd_split,
    "ci": _cmd_ci,
    "simulate": _cmd_simulate,
    "compare": _cmd_compare,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _DISPATCH[args.verb](args)
    except UsageError as exc:
        sys.stderr.write(f"ERROR 1: {exc}\n")
        return 1
    except InfeasibleCiError as exc:
        sys.stderr.write(f"ERROR 2: {exc}\n")
        return 2
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"ERROR 1: {exc}\n")
        return 1


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
