"""Command line front end: gen / analyze / dynamics / verify.

Exit codes: 0 success, 1 a claimed bound shown in the report was violated
(or the verify suite failed), 2 bad input or parameters, 3 enumeration
explosion. The default seed for random recipes comes from the CSGLAB_SEED
environment variable.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import verification
from .analysis import Criterion, compute_ratios, optimal_profile
from .dynamics import DeviationPolicy, run_dynamics
from .errors import (
    InfeasibleGame,
    InfeasibleProfile,
    InstanceFormatError,
    MalformedProfile,
    ParameterViolation,
    PathExplosion,
    SchemeViolation,
    SelfCheckFailed,
)
from .instances import InstanceRecipe, build_recipe
from .io import (
    canonical_json,
    instance_from_document,
    instance_to_document,
    load_json,
    profile_from_document,
    report_to_document,
    trace_to_document,
)
from .rational import parse_rational

INPUT_ERRORS = (
    ParameterViolation,
    InstanceFormatError,
    SchemeViolation,
    MalformedProfile,
    InfeasibleGame,
    InfeasibleProfile,
    SelfCheckFailed,
)


def _default_seed() -> int:
    raw = os.environ.get("CSGLAB_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ParameterViolation(f"CSGLAB_SEED must be an integer, got {raw!r}")


def _write_out(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _read_instance(path: str):
    if path == "-":
        doc = load_json(sys.stdin)
    else:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                doc = load_json(handle)
        except OSError as exc:
            raise InstanceFormatError(f"cannot read {path}: {exc}")
    return doc, instance_from_document(doc)


# --- gen ------------------------------------------------------------------------


def _recipe_from_args(args: argparse.Namespace) -> InstanceRecipe:
    kind = args.recipe
    if kind == "fig2":
        return InstanceRecipe("fig2", {"x": parse_rational(args.x), "y": parse_rational(args.y)})
    if kind == "fig3":
        return InstanceRecipe("fig3", {"n": args.n, "eps": parse_rational(args.eps)})
    if kind == "two-link":
        return InstanceRecipe("two-link", {"n": args.n})
    seed = args.seed if args.seed is not None else _default_seed()
    if kind == "random-sp":
        return InstanceRecipe(
            "random-sp",
            {"seed": seed, "n": args.n, "max_depth": args.max_depth, "scheme": args.scheme},
        )
    if kind == "random-asymmetric":
        return InstanceRecipe("random-asymmetric", {"seed": seed, "n": args.n, "scheme": args.scheme})
    raise ParameterViolation(f"unknown recipe {kind!r}")


def cmd_gen(args: argparse.Namespace) -> int:
    recipe = _recipe_from_args(args)
    instance = build_recipe(recipe)
    doc = instance_to_document(instance, recipe=recipe.as_document())
    _write_out(canonical_json(doc), args.out)
    return 0


# --- analyze ---------------------------------------------------------------------


def cmd_analyze(args: argparse.Namespace) -> int:
    started = time.monotonic()
    doc, instance = _read_instance(args.instance)
    report = compute_ratios(instance, cap=args.cap)

    dynamics_block = None
    if not args.no_dynamics and instance.n > 0:
        trace = run_dynamics(instance, report.opt_sc[0])
        dynamics_block = trace_to_document(trace, instance)

    out_doc = report_to_document(
        report,
        criterion=args.criterion,
        recipe=doc.get("recipe"),
        dynamics=dynamics_block,
        seeds={"cli_seed": None},
        wall_time_s=round(time.monotonic() - started, 6),
    )
    _write_out(canonical_json(out_doc), args.out)
    return 0 if out_doc["all_bounds_hold"] else 1


# --- dynamics ----------------------------------------------------------------------


def cmd_dynamics(args: argparse.Namespace) -> int:
    doc, instance = _read_instance(args.instance)
    if args.start == "opt-sc":
        start = optimal_profile(instance, Criterion.SUM, cap=args.cap)[0]
    elif args.start == "opt-mc":
        start = optimal_profile(instance, Criterion.MAX, cap=args.cap)[0]
    else:
        with open(args.start, "r", encoding="utf-8") as handle:
            start = profile_from_document(load_json(handle), instance)

    seed = args.seed if args.seed is not None else _default_seed()
    policy = DeviationPolicy(
        ordering=args.policy.replace("-", "_"),
        rule={"best": "best", "first": "first_improving"}[args.rule],
        seed=seed,
    )
    trace = run_dynamics(instance, start, policy, step_cap=args.step_cap)
    _write_out(canonical_json(trace_to_document(trace, instance)), args.out)
    return 0


# --- verify -------------------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    if args.suite != "paper":
        raise ParameterViolation(f"unknown suite {args.suite!r}")
    names = args.only.split(",") if args.only else None
    try:
        result = verification.run_suite(names, budget_s=args.budget)
    except ValueError as exc:
        raise ParameterViolation(str(exc))
    print(verification.format_table(result))
    return 0 if result.passed else 1


# --- parser --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csglab",
        description="Cost-sharing connection game solver and bound checker",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance document")
    gen_sub = gen.add_subparsers(dest="recipe", required=True)

    fig2 = gen_sub.add_parser("fig2", help="two-agent crossing DAG family")
    fig2.add_argument("--x", required=True)
    fig2.add_argument("--y", required=True)

    fig3 = gen_sub.add_parser("fig3", help="overhead parallel-link family")
    fig3.add_argument("--n", type=int, required=True)
    fig3.add_argument("--eps", required=True)

    twolink = gen_sub.add_parser("two-link", help="two parallel edges, costs 1 and n")
    twolink.add_argument("--n", type=int, required=True)

    rsp = gen_sub.add_parser("random-sp", help="seeded random series-parallel game")
    rsp.add_argument("--seed", type=int, default=None)
    rsp.add_argument("--n", type=int, required=True)
    rsp.add_argument("--max-depth", type=int, default=3, dest="max_depth")
    rsp.add_argument("--scheme", default="ordinary", choices=["ordinary", "threshold", "random", "mixed"])

    rasym = gen_sub.add_parser("random-asymmetric", help="seeded random asymmetric DAG game")
    rasym.add_argument("--seed", type=int, default=None)
    rasym.add_argument("--n", type=int, required=True)
    rasym.add_argument("--scheme", default="ordinary", choices=["ordinary", "threshold", "random", "mixed"])

    for p in (fig2, fig3, twolink, rsp, rasym):
        p.add_argument("--out", default=None)
        p.set_defaults(handler=cmd_gen)

    analyze = sub.add_parser("analyze", help="exact optima, equilibria, ratios, bound verdicts")
    analyze.add_argument("instance", help="instance JSON path, or - for stdin")
    analyze.add_argument("--criterion", default="both", choices=["both", "sc", "mc"])
    analyze.add_argument("--cap", type=int, default=10_000)
    analyze.add_argument("--no-dynamics", action="store_true", dest="no_dynamics")
    analyze.add_argument("--out", default=None)
    analyze.set_defaults(handler=cmd_analyze)

    dynamics = sub.add_parser("dynamics", help="run deviation dynamics to an equilibrium")
    dynamics.add_argument("instance", help="instance JSON path, or - for stdin")
    dynamics.add_argument("--start", default="opt-sc", help="opt-sc | opt-mc | profile JSON path")
    dynamics.add_argument("--policy", default="round-robin", choices=["round-robin", "random"])
    dynamics.add_argument("--rule", default="best", choices=["best", "first"])
    dynamics.add_argument("--seed", type=int, default=None)
    dynamics.add_argument("--step-cap", type=int, default=10_000, dest="step_cap")
    dynamics.add_argument("--cap", type=int, default=10_000)
    dynamics.add_argument("--out", default=None)
    dynamics.set_defaults(handler=cmd_dynamics)

    verify = sub.add_parser("verify", help="run the acceptance experiment suite")
    verify.add_argument("--suite", default="paper")
    verify.add_argument("--budget", type=float, default=None, help="soft wall-time limit in seconds")
    verify.add_argument("--only", default=None, help="comma-separated criteria, e.g. C1,C3")
    verify.set_defaults(handler=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except PathExplosion as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
