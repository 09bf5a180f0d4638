"""Command line front end: gen / analyze / dynamics / verify.

Exit codes: 0 success, 1 a claimed bound shown in the report was violated
(or a verify check failed), 2 bad input or parameters, 3 a cap was
exceeded (an enumeration explosion or the dynamics step cap), 4 verify
spent its --budget and skipped criteria, with no check failed, 5 an
internal error (an ``InternalAssertion`` or any exception csglab did not
raise on purpose), after its traceback. The default
seed for random recipes comes from the CSGLAB_SEED environment variable.
gen loads the instance generators, verify also the acceptance suite, and
analyze and dynamics load neither.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from .analysis import Criterion, compute_ratios, optimal_profile
from .dynamics import DEFAULT_STEP_CAP, DeviationPolicy, run_dynamics
from .errors import CsglabError, InstanceFormatError, InternalAssertion, ParameterViolation
from .game import SCHEME_FAMILIES
from .graphs import DEFAULT_PATH_CAP
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


def _read_instance(path: str, cap: int):
    if path == "-":
        doc = load_json(sys.stdin)
    else:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                doc = load_json(handle)
        except OSError as exc:
            raise InstanceFormatError(f"cannot read {path}: {exc}")
    return doc, instance_from_document(doc, cap)


# --- gen ------------------------------------------------------------------------


def _recipe_params(args: argparse.Namespace) -> dict:
    kind = args.recipe
    if kind == "fig2":
        return {"x": parse_rational(args.x), "y": parse_rational(args.y)}
    if kind == "fig3":
        return {"n": args.n, "eps": parse_rational(args.eps)}
    if kind == "two-link":
        return {"n": args.n}
    seed = args.seed if args.seed is not None else _default_seed()
    if kind == "random-sp":
        return {"seed": seed, "n": args.n, "max_depth": args.max_depth, "scheme": args.scheme}
    return {"seed": seed, "n": args.n, "scheme": args.scheme}  # random-asymmetric


def cmd_gen(args: argparse.Namespace) -> int:
    from .instances import InstanceRecipe, build_recipe

    recipe = InstanceRecipe(args.recipe, _recipe_params(args))
    instance = build_recipe(recipe)
    doc = instance_to_document(instance, recipe=recipe.as_document())
    _write_out(canonical_json(doc), args.out)
    return 0


# --- analyze ---------------------------------------------------------------------


def cmd_analyze(args: argparse.Namespace) -> int:
    started = time.monotonic()
    doc, instance = _read_instance(args.instance, args.cap)
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
    doc, instance = _read_instance(args.instance, args.cap)
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
    from .verification import BUDGET_SKIP, format_table, run_suite

    names = args.only.split(",") if args.only else None
    try:
        result = run_suite(names, budget_s=args.budget)
    except ValueError as exc:
        raise ParameterViolation(str(exc))
    print(format_table(result))
    failed = {row.claim for row in result.rows if not row.passed}
    return 0 if not failed else 4 if failed == {BUDGET_SKIP} else 1


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
    rsp.add_argument("--scheme", default="ordinary", choices=SCHEME_FAMILIES)

    rasym = gen_sub.add_parser("random-asymmetric", help="seeded random asymmetric DAG game")
    rasym.add_argument("--seed", type=int, default=None)
    rasym.add_argument("--n", type=int, required=True)
    rasym.add_argument("--scheme", default="ordinary", choices=SCHEME_FAMILIES)

    for p in (fig2, fig3, twolink, rsp, rasym):
        p.add_argument("--out", default=None)
        p.set_defaults(handler=cmd_gen)

    analyze = sub.add_parser("analyze", help="exact optima, equilibria, ratios, bound verdicts")
    analyze.add_argument("instance", help="instance JSON path, or - for stdin")
    analyze.add_argument("--criterion", default="both", choices=["both", "sc", "mc"])
    analyze.add_argument("--cap", type=int, default=DEFAULT_PATH_CAP)
    analyze.add_argument("--no-dynamics", action="store_true", dest="no_dynamics")
    analyze.add_argument("--out", default=None)
    analyze.set_defaults(handler=cmd_analyze)

    dynamics = sub.add_parser("dynamics", help="run deviation dynamics to an equilibrium")
    dynamics.add_argument("instance", help="instance JSON path, or - for stdin")
    dynamics.add_argument("--start", default="opt-sc", help="opt-sc | opt-mc | profile JSON path")
    dynamics.add_argument("--policy", default="round-robin", choices=["round-robin", "random"])
    dynamics.add_argument("--rule", default="best", choices=["best", "first"])
    dynamics.add_argument("--seed", type=int, default=None)
    dynamics.add_argument("--step-cap", type=int, default=DEFAULT_STEP_CAP, dest="step_cap")
    dynamics.add_argument("--cap", type=int, default=DEFAULT_PATH_CAP)
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
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        if isinstance(exc, CsglabError) and not isinstance(exc, InternalAssertion):
            print(f"error: {exc}", file=sys.stderr)
            return exc.exit_code
        import traceback  # a bug, not a verdict on the input; only a failing command loads it

        traceback.print_exc()
        return 5


if __name__ == "__main__":
    sys.exit(main())
