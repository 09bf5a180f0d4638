"""Reproducible acceptance experiments over the claimed bounds.

Each criterion function returns printable check rows; the CLI `verify`
subcommand and the acceptance test module both run these, so the command
line and the test suite can never drift apart. All randomness is seeded.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from operator import itemgetter
from typing import NamedTuple

from . import dynamics as dyn
from .analysis import Criterion, compute_ratios, enumerate_profiles, optimal_profile, verify_lemma_cost_bound
from .game import (
    SCHEME_FAMILIES,
    GameInstance,
    agent_cost,
    feasible_extension,
    is_feasible,
    is_nash,
    make_instance,
    max_cost,
    potential,
    sum_cost,
)
from .graphs import enumerate_st_paths
from .instances import InstanceRecipe, build_recipe, crossed_dag, overhead_parallel, two_link
from .rational import format_rational

EPS_DEFAULT = Fraction(1, 1000)
BUDGET_SKIP = "skipped: time budget exhausted"  # the claim of a criterion the budget skipped


class CheckRow(NamedTuple):
    criterion: str
    claim: str
    instance: str
    bound: str
    measured: str
    passed: bool


class SuiteResult(NamedTuple):
    rows: tuple[CheckRow, ...]
    elapsed_s: float

    @property
    def passed(self) -> bool:
        return all(row.passed for row in self.rows)


def _row(criterion, claim, instance, bound, measured, passed) -> CheckRow:
    return CheckRow(criterion, claim, instance, str(bound), str(measured), passed)


def _exact(criterion, claim, instance, want, got) -> CheckRow:
    """A closed form against the measured value; passes iff they are equal."""
    return _row(criterion, claim, instance, format_rational(want), format_rational(got), got == want)


def _rising(criterion, claim, instance, bound, values, ceiling=None) -> CheckRow:
    """A strict trend; passes iff ``values`` increase and stay below ``ceiling`` when one is given."""
    steps = [*values] if ceiling is None else [*values, ceiling]
    rising = all(a < b for a, b in zip(steps, steps[1:]))
    return _row(criterion, claim, instance, bound, " < ".join(map(format_rational, values)), rising)


def _violations(criterion, claim, instance, bad, complete=True) -> CheckRow:
    """A violation count; passes iff it is zero and ``complete`` says the sample ran in full."""
    return _row(criterion, claim, instance, "0 violations", f"{bad} violations", bad == 0 and complete)


def _worst(samples) -> str:
    """The note of the largest ``(ratio, note)`` sample; the first of equals wins."""
    worst = max(samples, key=itemgetter(0), default=None)
    return "-" if worst is None else f"worst {worst[1]}"


def _seeded_pool(
    kind: str,
    seed_base: int,
    count: int,
    sizes: tuple[int, ...] = (2, 3),
    families: tuple[str, ...] = SCHEME_FAMILIES,
    label: str = "{kind}(seed={seed},n={n},scheme={scheme})",
) -> list[tuple[str, GameInstance]]:
    """Labelled instances with seeds ``seed_base + i``, taking sizes and families in turn."""
    pool = []
    for i in range(count):
        params = {"seed": seed_base + i, "n": sizes[i % len(sizes)], "scheme": families[i % len(families)]}
        pool.append((label.format(kind=kind, **params), build_recipe(InstanceRecipe(kind, params))))
    return pool


# --- criterion 1: the crossing DAG family -------------------------------------


def criterion_1_crossed_dag() -> list[CheckRow]:
    rows: list[CheckRow] = []
    for x_raw, y_raw in ((1, 2), (1, 100), (3, 9)):
        x, y = Fraction(x_raw), Fraction(y_raw)
        label = f"fig2(x={x_raw},y={y_raw})"
        instance = crossed_dag(x, y)  # raises SelfCheckFailed on any drift
        report = compute_ratios(instance)

        locked_key = tuple(sorted(((0, 3, 5), (1, 4, 6))))
        is_ne = any(
            tuple(sorted(e.profile.paths)) == locked_key for e in report.equilibria.entries
        )
        rows.append(_row("C1", "crossing profile is an equilibrium [Thm1]", label, "true", is_ne, is_ne))

        poa_sc_formula = Fraction(4, 5) + 2 * y / (5 * x)
        rows.append(_exact("C1", "PoA_sc == 4/5 + 2y/5x [Thm1]", label, poa_sc_formula, report.poa_sc.value))

        poa_mc_formula = Fraction(2, 3) + y / (3 * x)
        worst_mc = report.equilibria.extreme(Criterion.MAX, worst=True)
        lower_ok = report.poa_mc.value >= poa_mc_formula
        equality_applies = worst_mc.max_cost == 2 * x + y
        equal_ok = (not equality_applies) or report.poa_mc.value == poa_mc_formula
        rows.append(
            _row(
                "C1",
                "PoA_mc >= 2/3 + y/3x (== when crossing NE is worst) [Thm6]",
                label,
                format_rational(poa_mc_formula),
                format_rational(report.poa_mc.value),
                lower_ok and equal_ok,
            )
        )

    sc_values: list[Fraction] = []
    mc_values: list[Fraction] = []
    for x_raw in (2, 10, 100):
        x = Fraction(x_raw)
        report = compute_ratios(crossed_dag(x, x * x))
        sc_values.append(report.poa_sc.value)
        mc_values.append(report.poa_mc.value)
    for claim, values in (
        ("PoA_sc strictly increases along y=x^2, x=2,10,100 [Thm1]", sc_values),
        ("PoA_mc strictly increases along y=x^2, x=2,10,100 [Thm6]", mc_values),
    ):
        rows.append(_rising("C1", claim, "fig2(y=x^2)", "increasing", values))
    rows.append(
        _row(
            "C1",
            "PoA_sc exceeds 40 at x=100 [Thm1]",
            "fig2(x=100,y=10000)",
            "> 40",
            format_rational(sc_values[-1]),
            sc_values[-1] > 40,
        )
    )
    return rows


# --- criterion 2: the overhead parallel-link family ----------------------------


def criterion_2_overhead_parallel() -> list[CheckRow]:
    rows: list[CheckRow] = []
    eps = EPS_DEFAULT
    for n in (2, 3, 4, 5):
        label = f"fig3(n={n},eps={eps})"
        instance = overhead_parallel(n, eps)
        report = compute_ratios(instance)

        distinct = len(report.equilibria.entries)
        rows.append(
            _row("C2", "exactly one equilibrium up to permutation [Lem7]", label, 1, distinct, distinct == 1)
        )

        ne_sum = Fraction(n - 1) + Fraction(1, n)
        measured_sum, pos_sc = report.equilibria.entries[0].sum_cost, report.pos_sc.value
        rows.append(_exact("C2", "equilibrium sum-cost == n - 1 + 1/n [Lem7]", label, ne_sum, measured_sum))
        rows.append(_exact("C2", "PoS_sc == (n - 1 + 1/n)/(1 + eps) [Thm8]", label, ne_sum / (1 + eps), pos_sc))

        fine_eps = Fraction(1, 10**6)
        pos_values = (pos_sc, compute_ratios(overhead_parallel(n, fine_eps)).pos_sc.value)
        limit = Fraction(n) + Fraction(1, n) - 1
        rows.append(
            _rising(
                "C2",
                "PoS_sc rises toward n + 1/n - 1 as eps falls [Thm8]",
                f"fig3(n={n},eps={eps} then {fine_eps})",
                format_rational(limit),
                pos_values,
                ceiling=limit,
            )
        )
    return rows


# --- criterion 3: the two-link family ------------------------------------------


def criterion_3_two_link() -> list[CheckRow]:
    rows: list[CheckRow] = []
    for n in (2, 5):
        label = f"two-link(n={n})"
        report = compute_ratios(two_link(n))
        rows.append(_exact("C3", "PoA_sc == n [Thm5]", label, n, report.poa_sc.value))
        rows.append(_exact("C3", "PoA_mc == n [Thm9]", label, n, report.poa_mc.value))
    return rows


# --- criteria 4 and 5: the reports' own bound verdicts ---------------------------


def _claim(tag: str) -> str:
    """``"Thm5:PoA_sc<=n"`` reads ``"PoA_sc<=n [Thm5]"``."""
    source, claim = tag.split(":")
    return f"{claim} [{source}]"


def _share(check) -> tuple[bool, Fraction]:
    """``measured / bound`` as a sort key that ranks the infinite ratio None above every finite share."""
    return (True, Fraction(0)) if check.measured is None else (False, check.measured / check.bound)


def _verdict_rows(criterion: str, suite: str, reports, tags: tuple[str, ...]) -> list[CheckRow]:
    """One row per bound tag over ``(label, report)`` pairs.

    A row passes only if every report carries the tag and its verdict holds,
    so a verdict that ``compute_ratios`` drops fails the row too.
    """
    verdicts = [(label, {check.tag: check for check in report.bounds}) for label, report in reports]
    rows = []
    for tag in tags:
        bound = tag.split("<=")[1]
        checks = [(label, by_tag.get(tag)) for label, by_tag in verdicts]
        worst = _worst(
            (_share(check), f"{format_rational(check.measured)} of {bound}={check.bound} @ {label}")
            for label, check in checks
            if check is not None
        )
        held = all(check is not None and check.holds for _, check in checks)
        rows.append(_row(criterion, _claim(tag), suite, bound, worst, held))
    return rows


# the symmetric SP verdicts, in row order (sorted by claim text)
SP_TAGS = ("Thm9:PoA_mc<=n", "Thm5:PoA_sc<=n", "Thm10:PoS_mc<=n", "Thm8:PoS_sc<=n")


def criterion_4_sp_upper_bounds(count: int = 200) -> list[CheckRow]:
    pool = _seeded_pool("random-sp", 1000, count)
    reports = [(label, compute_ratios(instance)) for label, instance in pool]
    lemma = [(label, verify_lemma_cost_bound(report)) for label, report in reports]
    violations: list[str] = []
    for (label, report), (_, check) in zip(reports, lemma):
        violations += [
            f"{_claim(bound.tag)} at {label}: {format_rational(bound.measured)}"
            for bound in report.bounds
            if not bound.holds
        ]
        if not check.holds:
            violations.append(
                f"Lem3 at {label}: agent pays {format_rational(check.measured)} > {format_rational(check.bound)}"
            )

    suite = f"{count} random SP instances (n in 2..3)"
    rows = _verdict_rows("C4", suite, reports, SP_TAGS)
    worst = _worst(
        (
            check.measured / check.bound if check.bound else Fraction(0),
            f"{format_rational(check.measured)} vs opt {format_rational(check.bound)} @ {label}",
        )
        for label, check in lemma
    )
    lemma_ok = all(check.holds for _, check in lemma)
    rows.append(_row("C4", "NE agent cost <= opt_sc [Lem3]", suite, "opt_sc", worst, lemma_ok))
    if violations:
        rows.append(_row("C4", "zero violations", suite, "0", "; ".join(violations[:3]), False))
    return rows


def criterion_5_asymmetric(count: int = 100) -> list[CheckRow]:
    pool = _seeded_pool("random-asymmetric", 2000, count)
    reports = [(label, compute_ratios(instance)) for label, instance in pool]
    suite = f"{count} random asymmetric DAG instances (n in 2..3)"
    return _verdict_rows("C5", suite, reports, ("Thm13:PoS_sc<=n", "Thm14:PoS_mc<=n^2"))


# --- criterion 6: potential identities -------------------------------------------


def criterion_6_potential_identities() -> list[CheckRow]:
    profile_checks, deviation_checks, runs = 1000, 500, 200
    rng = random.Random(9001)
    pool = [two_link(3), overhead_parallel(3, EPS_DEFAULT)]
    pool += [instance for _, instance in _seeded_pool("random-sp", 3000, 38, sizes=(2, 3, 4))]
    samples = [(instance, enumerate_profiles(instance)) for instance in pool]

    sandwich_bad = 0
    for i in range(profile_checks):
        instance, profiles = samples[i % len(samples)]
        profile = rng.choice(profiles)
        cost = sum_cost(instance, profile)
        pot = potential(instance, profile)
        if not cost <= pot <= instance.n * cost:
            sandwich_bad += 1

    exact_bad = 0
    done = 0
    attempts = 0
    while done < deviation_checks:
        attempts += 1
        if attempts > deviation_checks * 50:  # pragma: no cover - pool always has slack
            break
        instance, profiles = samples[attempts % len(samples)]
        profile = rng.choice(profiles)
        agent = rng.randrange(instance.n)
        options = [
            path
            for path in instance.agent_paths(agent)
            if path != profile.paths[agent]
            and is_feasible(instance, profile.replace(agent, path))
        ]
        if not options:
            continue
        new_profile = profile.replace(agent, rng.choice(options))
        delta_pot = potential(instance, new_profile) - potential(instance, profile)
        delta_cost = agent_cost(instance, new_profile, agent) - agent_cost(instance, profile, agent)
        if delta_pot != delta_cost:
            exact_bad += 1
        done += 1

    run_bad = 0
    policies = (
        dyn.DeviationPolicy(),
        dyn.DeviationPolicy(rule="first_improving"),
        dyn.DeviationPolicy(ordering="random", seed=7),
        dyn.DeviationPolicy(ordering="random", rule="first_improving", seed=11),
    )
    for i in range(runs):
        instance, profiles = samples[i % len(samples)]
        start = rng.choice(profiles)
        trace = dyn.run_dynamics(instance, start, policies[i % len(policies)])
        pots = trace.potentials()
        monotone = all(a > b for a, b in zip(pots, pots[1:]))
        if not (is_nash(instance, trace.terminal) and monotone):
            run_bad += 1

    return [
        _violations(
            "C6", "cost_sc <= potential <= n * cost_sc", f"{profile_checks} random feasible profiles", sandwich_bad
        ),
        _violations(
            "C6",
            "potential change equals the mover's cost change",
            f"{done} random single deviations",
            exact_bad,
            complete=done == deviation_checks,
        ),
        _violations(
            "C6", "dynamics end at an equilibrium with strictly falling potential", f"{runs} seeded runs", run_bad
        ),
    ]


# --- criterion 7: the rebuild procedure -------------------------------------------


def criterion_7_constructive() -> list[CheckRow]:
    count = 50
    cases = _seeded_pool("random-sp", 4000, count)
    cases += [(f"two-link(n={n})", two_link(n)) for n in (2, 5)]
    cases += [(f"fig3(n={n},eps={EPS_DEFAULT})", overhead_parallel(n, EPS_DEFAULT)) for n in (2, 3, 4, 5)]

    bound_bad: list[str] = []
    log_bad: list[str] = []
    samples: list[tuple[Fraction, str]] = []
    rounds = ran = 0
    for label, instance in cases:
        opt_profile, opt_value = optimal_profile(instance, Criterion.MAX)
        result = dyn.low_max_cost_equilibrium(instance, opt_profile)
        achieved = max_cost(instance, result.equilibrium)
        target = instance.n * opt_value
        if not is_nash(instance, result.equilibrium):
            bound_bad.append(f"not an equilibrium @ {label}")
        if achieved > target:
            bound_bad.append(f"max {format_rational(achieved)} > {format_rational(target)} @ {label}")
        norm = achieved / target if target else Fraction(0)
        samples.append((norm, f"{format_rational(achieved)} vs n*opt {format_rational(target)} @ {label}"))

        rounds += len(result.rounds)
        ran += bool(result.rounds)
        pots = [r.equilibrium_potential for r in result.rounds]
        if any(a <= b for a, b in zip(pots, pots[1:])):
            log_bad.append(f"round potentials not decreasing @ {label}")
        for r in result.rounds:
            if r.rebuilt_path_cost > sum_cost(instance, opt_profile):
                log_bad.append(f"rebuilt path cost @ {label}")
            if not r.rebuilt_potential < r.equilibrium_potential:
                log_bad.append(f"rebuild failed to lower potential @ {label}")

    suite = f"{len(cases)} instances ({count} random SP + two-link + fig3 families)"
    checked = f"{len(log_bad)} violations in {rounds} rounds ({ran} of {len(cases)} instances ran one)"
    return [
        _row(
            "C7",
            "rebuilt equilibrium max-cost <= n * optimal max-cost [Thm10]",
            suite,
            "n*opt_mc",
            _worst(samples),
            not bound_bad,
        ),
        _row(
            "C7",
            "rebuild rounds strictly lower the potential",
            suite,
            "0 violations",
            "; ".join([checked, *log_bad[:3]]),
            not log_bad,
        ),
    ]


# --- criterion 8: feasible extension vs brute force --------------------------------


def criterion_8_extension() -> list[CheckRow]:
    rng = random.Random(5005)
    bad: list[str] = []
    pool = _seeded_pool(
        "random-sp", 5000, 100, families=("ordinary", "mixed"), label="{kind}(seed={seed},n={n})"
    )
    for label, instance in pool:
        big = rng.choice(enumerate_profiles(instance))
        # a feasible profile of the same arena with one agent fewer
        smaller = make_instance(instance.graph, instance.schemes, instance.n - 1, certify=False)
        small = rng.choice(enumerate_profiles(smaller))

        found = feasible_extension(instance, big, small)

        caps = instance.capacities
        small_loads = small.loads
        valid = [
            path
            for path in enumerate_st_paths(instance.graph)
            if set(path) <= big.loads.keys()
            and all(small_loads.get(e, 0) + 1 <= caps[e] for e in path)
        ]
        if not valid:
            bad.append(f"oracle found no valid extension @ {label}")
        elif found not in valid:
            bad.append(f"returned path not in oracle set @ {label}")

    return [
        _row(
            "C8",
            "extension path lies in the brute-force valid set [Lem2]",
            f"{len(pool)} random SP instances (r = k - 1)",
            "member",
            "; ".join(bad[:3]) if bad else "all member",
            not bad,
        )
    ]


# --- suite driver -------------------------------------------------------------------


CRITERIA = {
    "C1": criterion_1_crossed_dag,
    "C2": criterion_2_overhead_parallel,
    "C3": criterion_3_two_link,
    "C4": criterion_4_sp_upper_bounds,
    "C5": criterion_5_asymmetric,
    "C6": criterion_6_potential_identities,
    "C7": criterion_7_constructive,
    "C8": criterion_8_extension,
}


def run_suite(
    names: list[str] | None = None, budget_s: float | None = None
) -> SuiteResult:
    """Run the acceptance criteria; a budget stops starting new criteria."""
    wanted = list(CRITERIA) if not names else names
    unknown = [n for n in wanted if n not in CRITERIA]
    if unknown:
        raise ValueError(f"unknown criteria: {unknown}")
    if budget_s is not None and not budget_s >= 0:  # NaN fails every comparison
        raise ValueError(f"budget must be a number of seconds >= 0, got {budget_s}")
    started = time.monotonic()
    rows: list[CheckRow] = []
    for name in wanted:
        elapsed = time.monotonic() - started
        if budget_s is not None and elapsed > budget_s:
            rows.append(
                _row(name, BUDGET_SKIP, "-", "-", f"{elapsed:.1f}s elapsed", False)
            )
            continue
        rows.extend(CRITERIA[name]())
    return SuiteResult(tuple(rows), time.monotonic() - started)


def format_table(result: SuiteResult) -> str:
    headers = ("criterion", "claim", "instance", "bound", "measured", "result")
    table = [headers]
    for row in result.rows:
        table.append(
            (
                row.criterion,
                row.claim,
                row.instance,
                row.bound,
                row.measured,
                "pass" if row.passed else "FAIL",
            )
        )
    widths = [max(len(line[col]) for line in table) for col in range(len(headers))]
    lines = []
    for i, line in enumerate(table):
        lines.append("  ".join(cell.ljust(widths[c]) for c, cell in enumerate(line)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    passed = sum(1 for r in result.rows if r.passed)
    verdict = "PASS" if result.passed else "FAIL"
    lines.append("")
    lines.append(
        f"suite {verdict}: {passed}/{len(result.rows)} checks passed in {result.elapsed_s:.1f}s"
    )
    return "\n".join(lines)
