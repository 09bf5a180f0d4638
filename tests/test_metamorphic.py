"""Metamorphic relations: transforming an instance document in a way whose
effect on the analysis is known in advance, and checking that effect.

Scaling every cost by k > 0 scales every cost-like result by k and leaves
everything else alone; relabelling edge ids leaves every value alone, but
not the chosen profiles, whose ties break by path rank.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from csglab.analysis import compute_ratios
from csglab.instances import random_asymmetric, random_sp
from csglab.io import instance_from_document, instance_to_document
from csglab.rational import format_rational, parse_rational

GAMES = [random_sp(seed, 2 + seed % 2, scheme_family="mixed") for seed in range(8)] + [
    random_asymmetric(seed, 3, "mixed") for seed in range(8)
]
IDS = [f"sp-{seed}" for seed in range(8)] + [f"asym-{seed}" for seed in range(8)]


def _scaled(doc: dict, k: Fraction) -> dict:
    edges = []
    for edge in doc["edges"]:
        scheme = edge["scheme"]
        if scheme != "ordinary":
            scheme = {"table": [format_rational(parse_rational(v) * k) for v in scheme["table"]]}
        edges.append(edge | {"cost": format_rational(parse_rational(edge["cost"]) * k), "scheme": scheme})
    return doc | {"edges": edges}


def _relabelled(doc: dict) -> dict:
    # the new ids are the first m of a seeded permutation of 0..3m-1
    edges = doc["edges"]
    fresh = random.Random(7).sample(range(3 * len(edges)), len(edges))
    return doc | {"edges": [edge | {"id": eid} for edge, eid in zip(edges, fresh)]}


def _verdicts(report):
    return [(b.tag, b.bound, b.measured, b.holds) for b in report.bounds]


def _ratios(report):
    return report.poa_sc, report.pos_sc, report.poa_mc, report.pos_mc


@pytest.mark.parametrize("game", GAMES, ids=IDS)
def test_scaling_every_cost_scales_costs_and_keeps_the_rest(game):
    k = Fraction(7, 3)
    doc = instance_to_document(game)
    base = compute_ratios(instance_from_document(doc))
    scaled = compute_ratios(instance_from_document(_scaled(doc, k)))
    assert _ratios(scaled) == _ratios(base) and _verdicts(scaled) == _verdicts(base)
    assert [b.witness for b in scaled.bounds] == [b.witness for b in base.bounds]
    assert scaled.opt_sc == (base.opt_sc[0], base.opt_sc[1] * k)
    assert scaled.opt_mc == (base.opt_mc[0], base.opt_mc[1] * k)
    assert scaled.equilibria.total_count == base.equilibria.total_count
    assert [(e.profile, e.multiplicity, e.sum_cost, e.max_cost, e.potential) for e in scaled.equilibria.entries] == [
        (e.profile, e.multiplicity, e.sum_cost * k, e.max_cost * k, e.potential * k) for e in base.equilibria.entries
    ]


@pytest.mark.parametrize("game", GAMES, ids=IDS)
def test_relabelling_edge_ids_keeps_every_value(game):
    doc = instance_to_document(game)
    base = compute_ratios(instance_from_document(doc))
    relabelled = compute_ratios(instance_from_document(_relabelled(doc)))
    assert _ratios(relabelled) == _ratios(base) and _verdicts(relabelled) == _verdicts(base)
    assert relabelled.opt_sc[1] == base.opt_sc[1] and relabelled.opt_mc[1] == base.opt_mc[1]
    assert relabelled.equilibria.total_count == base.equilibria.total_count

    def summaries(report):
        return Counter((e.sum_cost, e.max_cost, e.potential, e.multiplicity) for e in report.equilibria.entries)

    assert summaries(relabelled) == summaries(base)
