"""Planning when cardinality estimates overflow to inf.

With ``random_catalog`` statistics and random selectivities, the
estimates of a 140-relation chain or star exceed the float range.
Every join then compares equal at inf, yet the planners that serve
ladder-scale queries must still return a valid cross-product-free plan.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.catalog.synthetic import random_catalog
from repro.core.greedy import GreedyOperatorOrdering
from repro.core.lindp import LinDP
from repro.graph.generators import chain_graph, star_graph
from repro.plans.visitors import validate_plan
from repro.service.optimizer_service import PlanService


def overflowing_instance(generator):
    rng = random.Random(0)
    graph = generator(140, rng=rng)
    return graph, random_catalog(140, rng)


def service_plan(graph, catalog):
    with PlanService() as service:
        return service.plan(graph, catalog).plan


PLANNERS = {
    "goo": lambda g, c: GreedyOperatorOrdering().optimize(g, catalog=c).plan,
    "lindp": lambda g, c: LinDP().optimize(g, catalog=c).plan,
    "service": service_plan,
}


@pytest.mark.parametrize("generator", [chain_graph, star_graph])
@pytest.mark.parametrize("planner", sorted(PLANNERS))
def test_overflowed_instance_still_plans(generator, planner):
    graph, catalog = overflowing_instance(generator)
    plan = PLANNERS[planner](graph, catalog)
    validate_plan(plan, graph)
    # the instance really overflows, so the inf path is what ran
    assert math.isinf(plan.cost)
