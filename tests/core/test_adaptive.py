"""Unit tests for the adaptive dispatcher."""

from __future__ import annotations

import pytest

from repro.core.adaptive import (
    LADDER_RUNGS,
    AdaptiveOptimizer,
    RoutingDecision,
)
from repro.core.dpccp import DPccp
from repro.core.dpconv import DPconv
from repro.core.dpsub import DPsub
from repro.core.greedy import GreedyOperatorOrdering
from repro.core.idp import IterativeDP
from repro.core.lindp import LinDP
from repro.errors import DisconnectedGraphError
from repro.graph.generators import (
    chain_graph,
    clique_graph,
    cycle_graph,
    star_graph,
)
from repro.graph.querygraph import QueryGraph
from repro.plans.visitors import validate_plan


class TestChoice:
    def test_clique_goes_to_dpconv(self):
        assert isinstance(AdaptiveOptimizer().choose(clique_graph(8)), DPconv)

    def test_tiny_clique_goes_to_dpsub(self):
        assert isinstance(AdaptiveOptimizer().choose(clique_graph(3)), DPsub)

    def test_conv_threshold_at_four_relations(self):
        adaptive = AdaptiveOptimizer()
        assert isinstance(adaptive.choose(clique_graph(3)), DPsub)
        assert isinstance(adaptive.choose(clique_graph(4)), DPconv)

    @pytest.mark.parametrize(
        "graph",
        [chain_graph(8), cycle_graph(8), star_graph(8)],
        ids=["chain", "cycle", "star"],
    )
    def test_sparse_goes_to_dpccp(self, graph):
        assert isinstance(AdaptiveOptimizer().choose(graph), DPccp)

    def test_large_clique_escalates_to_lindp(self):
        # The pre-ladder dispatcher sent over-limit cliques back to
        # DPccp — the exact stall the escalation ladder fixes.
        adaptive = AdaptiveOptimizer()
        assert isinstance(adaptive.choose(clique_graph(16)), DPconv)
        assert isinstance(adaptive.choose(clique_graph(17)), LinDP)


class TestLadderRouting:
    """The class-by-size escalation ladder: every shape gets a rung."""

    def test_route_returns_decision(self):
        decision = AdaptiveOptimizer().route(chain_graph(8))
        assert isinstance(decision, RoutingDecision)
        assert decision.graph_class == "chain"
        assert decision.n_relations == 8
        assert decision.rung == "exact"
        assert decision.algorithm == "dpccp"
        assert decision.reason

    def test_rungs_are_well_known(self):
        adaptive = AdaptiveOptimizer()
        for n in (4, 20, 30, 200, 500):
            assert adaptive.route(chain_graph(n)).rung in LADDER_RUNGS

    def test_medium_sparse_escalates_to_lindp(self):
        # Pre-ladder, a 30-relation chain was routed straight at DPccp
        # and stalled in its exponential table — the ISSUE's bug.
        adaptive = AdaptiveOptimizer()
        for graph in (chain_graph(30), star_graph(30), cycle_graph(30)):
            decision = adaptive.route(graph)
            assert decision.rung == "lindp"
            assert isinstance(adaptive.choose(graph), LinDP)

    def test_chain_ladder_by_size(self):
        adaptive = AdaptiveOptimizer()
        assert adaptive.route(chain_graph(22)).rung == "exact"
        assert adaptive.route(chain_graph(23)).rung == "lindp"
        assert adaptive.route(chain_graph(160)).rung == "lindp"
        assert adaptive.route(chain_graph(161)).rung == "idp"
        assert adaptive.route(chain_graph(400)).rung == "idp"
        assert adaptive.route(chain_graph(401)).rung == "goo"
        assert isinstance(adaptive.choose(chain_graph(200)), IterativeDP)
        assert isinstance(
            adaptive.choose(chain_graph(500)), GreedyOperatorOrdering
        )

    def test_star_skips_the_idp_rung(self):
        # IDP's size-k blocks enumerate every connected subgraph of
        # size <= k — exponential at a star hub, so stars step from
        # lindp straight to goo.
        adaptive = AdaptiveOptimizer()
        assert adaptive.route(star_graph(160)).rung == "lindp"
        assert adaptive.route(star_graph(161)).rung == "goo"

    def test_star_exact_ceiling_below_chain(self):
        adaptive = AdaptiveOptimizer()
        assert adaptive.route(star_graph(14)).rung == "exact"
        assert adaptive.route(star_graph(15)).rung == "lindp"

    def test_dense_over_limit_escalates(self):
        decision = AdaptiveOptimizer().route(clique_graph(17))
        assert decision.graph_class == "dense"
        assert decision.rung == "lindp"

    def test_disconnected_raises(self):
        with pytest.raises(DisconnectedGraphError):
            AdaptiveOptimizer().route(QueryGraph(3, [(0, 1)]))

    def test_large_query_end_to_end(self):
        graph = chain_graph(30, selectivity=0.05)
        result = AdaptiveOptimizer().optimize(graph)
        assert result.algorithm == "adaptive->LinDP"
        validate_plan(result.plan, graph)


class TestDegradationPath:
    def test_exact_routed_steps_through_lindp(self):
        assert AdaptiveOptimizer().degradation_path(chain_graph(8)) == (
            "lindp",
            "goo",
        )

    def test_lindp_routed_skips_straight_to_goo(self):
        # A query already routed at (or past) lindp proved that rung
        # too slow; re-running it under a burnt deadline would stall.
        adaptive = AdaptiveOptimizer()
        assert adaptive.degradation_path(chain_graph(30)) == ("goo",)
        assert adaptive.degradation_path(chain_graph(200)) == ("goo",)
        assert adaptive.degradation_path(star_graph(300)) == ("goo",)

    def test_always_ends_in_goo(self):
        adaptive = AdaptiveOptimizer()
        for graph in (chain_graph(5), star_graph(40), clique_graph(8)):
            assert adaptive.degradation_path(graph)[-1] == "goo"


class TestOptimize:
    def test_result_names_delegate(self):
        result = AdaptiveOptimizer().optimize(clique_graph(5, selectivity=0.1))
        assert result.algorithm == "adaptive->DPconv"
        result = AdaptiveOptimizer().optimize(clique_graph(3, selectivity=0.1))
        assert result.algorithm == "adaptive->DPsub"
        result = AdaptiveOptimizer().optimize(chain_graph(5, selectivity=0.1))
        assert result.algorithm == "adaptive->DPccp"

    def test_same_cost_as_direct_algorithms(self):
        graph = star_graph(6, selectivity=0.05)
        adaptive = AdaptiveOptimizer().optimize(graph)
        direct = DPccp().optimize(graph)
        assert adaptive.cost == pytest.approx(direct.cost)
        validate_plan(adaptive.plan, graph)

    def test_dpconv_delegate_matches_dpsub(self):
        graph = clique_graph(7, selectivity=0.1)
        adaptive = AdaptiveOptimizer().optimize(graph)
        assert adaptive.algorithm == "adaptive->DPconv"
        direct = DPsub().optimize(graph)
        assert adaptive.cost == pytest.approx(direct.cost, rel=1e-12)
        validate_plan(adaptive.plan, graph)
