"""DPconv — layered subset-convolution DP over the 2^n cost lattice.

The paper's exact algorithms interleave *enumeration* (which
csg-cmp-pairs exist) with *pricing* (``CreateJoinTree`` per pair), so
every one of the Θ(3^n) subset splits of a clique pays for cost-model
arithmetic, plan-table probes and tree bookkeeping. DPconv (Stoian,
arxiv 2409.08013, see PAPERS.md) observes that for C_out-shaped cost
functions the two concerns decouple: the *output cardinality of a
relation set is split-independent*, so the optimal cost obeys

    cost(S) = h(S) + min over splits (T, S\\T) of cost(T) + cost(S\\T)

where ``h(S)`` — the estimated join cardinality of ``S`` — depends on
``S`` alone. The table of optimal costs is therefore the min-plus
*subset convolution* of the table with itself, evaluated layer by
layer over the subset lattice (all sets of size 2, then 3, ..), and no
plan object or cost-model call is needed until the very end: one
O(n)-deep reconstruction walk along the recorded winning splits builds
the optimal join tree with exactly ``n - 1`` ``CreateJoinTree`` calls
instead of Θ(#ccp).

Cross products are excluded the same way DPsub excludes them: a split
contributes only when both sides induce connected subgraphs (for a
connected ``S`` the two sides are then necessarily joined by an edge),
with connectivity memoized by the paper's Lemma 5 recurrence.

Two interchangeable sweep backends fill the lattice:

* ``numpy`` — per layer, the candidate costs of *all* connected sets
  are evaluated in one pass: each set's ``2^(k-1)`` left halves form a
  row of a (sets × splits) matrix in Gray-code order, built by one
  ``bitwise_xor.accumulate``, and a fixed handful of whole-matrix
  operations (gather + add + argmin) prices and reduces them, in row
  chunks of bounded size. The connectivity and cardinality tables are
  built the same way, per layer and per lowest relation. The Python
  interpreter executes O(n) steps per layer and chunk instead of one
  per split.
* ``python`` — pure stdlib (``array`` cost tables, Vance-Maier submask
  enumeration); same tables, same counters, no dependencies.

Cost models that are not separable-symmetric (``DiskCostModel``) fall
back transparently to a priced layered enumeration over the same
search space — still exact, counters unchanged, only the O(n)
cost-evaluation collapse is forfeited.

Published counters (see :class:`~repro.core.base.CounterSet`):
``inner_counter`` counts convolution pair slots examined (one per
proper low-bit-anchored split of each connected set),
``ono_lohman_counter``/``csg_cmp_pair_counter`` the valid csg-cmp-pairs
(identical to every other correct algorithm), and the ``extra``
counters ``lattice_passes``, ``convolution_pairs`` and ``vectorized``
the DPconv-specific accounting the obs layer publishes as
``enumerator.DPconv.*``.
"""

from __future__ import annotations

from array import array
from itertools import accumulate
from math import comb

from repro import bitset
from repro.core.base import CounterSet, JoinOrderer, PlanTable
from repro.cost.base import CostModel
from repro.errors import OptimizerError
from repro.graph.querygraph import QueryGraph
from repro.plans.jointree import JoinTree

__all__ = ["DPconv", "MAX_RELATIONS", "DEFAULT_VECTOR_MIN_RELATIONS"]

#: DPconv materializes dense 2^n tables (cost, winning split,
#: cardinality, connectivity); n = 22 costs ~100 MB which is the same
#: practical wall as DPsub's side tables, so fail fast beyond it.
MAX_RELATIONS = 22

#: Below this many relations the ``auto`` backend stays pure-Python:
#: the numpy sweep's fixed cost (a few dozen numpy calls per layer)
#: exceeds the whole stdlib enumeration. On a 2-vCPU x86-64 host with
#: CPython 3.11 and numpy 2.4, numpy first wins on a clique at 8
#: relations (about 1.2x), on stars and cycles at 9, on chains at 10.
DEFAULT_VECTOR_MIN_RELATIONS = 8

_BACKENDS = ("auto", "numpy", "python")

#: The numpy backend works through a layer in chunks of rows holding
#: at most this many slots — (set, split) pairs in the sweep, (set,
#: member) pairs in the connectivity table — so each chunk's matrices
#: stay cache-sized however large the layer. 2^14 to 2^15 ran fastest
#: on cliques and stars of 12-16 relations; 2^17 was 1.5x slower.
_CHUNK_SLOTS = 1 << 14


def _numpy_module():
    """The numpy module, or ``None`` when it is not installed."""
    try:
        import numpy
    except ImportError:  # pragma: no cover - exercised on numpy-free hosts
        return None
    return numpy


class DPconv(JoinOrderer):
    """Subset-convolution DP enumeration of bushy cross-product-free trees.

    Args:
        backend: ``"auto"`` (numpy when importable and the query is
            large enough to profit), ``"numpy"`` (require the
            vectorized sweep), or ``"python"`` (force the stdlib
            sweep). All backends produce the same cost table and the
            same counters; on exact cost ties the recorded winning
            split may differ, so plans are compared by cost, not shape.
            ``"auto"`` switches to numpy at
            :data:`DEFAULT_VECTOR_MIN_RELATIONS` relations.
    """

    name = "DPconv"

    def __init__(self, backend: str = "auto") -> None:
        if backend not in _BACKENDS:
            raise OptimizerError(
                f"unknown DPconv backend {backend!r}; expected one of: "
                + ", ".join(_BACKENDS)
            )
        self._backend = backend

    def resolved_backend(self, n_relations: int) -> str:
        """Which sweep backend a query of this size would use."""
        return "numpy" if self._resolve_numpy(n_relations) else "python"

    def _resolve_numpy(self, n_relations: int):
        """The numpy module to sweep with, or ``None`` for pure Python."""
        if self._backend == "python":
            return None
        numpy = _numpy_module()
        if self._backend == "numpy":
            if numpy is None:
                raise OptimizerError(
                    "DPconv(backend='numpy') requires numpy, which is not "
                    "importable; use backend='python' or 'auto'"
                )
            return numpy
        if numpy is None or n_relations < DEFAULT_VECTOR_MIN_RELATIONS:
            return None
        return numpy

    # ------------------------------------------------------------------
    # Driver
    # ------------------------------------------------------------------

    def _run(
        self,
        graph: QueryGraph,
        cost_model: CostModel,
        table: PlanTable,
        counters: CounterSet,
    ) -> None:
        n = graph.n_relations
        if n > MAX_RELATIONS:
            raise OptimizerError(
                f"DPconv fills dense 2^{n} lattice tables; refusing n > "
                f"{MAX_RELATIONS} (use DPccp for large sparse queries or "
                "IDP/GOO beyond exact DP)"
            )
        counters.extra["lattice_passes"] = 0
        separable = (
            cost_model.symmetric
            and cost_model.separable_join_operator is not None
        )
        if not separable:
            # The value DP needs cost(S) = h(S) + cost(T) + cost(S\T);
            # models outside that shape get the priced layered sweep —
            # identical search space and counters, per-pair pricing.
            connected = _connectivity_table(graph, counters)
            counters.extra["vectorized"] = 0
            self._run_priced(cost_model, table, counters, connected, n)
            counters.extra["convolution_pairs"] = counters.inner_counter
            return

        numpy = self._resolve_numpy(n)
        counters.extra["vectorized"] = 1 if numpy else 0
        leaf_costs = [table[1 << index].cost for index in range(n)]
        if numpy is not None:
            connected = _connectivity_numpy(numpy, graph, counters)
            h = _cardinality_numpy(numpy, cost_model, n)
            dp, split = _sweep_numpy(
                numpy, n, connected, h, leaf_costs, counters
            )
        else:
            connected = _connectivity_table(graph, counters)
            h = _cardinality_table(graph, cost_model, n)
            dp, split = _sweep_python(n, connected, h, leaf_costs, counters)
        del dp  # the reconstruction re-prices the winning splits
        counters.csg_cmp_pair_counter = 2 * counters.ono_lohman_counter
        counters.extra["convolution_pairs"] = counters.inner_counter
        self._reconstruct(cost_model, table, counters, split, graph.all_relations)

    # ------------------------------------------------------------------
    # Plan reconstruction (fast path)
    # ------------------------------------------------------------------

    def _reconstruct(
        self,
        cost_model: CostModel,
        table: PlanTable,
        counters: CounterSet,
        split: "array | list",
        mask: int,
    ) -> JoinTree:
        """Build the optimal tree for ``mask`` from recorded splits.

        Only the winning split per subset is visited, so exactly
        ``n - 1`` joins are priced — the whole point of decoupling the
        value DP from plan construction. A set whose every split costs
        inf (estimates past the float range) keeps split 0 in both
        sweeps; it is split at its first csg-cmp pair instead, which
        costs inf like any other.
        """
        plan = table.get(mask)
        if plan is not None:
            return plan
        left_mask = int(split[mask]) or _first_pair(cost_model.graph, mask)
        right_mask = mask ^ left_mask
        left = self._reconstruct(cost_model, table, counters, split, left_mask)
        right = self._reconstruct(cost_model, table, counters, split, right_mask)
        counters.create_join_tree_calls += 1
        table.consider(cost_model, left, right)
        return table[mask]

    # ------------------------------------------------------------------
    # Priced fallback (non-separable cost models)
    # ------------------------------------------------------------------

    def _run_priced(
        self,
        cost_model: CostModel,
        table: PlanTable,
        counters: CounterSet,
        connected: bytearray,
        n: int,
    ) -> None:
        step = table.join_step(cost_model)
        both_orders = not cost_model.symmetric
        inner = 0
        valid_pairs = 0
        for k in range(2, n + 1):
            counters.extra["lattice_passes"] += 1
            for mask in bitset.iter_layer(n, k):
                if not connected[mask]:
                    continue
                low = mask & -mask
                rest = mask ^ low
                sub = 0
                # Proper splits anchored on min(S): left = {min(S)} | sub
                # for every strict subset `sub` of the remaining bits.
                while sub != rest:
                    left = low | sub
                    right = rest ^ sub
                    inner += 1
                    if connected[left] and connected[right]:
                        valid_pairs += 1
                        counters.create_join_tree_calls += 1
                        step(left, right)
                        if both_orders:
                            counters.create_join_tree_calls += 1
                            step(right, left)
                    sub = (sub - rest) & rest
        counters.inner_counter += inner
        counters.ono_lohman_counter += valid_pairs
        counters.csg_cmp_pair_counter = 2 * valid_pairs


def _first_pair(graph: QueryGraph, mask: int) -> int:
    """Left half of the first csg-cmp pair of the connected set ``mask``,
    in the sweeps' order of halves anchored on its lowest relation."""
    low = mask & -mask
    rest = mask ^ low
    sub = 0
    while not (
        graph.is_connected_set(low | sub) and graph.is_connected_set(rest ^ sub)
    ):
        sub = (sub - rest) & rest
    return low | sub


# ----------------------------------------------------------------------
# Lattice tables
# ----------------------------------------------------------------------


def _connectivity_table(graph: QueryGraph, counters: CounterSet) -> bytearray:
    """``connected[mask]`` for every mask, by the Lemma 5 recurrence.

    Disconnected multi-relation sets are counted as
    ``connectivity_check_failures`` — the same ``2^n - #csg - 1``
    accounting as DPsub's ``(*)`` check, which these tables replace.
    """
    n = graph.n_relations
    neighbors = graph.neighbor_masks
    total = 1 << n
    connected = bytearray(total)
    failures = 0
    for mask in range(1, total):
        if mask & (mask - 1) == 0:
            connected[mask] = 1
            continue
        probe = mask
        while probe:
            vertex = probe & -probe
            probe ^= vertex
            without = mask ^ vertex
            if connected[without] and neighbors[vertex.bit_length() - 1] & without:
                connected[mask] = 1
                break
        else:
            failures += 1
    counters.connectivity_check_failures += failures
    return connected


def _cardinality_table(
    graph: QueryGraph, cost_model: CostModel, n: int
) -> array:
    """``h[mask]``: estimated join cardinality of every relation set.

    Split-independent closed form, built incrementally —
    ``h[S] = h[S \\ {min S}] * |R_min| * prod(sel(min S, v) for v in S)``
    — so the whole table costs O(2^n · avg-degree). Selectivities and
    base cardinalities come from the *cost model's* graph and
    estimator (the refined instance, when a statistics estimator is in
    play), which is exactly what pricing the reconstruction uses.
    """
    base, incidence = _join_factors(cost_model, n)
    total = 1 << n
    h = array("d", bytes(8 * total))
    h[0] = 1.0
    for mask in range(1, total):
        low = mask & -mask
        rest = mask ^ low
        vertex = low.bit_length() - 1
        value = h[rest] * base[vertex]
        for other_bit, selectivity in incidence[vertex]:
            if other_bit & rest:
                value *= selectivity
        h[mask] = value
    return h


def _join_factors(
    cost_model: CostModel, n: int
) -> tuple[list[float], tuple[tuple[tuple[int, float], ...], ...]]:
    """Base cardinality and ``(neighbour bit, selectivity)`` per relation."""
    estimator = cost_model.estimator
    base = [float(estimator.base_cardinality(vertex)) for vertex in range(n)]
    return base, cost_model.graph.incidence


def _masks_by_size(numpy, n: int):
    """Popcount of every mask, all masks sorted by it, and layer starts.

    ``order[starts[k]:starts[k + 1]]`` lists the ``k``-relation sets in
    ascending order — the order :func:`repro.bitset.iter_layer` yields.
    """
    np = numpy
    sizes = np.zeros(1 << n, dtype=np.uint8)
    for bit in range(n):
        sizes[1 << bit : 2 << bit] = sizes[: 1 << bit] + 1
    order = np.argsort(sizes, kind="stable")
    starts = list(accumulate((comb(n, k) for k in range(n + 1)), initial=0))
    return sizes, order, starts


def _low_bits(numpy, masks, k: int):
    """(rows × k) matrix: each ``k``-bit mask's set bits, lowest first."""
    rest = masks.copy()
    bits = numpy.empty((len(masks), k), dtype=numpy.int64)
    for column in range(k):
        low = rest & -rest
        bits[:, column] = low
        rest ^= low
    return bits


def _connectivity_numpy(
    numpy, graph: QueryGraph, counters: CounterSet
) -> bytearray:
    """:func:`_connectivity_table` one lattice layer at a time.

    A set is connected when removing some member leaves a connected
    set that the member has an edge into (Lemma 5); each layer tests
    every member of every set at once, reading only smaller layers.
    """
    np = numpy
    n = graph.n_relations
    total = 1 << n
    neighbors = np.array(graph.neighbor_masks, dtype=np.int64)
    connected = np.zeros(total, dtype=bool)
    connected[np.int64(1) << np.arange(n, dtype=np.int64)] = True
    sizes, order, starts = _masks_by_size(np, n)
    for k in range(2, n + 1):
        layer = order[starts[k] : starts[k + 1]]
        rows = max(1, _CHUNK_SLOTS // k)
        for first in range(0, len(layer), rows):
            masks = layer[first : first + rows]
            bits = _low_bits(np, masks, k)
            without = masks[:, None] ^ bits
            vertex = sizes[bits - 1]  # a bit's index is popcount(bit - 1)
            joined = (neighbors[vertex] & without) != 0
            connected[masks] = (connected[without] & joined).any(axis=1)
    counters.connectivity_check_failures += (
        total - 1 - int(np.count_nonzero(connected))
    )
    return bytearray(connected.tobytes())


def _cardinality_numpy(numpy, cost_model: CostModel, n: int) -> array:
    """:func:`_cardinality_table` one lowest-bit relation at a time.

    The sets whose lowest relation is ``v`` are the stride-``2^(v+1)``
    slice from ``2^v``; their ``S \\ {v}`` are the slice from 0, whose
    lowest relations are above ``v`` and so already filled. Each value
    takes the same float64 products in the same order as the stdlib
    table, so the two tables are bit-identical.
    """
    np = numpy
    base, incidence = _join_factors(cost_model, n)
    total = 1 << n
    h = np.empty(total, dtype=np.float64)
    h[0] = 1.0
    with np.errstate(over="ignore"):  # inf, as Python float products give
        for vertex in reversed(range(n)):
            stride = 2 << vertex
            value = h[::stride] * base[vertex]
            rest = np.arange(0, total, stride, dtype=np.int64)
            for other_bit, selectivity in incidence[vertex]:
                if other_bit > 1 << vertex:  # only higher relations are in rest
                    hit = (rest & other_bit) != 0
                    np.multiply(value, selectivity, out=value, where=hit)
            h[1 << vertex :: stride] = value
    return array("d", h.tobytes())


# ----------------------------------------------------------------------
# Value sweeps
# ----------------------------------------------------------------------


def _sweep_python(
    n: int,
    connected: bytearray,
    h: array,
    leaf_costs: list[float],
    counters: CounterSet,
) -> tuple[array, list[int]]:
    """Stdlib lattice sweep: layered Vance-Maier min-plus convolution."""
    total = 1 << n
    infinity = float("inf")
    dp = array("d", [infinity]) * total
    split = [0] * total
    for vertex, cost in enumerate(leaf_costs):
        dp[1 << vertex] = cost
    inner = 0
    valid_pairs = 0
    for k in range(2, n + 1):
        counters.extra["lattice_passes"] += 1
        for mask in bitset.iter_layer(n, k):
            if not connected[mask]:
                continue
            low = mask & -mask
            rest = mask ^ low
            best = infinity
            best_left = 0
            sub = 0
            while sub != rest:
                left = low | sub
                right = rest ^ sub
                inner += 1
                if connected[left] and connected[right]:
                    valid_pairs += 1
                    candidate = dp[left] + dp[right]
                    if candidate < best:
                        best = candidate
                        best_left = left
                sub = (sub - rest) & rest
            dp[mask] = best + h[mask]
            split[mask] = best_left
    counters.inner_counter += inner
    counters.ono_lohman_counter += valid_pairs
    return dp, split


def _sweep_numpy(
    numpy,
    n: int,
    connected: bytearray,
    h: array,
    leaf_costs: list[float],
    counters: CounterSet,
):
    """Vectorized lattice sweep: each layer's splits as one matrix.

    For layer ``k`` every connected set gets a row of its ``2^(k-1)``
    left halves in Gray-code order (see :func:`_best_splits`), and each
    chunk of rows is priced, counted and reduced by a fixed handful of
    whole-matrix operations, so the interpreter runs O(n) steps per
    layer and chunk instead of one per split. Rows go in chunks of at
    most :data:`_CHUNK_SLOTS` halves, so the matrices stay cache-sized
    on any layer.

    Arithmetic is float64 addition in the same order as the Python
    sweep, so both backends produce the identical cost table.
    """
    np = numpy
    total = 1 << n
    conn = np.frombuffer(connected, dtype=np.uint8).astype(bool)
    harr = np.frombuffer(h, dtype=np.float64)
    dp = np.full(total, np.inf, dtype=np.float64)
    for vertex, cost in enumerate(leaf_costs):
        dp[1 << vertex] = cost
    split = np.zeros(total, dtype=np.int64)
    inner = 0
    valid_pairs = 0
    sizes, order, starts = _masks_by_size(np, n)
    # toggled[s]: the bit column Gray-code step s flips, ctz(s) + 1;
    # step 0 seeds each half with the set's lowest bit (column 0).
    steps = np.arange(total >> 1, dtype=np.int64)
    toggled = sizes[(steps & -steps) - 1].astype(np.intp) + 1
    toggled[0] = 0
    with np.errstate(over="ignore"):  # inf, as Python float addition gives
        for k in range(2, n + 1):
            counters.extra["lattice_passes"] += 1
            layer = order[starts[k] : starts[k + 1]]
            layer = layer[conn[layer]]
            states = 1 << (k - 1)
            inner += len(layer) * (states - 1)
            rows = max(1, _CHUNK_SLOTS // states)
            for first in range(0, len(layer), rows):
                masks = layer[first : first + rows]
                best, best_left, valid = _best_splits(
                    np, dp, conn, masks, k, toggled
                )
                valid_pairs += valid
                dp[masks] = best + harr[masks]
                split[masks] = best_left
    counters.inner_counter += inner
    counters.ono_lohman_counter += valid_pairs
    return dp, split


def _best_splits(numpy, dp, conn, masks, k: int, toggled):
    """Cheapest split of each ``k``-set in ``masks``, and the valid pairs.

    Row ``i`` holds the ``2^(k-1)`` left halves of ``masks[i]``: each
    always holds the set's lowest bit (so each unordered pair is seen
    once), and step ``s`` toggles bit column ``toggled[s]``, so one
    ``bitwise_xor.accumulate`` along the row of toggled bits yields
    every half in the order a split-by-split Gray-code walk visits
    them. Candidate costs are two gathers and an add; disconnected
    sides carry ``inf`` in ``dp``, so no masking is needed for the
    minimum — validity is consulted only for the csg-cmp-pair counter.
    ``argmin`` keeps each row's first minimum, as the walk's strict
    ``<`` did; a set with no finite candidate keeps split 0.
    """
    np = numpy
    bits = _low_bits(np, masks, k)
    left = bits[:, toggled[: 1 << (k - 1)]]
    np.bitwise_xor.accumulate(left, axis=1, out=left)
    right = masks[:, None] ^ left
    valid = int(np.count_nonzero(conn[left] & conn[right]))
    candidate = dp[left]
    candidate += dp[right]
    winner = candidate.argmin(axis=1)[:, None]
    best = np.take_along_axis(candidate, winner, axis=1)[:, 0]
    if np.isnan(best).any():
        # argmin stops at a row's first NaN; a strict < never takes one.
        candidate[np.isnan(candidate)] = np.inf
        winner = candidate.argmin(axis=1)[:, None]
        best = np.take_along_axis(candidate, winner, axis=1)[:, 0]
    best_left = np.take_along_axis(left, winner, axis=1)[:, 0]
    best_left[~(best < np.inf)] = 0
    return best, best_left, valid
