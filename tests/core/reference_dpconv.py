"""Reference DPconv kernels: the lattice tables and the numpy sweep.

The vectorized kernels in :mod:`repro.core.dpconv` must match these
exactly: the same connectivity and cardinality tables, the same ``dp``
and ``split`` arrays, and so the same plan, cost, counters and table
size on every input. Each is a verbatim copy of the code before the
numpy backend evaluated a whole layer per pass:

* ``_connectivity_table`` and ``_cardinality_table`` fill their tables
  one mask at a time in Python;
* ``_sweep_numpy`` walks each layer's splits in Gray-code order, one
  handful of whole-layer array operations per split.

:class:`ReferenceDPconv` runs them through ``DPconv._run`` as it was. They
are slower, and they define what DPconv returned before the change;
keep them unchanged.
"""

from __future__ import annotations

from array import array

from repro import bitset
from repro.core.base import CounterSet, PlanTable
from repro.core.dpconv import DPconv, MAX_RELATIONS, _sweep_python
from repro.cost.base import CostModel
from repro.errors import OptimizerError
from repro.graph.querygraph import QueryGraph


class ReferenceDPconv(DPconv):
    """``DPconv._run`` as it was, over the reference tables and sweep."""

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
        connected = _connectivity_table(graph, counters)
        separable = (
            cost_model.symmetric
            and cost_model.separable_join_operator is not None
        )
        if not separable:
            # The value DP needs cost(S) = h(S) + cost(T) + cost(S\T);
            # models outside that shape get the priced layered sweep —
            # identical search space and counters, per-pair pricing.
            counters.extra["vectorized"] = 0
            self._run_priced(cost_model, table, counters, connected, n)
            counters.extra["convolution_pairs"] = counters.inner_counter
            return

        numpy = self._resolve_numpy(n)
        counters.extra["vectorized"] = 1 if numpy else 0
        h = _cardinality_table(graph, cost_model, n)
        leaf_costs = [table[1 << index].cost for index in range(n)]
        if numpy is not None:
            dp, split = _sweep_numpy(
                numpy, n, connected, h, leaf_costs, counters
            )
        else:
            dp, split = _sweep_python(n, connected, h, leaf_costs, counters)
        del dp  # the reconstruction re-prices the winning splits
        counters.csg_cmp_pair_counter = 2 * counters.ono_lohman_counter
        counters.extra["convolution_pairs"] = counters.inner_counter
        self._reconstruct(cost_model, table, counters, split, graph.all_relations)


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
    estimator = cost_model.estimator
    cost_graph = cost_model.graph
    incidence: list[tuple[tuple[int, float], ...]] = []
    for vertex in range(n):
        pairs = []
        for edge in cost_graph.edges_of(vertex):
            other = edge.right if edge.left == vertex else edge.left
            pairs.append((1 << other, edge.selectivity))
        incidence.append(tuple(pairs))
    base = [float(estimator.base_cardinality(vertex)) for vertex in range(n)]

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


def _sweep_numpy(
    numpy,
    n: int,
    connected: bytearray,
    h: array,
    leaf_costs: list[float],
    counters: CounterSet,
):
    """Vectorized lattice sweep: Gray-code split walk per layer.

    For layer ``k`` the proper splits of every connected set are
    visited simultaneously: ``left`` holds each set's current split
    (always containing the set's lowest bit, so each unordered pair is
    seen once), and one whole-layer XOR against the precomputed bit
    column advances every set to its next split in Gray-code order.
    Candidate costs are two gathers and an add; disconnected sides
    carry ``inf`` in ``dp``, so no masking is needed for the minimum —
    validity is consulted only for the csg-cmp-pair counter.

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
    positions = np.arange(n, dtype=np.int64)
    for k in range(2, n + 1):
        counters.extra["lattice_passes"] += 1
        masks = [mask for mask in bitset.iter_layer(n, k) if connected[mask]]
        if not masks:
            continue
        m = len(masks)
        masks_a = np.array(masks, dtype=np.int64)
        # cols[j]: the j-th lowest set bit of every mask in the layer.
        bit_rows = np.nonzero((masks_a[:, None] >> positions) & 1)[1]
        cols = (np.int64(1) << bit_rows.reshape(m, k)).T.copy()

        left = cols[0].copy()  # Gray-code state: {min(S)} plus selector
        best = np.full(m, np.inf, dtype=np.float64)
        best_left = np.zeros(m, dtype=np.int64)
        states = 1 << (k - 1)
        inner += m * (states - 1)
        for step in range(states):
            if step:
                flip = (step & -step).bit_length()  # selector bit -> cols[1..]
                np.bitwise_xor(left, cols[flip], out=left)
            right = np.bitwise_xor(masks_a, left)
            valid_pairs += int(np.count_nonzero(conn[left] & conn[right]))
            candidate = dp[left] + dp[right]
            improved = candidate < best
            np.copyto(best, candidate, where=improved)
            np.copyto(best_left, left, where=improved)
        dp[masks_a] = best + harr[masks_a]
        split[masks_a] = best_left
    counters.inner_counter += inner
    counters.ono_lohman_counter += valid_pairs
    return dp, split
