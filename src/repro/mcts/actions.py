"""Atomic swap action on the adjacency matrix (paper Section VI-B).

For a state with edges ``A(i, j) = 1`` and ``A(p, q) = 1``, the successor
swaps the two children's parents: ``A(p, j) = 1`` and ``A(i, q) = 1``.
The operation preserves every node's in-degree and out-degree and keeps
the edge count constant, which is why the paper chose it: the search
never leaves the constraint-arity manifold, only combinational-loop
freedom must be rechecked.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import NamedTuple

import numpy as np

from ..ir import CircuitGraph, GraphView
from ..lint.sanitize import current_sanitizer


class Swap(NamedTuple):
    """Replace edges (i -> j), (p -> q) with (p -> j), (i -> q).

    A named tuple rather than a dataclass: swaps are created and hashed
    by the thousand inside rollouts, and tuple construction/hashing is
    several times cheaper than the dataclass protocol.
    """

    i: int
    j: int
    p: int
    q: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"({self.i}->{self.j}, {self.p}->{self.q})"


def is_applicable(graph: CircuitGraph, swap: Swap) -> bool:
    """Cheap structural screens before the loop check."""
    i, j, p, q = swap
    if i == p or j == q:
        return False  # degenerate: swap would be a no-op
    # Raw slot rows (may contain None, which never equals a node id);
    # avoids building a filtered list per screen on the rollout path.
    parents_j = graph._row(j)
    parents_q = graph._row(q)
    if i not in parents_j or p not in parents_q:
        return False
    if p in parents_j or i in parents_q:
        return False  # would create a duplicate parent
    return True


def apply_swap(graph: CircuitGraph, swap: Swap) -> CircuitGraph | None:
    """Return the successor state, or ``None`` if the swap violates C.

    ``graph`` must itself be free of combinational loops (every state
    the search visits is).  Removing edges cannot create a cycle, so
    only the two *new* edges are checked, each with a targeted backward
    reachability query instead of a whole-graph cycle enumeration --
    this check sits on the innermost MCTS rollout path.

    The successor is a :class:`~repro.ir.GraphView`: node and parent
    storage stay shared with the predecessor and only the two rewired
    rows are recorded, so a rollout step allocates O(1) graph state
    instead of a whole-graph copy.
    """
    if not is_applicable(graph, swap):
        return None
    out = GraphView(graph)
    slot_j = graph._row(swap.j).index(swap.i)
    slot_q = graph._row(swap.q).index(swap.p)
    out.set_parent(swap.j, slot_j, swap.p)
    out.set_parent(swap.q, slot_q, swap.i)
    if _edge_in_comb_cycle(out, swap.p, swap.j):
        return None
    if _edge_in_comb_cycle(out, swap.i, swap.q):
        return None
    # Edit provenance for the incremental engine: the predecessor state
    # and the two nodes whose parents changed.  IncrementalReward walks
    # this chain to recover the touched set without re-diffing graphs.
    out.edit_origin = (graph, (swap.j, swap.q))
    return out


def _edge_in_comb_cycle(graph: CircuitGraph, parent: int, child: int) -> bool:
    """Does edge ``parent -> child`` lie on a register-free cycle?

    Equivalent to asking whether ``child`` reaches ``parent`` through
    combinational nodes; walked backwards from ``parent`` via parent
    edges so no fanout map has to be built.
    """
    sequential = graph._sequential_flags()
    if sequential[parent] or sequential[child]:
        return False
    if parent == child:
        return True
    row = graph._row
    seen = {parent}
    stack = [parent]
    while stack:
        for p in row(stack.pop()):
            if p is None:
                continue
            if p == child:
                return True
            if p not in seen and not sequential[p]:
                seen.add(p)
                stack.append(p)
    return False


class SwapIndex:
    """Persistent swap-candidate edge index for one cone search.

    ``sample`` draws swaps exactly like the historical ``sample_swaps``
    (same candidate lists in the same order, same rng consumption), but
    the cone-local edge list is *maintained* instead of re-derived: a
    successor state inherits its predecessor's local list and applies
    only the corrections implied by the swap's two rewired rows, using
    the schema-static edge positions of the shared base.  A full
    O(edges) scan only happens for states without a cached predecessor
    (each cone search's root).

    Per-state results are cached on the graph object itself, keyed by
    index identity, so tree revisits and the derivation chain both hit.
    """

    def __init__(self, cone_nodes: list[int]):
        self.cone_set = set(cone_nodes)

    # ------------------------------------------------------------------
    def sample(
        self,
        graph: CircuitGraph,
        rng: np.random.Generator,
        max_swaps: int,
        max_attempts: int | None = None,
    ) -> list[Swap]:
        """Draw distinct applicable swaps anchored in the cone.

        The first swapped edge must touch the cone (its parent or child
        lies in the cone node set: the register plus the cone interior);
        the second edge is drawn from the whole design.  This keeps the
        search local to the cone being optimized, as in the paper's
        cone-by-cone procedure, while still allowing rewires that route
        the register's fanout into observed logic -- the degree-
        preserving swap can never grow a node's fanout, only redirect it.
        """
        all_edges = graph.edge_list()
        local_edges = self._local_edges(graph, all_edges)
        if not local_edges or len(all_edges) < 2:
            return []
        max_attempts = max_attempts or max_swaps * 12
        found: list[Swap] = []
        seen: set[Swap] = set()
        for _ in range(max_attempts):
            if len(found) >= max_swaps:
                break
            i, j = local_edges[rng.integers(0, len(local_edges))]
            p, q = all_edges[rng.integers(0, len(all_edges))]
            swap = Swap(i, j, p, q)
            if swap in seen:
                continue
            seen.add(swap)
            if is_applicable(graph, swap):
                found.append(swap)
        return found

    # ------------------------------------------------------------------
    def _local_edges(self, graph: CircuitGraph, all_edges) -> list:
        cached = graph.__dict__.get("_swap_local")
        if cached is not None and cached[0] is self:
            return cached[1]
        derived = None
        origin = getattr(graph, "edit_origin", None)
        if origin is not None and isinstance(graph, GraphView):
            prev, rewired = origin
            prev_cached = prev.__dict__.get("_swap_local")
            if prev_cached is not None and prev_cached[0] is self:
                derived = self._derive(
                    graph, all_edges, prev, prev_cached, rewired
                )
        if derived is None:
            cone = self.cone_set
            local: list[tuple[int, int]] = []
            positions: list[int] = []
            for pos, edge in enumerate(all_edges):
                if edge[0] in cone or edge[1] in cone:
                    local.append(edge)
                    positions.append(pos)
        else:
            local, positions = derived
        graph._swap_local = (self, local, positions)
        sanitizer = current_sanitizer()
        if sanitizer is not None:
            # S002: audit the maintained list against a full re-scan.
            sanitizer.check_swap_index(graph, self.cone_set, local, positions)
        return local

    def _derive(self, graph, all_edges, prev, prev_cached, rewired):
        """Patch the predecessor's (local edges, positions) pair for the
        rewired rows; ``None`` when positions cannot be trusted (a slot
        was filled or vacated, shifting every later edge)."""
        prev_edges = prev.edge_list()
        pos_of = graph._base._edge_positions()
        if len(prev_edges) != len(all_edges) or len(pos_of) != len(all_edges):
            return None
        if graph._pattern_diverged or (
            isinstance(prev, GraphView) and prev._pattern_diverged
        ):
            # The base's edge positions no longer describe these states.
            return None
        local = list(prev_cached[1])
        positions = list(prev_cached[2])
        cone = self.cone_set
        for child in rewired:
            for slot in range(len(graph._row(child))):
                pos = pos_of.get((child, slot))
                if pos is None:
                    continue
                old, new = prev_edges[pos], all_edges[pos]
                if old == new:
                    continue
                was = old[0] in cone or old[1] in cone
                now = new[0] in cone or new[1] in cone
                if not (was or now):
                    continue
                k = bisect_left(positions, pos)
                if was and now:
                    local[k] = new
                elif was:
                    del local[k]
                    del positions[k]
                else:
                    local.insert(k, new)
                    positions.insert(k, pos)
        return local, positions


def sample_swaps(
    graph: CircuitGraph,
    cone_nodes: list[int],
    rng: np.random.Generator,
    max_swaps: int,
    max_attempts: int | None = None,
) -> list[Swap]:
    """One-shot form of :meth:`SwapIndex.sample` (a transient index).

    Searches that evaluate many states of one cone should hold a
    :class:`SwapIndex` instead, so successor states reuse the
    incrementally maintained local-edge lists.
    """
    return SwapIndex(cone_nodes).sample(graph, rng, max_swaps, max_attempts)
