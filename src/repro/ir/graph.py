"""Directed cyclic graph representation of an RTL circuit.

A :class:`CircuitGraph` is the ``G = (V, E, X)`` object of the paper: nodes
carry a type and a width attribute, edges are directed from a parent (driver)
to a child (consumer).  Because HDL semantics distinguish operand order
(``a - b`` is not ``b - a`` and a mux select is not a data input), parents are
stored in *ordered slots*; the unordered edge set used by the generative
models is derived from the slots.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from .node_types import ARITY, NodeType, arity_of, is_sequential


@dataclass
class Node:
    """One word-level RTL node.

    ``params`` holds type-specific extras, e.g. ``{"value": 3}`` for a
    constant or ``{"lo": 2}`` for a bit-selection's low index.
    """

    id: int
    type: NodeType
    width: int
    params: dict = field(default_factory=dict)
    name: str | None = None

    def copy(self) -> "Node":
        return Node(self.id, self.type, self.width, dict(self.params), self.name)


#: ``__dict__`` keys of the lazily memoized wiring-derived structures;
#: every parent mutation drops them so no memo can serve a stale view
#: of the wiring (the fingerprint memo of :mod:`repro.mcts.reward` and
#: the area overrides of :mod:`repro.incr.reward` use the same
#: discipline and are invalidated alongside).
_WIRING_MEMOS = (
    "_structural_fp",
    "_structural_fp_nodes",
    "_parent_rows_memo",
    "_child_map_memo",
    "_filled_rows_memo",
    "_edge_pos_memo",
    "_swap_local",
    "_area_overrides",
)


class CircuitGraph:
    """Mutable directed cyclic graph with typed, width-annotated nodes."""

    def __init__(self, name: str = "design"):
        self.name = name
        self._nodes: list[Node] = []
        self._parents: list[list[int | None]] = []
        self._edge_cache: list[tuple[int, int]] | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(
        self,
        node_type: NodeType,
        width: int,
        params: dict | None = None,
        name: str | None = None,
    ) -> int:
        """Append a node and return its id.  Parent slots start empty."""
        if width < 1:
            raise ValueError(f"node width must be >= 1, got {width}")
        node_id = len(self._nodes)
        self._nodes.append(Node(node_id, node_type, width, params or {}, name))
        self._parents.append([None] * arity_of(node_type))
        self.__dict__.pop("_sequential_memo", None)
        self._invalidate_wiring()
        return node_id

    def _invalidate_wiring(self) -> None:
        """Drop every memo derived from the parent wiring."""
        self._edge_cache = None
        pop = self.__dict__.pop
        for key in _WIRING_MEMOS:
            pop(key, None)

    def set_parent(self, child: int, slot: int, parent: int) -> None:
        """Connect ``parent -> child`` into the given ordered slot."""
        self._check_id(child)
        self._check_id(parent)
        slots = self._parents[child]
        if not 0 <= slot < len(slots):
            raise IndexError(
                f"node {child} ({self._nodes[child].type}) has "
                f"{len(slots)} parent slots, slot {slot} is out of range"
            )
        slots[slot] = parent
        self._invalidate_wiring()

    def set_parents(self, child: int, parents: Iterable[int]) -> None:
        """Fill all parent slots of ``child`` at once."""
        parents = list(parents)
        expected = arity_of(self._nodes[child].type)
        if len(parents) != expected:
            raise ValueError(
                f"node {child} ({self._nodes[child].type}) needs {expected} "
                f"parents, got {len(parents)}"
            )
        for slot, parent in enumerate(parents):
            self.set_parent(child, slot, parent)

    def clear_parents(self, child: int) -> None:
        self._check_id(child)
        self._parents[child] = [None] * arity_of(self._nodes[child].type)
        self._invalidate_wiring()

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        return sum(1 for slots in self._parents for p in slots if p is not None)

    def node(self, node_id: int) -> Node:
        self._check_id(node_id)
        return self._nodes[node_id]

    def nodes(self) -> Iterator[Node]:
        return iter(self._nodes)

    def parents(self, node_id: int) -> list[int | None]:
        """Ordered parent slots (may contain ``None`` while under construction)."""
        self._check_id(node_id)
        return list(self._parents[node_id])

    def filled_parents(self, node_id: int) -> list[int]:
        """Parents that are actually connected."""
        return [p for p in self._parents[node_id] if p is not None]

    def parent_rows(self) -> tuple[tuple[int | None, ...], ...]:
        """All parent slots as one immutable snapshot.

        One call replaces ``num_nodes`` :meth:`parents` calls on paths
        that key on the whole wiring (structural fingerprints).  The
        snapshot is memoized until the next parent mutation.
        """
        memo = self.__dict__.get("_parent_rows_memo")
        if memo is None:
            memo = tuple(tuple(slots) for slots in self._parents)
            self._parent_rows_memo = memo
        return memo

    def filled_rows(self) -> list[list[int]]:
        """Filled parents of every node in one pass.

        Memoized until the next parent mutation; callers must treat the
        returned rows as read-only.  This is the bulk form of
        :meth:`filled_parents` used by per-candidate analyses that read
        the whole wiring.
        """
        memo = self.__dict__.get("_filled_rows_memo")
        if memo is None:
            memo = [
                [p for p in slots if p is not None] for slots in self._parents
            ]
            self._filled_rows_memo = memo
        return memo

    def _row(self, child: int) -> list[int | None]:
        """One raw ordered parent row (read-only; overlay-resolved in
        :class:`GraphView`)."""
        return self._parents[child]

    def _sequential_flags(self) -> list[bool]:
        """``is_sequential`` of every node's type, by node id.

        A schema-static table (memoized until the next :meth:`add_node`;
        views read their base's), so hot loops that classify nodes skip
        the per-node ``node()`` / ``is_sequential`` calls.  Read-only.
        """
        memo = self.__dict__.get("_sequential_memo")
        if memo is None:
            memo = [is_sequential(n.type) for n in self._nodes]
            self._sequential_memo = memo
        return memo

    def _fanout(self, node_id: int) -> list[int]:
        """The nodes consuming ``node_id`` (read-only; as in
        :meth:`child_map`, in no guaranteed order)."""
        return self.child_map()[node_id]

    def _all_rows(self) -> list[list[int | None]]:
        """The raw ordered parent rows (read-only; overlay-resolved in
        :class:`GraphView`)."""
        return self._parents

    def _edge_positions(self) -> dict[tuple[int, int], int]:
        """Map ``(child, slot)`` of each filled slot to its index in
        :meth:`edge_list` (memoized).

        The filled-slot pattern is schema-stable under the swap move
        set, so edge positions stay valid across an entire search and
        overlays can patch their edge lists in place.
        """
        memo = self.__dict__.get("_edge_pos_memo")
        if memo is None:
            memo = {}
            position = 0
            for child, slots in enumerate(self._parents):
                for slot, parent in enumerate(slots):
                    if parent is not None:
                        memo[(child, slot)] = position
                        position += 1
            self._edge_pos_memo = memo
        return memo

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield directed edges ``(parent, child)`` including duplicates
        when the same driver feeds several slots of one node."""
        return iter(self.edge_list())

    def edge_list(self) -> list[tuple[int, int]]:
        """All directed edges as a list, memoized until the next parent
        mutation -- the repeated-enumeration path of swap sampling."""
        cached = self._edge_cache
        if cached is None:
            cached = [
                (parent, child)
                for child, slots in enumerate(self._parents)
                for parent in slots
                if parent is not None
            ]
            self._edge_cache = cached
        return cached

    def children(self, node_id: int) -> list[int]:
        """All nodes that consume ``node_id`` (computed, deduplicated)."""
        self._check_id(node_id)
        out = []
        for child, slots in enumerate(self._parents):
            if any(p == node_id for p in slots):
                out.append(child)
        return out

    def child_map(self) -> list[list[int]]:
        """Fanout lists for every node in one pass (deduplicated per
        child).  Memoized until the next parent mutation; callers must
        not mutate the returned lists."""
        memo = self.__dict__.get("_child_map_memo")
        if memo is None:
            memo = [[] for _ in self._nodes]
            for child, slots in enumerate(self._parents):
                seen = set()
                for parent in slots:
                    if parent is not None and parent not in seen:
                        memo[parent].append(child)
                        seen.add(parent)
            self._child_map_memo = memo
        return memo

    def nodes_of_type(self, node_type: NodeType) -> list[int]:
        return [n.id for n in self._nodes if n.type is node_type]

    def registers(self) -> list[int]:
        return [n.id for n in self._nodes if is_sequential(n.type)]

    def inputs(self) -> list[int]:
        return self.nodes_of_type(NodeType.IN)

    def outputs(self) -> list[int]:
        return self.nodes_of_type(NodeType.OUT)

    def total_register_bits(self) -> int:
        """Sum of widths of all sequential signals (SCPR denominator)."""
        return sum(self._nodes[r].width for r in self.registers())

    def structural_delta(self, other: "CircuitGraph") -> list[int] | None:
        """Node ids whose parent wiring differs between ``self`` and
        ``other``, or ``None`` when the node schemas differ (node count,
        type, width or params) and the graphs are not patch-comparable.

        This is the entry question of incremental re-elaboration
        (:mod:`repro.incr`): edit moves like the MCTS swap only rewire
        parents, so the answer is almost always a short list.
        """
        if len(other._nodes) != len(self._nodes):
            return None
        mine, theirs = self._all_rows(), other._all_rows()
        touched = []
        for v, (a, b) in enumerate(zip(self._nodes, other._nodes)):
            if a is not b and (
                    a.type is not b.type or a.width != b.width
                    or a.params != b.params or a.name != b.name):
                return None
            if mine[v] != theirs[v]:
                touched.append(v)
        return touched

    # ------------------------------------------------------------------
    # Matrix views
    # ------------------------------------------------------------------
    def adjacency(self) -> np.ndarray:
        """Boolean adjacency matrix ``A[i, j] = 1`` iff edge ``i -> j``."""
        n = len(self._nodes)
        a = np.zeros((n, n), dtype=bool)
        for child, slots in enumerate(self._parents):
            for parent in slots:
                if parent is not None:
                    a[parent, child] = True
        return a

    def type_indices(self) -> np.ndarray:
        from .node_types import type_index

        return np.array([type_index(n.type) for n in self._nodes], dtype=np.int64)

    def widths(self) -> np.ndarray:
        return np.array([n.width for n in self._nodes], dtype=np.int64)

    # ------------------------------------------------------------------
    # Copies and serialisation
    # ------------------------------------------------------------------
    def copy(self) -> "CircuitGraph":
        g = CircuitGraph(self.name)
        g._nodes = [n.copy() for n in self._nodes]
        g._parents = [list(slots) for slots in self._parents]
        return g

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "nodes": [
                {
                    "id": n.id,
                    "type": n.type.value,
                    "width": n.width,
                    "params": n.params,
                    "name": n.name,
                }
                for n in self._nodes
            ],
            "parents": [list(slots) for slots in self._parents],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CircuitGraph":
        g = cls(data.get("name", "design"))
        for spec in data["nodes"]:
            node_id = g.add_node(
                NodeType(spec["type"]),
                spec["width"],
                dict(spec.get("params") or {}),
                spec.get("name"),
            )
            assert node_id == spec["id"], "node ids must be dense and ordered"
        for child, slots in enumerate(data["parents"]):
            for slot, parent in enumerate(slots):
                if parent is not None:
                    g.set_parent(child, slot, parent)
        return g

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "CircuitGraph":
        return cls.from_dict(json.loads(text))

    # ------------------------------------------------------------------
    def _check_id(self, node_id: int) -> None:
        if not 0 <= node_id < len(self._nodes):
            raise IndexError(f"node id {node_id} out of range [0, {len(self._nodes)})")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CircuitGraph({self.name!r}, nodes={self.num_nodes}, "
            f"edges={self.num_edges})"
        )


class GraphView(CircuitGraph):
    """Copy-on-write overlay over a base :class:`CircuitGraph`.

    A view shares the base's node list and parent-row storage and
    records only the rows it rewires, so creating a search successor is
    O(overlay) instead of the O(nodes + edges) of :meth:`CircuitGraph.copy`
    -- the allocation that used to dominate the MCTS swap loop.  Views
    over views flatten: every view points at the ultimate plain base and
    carries one small overlay dict, so a deep rollout chain costs no
    more per state than a single edit.

    Contract: while any view of a base is alive, the *base* must not be
    mutated (the usual search discipline -- bases are frozen states).
    Views themselves may be rewired freely through ``set_parent`` /
    ``clear_parents``; node additions require :meth:`materialize` first.
    ``commit()`` folds the overlay back into the base in place (which
    invalidates any sibling views); ``materialize()`` produces an
    independent plain graph.

    Wiring memos (``edge_list`` / ``child_map`` / ``parent_rows`` /
    ``filled_rows`` and the structural fingerprint) are either patched
    incrementally from the predecessor's memo or rebuilt lazily; every
    overlay mutation drops them, so a stale memo can never be observed.
    """

    def __init__(self, base: CircuitGraph):
        self.name = base.name
        self._nodes = base._nodes  # shared; never mutated through a view
        if isinstance(base, GraphView):
            self._base = base._base
            # Each view owns its overlay rows: sharing the row lists
            # would let a successor's rewire mutate its predecessor.
            self._rows: dict[int, list[int | None]] = {
                child: list(row) for child, row in base._rows.items()
            }
        else:
            self._base = base
            self._rows = {}
        # Inherit the predecessor's edge list (cheap pointer copy) so a
        # successor's rewires patch it in place instead of rebuilding.
        cache = base._edge_cache
        self._edge_cache = list(cache) if cache is not None else None
        #: Whether this view's filled-slot pattern may differ from the
        #: base's.  The base's edge-position map is only valid while the
        #: patterns match, so a diverged view must rebuild its edge list
        #: on every rewire instead of patching it in place.
        self._pattern_diverged = (
            base._pattern_diverged if isinstance(base, GraphView) else False
        )

    # -- row access ------------------------------------------------------
    def _row(self, child: int) -> list[int | None]:
        row = self._rows.get(child)
        return self._base._parents[child] if row is None else row

    def _all_rows(self) -> list[list[int | None]]:
        rows = list(self._base._parents)
        for child, row in self._rows.items():
            rows[child] = row
        return rows

    def _sequential_flags(self) -> list[bool]:
        return self._base._sequential_flags()

    def _fanout(self, node_id: int) -> list[int]:
        """One node's fanout from the base's child map plus this view's
        overlay rows, without building the view's whole child map."""
        memo = self.__dict__.get("_child_map_memo")
        if memo is not None:
            return memo[node_id]
        rows = self._rows
        base_rows = self._base._parents
        out = [
            child for child in self._base.child_map()[node_id]
            if child not in rows or node_id in rows[child]
        ]
        out.extend(
            child for child, row in rows.items()
            if node_id in row and node_id not in base_rows[child]
        )
        return out

    def overlay_nodes(self) -> list[int]:
        """Ids of the rows this view overrides (sorted)."""
        return sorted(self._rows)

    # -- mutation (copy-on-write) ---------------------------------------
    def add_node(self, *args: object, **kwargs: object) -> int:
        raise TypeError(
            "GraphView cannot add nodes; materialize() the view first"
        )

    def set_parent(self, child: int, slot: int, parent: int) -> None:
        self._check_id(child)
        self._check_id(parent)
        row = self._rows.get(child)
        if row is None:
            row = list(self._base._parents[child])
            self._rows[child] = row
        if not 0 <= slot < len(row):
            raise IndexError(
                f"node {child} ({self._nodes[child].type}) has "
                f"{len(row)} parent slots, slot {slot} is out of range"
            )
        replaced = row[slot]
        row[slot] = parent
        if replaced is None:
            # Filling an empty slot changes the filled pattern: the
            # base's edge positions no longer describe this view, now
            # or for any later rewire.
            self._pattern_diverged = True
            self._edge_cache = None
        elif self._pattern_diverged:
            self._edge_cache = None
        else:
            cache = self._edge_cache
            if cache is not None:
                cache[self._base._edge_positions()[(child, slot)]] = (
                    parent, child,
                )
        pop = self.__dict__.pop
        for key in _WIRING_MEMOS:
            pop(key, None)

    def clear_parents(self, child: int) -> None:
        self._check_id(child)
        self._rows[child] = [None] * arity_of(self._nodes[child].type)
        self._pattern_diverged = True
        self._edge_cache = None
        pop = self.__dict__.pop
        for key in _WIRING_MEMOS:
            pop(key, None)

    # -- inspection ------------------------------------------------------
    @property
    def num_edges(self) -> int:
        return sum(
            1 for row in self._all_rows() for p in row if p is not None
        )

    def parents(self, node_id: int) -> list[int | None]:
        self._check_id(node_id)
        return list(self._row(node_id))

    def filled_parents(self, node_id: int) -> list[int]:
        return [p for p in self._row(node_id) if p is not None]

    def parent_rows(self) -> tuple[tuple[int | None, ...], ...]:
        memo = self.__dict__.get("_parent_rows_memo")
        if memo is None:
            rows = list(self._base.parent_rows())
            for child, row in self._rows.items():
                rows[child] = tuple(row)
            memo = tuple(rows)
            self._parent_rows_memo = memo
        return memo

    def filled_rows(self) -> list[list[int]]:
        memo = self.__dict__.get("_filled_rows_memo")
        if memo is None:
            memo = list(self._base.filled_rows())
            for child, row in self._rows.items():
                memo[child] = [p for p in row if p is not None]
            self._filled_rows_memo = memo
        return memo

    def edge_list(self) -> list[tuple[int, int]]:
        cached = self._edge_cache
        if cached is None:
            row = self._row
            cached = [
                (parent, child)
                for child in range(len(self._nodes))
                for parent in row(child)
                if parent is not None
            ]
            self._edge_cache = cached
        return cached

    def children(self, node_id: int) -> list[int]:
        self._check_id(node_id)
        out = []
        for child, row in enumerate(self._all_rows()):
            if any(p == node_id for p in row):
                out.append(child)
        return out

    def child_map(self) -> list[list[int]]:
        memo = self.__dict__.get("_child_map_memo")
        if memo is None:
            base_map = self._base.child_map()
            memo = list(base_map)
            base_rows = self._base._parents
            for child, row in self._rows.items():
                old = {p for p in base_rows[child] if p is not None}
                new = {p for p in row if p is not None}
                for parent in old - new:
                    fanout = memo[parent]
                    if fanout is base_map[parent]:
                        fanout = memo[parent] = list(fanout)
                    fanout.remove(child)
                for parent in new - old:
                    fanout = memo[parent]
                    if fanout is base_map[parent]:
                        fanout = memo[parent] = list(fanout)
                    fanout.append(child)
            self._child_map_memo = memo
        return memo

    def structural_delta(self, other: "CircuitGraph") -> list[int] | None:
        if isinstance(other, GraphView) and other._base is self._base:
            # Shared node storage: schemas are identical by construction
            # and only overlay rows can differ.
            return sorted(
                v for v in set(self._rows) | set(other._rows)
                if self._row(v) != other._row(v)
            )
        if other is self._base:
            return sorted(
                v for v, row in self._rows.items()
                if row != other._parents[v]
            )
        return super().structural_delta(other)

    # -- matrix views / serialisation -----------------------------------
    def adjacency(self) -> np.ndarray:
        n = len(self._nodes)
        a = np.zeros((n, n), dtype=bool)
        for child, row in enumerate(self._all_rows()):
            for parent in row:
                if parent is not None:
                    a[parent, child] = True
        return a

    def to_dict(self) -> dict:
        return self.materialize().to_dict()

    def copy(self) -> "CircuitGraph":
        return self.materialize()

    def materialize(self) -> CircuitGraph:
        """An independent plain :class:`CircuitGraph` with this view's
        wiring (the inverse of wrapping a base in a view)."""
        g = CircuitGraph(self.name)
        g._nodes = [n.copy() for n in self._nodes]
        g._parents = [list(self._row(v)) for v in range(len(self._nodes))]
        return g

    def commit(self) -> CircuitGraph:
        """Fold the overlay into the base graph *in place* and return it.

        Any other view sharing the base observes the new wiring too --
        only commit once no sibling views are live.
        """
        base = self._base
        for child, row in self._rows.items():
            base._parents[child] = list(row)
        base._invalidate_wiring()
        return base

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GraphView({self.name!r}, nodes={self.num_nodes}, "
            f"overlay={len(self._rows)})"
        )


def from_adjacency(
    adjacency: np.ndarray,
    types: Iterable[NodeType],
    widths: Iterable[int],
    name: str = "design",
) -> CircuitGraph:
    """Build a graph from an adjacency matrix and attribute vectors.

    Parent slot order is the ascending parent-id order; this is the
    convention used when a generative model emits an unordered edge set.
    Extra parents beyond the node's arity raise; missing parents leave
    empty slots (the graph may then fail validation).
    """
    types = list(types)
    widths = list(widths)
    n = adjacency.shape[0]
    if adjacency.shape != (n, n):
        raise ValueError("adjacency must be square")
    if len(types) != n or len(widths) != n:
        raise ValueError("types/widths length must match adjacency size")
    g = CircuitGraph(name)
    for t, w in zip(types, widths):
        g.add_node(t, int(w))
    for child in range(n):
        parents = np.flatnonzero(adjacency[:, child])
        slots = ARITY[types[child]]
        if len(parents) > slots:
            raise ValueError(
                f"node {child} ({types[child]}) admits {slots} parents, "
                f"adjacency provides {len(parents)}"
            )
        for slot, parent in enumerate(parents):
            g.set_parent(child, slot, int(parent))
    return g
