"""Unit tests for the circuit IR: nodes, edges, adjacency, serialisation."""

import numpy as np
import pytest
from fuzz_harness import random_rewire

from repro.ir import (
    ARITY,
    CircuitGraph,
    GraphBuilder,
    NodeType,
    arity_of,
    from_adjacency,
    is_sequential,
    type_from_index,
    type_index,
)


def small_counter() -> CircuitGraph:
    b = GraphBuilder("counter")
    en = b.input("en", 1)
    one = b.const(1, 4)
    count = b.reg("count", 4)
    inc = b.add(count, one, width=4)
    nxt = b.mux(en, inc, count)
    b.drive_reg(count, nxt)
    b.output("value", count)
    return b.build()


class TestNodeTypes:
    def test_every_type_has_arity(self):
        for t in NodeType:
            assert t in ARITY

    def test_arity_values(self):
        assert arity_of(NodeType.IN) == 0
        assert arity_of(NodeType.CONST) == 0
        assert arity_of(NodeType.REG) == 1
        assert arity_of(NodeType.NOT) == 1
        assert arity_of(NodeType.ADD) == 2
        assert arity_of(NodeType.MUX) == 3

    def test_sequential_flag(self):
        assert is_sequential(NodeType.REG)
        assert not is_sequential(NodeType.ADD)

    def test_type_index_roundtrip(self):
        for t in NodeType:
            assert type_from_index(type_index(t)) is t


class TestCircuitGraph:
    def test_add_node_returns_dense_ids(self):
        g = CircuitGraph()
        assert g.add_node(NodeType.IN, 4) == 0
        assert g.add_node(NodeType.REG, 4) == 1
        assert g.num_nodes == 2

    def test_width_must_be_positive(self):
        g = CircuitGraph()
        with pytest.raises(ValueError):
            g.add_node(NodeType.IN, 0)

    def test_set_parents_checks_arity(self):
        g = CircuitGraph()
        a = g.add_node(NodeType.IN, 1)
        n = g.add_node(NodeType.ADD, 1)
        with pytest.raises(ValueError):
            g.set_parents(n, [a])  # ADD needs two parents

    def test_slot_out_of_range(self):
        g = CircuitGraph()
        a = g.add_node(NodeType.IN, 1)
        n = g.add_node(NodeType.NOT, 1)
        with pytest.raises(IndexError):
            g.set_parent(n, 1, a)

    def test_children_and_edges(self):
        g = small_counter()
        reg = g.nodes_of_type(NodeType.REG)[0]
        kids = g.children(reg)
        # The register drives the adder, the mux and the output.
        assert len(kids) == 3
        edges = set(g.edges())
        assert all(0 <= p < len(g) and 0 <= c < len(g) for p, c in edges)

    def test_adjacency_matches_edges(self):
        g = small_counter()
        a = g.adjacency()
        for p, c in g.edges():
            assert a[p, c]
        assert a.sum() == len(set(g.edges()))

    def test_child_map_matches_children(self):
        g = small_counter()
        fanout = g.child_map()
        for node in g.nodes():
            assert fanout[node.id] == g.children(node.id)

    def test_registers_and_total_bits(self):
        g = small_counter()
        assert len(g.registers()) == 1
        assert g.total_register_bits() == 4

    def test_copy_is_deep(self):
        g = small_counter()
        g2 = g.copy()
        g2.clear_parents(g2.outputs()[0])
        assert g.filled_parents(g.outputs()[0])
        assert not g2.filled_parents(g2.outputs()[0])

    def test_json_roundtrip(self):
        g = small_counter()
        g2 = CircuitGraph.from_json(g.to_json())
        assert g2.num_nodes == g.num_nodes
        assert list(g2.edges()) == list(g.edges())
        for n1, n2 in zip(g.nodes(), g2.nodes()):
            assert n1.type is n2.type
            assert n1.width == n2.width
            assert n1.params == n2.params


class TestFromAdjacency:
    def test_basic_roundtrip(self):
        g = small_counter()
        a = g.adjacency()
        types = [n.type for n in g.nodes()]
        widths = [n.width for n in g.nodes()]
        g2 = from_adjacency(a, types, widths)
        assert np.array_equal(g2.adjacency(), a)

    def test_too_many_parents_rejected(self):
        a = np.zeros((3, 3), dtype=bool)
        a[0, 2] = a[1, 2] = True
        with pytest.raises(ValueError):
            from_adjacency(
                a,
                [NodeType.IN, NodeType.IN, NodeType.NOT],
                [1, 1, 1],
            )


class TestGraphView:
    """Copy-on-write overlay equivalence: a chain of views must be
    observationally identical to the same rewires applied to deep
    copies (the structural fuzz backing the MCTS search's switch from
    ``CircuitGraph.copy()`` to views)."""

    @staticmethod
    def _assert_same(view, reference):
        from repro.ir import GraphView

        assert isinstance(view, GraphView)
        # Before child_map() memoizes: _fanout must derive each node's
        # fanout from the base's map plus the overlay rows.
        assert "_child_map_memo" not in view.__dict__
        for v, fanout in enumerate(reference.child_map()):
            assert sorted(view._fanout(v)) == sorted(fanout)
        assert view._sequential_flags() == reference._sequential_flags()
        assert view.num_nodes == reference.num_nodes
        assert view.num_edges == reference.num_edges
        for v in range(reference.num_nodes):
            assert view.parents(v) == reference.parents(v)
            assert view.filled_parents(v) == reference.filled_parents(v)
            assert view.children(v) == reference.children(v)
        assert view.parent_rows() == reference.parent_rows()
        assert view.edge_list() == reference.edge_list()
        assert view.filled_rows() == reference.filled_rows()
        assert [sorted(f) for f in view.child_map()] == \
            [sorted(f) for f in reference.child_map()]
        assert np.array_equal(view.adjacency(), reference.adjacency())
        assert view.to_dict() == reference.to_dict()
        assert view.structural_delta(reference) == []

    @pytest.mark.fuzz_smoke
    @pytest.mark.parametrize("seed", range(6))
    def test_view_chain_matches_copies(self, seed):
        from repro.bench_designs import load_design

        rng = np.random.default_rng(seed)
        base = load_design("uart_tx")
        state, reference = base, base.copy()
        for _ in range(12):
            # Touch memos mid-chain so incrementally patched caches are
            # exercised, not just the lazy rebuild path.
            if rng.random() < 0.5:
                state.edge_list()
                state.child_map()
            state, reference = random_rewire(state, reference, rng)
            self._assert_same(state, reference)
        # The base graph itself must be untouched by the whole chain.
        assert base.structural_delta(load_design("uart_tx")) == []

    def test_materialize_is_independent(self):
        from repro.ir import GraphView

        base = small_counter()
        view = GraphView(base)
        out = base.outputs()[0]
        view.set_parent(out, 0, base.inputs()[0])
        plain = view.materialize()
        assert plain.parents(out) == view.parents(out)
        plain.set_parent(out, 0, base.registers()[0])
        assert view.parents(out) == [base.inputs()[0]]

    def test_commit_writes_base_in_place(self):
        from repro.ir import GraphView

        base = small_counter()
        out = base.outputs()[0]
        original = base.parents(out)[0]
        view = GraphView(base)
        view.set_parent(out, 0, base.inputs()[0])
        assert base.parents(out) == [original]  # not yet
        committed = view.commit()
        assert committed is base
        assert base.parents(out) == [base.inputs()[0]]

    def test_views_never_alias_their_predecessor(self):
        from repro.ir import GraphView

        base = small_counter()
        out = base.outputs()[0]
        v1 = GraphView(base)
        v1.set_parent(out, 0, base.inputs()[0])
        v2 = GraphView(v1)
        v2.set_parent(out, 0, base.registers()[0])
        assert v1.parents(out) == [base.inputs()[0]]
        assert v2.parents(out) == [base.registers()[0]]

    def test_edge_list_correct_after_pattern_divergence(self):
        # clear_parents / filling an empty slot change the filled-slot
        # pattern, after which the base's edge positions must never be
        # used to patch the view's edge list in place.
        from repro.ir import GraphView

        base = small_counter()
        out = base.outputs()[0]
        reg = base.registers()[0]
        view = GraphView(base)
        view.edge_list()                      # warm the cache
        view.clear_parents(out)               # pattern diverges
        view.edge_list()                      # rebuilt under new pattern
        view.set_parent(reg, 0, base.inputs()[0])  # rewire a filled slot
        assert sorted(view.edge_list()) == \
            sorted(view.materialize().edge_list())
        view.set_parent(out, 0, reg)          # refill the cleared slot
        assert sorted(view.edge_list()) == \
            sorted(view.materialize().edge_list())

    def test_add_node_requires_materialize(self):
        from repro.ir import GraphView

        view = GraphView(small_counter())
        with pytest.raises(TypeError):
            view.add_node(NodeType.IN, 1)
        assert view.materialize().add_node(NodeType.IN, 1) >= 0

    def test_structural_delta_across_views(self):
        from repro.ir import GraphView

        base = small_counter()
        out = base.outputs()[0]
        sibling = GraphView(base)
        view = GraphView(base)
        view.set_parent(out, 0, base.inputs()[0])
        touched = view.structural_delta(base)
        assert touched == [out]
        assert view.structural_delta(sibling) == [out]
        assert sibling.structural_delta(base) == []
        # Generic path: compare against an independent deep copy.
        assert view.structural_delta(base.copy()) == [out]
