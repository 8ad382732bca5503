"""Tests for Phase 3: cones, swap actions, MCTS search, discriminator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import GraphBuilder, NodeType, validate
from repro.mcts import (
    MCTSConfig,
    MCTSOptimizer,
    PCSDiscriminator,
    Swap,
    SynthesisReward,
    all_cones,
    apply_swap,
    collect_training_set,
    cone_features,
    cone_subcircuit,
    driving_cone,
    graph_features,
    is_applicable,
    optimize_registers,
    random_search_registers,
    sample_swaps,
)
from repro.synth import synthesize


def chain_design():
    """in -> xor -> reg -> out with an extra redundant reg."""
    b = GraphBuilder("chain")
    a = b.input("a", 4)
    r = b.reg("r", 4)
    x = b.xor(a, r)
    b.drive_reg(r, x)
    dead = b.reg("dead", 4)
    b.drive_reg(dead, dead)    # self-loop: swept by synthesis
    b.output("y", r)
    b.output("z", dead)
    return b.build()


def redundant_design():
    """Registers fed by XOR(x, x) (folds to 0) but with fanout."""
    b = GraphBuilder("redundant")
    a = b.input("a", 4)
    c = b.input("c", 4)
    r1 = b.reg("r1", 4)
    r2 = b.reg("r2", 4)
    x1 = b.xor(a, a)          # constant 0: r1 swept
    b.drive_reg(r1, x1)
    x2 = b.and_(a, c)
    b.drive_reg(r2, x2)
    m = b.mux(b.bit(c, 0), r1, r2)
    b.output("y", m)
    return b.build()


class TestCones:
    def test_driving_cone_stops_at_boundary(self):
        g = chain_design()
        reg = g.registers()[0]
        cone = driving_cone(g, reg)
        types = {g.node(v).type for v in cone.boundary}
        assert types <= {NodeType.IN, NodeType.CONST, NodeType.REG}
        assert all(
            g.node(v).type not in (NodeType.IN, NodeType.CONST, NodeType.REG)
            for v in cone.interior
        )

    def test_cone_of_non_register_raises(self):
        g = chain_design()
        with pytest.raises(ValueError):
            driving_cone(g, g.inputs()[0])

    def test_self_loop_register_cone_empty_interior(self):
        g = chain_design()
        dead = g.registers()[1]
        cone = driving_cone(g, dead)
        assert cone.interior == []
        # Self-feedback: the register is its own boundary.
        assert cone.boundary == [dead]

    def test_cone_subcircuit_is_valid_and_synthesizable(self):
        g = redundant_design()
        for cone in all_cones(g):
            sub = cone_subcircuit(g, cone)
            assert validate(sub).ok
            result = synthesize(sub, clock_period=2.0, check=False)
            assert result.num_cells >= 0

    def test_all_cones_sorted_by_size(self):
        g = redundant_design()
        cones = all_cones(g)
        sizes = [c.size for c in cones]
        assert sizes == sorted(sizes, reverse=True)


class TestSwapAction:
    def test_swap_preserves_degrees(self):
        from collections import Counter

        g = redundant_design()
        rng = np.random.default_rng(0)
        cones = all_cones(g)
        swaps = sample_swaps(g, [cones[0].register, *cones[0].interior], rng, 5)

        def degrees(graph):
            out_deg = Counter(p for p, _ in graph.edges())
            in_deg = Counter(c for _, c in graph.edges())
            return out_deg, in_deg

        out_before, in_before = degrees(g)
        for swap in swaps:
            g2 = apply_swap(g, swap)
            if g2 is None:
                continue
            out_after, in_after = degrees(g2)
            # Slot-level (multigraph) degrees are exactly preserved: the
            # paper's rationale for the atomic swap operation.
            assert out_after == out_before
            assert in_after == in_before

    def test_swap_keeps_validity(self):
        g = redundant_design()
        rng = np.random.default_rng(1)
        cone = all_cones(g)[0]
        for swap in sample_swaps(g, [cone.register, *cone.interior], rng, 10):
            g2 = apply_swap(g, swap)
            if g2 is not None:
                assert validate(g2).ok

    def test_degenerate_swaps_rejected(self):
        g = chain_design()
        reg = g.registers()[0]
        xor = g.nodes_of_type(NodeType.XOR)[0]
        a = g.inputs()[0]
        # Same child on both edges: no-op.
        assert not is_applicable(g, Swap(a, xor, reg, xor))
        # Nonexistent edge.
        assert not is_applicable(g, Swap(xor, a, reg, xor))

    def test_duplicate_parent_swap_rejected(self):
        b = GraphBuilder("dup")
        x = b.input("x", 1)
        y = b.input("y", 1)
        n1 = b.and_(x, y)
        n2 = b.or_(x, y)
        r = b.reg("r", 1)
        b.drive_reg(r, b.xor(n1, n2))
        b.output("o", r)
        g = b.build()
        # Swapping (x->n1) with (y->n1) is degenerate (same child).
        assert not is_applicable(g, Swap(x, n1, y, n1))
        # Swapping (x->n1),(x->n2) is degenerate (same parent).
        assert not is_applicable(g, Swap(x, n1, x, n2))


#: Bench designs the swap-legality property walks (sequential feedback,
#: wide datapaths, arithmetic chains).
_LEGALITY_DESIGNS = ("traffic_light", "arbiter", "crc_gen", "alu", "mac_unit")


def _swap_outcomes(design, seed, steps):
    """Random walk of applicable swaps over a bench design: yields
    (state, swap, apply_swap result, reference successor)."""
    from repro.bench_designs import load_design
    from repro.ir import GraphView

    state = load_design(design)
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        edges = state.edge_list()
        i, j = edges[rng.integers(len(edges))]
        p, q = edges[rng.integers(len(edges))]
        swap = Swap(i, j, p, q)
        if not is_applicable(state, swap):
            continue
        reference = GraphView(state)
        reference.set_parent(j, state.parents(j).index(i), p)
        reference.set_parent(q, state.parents(q).index(p), i)
        successor = apply_swap(state, swap)
        yield state, swap, successor, reference
        if successor is not None:
            state = successor


class TestSwapLegality:
    """``apply_swap`` rejects a swap exactly when the rewired state has
    a combinational cycle (checked by whole-graph enumeration)."""

    @settings(max_examples=15, deadline=None)
    @given(design=st.sampled_from(_LEGALITY_DESIGNS),
           seed=st.integers(0, 10_000))
    def test_rejects_exactly_the_cyclic_successors(self, design, seed):
        from repro.lint.constraints import find_combinational_cycles

        for _, swap, successor, reference in _swap_outcomes(design, seed, 40):
            cyclic = bool(
                find_combinational_cycles(reference.materialize(), limit=1)
            )
            assert (successor is None) == cyclic, (design, seed, swap)
            if successor is not None:
                assert successor.parent_rows() == reference.parent_rows()

    def test_walks_reach_both_outcomes(self):
        for design in _LEGALITY_DESIGNS:
            outcomes = {
                successor is None
                for _, _, successor, _ in _swap_outcomes(design, 0, 60)
            }
            assert outcomes == {True, False}, design


class TestRewards:
    def test_synthesis_reward_counts_calls(self):
        reward = SynthesisReward(clock_period=2.0)
        g = chain_design()
        value = reward(g, None)
        assert reward.calls == 1
        assert value > 0

    def test_redundant_design_scores_lower(self):
        reward = SynthesisReward(clock_period=2.0)
        assert reward(redundant_design()) < reward(chain_design()) * 10

    def test_feature_dims(self):
        g = redundant_design()
        gf = graph_features(g)
        from repro.mcts import CONE_FEATURE_DIM, GRAPH_FEATURE_DIM

        assert gf.shape == (GRAPH_FEATURE_DIM,)
        cone = all_cones(g)[0]
        cf = cone_features(g, cone)
        assert cf.shape == (CONE_FEATURE_DIM,)

    def test_features_respond_to_structure(self):
        g1 = chain_design()
        g2 = redundant_design()
        assert not np.allclose(graph_features(g1), graph_features(g2))


class TestDiscriminator:
    def test_fit_and_predict(self):
        graphs = [chain_design(), redundant_design()]
        features, targets = collect_training_set(
            graphs, perturbations=4, seed=0
        )
        assert len(features) == len(targets)
        disc = PCSDiscriminator(seed=0)
        losses = disc.fit(features, targets, epochs=100)
        assert losses[-1] < losses[0]
        assert disc.trained
        preds = disc.predict(features)
        assert preds.shape == (len(targets),)

    def test_callable_protocol(self):
        graphs = [chain_design(), redundant_design()]
        features, targets = collect_training_set(graphs, perturbations=2)
        disc = PCSDiscriminator(seed=0)
        disc.fit(features, targets, epochs=50)
        assert isinstance(disc(chain_design()), float)

    def test_empty_fit_rejected(self):
        disc = PCSDiscriminator()
        with pytest.raises(ValueError):
            disc.fit(np.zeros((0, 5)), np.zeros(0))


class TestMCTSSearch:
    def test_optimization_never_worsens(self):
        g = redundant_design()
        cfg = MCTSConfig(num_simulations=25, max_depth=4, branching=4, seed=0)
        before = synthesize(g, clock_period=2.0).pcs
        report = optimize_registers(g, config=cfg)
        after = synthesize(report.graph, clock_period=2.0).pcs
        assert after >= before - 1e-9
        assert validate(report.graph).ok

    def test_improves_redundant_design(self):
        g = redundant_design()
        cfg = MCTSConfig(num_simulations=40, max_depth=6, branching=6, seed=0)
        before = synthesize(g, clock_period=2.0)
        report = optimize_registers(g, config=cfg)
        after = synthesize(report.graph, clock_period=2.0)
        assert after.pcs > before.pcs

    def test_register_subset_filter(self):
        g = redundant_design()
        cfg = MCTSConfig(num_simulations=5, max_depth=2, seed=0)
        target = g.registers()[0]
        report = optimize_registers(g, config=cfg, registers=[target])
        assert set(report.cone_results) <= {target}

    def test_random_search_baseline_runs(self):
        g = redundant_design()
        cfg = MCTSConfig(num_simulations=20, max_depth=4, seed=0)
        report = random_search_registers(g, config=cfg)
        assert validate(report.graph).ok
        before = synthesize(g, clock_period=2.0).pcs
        after = synthesize(report.graph, clock_period=2.0).pcs
        assert after >= before - 1e-9

    def test_search_result_bookkeeping(self):
        g = redundant_design()
        reward = SynthesisReward(2.0)
        optimizer = MCTSOptimizer(
            reward, num_simulations=10, max_depth=3, branching=3, seed=1
        )
        cone = [c for c in all_cones(g) if c.interior][0]
        result = optimizer.optimize_cone(g, cone)
        assert result.simulations == 10
        assert result.best_reward >= result.initial_reward
        assert result.rewards_seen


class TestStructuralFingerprint:
    def test_distinct_states_not_conflated(self):
        from repro.mcts import structural_fingerprint

        g = redundant_design()
        cones = [c for c in all_cones(g) if c.interior]
        assert structural_fingerprint(g) == structural_fingerprint(g.copy())
        rng = np.random.default_rng(0)
        swaps = sample_swaps(g, cones[0].nodes, rng, 8)
        changed = next(
            s for s in (apply_swap(g, sw) for sw in swaps) if s is not None
        )
        assert structural_fingerprint(changed) != structural_fingerprint(g)


class TestRewardCalls:
    """``report.reward_calls`` is counted in the search loops; pin it
    against the reward's own call counter."""

    def _config(self):
        return MCTSConfig(num_simulations=12, max_depth=3, branching=3, seed=4)

    @pytest.mark.parametrize(
        "search", [optimize_registers, random_search_registers]
    )
    def test_reward_calls_match_independent_counts(self, search, monkeypatch):
        import repro.incr
        from repro.obs import registry

        g = redundant_design()
        # Explicit exact reward: used verbatim, and with no oracle in
        # play every call it sees is a search-reward evaluation.
        exact = SynthesisReward(2.0)
        report = search(g, reward_fn=exact, config=self._config())
        assert report.reward_calls == exact.calls > 0
        assert report.reward_cache_hits == 0

        engines = []

        class Recording(repro.incr.IncrementalReward):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                engines.append(self)

        monkeypatch.setattr(repro.incr, "IncrementalReward", Recording)
        published = registry().value("reward_calls_total")
        report = search(g, config=self._config())
        (engine,) = engines
        assert report.incremental
        assert report.reward_calls == engine.calls > 0
        assert registry().value("reward_calls_total") - published \
            == report.reward_calls

    def test_fallback_reasons_sum_to_fallbacks(self):
        from repro.bench_designs import load_design

        report = optimize_registers(
            load_design("uart_tx"),
            config=MCTSConfig(num_simulations=40, max_depth=6, seed=0),
        )
        reasons = report.analysis_fallback_reasons
        assert report.analysis_fallbacks > 0
        assert sum(reasons.values()) == report.analysis_fallbacks
        assert set(reasons) <= {
            "folded_reg_cone", "reg_ref_changed", "no_convergence",
        }


class TestConeBatchEvaluator:
    def test_signatures_detect_functional_change(self):
        from repro.mcts import ConeBatchEvaluator

        g = redundant_design()
        register = g.registers()[1]    # r2 = AND(a, c): a real function
        evaluator = ConeBatchEvaluator(num_cycles=64, seed=0)
        base = evaluator.signature(g, register)
        assert base == evaluator.signature(g, register)  # deterministic
        assert len(base.words) == g.node(register).width
        assert base.num_cycles == 64
        # Activity proxy: toggles counts the bit flips between
        # consecutive cycles of every output word.
        expected_toggles = sum(
            bin((word ^ (word >> 1)) & ((1 << 63) - 1)).count("1")
            for word in base.words
        )
        assert base.toggles == expected_toggles
        assert 0 <= base.toggles <= (base.num_cycles - 1) * len(base.words)

        rng = np.random.default_rng(1)
        cone = driving_cone(g, register)
        candidates = [g]
        state = g
        for _ in range(12):
            swaps = sample_swaps(state, [register, *cone.interior], rng, 1)
            if not swaps:
                break
            nxt = apply_swap(state, swaps[0])
            if nxt is not None:
                state = nxt
                candidates.append(state)
        assert len(candidates) > 2
        signatures = evaluator.evaluate(candidates, register)
        assert len(signatures) == len(candidates)
        distinct = evaluator.distinct_functions(candidates, register)
        assert 1 <= distinct <= len(candidates)

    def test_stimulus_shared_across_candidates(self):
        from repro.mcts import ConeBatchEvaluator

        g = redundant_design()
        register = g.registers()[1]
        evaluator = ConeBatchEvaluator(num_cycles=32, seed=5)
        evaluator.signature(g, register)
        words_after_first = dict(evaluator._words)
        evaluator.signature(g, register)
        # Second candidate re-used every packed stimulus word.
        assert evaluator._words == words_after_first

    def test_function_preservation_reported(self):
        g = redundant_design()
        cfg = MCTSConfig(num_simulations=25, max_depth=4, branching=4, seed=2)
        report = optimize_registers(g, config=cfg)
        assert set(report.cone_function_preserved) <= set(g.registers())
        for preserved in report.cone_function_preserved.values():
            assert isinstance(preserved, bool)
        off = MCTSConfig(num_simulations=5, max_depth=2, seed=2,
                         track_cone_function=False)
        assert optimize_registers(g, config=off).cone_function_preserved == {}
