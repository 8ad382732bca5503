"""Reward models for the MCTS search: exact synthesis PCS or a learned
discriminator approximation.

The paper's reward is the post-synthesis circuit size (PCS): post-
synthesis area divided by the pre-synthesis node count, computed on the
whole design state (each MCTS state is a full adjacency matrix).  A
larger PCS means less logic was optimized away, i.e. less redundancy.
Because calling synthesis inside the search loop is slow, the paper
trains a discriminator to approximate PCS; both options are provided
here behind one callable protocol: ``reward(graph, cone) -> float``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from ..ir import CircuitGraph, GraphView, NUM_TYPES, NodeType
from ..lint.sanitize import current_sanitizer
from ..synth import synthesize
from ..synth.simulate import PatchableSimulator, packed_stimulus_word
from .cones import Cone, canonical_cone, cone_subcircuit


class SynthesisReward:
    """Exact full-design PCS via the synthesis substrate (slow path)."""

    def __init__(self, clock_period: float = 2.0):
        self.clock_period = clock_period
        self.calls = 0
        # A session's generate_batch shares one reward across worker
        # threads; the lock keeps the call counter exact.
        self._lock = threading.Lock()

    def __call__(self, graph: CircuitGraph, cone: Cone | None = None) -> float:
        with self._lock:
            self.calls += 1
        # PCS is area / nodes; the STA pass contributes nothing to it.
        result = synthesize(
            graph, clock_period=self.clock_period, check=False,
            run_timing=False,
        )
        return result.pcs


class Fingerprint:
    """A structural key with its hash computed exactly once.

    Fingerprints are large nested tuples; hashing one on every dict
    lookup would cost more than the lookup itself.  Equality still
    compares the full keys, so two states collide iff their structures
    match.
    """

    __slots__ = ("key", "_hash")

    def __init__(self, key: tuple):
        self.key = key
        self._hash = hash(key)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if isinstance(other, Fingerprint):
            return self._hash == other._hash and self.key == other.key
        return self.key == other

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Fingerprint({self._hash:#x})"


def structural_fingerprint(graph: CircuitGraph) -> Fingerprint:
    """Exact hashable key of a graph's structure.

    Two graphs share a fingerprint iff they have identical node types,
    widths, params (CONST values, slice indices, ...) and ordered parent
    slots -- exactly the state every reward in this package is a
    function of.  Computing it is O(nodes), orders of magnitude cheaper
    than one synthesis call.

    The fingerprint is memoized on the graph instance (search states
    are never mutated after creation, so the hot loop computes each
    state's key once); ``CircuitGraph.set_parent`` / ``clear_parents``
    drop the memo, so in-place rewires cannot serve a stale key.

    Copy-on-write views get an O(overlay) key instead of the O(nodes)
    structure tuple: (base identity, the overlay rows that actually
    differ from the base).  Within one search every state shares one
    frozen base, so equal keys still imply identical structures; the
    only asymmetry is that a view is never conflated with a plain graph
    -- a sound (no false positive) trade for keys scoped to one search.
    """
    cached = graph.__dict__.get("_structural_fp")
    if cached is None:
        if isinstance(graph, GraphView):
            base = graph._base
            base_rows = base._parents
            diff = tuple(sorted(
                (v, tuple(row)) for v, row in graph._rows.items()
                if row != base_rows[v]
            ))
            # The base object itself anchors the key: graphs hash and
            # compare by identity, which both pins the base alive for
            # as long as any key references it and rules out
            # id-recycling collisions.
            cached = Fingerprint((base, diff))
        else:
            nodes_key = graph.__dict__.get("_structural_fp_nodes")
            if nodes_key is None:
                nodes_key = tuple(
                    (node.type.value, node.width,
                     tuple(sorted(node.params.items())) if node.params else ())
                    for node in graph.nodes()
                )
                graph._structural_fp_nodes = nodes_key
            cached = Fingerprint((nodes_key, graph.parent_rows()))
        graph._structural_fp = cached
    return cached


# ---------------------------------------------------------------------------
# Batched functional evaluation of candidate cone states
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConeSignature:
    """Packed simulation response of one candidate's driving cone.

    ``words[b]`` holds bit ``b`` of the observed register across all
    stimulus cycles (LSB = cycle 0).  Equal signatures mean the two
    candidates' cones computed the same function on the shared stimulus.
    """

    register: int
    words: tuple[int, ...]
    num_cycles: int

    @property
    def toggles(self) -> int:
        """Output bit flips between consecutive cycles (activity proxy)."""
        mask = (1 << max(self.num_cycles - 1, 0)) - 1
        return sum(
            bin((word ^ (word >> 1)) & mask).count("1") for word in self.words
        )


class ConeBatchEvaluator:
    """Drive many candidate cone states with one shared packed stimulus.

    The MCTS search produces batches of candidate netlists that differ
    only inside one register's driving cone.  This evaluator lowers
    each candidate's cone sub-circuit and runs the bit-parallel simulator
    (:class:`repro.synth.simulate.BitParallelSimulator`) against stimulus
    words that are packed *once per boundary signal* and reused across
    every candidate -- boundary nodes keep their original-graph ids in
    the sub-circuit port names, so the same net sees the same word no
    matter which candidate is being evaluated.

    Lowering is incremental: per register, the previous candidate's
    :class:`repro.incr.DeltaNetlist` is kept and the next candidate's
    sub-circuit is delta-patched onto it (cones are canonicalized so
    equal membership means an identical node layout); a full tracked
    elaboration only happens when the cone membership itself changed.
    Simulation reuses a per-register
    :class:`~repro.synth.simulate.PatchableSimulator`, so a candidate's
    compiled plan is re-linked from the delta's cached opcode rows
    instead of recompiled from a materialized netlist.

    Signatures answer "which candidates compute distinct functions":
    the functional-diversity diagnostic on search traces, the optional
    ``require_functional_equivalence`` hard gate of the search, and the
    ``cone.batch_eval`` microbenchmark kernel in :mod:`repro.bench`.
    """

    def __init__(self, num_cycles: int = 64, seed: int = 0):
        if not 1 <= num_cycles:
            raise ValueError("num_cycles must be positive")
        self.num_cycles = num_cycles
        self.seed = seed
        self._words: dict[tuple[str, int], int] = {}
        #: register -> last candidate's cone DeltaNetlist (patch base).
        self._cone_deltas: dict[int, object] = {}
        #: register -> the cone's PatchableSimulator (plan re-linked per
        #: candidate; never recompiled from scratch).
        self._cone_sims: dict[int, PatchableSimulator] = {}
        self.full_elaborations = 0
        self.patched_elaborations = 0

    # -- shared packed stimulus -----------------------------------------
    def _word_for(self, marker: str, bit: int) -> int:
        key = (marker, bit)
        word = self._words.get(key)
        if word is None:
            word = packed_stimulus_word(
                self.seed, marker, self.num_cycles, salt=bit
            )
            self._words[key] = word
        return word

    # -- evaluation ------------------------------------------------------
    def _cone_simulator(
        self, graph: CircuitGraph, register: int
    ) -> PatchableSimulator:
        """Compiled simulator of ``register``'s cone, plan-patched onto
        the previous candidate's delta whenever membership allows."""
        from ..incr import DeltaNetlist

        sub = cone_subcircuit(graph, canonical_cone(graph, register))
        previous = self._cone_deltas.get(register)
        if previous is None:
            delta = DeltaNetlist.from_graph(sub, check=False)
            self.full_elaborations += 1
        else:
            delta = previous.apply_edit(sub)
            if delta.parent is None:
                # Membership changed: apply_edit already fell back to a
                # full tracked elaboration -- keep it, don't redo it.
                self.full_elaborations += 1
            elif delta.num_nets > 4 * delta.live_nets:
                # Net-id growth along a long patch chain: rebase.
                delta = DeltaNetlist.from_graph(sub, check=False)
                self.full_elaborations += 1
            else:
                self.patched_elaborations += 1
        self._cone_deltas[register] = delta
        sanitizer = current_sanitizer()
        if sanitizer is not None:
            # S003: audit the cone's patch lineage against a fresh
            # elaboration of the same sub-circuit.
            sanitizer.check_delta(delta)
        simulator = self._cone_sims.get(register)
        if simulator is None:
            simulator = self._cone_sims[register] = PatchableSimulator()
        return simulator.patch(delta)

    def signature(self, graph: CircuitGraph, register: int) -> ConeSignature:
        """Simulate ``register``'s driving cone in ``graph``."""
        simulator = self._cone_simulator(graph, register)
        sanitizer = current_sanitizer()
        inputs = {}
        words_by_name: dict[str, int] = {}
        for name, net in simulator.primary_inputs:
            marker, rest = name.rsplit("_", 1)
            bit = int(rest[rest.index("[") + 1:-1])
            word = self._word_for(marker, bit)
            inputs[net] = word
            if sanitizer is not None:
                words_by_name[name] = word
        out_words = simulator.run_packed(inputs, self.num_cycles)
        if sanitizer is not None:
            # S005: the re-linked plan's words vs a fresh compile.
            sanitizer.check_simulator(
                self._cone_deltas[register], words_by_name,
                self.num_cycles, out_words,
            )
        by_bit = sorted(
            (int(name[name.index("[") + 1:-1]), word)
            for name, word in out_words.items()
        )
        return ConeSignature(
            register=register,
            words=tuple(word for _, word in by_bit),
            num_cycles=self.num_cycles,
        )

    def evaluate(
        self, graphs: list[CircuitGraph], register: int
    ) -> list[ConeSignature]:
        """Signatures for a batch of candidate states of one register."""
        return [self.signature(graph, register) for graph in graphs]

    def distinct_functions(
        self, graphs: list[CircuitGraph], register: int
    ) -> int:
        """How many distinct functions the candidates' cones compute."""
        return len({sig.words for sig in self.evaluate(graphs, register)})


def graph_features(graph: CircuitGraph) -> np.ndarray:
    """Global feature vector approximating what synthesis will preserve.

    Captures the drivers of PCS: operator mix, structural duplication
    (identical next-state logic merges), constant saturation, register
    fanout, and how much of the graph is backward-reachable from the
    primary outputs (dead logic is removed wholesale).
    """
    n = graph.num_nodes
    type_hist = np.zeros(NUM_TYPES)
    widths = np.zeros(n)
    parent_sigs: set[tuple] = set()
    self_loops = 0
    for node in graph.nodes():
        type_hist[_type_idx(graph, node.id)] += 1
        widths[node.id] = node.width
        parents = tuple(sorted(graph.filled_parents(node.id)))
        parent_sigs.add((node.type.value, parents))
        if node.id in parents:
            self_loops += 1

    # Backward reachability from outputs (what DCE will keep).
    live: set[int] = set()
    stack = list(graph.outputs())
    while stack:
        v = stack.pop()
        if v in live:
            continue
        live.add(v)
        stack.extend(graph.filled_parents(v))
    regs = graph.registers()
    live_regs = sum(1 for r in regs if r in live)
    reg_fanout = [len(graph.children(r)) for r in regs]

    # Constant-fed fraction: nodes whose parents are all constants fold.
    const_fed = 0
    for node in graph.nodes():
        parents = graph.filled_parents(node.id)
        if parents and all(
            graph.node(p).type is NodeType.CONST for p in parents
        ):
            const_fed += 1

    feats = np.concatenate([
        [n, graph.num_edges / max(n, 1)],
        [len(live) / max(n, 1)],
        [live_regs / max(len(regs), 1) if regs else 1.0],
        [np.mean(reg_fanout) if reg_fanout else 0.0],
        [len(parent_sigs) / max(n, 1)],          # structural diversity
        [const_fed / max(n, 1)],
        [self_loops / max(n, 1)],
        [np.mean(widths), np.max(widths, initial=1.0)],
        type_hist / max(n, 1),
    ])
    return feats


def cone_features(graph: CircuitGraph, cone: Cone) -> np.ndarray:
    """Feature vector describing a register's driving cone (local view)."""
    interior = cone.interior
    nodes = [cone.register, *interior]
    type_hist = np.zeros(NUM_TYPES)
    widths = []
    parent_sigs: set[tuple] = set()
    num_edges = 0
    self_loops = 0
    for v in nodes:
        node = graph.node(v)
        type_hist[_type_idx(graph, v)] += 1
        widths.append(node.width)
        parents = tuple(sorted(graph.filled_parents(v)))
        parent_sigs.add((node.type.value, parents))
        num_edges += len(parents)
        if v in parents:
            self_loops += 1

    size = len(nodes)
    depth = _cone_depth(graph, cone)
    const_boundary = sum(
        1 for v in cone.boundary if graph.node(v).type is NodeType.CONST
    )
    feats = np.concatenate([
        [size, len(cone.boundary), num_edges / max(size, 1)],
        [depth, self_loops / max(size, 1)],
        [len(parent_sigs) / max(size, 1)],
        [const_boundary / max(len(cone.boundary), 1)],
        [np.mean(widths), np.max(widths)],
        type_hist / max(size, 1),
    ])
    return feats


def _type_idx(graph: CircuitGraph, node_id: int) -> int:
    from ..ir import type_index

    return type_index(graph.node(node_id).type)


def _cone_depth(graph: CircuitGraph, cone: Cone) -> int:
    """Longest parent-to-child path length inside the cone interior."""
    inside = set(cone.interior)
    memo: dict[int, int] = {}

    def depth_of(v: int) -> int:
        stack = [(v, 0)]
        while stack:
            node, state = stack.pop()
            if node in memo:
                continue
            parents = [p for p in graph.filled_parents(node) if p in inside]
            if state == 0:
                stack.append((node, 1))
                stack.extend((p, 0) for p in parents if p not in memo)
            else:
                memo[node] = 1 + max((memo[p] for p in parents), default=0)
        return memo[v]

    return max((depth_of(v) for v in [*cone.interior, cone.register]), default=0)


#: Dimension of :func:`cone_features` vectors.
CONE_FEATURE_DIM = 9 + NUM_TYPES

#: Dimension of :func:`graph_features` vectors.
GRAPH_FEATURE_DIM = 10 + NUM_TYPES
