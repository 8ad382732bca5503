"""Incremental reward evaluation for the MCTS hot loop.

:class:`IncrementalReward` replaces the per-candidate full
``synthesize()`` call of the exact PCS reward with:

1. exact raw per-node gate areas served from a ``(node, operand
   widths)`` memo -- a node's lowered gate structure depends only on
   its own schema and its ordered operand widths, so a candidate's
   rewired nodes cost a dictionary lookup (first occurrence: one
   single-node scratch lowering), with *no* per-candidate elaboration
   at all, and
2. a word-level redundancy analysis
   (:func:`~repro.incr.analysis.analyze_redundancy`) predicting which
   nodes the gate-level optimizer would remove,

then scores ``surviving raw area / RTL nodes``, calibrated at
:meth:`rebase` so the base state's score equals its exact post-synthesis
PCS.  The per-node area values (and their summation order) are bit-for-
bit those of the historical :class:`~repro.incr.delta.DeltaNetlist`
artifact path, which :meth:`IncrementalReward.evaluate` still uses for
its delta/timing diagnostics.  The estimate ranks candidate rewrites;
acceptance is still gated by the exact ``synthesize()`` oracle in
:func:`repro.mcts.optimize.optimize_registers` (the full-resynthesis
reference path, ``MCTSConfig.incremental=False``, stays available).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir import CircuitGraph, NodeType
from ..lint.sanitize import current_sanitizer
from ..obs import span
from ..synth.elaborate import elaborate
from ..synth.flow import synthesize
from ..synth.library import DEFAULT_LIBRARY, CellLibrary
from ..synth.netlist import Netlist
from ..synth.passes import optimize as optimize_netlist
from ..synth.timing import TimingReport, total_area
from .analysis import RedundancyAnalyzer, RedundancyReport
from .delta import DeltaNetlist
from .timing import IncrementalTiming


@dataclass
class IncrementalEval:
    """Full diagnostics for one candidate evaluation."""

    pcs: float
    raw_area: float
    surviving_area: float
    survivors: int
    patched: int
    timing: TimingReport | None = None


class _AreaScratch:
    """Netlist stand-in recording only gate *kinds*, in emission order.

    ``_Elaborator`` never reads back the gates it emits while lowering a
    single node, so area queries skip :class:`~repro.synth.netlist.Gate`
    construction entirely; the kind sequence alone reproduces the
    artifact's area fold bit for bit.
    """

    __slots__ = ("kinds", "_net")

    const0 = 0
    const1 = 1

    def __init__(self) -> None:
        self.kinds: list[str] = []
        self._net = 2

    def ensure_consts(self) -> None:
        return None

    def add_gate(self, kind: str, *inputs: int) -> int:
        self.kinds.append(kind)
        net = self._net
        self._net += 1
        return net


class IncrementalReward:
    """Delta-driven approximate PCS with the exact reward's protocol.

    Callable as ``reward(graph, cone) -> float`` like every reward in
    :mod:`repro.mcts.reward`.  ``rebase`` anchors the delta lineage (and
    the calibration) on a new base state; calling the reward with a
    graph whose node schema differs from the base rebases automatically,
    so the callable is safe to use standalone.

    ``base_pcs`` is the base state's *exact* PCS (one ``synthesize()``
    per rebase), which the MCTS driver reuses as the oracle's reference
    value instead of re-synthesizing.
    """

    def __init__(
        self,
        clock_period: float = 2.0,
        library: CellLibrary = DEFAULT_LIBRARY,
        strength: int = 1,
        delta_analysis: bool = True,
        calibrate: bool = True,
    ):
        self.clock_period = clock_period
        self.library = library
        self.strength = strength
        #: Route candidate scoring through the analyzer's dirty-cone
        #: delta mode (baseline captured at each rebase).  ``False``
        #: keeps the full-fixpoint reference path.
        self.delta_analysis = delta_analysis
        #: Anchor each rebase to the exact post-synthesis PCS (one
        #: ``synthesize()`` per rebase).  ``False`` -- the fast tier --
        #: skips that synthesis and scores on the raw redundancy
        #: estimate (``_scale`` stays 1.0).  The scale is a uniform
        #: multiplier, so *within-cone* comparisons (what the search
        #: ranks) are unaffected; only the absolute value stops being a
        #: calibrated PCS.
        self.calibrate = calibrate
        self.calls = 0
        self.patches = 0
        self.rebases = 0
        #: Delta-analysis outcomes accumulated across rebases (each
        #: rebase builds a fresh analyzer; its counters are absorbed
        #: here before it is replaced).
        self.analysis_delta_hits = 0
        self.analysis_fallbacks = 0
        self.analysis_divergences = 0
        self.analysis_fallback_reasons: dict[str, int] = {}
        self.base_pcs: float | None = None
        self._base_graph: CircuitGraph | None = None
        self._base: DeltaNetlist | None = None
        self._analyzer: RedundancyAnalyzer | None = None
        self._timing: IncrementalTiming | None = None
        self._scale = 1.0
        #: node id -> raw mapped area of its lowering in the base state.
        self._base_area: dict[int, float] = {}
        #: (node id, parent-width vector) -> raw mapped area.  A node's
        #: lowered gate structure depends only on its own schema and its
        #: ordered operand widths, so candidate-state areas are served
        #: from this memo without re-elaborating anything.
        self._area_memo: dict[tuple, float] = {}
        self._memo_nodes: list | None = None
        self._node_widths: list[int] = []

    # ------------------------------------------------------------------
    def rebase(self, graph: CircuitGraph, exact_pcs: float | None = None) -> None:
        """Anchor the lineage on ``graph`` and calibrate against exact PCS.

        A no-op when ``graph`` is already the anchored base object (the
        common case when a cone search accepted nothing), so the per-
        rebase ``synthesize()`` is only paid when the state changed.
        Callers that already synthesized this exact graph (the MCTS
        acceptance oracle) pass ``exact_pcs`` to skip the redundant run;
        PCS is clock-period independent (area / nodes), so any
        ``SynthesisReward`` value for the same graph is valid.
        """
        if self._base_graph is graph:
            return
        self.rebases += 1
        with span("incr.rebase", exact=exact_pcs is not None):
            self._rebase(graph, exact_pcs)

    def _rebase(
        self, graph: CircuitGraph, exact_pcs: float | None
    ) -> None:
        if exact_pcs is None and self.calibrate:
            exact_pcs = synthesize(
                graph, clock_period=self.clock_period, strength=self.strength,
                library=self.library, check=False, run_timing=False,
            ).pcs
        self._base_graph = graph
        # The tracked base elaboration is only needed by ``evaluate``'s
        # delta/timing diagnostics; the scoring path works entirely from
        # the per-node area memo, so it is built lazily.
        self._base = None
        self._absorb_analysis_counters()
        self._analyzer = RedundancyAnalyzer(graph, share_from=self._analyzer)
        self._timing = None
        self.base_pcs = exact_pcs
        # The (node, operand widths) -> area memo depends only on the
        # node schema, which is shared by every state of one search run
        # (accepted states are views over the same node storage); it
        # survives rebases and only resets for a genuinely new design.
        if self._memo_nodes is not graph._nodes:
            self._area_memo = {}
            self._memo_nodes = graph._nodes
        self._node_widths = [n.width for n in graph.nodes()]
        dff_area = self.library.cell("DFF", self.strength).area
        comb = self._analyzer._comb
        base_area: dict[int, float] = {}
        for node in graph.nodes():
            if node.id in comb:
                base_area[node.id] = self._rewired_area(graph, node.id)
            elif node.type is NodeType.REG:
                # Identical float fold as summing the artifact's DFF
                # gate areas one by one.
                base_area[node.id] = sum(dff_area for _ in range(node.width))
            else:
                base_area[node.id] = 0.0
        self._base_area = base_area
        base_report = self._analyzer.analyze(graph)
        if self.delta_analysis:
            # Anchor the analyzer's dirty-cone mode on this converged
            # base state; candidate scoring then re-runs the fixpoint
            # only over each edit's affected cone.
            self._analyzer.capture_baseline(graph, base_report)
        estimate = self._area_of(base_report)
        if exact_pcs is None:
            # Uncalibrated (fast-tier) rebase: the base value IS the
            # estimate, so the scale folds to exactly 1.0 and the per-
            # rebase synthesize() is never paid.
            exact_pcs = estimate / max(graph.num_nodes, 1)
            self.base_pcs = exact_pcs
        self._scale = exact_pcs * graph.num_nodes / estimate if estimate else 1.0

    def _absorb_analysis_counters(self) -> None:
        analyzer = self._analyzer
        if analyzer is not None:
            self.analysis_delta_hits += analyzer.delta_hits
            self.analysis_fallbacks += analyzer.delta_fallbacks
            self.analysis_divergences += analyzer.delta_divergences
            reasons = self.analysis_fallback_reasons
            for reason, count in analyzer.fallback_reasons.items():
                reasons[reason] = reasons.get(reason, 0) + count

    def analysis_counters(self) -> tuple[int, int, int]:
        """(delta hits, fallbacks, divergences) including the live
        analyzer's tallies."""
        analyzer = self._analyzer
        extra = (
            (analyzer.delta_hits, analyzer.delta_fallbacks,
             analyzer.delta_divergences)
            if analyzer is not None else (0, 0, 0)
        )
        return (
            self.analysis_delta_hits + extra[0],
            self.analysis_fallbacks + extra[1],
            self.analysis_divergences + extra[2],
        )

    def fallback_reasons(self) -> dict[str, int]:
        """Delta-analysis fallbacks by reason, including the live
        analyzer's tallies."""
        reasons = dict(self.analysis_fallback_reasons)
        if self._analyzer is not None:
            for reason, count in self._analyzer.fallback_reasons.items():
                reasons[reason] = reasons.get(reason, 0) + count
        return reasons

    # ------------------------------------------------------------------
    def _area_of(
        self,
        report: RedundancyReport,
        overrides: dict[int, float] | None = None,
    ) -> float:
        """Raw area of the report's surviving nodes.

        Untouched nodes keep their base-state areas; ``overrides``
        carries the (memoized) areas of nodes whose parent widths the
        candidate's rewires changed.  The summation order matches the
        historical delta-artifact path bit for bit.
        """
        base_area = self._base_area
        if not overrides:
            return sum(base_area[v] for v in report.survivors())
        return sum(
            overrides[v] if v in overrides else base_area[v]
            for v in report.survivors()
        )

    def _rewired_area(self, graph: CircuitGraph, v: int) -> float:
        """Raw mapped area of node ``v`` under the candidate's wiring.

        Lowered gate structure is a pure function of (node schema,
        ordered operand widths): operand bits are only ever consumed
        through zero-extension or truncation to static widths, never
        through operand identity.  The memo therefore replaces the
        per-candidate dirty-cone re-elaboration the reward used to pay.
        """
        widths = self._node_widths
        parents = graph.filled_parents(v)
        key = (v, tuple([widths[p] for p in parents]))
        area = self._area_memo.get(key)
        if area is None:
            from ..synth.elaborate import _Elaborator

            scratch = _AreaScratch()
            bits = {p: list(range(2, 2 + widths[p])) for p in parents}
            _Elaborator(graph, netlist=scratch, bits=bits)._lower_comb(v)
            library, strength = self.library, self.strength
            # Same float fold as summing the real artifact's gate areas.
            area = sum(
                library.cell(kind, strength).area for kind in scratch.kinds
            )
            self._area_memo[key] = area
        return area

    def _overrides(
        self, graph: CircuitGraph, touched: list[int], traced: bool
    ) -> dict[int, float]:
        """Areas of the touched combinational nodes under ``graph``'s
        wiring (memoized on ``graph``).

        Only the rewired nodes' own areas can differ from base (their
        operand widths changed); REG/OUT lowerings are width-static.
        When ``touched`` was traced through swap provenance, it is the
        predecessor's touched set plus the two rows the last swap
        rewired, and every other row is wired as in the predecessor --
        so the predecessor's overrides are inherited and only those two
        rows are looked up.
        """
        base_graph = self._base_graph
        comb = self._analyzer._comb
        overrides = None
        origin = getattr(graph, "edit_origin", None) if traced else None
        if origin is not None:
            prev, rewired = origin
            if prev is base_graph:
                inherited: dict[int, float] | None = {}
            else:
                memo = prev.__dict__.get("_area_overrides")
                inherited = (
                    memo[2] if memo is not None and memo[0] is self
                    and memo[1] is base_graph else None
                )
            if inherited is not None:
                overrides = dict(inherited)
                for v in rewired:
                    if v in comb:
                        overrides[v] = self._rewired_area(graph, v)
        if overrides is None:
            overrides = {
                v: self._rewired_area(graph, v) for v in touched if v in comb
            }
        graph._area_overrides = (self, base_graph, overrides)
        return overrides

    def _touched_vs_base(self, graph: CircuitGraph) -> list[int] | None:
        touched = self._trace_touched(graph)
        if touched is None:
            touched = graph.structural_delta(self._base_graph)
        return touched

    def _ensure_base_delta(self) -> DeltaNetlist:
        """The tracked elaboration of the base, built on first use."""
        if self._base is None:
            self._base = DeltaNetlist.from_graph(self._base_graph, check=False)
        return self._base

    def _delta_for(self, graph: CircuitGraph) -> DeltaNetlist:
        if self._base_graph is None:
            self.rebase(graph)
        if graph is self._base_graph:
            return self._ensure_base_delta()
        base = self._ensure_base_delta()
        delta = base.apply_edit(graph, self._trace_touched(graph))
        if delta.parent is None:
            # Schema changed: a different design, not an edit -- the
            # calibration must be re-anchored too.
            self.rebase(graph)
            return self._ensure_base_delta()
        self.patches += 1
        return delta

    def _trace_touched(self, graph: CircuitGraph) -> list[int] | None:
        """Touched nodes recovered from ``apply_swap`` edit provenance.

        Each swap successor records its predecessor state and the two
        rewired nodes (``graph.edit_origin``); when the chain reaches
        the anchored base, the union of rewired nodes is a (tight)
        superset of the diff and the O(nodes) graph comparison is
        skipped.  Returns ``None`` when the chain does not reach the
        base, falling back to :meth:`CircuitGraph.structural_delta`.
        """
        base_graph = self._base_graph
        touched: set[int] = set()
        node = graph
        for _ in range(256):
            origin = getattr(node, "edit_origin", None)
            if origin is None:
                return None
            node, rewired = origin
            touched.update(rewired)
            if node is base_graph:
                return sorted(touched)
        return None

    def __call__(
        self, graph: CircuitGraph, cone: object = None
    ) -> float:
        self.calls += 1
        if self._base_graph is None:
            self.rebase(graph)
        if graph is self._base_graph:
            return self.base_pcs
        touched = self._trace_touched(graph)
        traced = touched is not None
        if not traced:
            touched = graph.structural_delta(self._base_graph)
            if touched is None:
                # Different schema: a new design, re-anchor everything.
                self.rebase(graph)
                return self.base_pcs
        if not touched:
            return self.base_pcs
        self.patches += 1
        report = self._analyzer.analyze(graph, touched=touched)
        overrides = self._overrides(graph, touched, traced)
        sanitizer = current_sanitizer()
        if sanitizer is not None:
            # S006: memo-served areas vs fresh single-node lowerings,
            # keyed by exactly the touched combinational nodes.
            sanitizer.check_area_memo(self, graph, overrides)
        area = self._area_of(report, overrides)
        return self._scale * area / max(graph.num_nodes, 1)

    # ------------------------------------------------------------------
    def evaluate(self, graph: CircuitGraph) -> IncrementalEval:
        """Scored candidate plus raw area, survivor count and timing.

        Timing comes from :class:`IncrementalTiming` anchored on the
        current base -- a dirty-cone update, not a full ``synth.timing``
        pass.
        """
        self.calls += 1
        delta = self._delta_for(graph)
        sanitizer = current_sanitizer()
        if sanitizer is not None:
            # S003: audit the diagnostic delta's patch lineage.
            sanitizer.check_delta(delta)
        report = self._analyzer.analyze(delta.graph)
        survivors = report.survivors()
        surviving = sum(
            delta.node_area(v, self.library, self.strength)
            for v in survivors
        )
        if self._timing is None:
            self._timing = IncrementalTiming(
                self._ensure_base_delta(), self.clock_period,
                self.library, self.strength,
            )
        timing = self._timing.update(delta)
        if sanitizer is not None:
            # S004: overlay-assembled report vs a fresh STA.
            sanitizer.check_timing(self._timing, delta, timing)
        return IncrementalEval(
            pcs=self._scale * surviving / max(graph.num_nodes, 1),
            raw_area=delta.total_area(self.library, self.strength),
            surviving_area=surviving,
            survivors=len(survivors),
            patched=len(delta.patched),
            timing=timing,
        )


class DeltaOracle:
    """Exact acceptance oracle rebuilt on the delta substrate.

    Drop-in for :class:`~repro.mcts.reward.SynthesisReward` in the
    acceptance role: instead of re-elaborating the whole candidate
    design, the candidate's netlist is assembled as
    ``base.apply_edit(...).materialize()`` against the incremental
    engine's anchored base -- O(dirty cone) elaboration work -- and only
    the gate-level optimizer runs at full scale.  Because ``_assemble``
    reproduces the fresh-elaboration gate *sequence* (not merely the
    gate population) and the optimizer is deterministic over that
    sequence, the same order-faithful ``total_area`` fold the full
    ``synthesize`` path uses makes the two paths' PCS values
    bit-identical, not merely ulp-close (asserted continuously by the
    differential fuzz tier).

    Candidates whose lineage does not reach the engine's base (schema
    change, severed provenance) fall back to a fresh
    ``elaborate`` -- same optimizer, same area fold.  Any
    unexpected exception on the delta path counts as a divergence and
    flips ``delta_enabled`` off for the rest of the run, so a broken
    shortcut degrades to the reference path instead of corrupting
    acceptance decisions.
    """

    def __init__(
        self,
        engine: IncrementalReward,
        library: CellLibrary = DEFAULT_LIBRARY,
        strength: int = 1,
    ):
        self.engine = engine
        self.library = library
        self.strength = strength
        #: Flipped off permanently (for this oracle) on the first
        #: unexpected delta-path exception.
        self.delta_enabled = True
        self.calls = 0
        self.delta_hits = 0
        self.fallbacks = 0
        self.divergences = 0

    def counters(self) -> tuple[int, int, int]:
        """(delta hits, fallbacks, divergences)."""
        return (self.delta_hits, self.fallbacks, self.divergences)

    # ------------------------------------------------------------------
    def _materialized_delta(self, graph: CircuitGraph) -> Netlist | None:
        """Candidate netlist via the engine's delta lineage, or ``None``
        when the candidate is not patch-reachable from the base."""
        engine = self.engine
        base_graph = engine._base_graph
        if base_graph is None:
            return None
        if graph is base_graph:
            return self._assemble(engine._ensure_base_delta())
        touched = engine._touched_vs_base(graph)
        if touched is None:
            return None
        delta = engine._ensure_base_delta().apply_edit(graph, touched)
        if delta.parent is None:
            return None
        return self._assemble(delta)

    @staticmethod
    def _assemble(delta: "DeltaNetlist") -> Netlist:
        """``materialize()`` in fresh-elaboration gate order.

        The optimizer's fixpoint is gate-*order*-sensitive inside
        register feedback (which duplicate survives structural hashing,
        whether a stuck-register fold is discovered), so node-id
        concatenation can optimize to a different gate population than
        the reference path.  Emitting the shared artifacts in exactly
        the order ``elaborate`` would -- comb nodes in the elaborator's
        topological order, then register DFFs, then outputs -- makes
        the gate-kind sequence identical to a fresh elaboration (nets
        differ only by a renumbering the passes are invariant to), so
        the optimized gate *sequence* -- and with it the order-faithful
        ``total_area`` fold -- bit-matches the reference path.
        """
        from ..synth.elaborate import _Elaborator

        graph = delta.graph
        artifacts = delta.artifacts
        nl = Netlist(
            name=delta.name,
            num_nets=delta.num_nets,
            const0=delta.const0,
            const1=delta.const1,
        )
        gates = nl.gates
        for v in sorted(artifacts):
            nl.primary_inputs.extend(artifacts[v].pis)
        for v in _Elaborator(graph)._comb_topo_order():
            gates.extend(artifacts[v].gates)
        for reg in graph.registers():
            art = artifacts[reg]
            gates.extend(art.gates)
            for b, q in enumerate(art.bits):
                nl.dff_origin[q] = (reg, b)
        for out in graph.outputs():
            nl.primary_outputs.extend(artifacts[out].pos)
        return nl

    def __call__(
        self, graph: CircuitGraph, cone: object = None
    ) -> float:
        self.calls += 1
        netlist: Netlist | None = None
        if self.delta_enabled:
            try:
                netlist = self._materialized_delta(graph)
            except Exception:
                # A delta-path bug must never sink acceptance: record
                # the divergence and run the reference path from here on.
                self.divergences += 1
                self.delta_enabled = False
                netlist = None
        if netlist is None:
            self.fallbacks += 1
            netlist = elaborate(graph, check=False)
        else:
            self.delta_hits += 1
        optimized, _ = optimize_netlist(netlist, check=False)
        area = total_area(optimized, self.library, self.strength)
        nodes = graph.num_nodes
        return area / nodes if nodes else 0.0
