"""Phase 3 driver: cone-by-cone redundancy optimization.

``optimize_registers`` runs the MCTS search over every register's driving
cone (largest first) and stitches the improved cone states back into the
design.  ``random_search_registers`` is the paper's ablation: the same
simulation budget spent on random valid swaps, keeping the best state
seen.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from ..ir import CircuitGraph, GraphView
from ..lint.sanitize import from_config as _sanitizer_from_config
from ..lint.sanitize import sanitizing
from ..obs import get_logger, registry, span
from ..tiers import EXACT_TIER, FAST_TIER, check_tier
from .actions import SwapIndex, apply_swap
from .cones import all_cones, driving_cone
from .reward import ConeBatchEvaluator, SynthesisReward
from .tree import ConeSearchResult, MCTSOptimizer, RewardFn

logger = get_logger(__name__)


@dataclass
class MCTSConfig:
    """Search budget; paper defaults are 500 simulations, depth 10.

    ``incremental`` routes the search reward through the incremental
    synthesis engine (:class:`repro.incr.IncrementalReward`): candidate
    states are delta-elaborated against the cone search's base instead
    of fully re-synthesized, and scored with a word-level redundancy
    estimate calibrated to exact PCS at each rebase.  Applies only when
    no explicit ``reward_fn`` is passed (the default reward would be the
    exact :class:`~repro.mcts.reward.SynthesisReward`); an explicit
    reward -- discriminator or exact -- is always used verbatim.  While
    ``verify_with_synthesis`` is on (the default), acceptance is gated
    by the exact synthesis oracle, so a misled estimate can never
    worsen the result; turning verification off makes acceptance follow
    the estimate alone.  Set to ``False`` for the full-resynthesis
    reference path.

    ``verify_with_synthesis`` guards acceptance when the search reward is
    an approximation (the discriminator or the incremental estimate): a
    cone's best state is only committed if the *true* post-synthesis PCS
    improved.

    ``delta_analysis`` routes the incremental reward's redundancy
    fixpoint through the analyzer's dirty-cone delta mode (baseline
    captured at each rebase, re-converged only over the edit's affected
    cone).  ``delta_oracle`` rebuilds the acceptance oracle on the delta
    substrate (:class:`~repro.incr.DeltaOracle`): candidate netlists are
    materialized from the engine's delta lineage instead of a fresh
    re-elaboration, then optimized and scored with a canonical area
    fold.  Both shortcuts are continuously cross-checked by the
    differential fuzz tier, fall back to the full path whenever their
    preconditions fail, and record any divergence in
    :class:`OptimizationReport`; either flag restores the reference
    path wholesale.  Both apply only when the incremental engine is in
    play (``incremental=True``, no explicit ``reward_fn``).

    ``track_cone_function`` records, for every accepted cone rewrite,
    whether the new cone still computes the original function (packed
    simulation of before/after against one shared stimulus, via
    :class:`~repro.mcts.reward.ConeBatchEvaluator`).  Costs two cone
    simulations per *accepted* cone -- microseconds next to the search.

    ``require_functional_equivalence`` promotes that diagnostic into a
    hard gate: an improved cone state is rejected outright when its
    cone computes a different function on the shared stimulus -- or
    when equivalence cannot be established at all (the gate fails
    closed) -- keeping the search inside the original design's
    observable behaviour.

    ``tier`` selects the numeric contract (see :mod:`repro.tiers`).
    ``"exact"`` (the default) keeps every byte-stability guarantee:
    every register cone is searched, in register order, and every
    accepted rewrite is tracked.  ``"fast"`` is the throughput tier:
    the search walks cones in redundancy-headroom order
    (:func:`_triage_cones`) and stops after
    :data:`repro.tiers.FAST_EXIT_PATIENCE` consecutive cones without
    an accepted rewrite, skips the synthesis-oracle call for marginal
    estimate gains (:data:`repro.tiers.FAST_ORACLE_MARGIN`), and
    defers the per-acceptance cone-function diagnostic to the
    batch-level drift gate (``require_functional_equivalence`` still
    checks, and still fails closed).  A design whose base synthesis
    collapses to nothing searches *every* cone until an accept lifts
    it off zero -- any cone may hold the rescuing rewrite.  Acceptance
    stays oracle-gated in both tiers -- the drift the triage induces
    is bounded by the tier-1 tolerance gate
    (:data:`repro.tiers.FAST_SCPR_TOLERANCE`).  Applies only when the
    incremental engine is in play; an explicit ``reward_fn`` is always
    exact-gated as before.

    ``sanitize`` audits the run with :mod:`repro.lint.sanitize`: every
    incrementally maintained structure the search touches (GraphView
    wiring memos, the SwapIndex edge cache, delta netlists, timing
    overlays, patched simulator plans) is cross-checked against a
    from-scratch recomputation at its checkpoints, raising
    :class:`~repro.lint.InvariantViolation` on divergence.  Pure
    auditing: a sanitized run's result is bit-identical to an
    unsanitized one.  The ``REPRO_SANITIZE`` environment variable turns
    this on globally without touching configs.
    """

    num_simulations: int = 500
    max_depth: int = 10
    branching: int = 8
    exploration: float = math.sqrt(2.0)
    clock_period: float = 2.0
    incremental: bool = True
    verify_with_synthesis: bool = True
    delta_analysis: bool = True
    delta_oracle: bool = True
    track_cone_function: bool = True
    require_functional_equivalence: bool = False
    sanitize: bool = False
    tier: str = EXACT_TIER
    seed: int = 0


@dataclass
class OptimizationReport:
    graph: CircuitGraph
    cone_results: dict[int, ConeSearchResult] = field(default_factory=dict)
    #: Search-reward evaluations across all cone searches, counted in
    #: the search loops themselves.
    reward_calls: int = 0
    #: Always 0: the search caches no rewards.  Kept for report readers
    #: that still divide by it (the repository benchmark's harness).
    reward_cache_hits: int = 0
    #: register -> whether the accepted rewrite preserved the cone's
    #: function (only populated when ``track_cone_function`` is on, plus
    #: a ``False`` entry per equivalence-gate rejection).
    cone_function_preserved: dict[int, bool] = field(default_factory=dict)
    #: Whether the incremental reward path was used for the search.
    incremental: bool = False
    #: Delta patches / rebases performed by the incremental reward.
    reward_patches: int = 0
    reward_rebases: int = 0
    #: Improved cone states rejected by the functional-equivalence gate.
    equivalence_rejections: int = 0
    #: Dirty-cone redundancy-analysis outcomes (delta-mode analyze calls
    #: that reused the baseline / fell back to the full fixpoint / hit an
    #: unexpected exception and disabled the shortcut).  All zero when
    #: ``delta_analysis`` is off or the incremental engine is not used.
    analysis_delta_hits: int = 0
    analysis_fallbacks: int = 0
    analysis_divergences: int = 0
    #: ``analysis_fallbacks`` broken down by reason (``folded_reg_cone``,
    #: ``reg_ref_changed``, ``no_convergence``).
    analysis_fallback_reasons: dict[str, int] = field(default_factory=dict)
    #: Delta-substrate oracle outcomes (candidates scored from a
    #: materialized delta netlist / via fresh elaboration / divergences
    #: that flipped the oracle to the reference path).  All zero when
    #: ``delta_oracle`` is off or no oracle ran.
    oracle_delta_hits: int = 0
    oracle_fallbacks: int = 0
    oracle_divergences: int = 0
    #: Invariant audits performed when the run was sanitized (0 = the
    #: sanitizer was off; a sanitized run with violations raises).
    sanitize_checks: int = 0
    #: Cone-equivalence checks that errored out (simulator/elaboration
    #: failures) and therefore answered "unknown".  Non-zero means the
    #: diagnostic -- or the equivalence gate, which fails closed -- is
    #: degraded, not that the search result is wrong; a silent zero with
    #: empty ``cone_function_preserved`` would otherwise be
    #: indistinguishable from "nothing was accepted".
    cone_check_failures: int = 0

    @property
    def improved_cones(self) -> int:
        return sum(1 for r in self.cone_results.values() if r.improved)

    @property
    def total_simulations(self) -> int:
        return sum(r.simulations for r in self.cone_results.values())


#: Report fields mirrored into the process-wide metrics registry as
#: ``repro_<field>_total`` counters at the end of every search.  The
#: registry is the aggregated source surfaces like ``GET /metrics``
#: read; the per-run report keeps the same numbers scoped to one call.
_PUBLISHED_COUNTERS = (
    "reward_calls",
    "analysis_delta_hits", "analysis_fallbacks", "analysis_divergences",
    "oracle_delta_hits", "oracle_fallbacks", "oracle_divergences",
    "sanitize_checks", "equivalence_rejections", "cone_check_failures",
)


def _publish_metrics(report: OptimizationReport) -> None:
    """Fold one finished search's counters into the global registry."""
    reg = registry()
    reg.counter("searches_total").inc()
    reg.counter("simulations_total").inc(report.total_simulations)
    reg.counter("improved_cones_total").inc(report.improved_cones)
    for name in _PUBLISHED_COUNTERS:
        value = getattr(report, name)
        if value:
            reg.counter(f"{name}_total").inc(value)


def _resolve_search_rewards(config: MCTSConfig, reward_fn: RewardFn | None):
    """(search reward, incremental engine or None, oracle or None).

    The incremental engine only stands in for the *default* reward: an
    explicitly passed ``reward_fn`` -- whether the discriminator or an
    exact :class:`SynthesisReward` -- is always used verbatim, so the
    exact-reward arms of ablations and results tables measure what they
    say.  When the search reward is approximate (discriminator or the
    incremental estimate) and ``verify_with_synthesis`` is on,
    acceptance is verified with the exact synthesis PCS so a misled
    search can never hurt.
    """
    exact_reward = reward_fn or SynthesisReward(config.clock_period)
    incremental = None
    search_reward = exact_reward
    if config.incremental and reward_fn is None:
        from ..incr import IncrementalReward

        incremental = IncrementalReward(
            clock_period=config.clock_period,
            delta_analysis=config.delta_analysis,
        )
        search_reward = incremental
    oracle = None
    if config.verify_with_synthesis and not isinstance(
        search_reward, SynthesisReward
    ):
        if incremental is not None and config.delta_oracle:
            from ..incr import DeltaOracle

            # Acceptance on the delta substrate: candidate netlists are
            # materialized from the engine's lineage, not re-elaborated.
            oracle = DeltaOracle(incremental)
        else:
            oracle = (
                exact_reward if isinstance(exact_reward, SynthesisReward)
                else SynthesisReward(config.clock_period)
            )
    return search_reward, incremental, oracle


def optimize_registers(
    graph: CircuitGraph,
    reward_fn: RewardFn | None = None,
    config: MCTSConfig | None = None,
    registers: list[int] | None = None,
    verbose: bool = False,
    evaluator: ConeBatchEvaluator | None = None,
) -> OptimizationReport:
    """MCTS optimization of each register cone; returns G_opt.

    ``evaluator`` injects the cone-equivalence evaluator -- the fast
    tier passes a per-circuit view of a shared
    :class:`~repro.mcts.crossq.CrossCircuitQueue` so stimulus words are
    derived once per (marker, bit) across a whole ``generate_batch``.
    When ``None``, a private :class:`ConeBatchEvaluator` is built as
    before.
    """
    config = config or MCTSConfig()
    search_reward, incremental, oracle = _resolve_search_rewards(
        config, reward_fn
    )
    fast = (
        check_tier(config.tier) == FAST_TIER and incremental is not None
    )
    # Fast tier defers the per-acceptance cone-function diagnostic to
    # the batch-level drift gate; the hard equivalence gate (below)
    # still runs when asked for.
    track_function = config.track_cone_function and not fast
    sanitizer = _sanitizer_from_config(config.sanitize, seed=config.seed)
    current = graph.copy()
    report = OptimizationReport(
        graph=current, incremental=incremental is not None
    )
    # With the incremental reward, each cone's rebase computes the exact
    # base PCS anyway; reuse it instead of a redundant oracle call here.
    current_pcs = (
        oracle(current) if oracle is not None and incremental is None
        else None
    )
    # One evaluator for the whole run: its packed stimulus words are keyed
    # by original-graph node ids, so every candidate netlist (across all
    # cones) is driven by the same shared stimulus.
    if evaluator is None:
        evaluator = (
            ConeBatchEvaluator(seed=config.seed)
            if track_function
            or config.require_functional_equivalence
            else None
        )

    cones = all_cones(current)
    triaged = False
    if registers is not None:
        wanted = set(registers)
        cones = [c for c in cones if c.register in wanted]
    elif fast and len(cones) > 1:
        # The base PCS decides the triage mode and the first cone's
        # rebase reuses it, so this synthesis is not an extra cost.
        if incremental is not None:
            incremental.rebase(current, exact_pcs=current_pcs)
            current_pcs = incremental.base_pcs
        # Rescue mode: a design that synthesizes to nothing (the
        # paper's fully-redundant raw samples) can be saved by *any*
        # cone -- cutting by headroom coverage risks dropping exactly
        # the rewrite that makes it survive synthesis, the catastrophic
        # drift tail.  Search every cone, in headroom order, until an
        # accept lifts the PCS off zero.
        rescue = current_pcs is None or current_pcs <= 1e-12
        cones = _triage_cones(current, cones, keep_all=rescue)
        triaged = True
    # The sanitizing context is a no-op for sanitizer=None; inside it the
    # incremental machinery's checkpoints (SwapIndex, delta netlists,
    # timing overlays, patched simulators) audit themselves.
    if triaged:
        from ..tiers import FAST_EXIT_PATIENCE
        patience = FAST_EXIT_PATIENCE
    duds = 0
    with span("mcts.optimize", cones=len(cones),
              incremental=incremental is not None), sanitizing(sanitizer):
        for cone in cones:
            if not cone.interior:
                continue  # nothing to rewire inside a bare feedback register
            if incremental is not None:
                # current_pcs, when set, is the oracle's value for this
                # same graph object -- rebase reuses it instead of
                # re-synthesizing.
                incremental.rebase(current, exact_pcs=current_pcs)
                current_pcs = incremental.base_pcs
            optimizer = MCTSOptimizer(
                search_reward,
                num_simulations=config.num_simulations,
                max_depth=config.max_depth,
                branching=config.branching,
                exploration=config.exploration,
                seed=config.seed + cone.register,
            )
            live_cone = driving_cone(current, cone.register)
            with span("mcts.cone", register=cone.register,
                      interior=len(cone.interior)) as cone_span:
                result = optimizer.optimize_cone(current, live_cone)
                cone_span.add(simulations=result.simulations,
                              improved=result.improved)
            report.cone_results[cone.register] = result
            report.reward_calls += result.reward_calls
            if sanitizer is not None and result.improved:
                # S001: the search's best state sits at the end of the
                # deepest copy-on-write derivation chain this cone
                # produced -- audit its wiring memos before acceptance
                # decisions build on them.
                sanitizer.check_graph_memos(result.best_graph)
            accepted = False
            rejected = False
            preserved: bool | None = None
            previous = current
            if result.improved:
                if (
                    config.require_functional_equivalence
                    and evaluator is not None
                ):
                    preserved = _cone_function_preserved(
                        evaluator, current, result.best_graph,
                        cone.register, report,
                    )
                    if preserved is not True:
                        # Hard gate fails *closed*: a state whose
                        # equivalence cannot be established (check
                        # errored, preserved is None) is rejected like a
                        # proven mismatch.
                        rejected = True
                        report.equivalence_rejections += 1
                        if preserved is False:
                            report.cone_function_preserved[
                                cone.register
                            ] = False
                if not rejected:
                    if oracle is None:
                        current = result.best_graph
                        # Without the oracle there is no exact value for
                        # the new state; the next rebase must
                        # re-synthesize.
                        current_pcs = None
                        accepted = True
                    elif fast and not _worth_oracle(result):
                        # Fast tier: a marginal estimate gain is the
                        # candidate the oracle most often vetoes --
                        # reject it without the synthesis call.  The
                        # true marginal gains lost here are bounded by
                        # the margin and the tier's drift gate.
                        pass
                    else:
                        with span("mcts.oracle", register=cone.register):
                            candidate_pcs = oracle(result.best_graph)
                        if candidate_pcs > current_pcs + 1e-12:
                            current = result.best_graph
                            current_pcs = candidate_pcs
                            accepted = True
            if accepted:
                # The accepted state becomes the next search base; cut
                # the swap provenance chain so the intermediate rollout
                # graphs it references can be reclaimed.
                current.edit_origin = None
                if sanitizer is not None:
                    # S001 again, post-acceptance: the provenance cut
                    # must not have disturbed the memos the next cone
                    # search will derive from.
                    sanitizer.check_graph_memos(current)
                if evaluator is not None and track_function:
                    if preserved is None:
                        # The gate (when it ran) compared this same
                        # (previous, current) pair; reuse its verdict.
                        preserved = _cone_function_preserved(
                            evaluator, previous, current,
                            cone.register, report,
                        )
                    if preserved is not None:
                        report.cone_function_preserved[
                            cone.register
                        ] = preserved
            outcome = (
                "accepted" if accepted
                else "rejected (function changed)" if rejected else "kept"
            )
            logger.log(
                logging.INFO if verbose else logging.DEBUG,
                "[mcts] reg %d: pcs %.3f -> %.3f (%s)",
                cone.register, result.initial_reward,
                result.best_reward, outcome,
            )
            if triaged:
                # Cones arrive in headroom order (_triage_cones): a
                # streak of duds means the estimate's remaining headroom
                # is not translating into accepted rewrites -- stop
                # paying for the tail.  Never while the design still
                # synthesizes to nothing: until an accept lifts the PCS
                # off zero every remaining cone is a rescue candidate.
                duds = 0 if accepted else duds + 1
                if (duds >= patience and current_pcs is not None
                        and current_pcs > 1e-12):
                    break
    if sanitizer is not None:
        report.sanitize_checks = sanitizer.checks_run
    if incremental is not None:
        report.reward_patches = incremental.patches
        report.reward_rebases = incremental.rebases
        (report.analysis_delta_hits, report.analysis_fallbacks,
         report.analysis_divergences) = incremental.analysis_counters()
        report.analysis_fallback_reasons = incremental.fallback_reasons()
    oracle_counters = getattr(oracle, "counters", None)
    if oracle_counters is not None:
        (report.oracle_delta_hits, report.oracle_fallbacks,
         report.oracle_divergences) = oracle_counters()
    # Search states are copy-on-write views; hand callers an independent
    # plain graph so the accepted design's lifetime is decoupled from
    # the search base and later mutations cannot alias other states.
    if isinstance(current, GraphView):
        current = current.materialize()
    report.graph = current
    _publish_metrics(report)
    return report


def _worth_oracle(result: ConeSearchResult) -> bool:
    """Whether a fast-tier improvement justifies a synthesis-oracle call.

    Requires the relative estimate gain to clear
    :data:`repro.tiers.FAST_ORACLE_MARGIN`; below it the candidate is
    rejected outright (see the acceptance loop).
    """
    from ..tiers import FAST_ORACLE_MARGIN

    floor = abs(result.initial_reward) * FAST_ORACLE_MARGIN
    return result.best_reward >= result.initial_reward + max(floor, 1e-12)


def _triage_cones(
    graph: CircuitGraph, cones: list, keep_all: bool = False
) -> list:
    """Fast-tier cone triage: rank cones by redundancy headroom.

    One redundancy fixpoint over the whole graph prices every cone at
    once: a cone's headroom is how many of its interior nodes the
    estimate says will *survive* synthesis -- logic the search could
    still fold away.  Cones are returned in descending-headroom order,
    pre-filtered to :data:`repro.tiers.FAST_CONE_COVERAGE` of the
    circuit's total headroom (``keep_all`` skips the filter -- rescue
    mode for designs that synthesize to nothing): the acceptance loop
    walks them front to back and stops after
    :data:`repro.tiers.FAST_EXIT_PATIENCE` consecutive duds, so the
    skipped tail is where the estimate says an accepted rewrite is
    least likely *and* recent searches agree.  The SCPR drift this
    trades away is measured and bounded by the tier's tolerance gate.
    """
    from ..incr.analysis import analyze_redundancy
    from ..tiers import FAST_CONE_COVERAGE

    survivors = analyze_redundancy(graph).survivors()
    headroom = {
        cone.register: len(survivors.intersection(cone.interior))
        for cone in cones
    }
    total = sum(headroom.values())
    if total == 0:
        return list(cones) if keep_all else cones[:1]
    # Deterministic ranking: headroom first, then the stable register
    # order `all_cones` already established.
    ranked = sorted(
        cones,
        key=lambda cone: (-headroom[cone.register], cone.register),
    )
    if keep_all:
        return ranked
    chosen = []
    covered = 0
    for cone in ranked:
        if chosen and covered >= FAST_CONE_COVERAGE * total:
            break
        chosen.append(cone)
        covered += headroom[cone.register]
    return chosen


#: Failure modes the cone simulation can legitimately hit on a candidate
#: state (cyclic subgraph, missing net, non-converging feedback
#: fixpoint).  Anything else -- a TypeError, an InvariantViolation from
#: the sanitizer -- is a bug in the engine and must propagate.
_CONE_CHECK_ERRORS = (ValueError, KeyError, RuntimeError)


def _cone_function_preserved(
    evaluator: ConeBatchEvaluator,
    before: CircuitGraph,
    after: CircuitGraph,
    register: int,
    report: OptimizationReport,
) -> bool | None:
    """Whether ``register``'s cone computes the same function in both
    states (``None`` when the check itself fails -- the diagnostic and
    the gate must never sink the search).  Suppressed failures are
    counted on ``report.cone_check_failures`` so diagnostic breakage is
    visible instead of silently reading as "unknown"."""
    try:
        return (
            evaluator.signature(before, register).words
            == evaluator.signature(after, register).words
        )
    except _CONE_CHECK_ERRORS:
        report.cone_check_failures += 1
        return None


def random_search_registers(
    graph: CircuitGraph,
    reward_fn: RewardFn | None = None,
    config: MCTSConfig | None = None,
    verbose: bool = False,
    evaluator: ConeBatchEvaluator | None = None,
) -> OptimizationReport:
    """Ablation baseline: random valid swaps with the same budget.

    Mirrors the paper's comparison: "randomly altering edge connections
    on G_val while still ensuring every step is valid... the same number
    of simulations ... adopt the optimal solution identified throughout
    the process."
    """
    config = config or MCTSConfig()
    search_reward, incremental, oracle = _resolve_search_rewards(
        config, reward_fn
    )
    sanitizer = _sanitizer_from_config(config.sanitize, seed=config.seed)
    rng = np.random.default_rng(config.seed)
    current = graph.copy()
    report = OptimizationReport(
        graph=current, incremental=incremental is not None
    )
    current_pcs = (
        oracle(current) if oracle is not None and incremental is None
        else None
    )
    if evaluator is None:
        evaluator = (
            ConeBatchEvaluator(seed=config.seed)
            if config.require_functional_equivalence else None
        )

    with sanitizing(sanitizer):
        for cone in all_cones(current):
            if not cone.interior:
                continue
            if incremental is not None:
                incremental.rebase(current, exact_pcs=current_pcs)
                current_pcs = incremental.base_pcs
            index = SwapIndex([cone.register, *cone.interior])
            live = driving_cone(current, cone.register)
            initial = search_reward(current, live)
            reward_calls = 1
            best_graph, best_reward = current, initial
            state = current
            steps = 0
            rewards_seen = [initial]
            while steps < config.num_simulations:
                swaps = index.sample(state, rng, 1)
                if not swaps:
                    break
                nxt = apply_swap(state, swaps[0])
                steps += 1
                if nxt is None:
                    continue
                state = nxt
                r = search_reward(state, cone)
                reward_calls += 1
                rewards_seen.append(r)
                if r > best_reward:
                    best_reward, best_graph = r, state
                # Periodic restart mirrors the MCTS depth limit.
                if steps % config.max_depth == 0:
                    state = best_graph
            report.cone_results[cone.register] = ConeSearchResult(
                best_graph=best_graph,
                best_reward=best_reward,
                initial_reward=initial,
                simulations=steps,
                rewards_seen=rewards_seen,
                reward_calls=reward_calls,
            )
            report.reward_calls += reward_calls
            if best_reward > initial + 1e-12:
                if sanitizer is not None:
                    # S001: audit the winning state's memo chain before
                    # committing it as the next search base.
                    sanitizer.check_graph_memos(best_graph)
                rejected = False
                if evaluator is not None:
                    # Same hard gate as the MCTS driver: improved states
                    # whose cone function changed (or cannot be checked)
                    # are not committed.
                    preserved = _cone_function_preserved(
                        evaluator, current, best_graph,
                        cone.register, report,
                    )
                    if preserved is not True:
                        rejected = True
                        report.equivalence_rejections += 1
                        if preserved is False:
                            report.cone_function_preserved[
                                cone.register
                            ] = False
                if rejected:
                    pass
                elif oracle is None:
                    current = best_graph
                    current_pcs = None
                    current.edit_origin = None
                else:
                    candidate_pcs = oracle(best_graph)
                    if candidate_pcs > current_pcs + 1e-12:
                        current = best_graph
                        current_pcs = candidate_pcs
                        current.edit_origin = None
            logger.log(
                logging.INFO if verbose else logging.DEBUG,
                "[random] reg %d: pcs %.3f -> %.3f",
                cone.register, initial, best_reward,
            )
    if sanitizer is not None:
        report.sanitize_checks = sanitizer.checks_run
    if incremental is not None:
        report.reward_patches = incremental.patches
        report.reward_rebases = incremental.rebases
        (report.analysis_delta_hits, report.analysis_fallbacks,
         report.analysis_divergences) = incremental.analysis_counters()
        report.analysis_fallback_reasons = incremental.fallback_reasons()
    oracle_counters = getattr(oracle, "counters", None)
    if oracle_counters is not None:
        (report.oracle_delta_hits, report.oracle_fallbacks,
         report.oracle_divergences) = oracle_counters()
    if isinstance(current, GraphView):
        current = current.materialize()
    report.graph = current
    _publish_metrics(report)
    return report
