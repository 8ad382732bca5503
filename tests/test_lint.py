"""Tests for :mod:`repro.lint`: defect injection per rule id, corpus
cleanliness (zero false positives), the runtime sanitizer's tamper
detection, and the lint/sanitize wiring through the API and CLI."""

import dataclasses
import json
import warnings

import pytest

from repro.ir import CircuitGraph, GraphBuilder, GraphView, NodeType
from repro.lint import (
    ERROR,
    INFO,
    WARNING,
    Diagnostic,
    InvariantViolation,
    LintReport,
    Sanitizer,
    get_rule,
    lint_graph,
    lint_netlist,
    rule_catalog,
    rules_for,
    sanitizing,
)


def _fired(report, rule_id):
    return [d for d in report.diagnostics if d.rule == rule_id]


def _clean_graph(name="clean"):
    """a, c -> SUB -> REG -> OUT (valid, no findings of any severity)."""
    b = GraphBuilder(name)
    a = b.input("a", 4)
    c = b.input("c", 4)
    s = b.sub(a, c)
    r = b.reg("r", 4)
    b.drive_reg(r, s)
    b.output("out", r)
    return b.build(), {"a": a, "c": c, "s": s, "r": r}


# ---------------------------------------------------------------------------
# Rule framework
# ---------------------------------------------------------------------------
class TestFramework:
    def test_catalog_covers_every_scope(self):
        ids = {rule.id for rule in rule_catalog()}
        assert {f"L00{k}" for k in range(1, 9)} <= ids
        assert {"N001", "N002", "N003"} <= ids
        assert {f"S00{k}" for k in range(1, 9)} <= ids

    def test_severity_policy(self):
        # Structural invalidity is an error; an unused port is a
        # warning; expected redundancy (the paper's subject) is info.
        for rule_id in ("L001", "L002", "L003", "N001", "N002"):
            assert get_rule(rule_id).severity == ERROR
        assert get_rule("L006").severity == WARNING
        for rule_id in ("L004", "L005", "L007", "L008", "N003"):
            assert get_rule(rule_id).severity == INFO

    def test_rules_for_selection_ignores_other_scopes(self):
        selected = rules_for("graph", ["L007", "N001", "S001"])
        assert [rule.id for rule in selected] == ["L007"]

    def test_unknown_rule_id_raises(self):
        with pytest.raises(KeyError):
            get_rule("L999")

    def test_report_json_round_trip(self):
        g = CircuitGraph("rt")
        g.add_node(NodeType.NOT, 1)
        report = lint_graph(g)
        assert report.diagnostics
        clone = LintReport.from_dict(json.loads(json.dumps(report.to_dict())))
        assert clone.to_dict() == report.to_dict()
        assert [str(d) for d in clone.diagnostics] == [
            str(d) for d in report.diagnostics
        ]

    def test_diagnostic_round_trip_preserves_provenance(self):
        diagnostic = Diagnostic(
            rule="S001", severity=ERROR, message="m", nodes=[1, 2],
            provenance={"memo": "child_map", "edit_chain": [[3, 4]]},
        )
        clone = Diagnostic.from_dict(diagnostic.to_dict())
        assert clone == diagnostic

    def test_ok_vs_clean(self):
        report = LintReport(design="d", diagnostics=[
            Diagnostic(rule="L006", severity=WARNING, message="m"),
        ])
        assert report.ok and not report.clean
        report.diagnostics.append(
            Diagnostic(rule="L001", severity=ERROR, message="m")
        )
        assert not report.ok


# ---------------------------------------------------------------------------
# Defect injection: every graph rule fires on its defect, exactly once
# ---------------------------------------------------------------------------
class TestGraphRuleInjection:
    def test_clean_graph_has_no_findings(self):
        g, _ = _clean_graph()
        assert lint_graph(g).clean

    def test_l001_arity_violation(self):
        g = CircuitGraph("l001")
        g.add_node(NodeType.NOT, 1)
        assert len(_fired(lint_graph(g), "L001")) == 1

    def test_l002_combinational_cycle(self):
        g = CircuitGraph("l002")
        x = g.add_node(NodeType.NOT, 1)
        y = g.add_node(NodeType.NOT, 1)
        g.set_parent(x, 0, y)
        g.set_parent(y, 0, x)
        assert len(_fired(lint_graph(g), "L002")) == 1

    def test_l003_dangling_output(self):
        g = CircuitGraph("l003")
        g.add_node(NodeType.OUT, 4, name="o")
        report = lint_graph(g)
        assert len(_fired(report, "L003")) == 1
        # An undriven OUT is an arity violation too -- both fire.
        assert len(_fired(report, "L001")) == 1

    def _dead_logic_graph(self):
        b = GraphBuilder("dead")
        a = b.input("a", 4)
        n1 = b.not_(a)
        b.not_(n1)  # consumes n1, itself unobserved
        r = b.reg("r", 4)
        b.drive_reg(r, a)
        b.output("out", r)
        return b.graph, n1

    def test_l004_dead_logic(self):
        g, n1 = self._dead_logic_graph()
        fired = _fired(lint_graph(g), "L004")
        assert len(fired) == 1 and fired[0].nodes == [n1]

    def test_l005_fanout_free_node(self):
        g, _ = self._dead_logic_graph()
        assert len(_fired(lint_graph(g), "L005")) == 1

    def test_l006_unused_input(self):
        b = GraphBuilder("l006")
        a = b.input("a", 4)
        b.input("unused", 4)
        r = b.reg("r", 4)
        b.drive_reg(r, a)
        b.output("out", r)
        fired = _fired(lint_graph(b.graph), "L006")
        assert len(fired) == 1 and "unused" in fired[0].message

    def test_l007_duplicate_nodes_commutative(self):
        b = GraphBuilder("l007")
        a = b.input("a", 4)
        c = b.input("c", 4)
        s1 = b.add(a, c)
        s2 = b.add(c, a)  # same node under operand canonicalization
        r = b.reg("r", 4)
        b.drive_reg(r, s1)
        b.output("o1", r)
        b.output("o2", s2)
        fired = _fired(lint_graph(b.graph), "L007")
        assert len(fired) == 1 and sorted(fired[0].nodes) == [s1, s2]

    def test_l007_ignores_noncommutative_operand_order(self):
        b = GraphBuilder("l007b")
        a = b.input("a", 4)
        c = b.input("c", 4)
        d1 = b.sub(a, c)
        d2 = b.sub(c, a)  # different function: NOT a duplicate
        b.output("o1", d1)
        b.output("o2", d2)
        assert not _fired(lint_graph(b.graph), "L007")

    def test_l008_constant_foldable(self):
        b = GraphBuilder("l008")
        a = b.input("a", 4)
        z = b.and_(a, b.const(0, 4))
        r = b.reg("r", 4)
        b.drive_reg(r, z)
        b.output("o", r)
        fired = _fired(lint_graph(b.graph), "L008")
        assert len(fired) == 1 and z in fired[0].nodes

    def test_l008_skips_structurally_invalid_graphs(self):
        g = CircuitGraph("l008-invalid")
        g.add_node(NodeType.AND, 1)
        assert not _fired(lint_graph(g), "L008")


# ---------------------------------------------------------------------------
# Defect injection: netlist rules
# ---------------------------------------------------------------------------
class TestNetlistRuleInjection:
    def _netlist(self, name):
        from repro.synth.netlist import Netlist

        netlist = Netlist(name)
        netlist.ensure_consts()
        return netlist

    def test_n001_floating_net(self):
        netlist = self._netlist("n001")
        x = netlist.add_input("a")
        floating = netlist.new_net()
        out = netlist.add_gate("AND", x, floating)
        netlist.add_output("o", out)
        report = lint_netlist(netlist)
        assert len(_fired(report, "N001")) == 1
        assert floating in _fired(report, "N001")[0].nodes

    def test_n002_multiply_driven_net(self):
        from repro.synth.netlist import Gate

        netlist = self._netlist("n002")
        x = netlist.add_input("a")
        out = netlist.add_gate("NOT", x)
        netlist.gates.append(Gate("NOT", (x,), out))
        netlist.add_output("o", out)
        assert len(_fired(lint_netlist(netlist), "N002")) == 1

    def test_n003_dead_gate(self):
        netlist = self._netlist("n003")
        x = netlist.add_input("a")
        keep = netlist.add_gate("NOT", x)
        netlist.add_gate("AND", x, keep)  # unobserved
        netlist.add_output("o", keep)
        fired = _fired(lint_netlist(netlist), "N003")
        assert len(fired) == 1
        assert fired[0].severity == INFO

    def test_clean_netlist(self):
        from repro.synth.elaborate import elaborate

        g, _ = _clean_graph()
        assert lint_netlist(elaborate(g, check=False)).ok


# ---------------------------------------------------------------------------
# Zero false positives on the shipped designs
# ---------------------------------------------------------------------------
class TestCorpusClean:
    def test_corpus_and_references_lint_clean(self):
        from repro.bench_designs import load_corpus
        from repro.bench_designs.suite import reference_designs
        from repro.synth.elaborate import elaborate

        designs = list(load_corpus()) + list(reference_designs().values())
        assert len(designs) >= 22
        for graph in designs:
            report = lint_graph(graph)
            report.extend(lint_netlist(elaborate(graph, check=False)))
            assert report.clean, f"{graph.name}: {report.summary()}"


# ---------------------------------------------------------------------------
# Sanitizer: tamper detection per S-rule
# ---------------------------------------------------------------------------
class TestSanitizerInjection:
    def test_s001_corrupted_child_map_memo(self):
        g, ids = _clean_graph()
        g.child_map()
        g._child_map_memo[ids["a"]].append(ids["r"])
        with pytest.raises(InvariantViolation) as exc:
            Sanitizer().check_graph_memos(g)
        assert exc.value.diagnostic.rule == "S001"
        assert exc.value.diagnostic.provenance["memo"] == "child_map"

    def test_s001_passes_on_honest_memos(self):
        g, _ = _clean_graph()
        g.child_map()
        g.parent_rows()
        g.edge_list()
        sanitizer = Sanitizer()
        sanitizer.check_graph_memos(g)
        assert sanitizer.checks_run == 1 and sanitizer.violations == 0

    def test_s002_wrong_local_edge_list(self):
        g, ids = _clean_graph()
        with pytest.raises(InvariantViolation) as exc:
            Sanitizer().check_swap_index(g, {ids["r"]}, [], [])
        assert exc.value.diagnostic.rule == "S002"

    def test_s003_lying_touched_list(self):
        from repro.incr import DeltaNetlist

        g, ids = _clean_graph()
        base = DeltaNetlist.from_graph(g, check=False)
        view = GraphView(g)
        # Swap the SUB operands (a - c  ->  c - a): a real functional
        # change the lying empty touched list never re-lowers.
        view.set_parent(ids["s"], 0, ids["c"])
        view.set_parent(ids["s"], 1, ids["a"])
        lying = base.apply_edit(view, [])
        with pytest.raises(InvariantViolation) as exc:
            Sanitizer().check_delta(lying)
        assert exc.value.diagnostic.rule == "S003"
        honest = base.apply_edit(view, [ids["s"]])
        Sanitizer().check_delta(honest)  # must not raise

    def test_s004_tampered_timing_report(self):
        from repro.incr import DeltaNetlist, IncrementalTiming

        g, _ = _clean_graph()
        base = DeltaNetlist.from_graph(g, check=False)
        timing = IncrementalTiming(base, clock_period=2.0)
        report = timing.update(base)
        sanitizer = Sanitizer()
        sanitizer.check_timing(timing, base, report)  # honest: ok
        bad = dataclasses.replace(report, wns=report.wns - 1.0)
        with pytest.raises(InvariantViolation) as exc:
            sanitizer.check_timing(timing, base, bad)
        assert exc.value.diagnostic.rule == "S004"

    def test_s005_tampered_output_words(self):
        from repro.incr import DeltaNetlist
        from repro.synth.simulate import (
            BitParallelSimulator,
            packed_stimulus_word,
        )

        g, _ = _clean_graph()
        base = DeltaNetlist.from_graph(g, check=False)
        netlist = base.materialize(check=False)
        words = {
            name: packed_stimulus_word(0, name, 32)
            for name, _ in netlist.primary_inputs
        }
        observed = BitParallelSimulator(netlist).run_packed(
            {net: words[name] for name, net in netlist.primary_inputs}, 32
        )
        sanitizer = Sanitizer()
        sanitizer.check_simulator(base, words, 32, observed)  # honest: ok
        tampered = dict(observed)
        key = next(iter(tampered))
        tampered[key] ^= 1
        with pytest.raises(InvariantViolation) as exc:
            sanitizer.check_simulator(base, words, 32, tampered)
        assert exc.value.diagnostic.rule == "S005"

    def test_s006_corrupted_area_memo(self):
        from repro.incr import IncrementalReward

        g, ids = _clean_graph()
        engine = IncrementalReward(clock_period=2.0)
        engine.rebase(g)
        # Candidate wiring with overlay provenance: swap the SUB
        # operands (a - c  ->  c - a).
        view = GraphView(g)
        view.set_parent(ids["s"], 0, ids["c"])
        view.set_parent(ids["s"], 1, ids["a"])
        overrides = {ids["s"]: engine._rewired_area(view, ids["s"])}
        sanitizer = Sanitizer()
        sanitizer.check_area_memo(engine, view, overrides)  # honest: ok
        # Corrupt the memo, then serve the candidate's area from it.
        for key in engine._area_memo:
            engine._area_memo[key] += 1.0
        served = {ids["s"]: engine._rewired_area(view, ids["s"])}
        with pytest.raises(InvariantViolation) as exc:
            sanitizer.check_area_memo(engine, view, served)
        assert exc.value.diagnostic.rule == "S006"
        assert exc.value.diagnostic.nodes == [ids["s"]]
        # The diagnostic names the candidate's edit provenance.
        assert exc.value.diagnostic.provenance["overlay_nodes"] == [ids["s"]]

    def test_s006_dropped_inherited_override(self):
        import numpy as np

        from repro.bench_designs import load_design
        from repro.incr import IncrementalReward
        from repro.mcts import Swap, apply_swap, is_applicable

        g = load_design("alu")
        engine = IncrementalReward(clock_period=2.0)
        engine.rebase(g)
        comb = engine._analyzer._comb
        rng = np.random.default_rng(0)

        def successor(state, avoid=()):
            """A legal swap successor rewiring two comb nodes not in
            ``avoid``."""
            edges = state.edge_list()
            while True:
                i, j = edges[rng.integers(len(edges))]
                p, q = edges[rng.integers(len(edges))]
                swap = Swap(i, j, p, q)
                if (j in comb and q in comb and not {j, q} & set(avoid)
                        and is_applicable(state, swap)):
                    nxt = apply_swap(state, swap)
                    if nxt is not None:
                        return nxt

        first = successor(g)
        with sanitizing(Sanitizer()) as sanitizer:
            engine(first, None)  # honest: ok
        inherited = first._area_overrides[2]
        second = successor(first, avoid=inherited)
        with sanitizing(sanitizer):
            engine(second, None)  # honest: ok, inherits both keys
        assert set(inherited) <= set(second._area_overrides[2])
        # Drop one inherited key from the predecessor's memo: the
        # successor's overrides silently lose that node's rewired area.
        dropped = min(inherited)
        del inherited[dropped]
        del second._area_overrides
        with pytest.raises(InvariantViolation) as exc:
            with sanitizing(Sanitizer()):
                engine(second, None)
        assert exc.value.diagnostic.rule == "S006"
        assert exc.value.diagnostic.nodes == [dropped]

    def test_s007_tampered_analysis_baseline(self):
        from repro.incr.analysis import RedundancyAnalyzer

        g, ids = _clean_graph()
        analyzer = RedundancyAnalyzer(g)
        analyzer.capture_baseline(g, analyzer.full_analyze(g))
        view = GraphView(g)
        view.set_parent(ids["s"], 0, ids["c"])
        view.set_parent(ids["s"], 1, ids["a"])
        touched = [ids["s"]]
        with sanitizing(Sanitizer()):
            analyzer.analyze(view, touched=touched)  # honest: ok
        assert analyzer.delta_hits == 1 and analyzer.delta_divergences == 0
        # Corrupt a converged baseline ref *outside* the dirty cone: the
        # delta overlay reuses it verbatim, diverging from the full
        # fixpoint the sanitizer re-runs.  (The OUT node, specifically:
        # a corrupt ref *upstream* of a register trips the analyzer's
        # own reg_ref_changed fallback and never reaches the report.)
        out = g.outputs()[0]
        analyzer._b_refs[out] = analyzer._b_refs[ids["r"]]
        with pytest.raises(InvariantViolation) as exc:
            with sanitizing(Sanitizer()):
                analyzer.analyze(view, touched=touched)
        assert exc.value.diagnostic.rule == "S007"
        # The diagnostic carries the edit provenance the delta ran on.
        assert exc.value.diagnostic.provenance["touched"] == touched
        assert exc.value.diagnostic.provenance["overlay_nodes"] == [ids["s"]]

    def test_s008_poisoned_shared_word_pool(self):
        from repro.mcts import CrossCircuitQueue
        from repro.mcts.cones import all_cones

        g, _ = _clean_graph()
        cone = next(c for c in all_cones(g) if c.interior)
        queue = CrossCircuitQueue(seed=0)
        with sanitizing(Sanitizer(checks=["S008"])) as sanitizer:
            queue.evaluator(0).signature(g, cone.register)  # honest: ok
        assert sanitizer.checks_run == 1 and sanitizer.violations == 0
        # Poison one shared stimulus word: every circuit served from the
        # pool now sees stimulus a solo evaluator would never derive.
        key = next(iter(queue._words))
        queue._words[key] ^= 0xFFFF
        # Drop the patch lineage so the next signature re-reads inputs.
        queue.evaluator(0)._cone_deltas.clear()
        queue.evaluator(0)._cone_sims.clear()
        with pytest.raises(InvariantViolation) as exc:
            with sanitizing(Sanitizer(checks=["S008"])):
                queue.evaluator(0).signature(g, cone.register)
        assert exc.value.diagnostic.rule == "S008"
        assert exc.value.diagnostic.nodes == [cone.register]
        assert exc.value.diagnostic.provenance["circuit_key"] == 0

    def test_checks_subset_restricts_audits(self):
        g, ids = _clean_graph()
        sanitizer = Sanitizer(checks=["S001"])
        sanitizer.check_swap_index(g, {ids["r"]}, [], [])  # S002 disabled
        assert sanitizer.checks_run == 0


# ---------------------------------------------------------------------------
# The regression the sanitizer exists for: a missing memo invalidation
# ---------------------------------------------------------------------------
class TestMemoInvalidationRegression:
    def test_pruned_invalidation_list_is_detected(self, monkeypatch):
        import repro.ir.graph as ir_graph

        monkeypatch.setattr(
            ir_graph, "_WIRING_MEMOS",
            tuple(
                memo for memo in ir_graph._WIRING_MEMOS
                if memo != "_child_map_memo"
            ),
        )
        g, ids = _clean_graph()
        view = GraphView(g)
        view.child_map()                       # prime the memo
        view.set_parent(ids["r"], 0, ids["a"])  # rewire the register
        assert "_child_map_memo" in view.__dict__, (
            "the memo should have survived the pruned invalidation list"
        )
        with pytest.raises(InvariantViolation) as exc:
            Sanitizer().check_graph_memos(view)
        diagnostic = exc.value.diagnostic
        assert diagnostic.rule == "S001"
        assert diagnostic.provenance["memo"] == "child_map"
        assert diagnostic.provenance["state"] == "GraphView"
        assert diagnostic.nodes  # names the stale fanout rows


# ---------------------------------------------------------------------------
# Sanitized search: pure auditing, bit-identical results
# ---------------------------------------------------------------------------
class TestSanitizedSearch:
    def _config(self, **kwargs):
        from repro.mcts import MCTSConfig

        return MCTSConfig(
            num_simulations=15, max_depth=4, branching=3, seed=5, **kwargs
        )

    def test_sanitized_run_is_bit_identical(self):
        from repro.bench_designs import load_design
        from repro.mcts import optimize_registers
        from repro.mcts.reward import structural_fingerprint

        graph = load_design("traffic_light")
        plain = optimize_registers(graph, config=self._config())
        audited = optimize_registers(
            graph, config=self._config(sanitize=True)
        )
        assert plain.sanitize_checks == 0
        assert audited.sanitize_checks > 0
        assert structural_fingerprint(plain.graph) == structural_fingerprint(
            audited.graph
        )
        for register, result in plain.cone_results.items():
            other = audited.cone_results[register]
            assert result.rewards_seen == other.rewards_seen
            assert result.best_reward == other.best_reward

    def test_env_var_activates_and_restricts(self, monkeypatch):
        from repro.lint.sanitize import env_sanitize, from_config

        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert not env_sanitize()
        assert from_config(False) is None
        assert from_config(True) is not None

        monkeypatch.setenv("REPRO_SANITIZE", "1")
        sanitizer = from_config(False)
        assert sanitizer is not None and sanitizer.enabled is None

        monkeypatch.setenv("REPRO_SANITIZE", "S001,s003")
        sanitizer = from_config(False)
        assert sanitizer.enabled == {"S001", "S003"}
        assert sanitizer.wants("S001") and not sanitizer.wants("S002")

        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert from_config(False) is None

    def test_context_is_scoped(self):
        from repro.lint.sanitize import current_sanitizer, is_sanitizing

        assert current_sanitizer() is None
        sanitizer = Sanitizer()
        with sanitizing(sanitizer):
            assert current_sanitizer() is sanitizer
            assert is_sanitizing()
        assert current_sanitizer() is None
        with sanitizing(None):  # no-op form used by the drivers
            assert not is_sanitizing()


# ---------------------------------------------------------------------------
# API + CLI wiring
# ---------------------------------------------------------------------------
class TestLintWiring:
    def test_session_lint_by_name(self):
        from repro.api import LintRequest, Session

        session = Session(preset="fast", use_cache=False)
        report = session.lint("alu")
        assert report.ok
        assert "N003" in {d.rule for d in report.diagnostics}
        selected = session.lint(
            LintRequest("alu", rules=["L007"], netlist=False)
        )
        assert selected.checked == ["L007"]

    def test_lint_request_round_trip(self):
        from repro.api import LintRequest

        g, _ = _clean_graph()
        for request in (
            LintRequest("alu", netlist=False, rules=["L001", "N001"]),
            LintRequest(g),
        ):
            clone = LintRequest.from_dict(
                json.loads(json.dumps(request.to_dict()))
            )
            assert clone.netlist == request.netlist
            assert clone.rules == request.rules

    def test_generate_request_round_trip_keeps_sanitize(self):
        from repro.api import GenerateRequest

        request = GenerateRequest(count=2, sanitize=True)
        clone = GenerateRequest.from_dict(
            json.loads(json.dumps(request.to_dict()))
        )
        assert clone.sanitize is True

    def test_cli_lint_clean_design(self, capsys):
        from repro.cli import main

        assert main(["lint", "uart_tx"]) == 0
        out = capsys.readouterr().out
        assert "uart_tx" in out and "0 failing" in out

    def test_cli_lint_json_and_strict(self, capsys, tmp_path):
        from repro.cli import main

        g = CircuitGraph("bad")
        g.add_node(NodeType.NOT, 1)
        path = tmp_path / "bad.json"
        path.write_text(g.to_json())
        assert main(["lint", str(path), "--json"]) == 1
        reports = json.loads(capsys.readouterr().out)
        assert any(
            d["rule"] == "L001" for d in reports[0]["diagnostics"]
        )

    def test_engine_lint_gate_passes_valid_output(self):
        from repro.api import SynCircuitConfig, SynCircuit
        from repro.bench_designs import load_corpus
        from repro.mcts import MCTSConfig

        config = SynCircuitConfig(
            use_diffusion=False,
            reward="synthesis",
            lint_generated=True,
            mcts=MCTSConfig(num_simulations=5, max_depth=3, branching=2),
        )
        engine = SynCircuit(config)
        engine.fit(sorted(load_corpus(), key=lambda g: g.num_nodes)[:3])
        import numpy as np

        record = engine.generate_one(
            24, np.random.default_rng(0), optimize=False
        )
        assert record.graph.num_nodes == 24


# ---------------------------------------------------------------------------
# The repro.ir.validate deprecation shim
# ---------------------------------------------------------------------------
class TestValidateShim:
    def test_shim_attribute_access_warns(self):
        import repro.ir.validate as shim

        with pytest.warns(DeprecationWarning, match="assert_valid"):
            shim.assert_valid
        with pytest.raises(AttributeError):
            shim.not_a_name

    def test_package_reexport_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            from repro.ir import assert_valid  # noqa: F401
            from repro.lint import validate as _validate  # noqa: F401

    def test_shim_resolves_same_objects(self):
        import repro.ir.validate as shim
        from repro.lint import constraints

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            assert shim.validate is constraints.validate
            assert shim.ValidationReport is constraints.ValidationReport
