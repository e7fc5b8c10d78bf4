import random
import re

import pytest

from cosma import frontend, model, reach
from gensys import random_system
from oracles import all_valuations, guard_holds, reachable_by_stepping

ONE_STATE = "system one { machine m { init s; state s { -> s when 1; } } }"


@pytest.fixture(scope="module")
def one_state_rg():
    system = frontend.parse_system(ONE_STATE, "one.csm").system
    return reach.build_rg_explicit(system)


class TestExplicit:
    def test_tlc_has_thirteen_states(self, tlc_rg):
        assert len(tlc_rg) == 13
        assert tlc_rg.system.product_size() == 36

    def test_single_self_loop(self, one_state_rg):
        assert len(one_state_rg) == 1
        assert len(one_state_rg.edges) == 1
        edge = one_state_rg.edges[0]
        assert (edge.src, edge.dst) == (0, 0)
        assert edge.guard == one_state_rg.manager.TRUE

    def test_initial_node_is_index_zero(self, tlc_rg):
        assert tlc_rg.nodes[0] == tlc_rg.system.initial_state()

    def test_edge_guards_are_environment_only(self, tlc_rg, tlc_car_rg):
        for rg in (tlc_rg, tlc_car_rg):
            env = {s.name for s in model.env_alphabet(rg.system)}
            for edge in rg.edges:
                assert set(rg.manager.support(edge.guard)) <= env

    def test_edge_guards_satisfiable(self, tlc_rg):
        env = model.env_alphabet(tlc_rg.system)
        for edge in tlc_rg.edges:
            assert any(guard_holds(tlc_rg, edge.guard, v) for v in all_valuations(env))

    def test_every_step_replays(self, tlc_rg):
        # any env valuation satisfying an edge guard can produce that move
        system = tlc_rg.system
        env = model.env_alphabet(system)
        for edge in tlc_rg.edges:
            for valuation in all_valuations(env):
                if guard_holds(tlc_rg, edge.guard, valuation):
                    succs = model.step_successors(system, tlc_rg.nodes[edge.src], valuation)
                    assert tlc_rg.nodes[edge.dst] in succs

    def test_agrees_with_step_semantics_reachability(self, tlc_rg):
        assert set(tlc_rg.nodes) == reachable_by_stepping(tlc_rg.system)

    def test_random_systems_edges_replay_and_match_stepping(self):
        rng = random.Random(55)
        for _ in range(6):
            system = random_system(rng)
            rg = reach.build_rg_explicit(system)
            env = model.env_alphabet(system)
            assert set(rg.nodes) == reachable_by_stepping(system)
            for edge in rg.edges:
                assert set(rg.manager.support(edge.guard)) <= {s.name for s in env}
                for valuation in all_valuations(env):
                    if guard_holds(rg, edge.guard, valuation):
                        succs = model.step_successors(system, rg.nodes[edge.src], valuation)
                        assert rg.nodes[edge.dst] in succs

    def test_deterministic_construction(self, tlc_system):
        first = reach.build_rg_explicit(tlc_system)
        second = reach.build_rg_explicit(tlc_system)
        assert first.nodes == second.nodes
        assert [(e.src, e.dst) for e in first.edges] == [(e.src, e.dst) for e in second.edges]
        assert reach.json_text(first) == reach.json_text(second)

    def test_quiescent_detection(self, one_state_rg):
        assert one_state_rg.quiescent == frozenset({0})

    def test_trap_state_is_quiescent(self):
        text = """
        system trap {
          machine m {
            init a;
            state a { -> b when go; -> a when ~go; }
            state b { }
          }
        }
        """
        system = frontend.parse_system(text, "trap.csm").system
        rg = reach.build_rg_explicit(system)
        names = {rg.node_name(i) for i in rg.quiescent}
        assert names == {"(b)"}

    def test_tlc_is_never_quiescent(self, tlc_rg):
        assert tlc_rg.quiescent == frozenset()


class TestSymbolic:
    def test_tlc_count(self, tlc_system):
        assert reach.build_rg_symbolic(tlc_system).count == 13

    def test_one_state_count(self):
        system = frontend.parse_system(ONE_STATE, "one.csm").system
        assert reach.build_rg_symbolic(system).count == 1

    def test_count_equals_masked_sat_count(self, tlc_system):
        sym = reach.build_rg_symbolic(tlc_system)
        total_bits = sum(len(bits) for bits in sym.current_bits)
        assert sym.count == sym.manager.sat_count(sym.reachable, 2 * total_bits) >> total_bits

    def test_both_backends_give_the_same_count(self, tlc_system, backend):
        assert reach.build_rg_symbolic(tlc_system, backend=backend).count == 13

    def test_cross_engine_on_bundled_models(self, tlc_car_system, tlc_car_rg):
        assert reach.build_rg_symbolic(tlc_car_system).count == len(tlc_car_rg)

    def test_cross_engine_on_random_systems(self):
        rng = random.Random(2024)
        for _ in range(8):
            system = random_system(rng)
            explicit = reach.build_rg_explicit(system)
            symbolic = reach.build_rg_symbolic(system)
            assert symbolic.count == len(explicit), frontend.system_to_text(system)
            for node in explicit.nodes:
                true_bits = [
                    bit
                    for bits, idx in zip(symbolic.current_bits, node)
                    for k, bit in enumerate(bits)
                    if idx >> k & 1
                ]
                assert symbolic.manager.evaluate(symbolic.reachable, true_bits), node


class TestExport:
    def test_dot_node_statements(self, tlc_rg):
        dot = reach.to_dot(tlc_rg)
        node_lines = [l for l in dot.splitlines() if re.match(r"  n\d+ \[", l)]
        assert len(node_lines) == 13
        assert dot.count("[label=") == 13 + len(tlc_rg.edges)
        assert dot.count("peripheries=2") == 1  # initial node double-circled

    def test_dot_single_node(self, one_state_rg):
        dot = reach.to_dot(one_state_rg)
        node_lines = [l for l in dot.splitlines() if re.match(r"  n\d+ \[", l)]
        assert len(node_lines) == 1

    def test_dot_byte_identical(self, tlc_system):
        first = reach.to_dot(reach.build_rg_explicit(tlc_system))
        second = reach.to_dot(reach.build_rg_explicit(tlc_system))
        assert first == second

    def test_dot_mentions_guards_and_outputs(self, tlc_rg):
        dot = reach.to_dot(tlc_rg)
        assert "(sHG, TSidle, TLidle)" in dot
        assert "Car" in dot

    def test_json_schema(self, tlc_rg):
        doc = reach.to_json(tlc_rg)
        assert doc["system"] == "tlc"
        assert len(doc["nodes"]) == 13
        node = doc["nodes"][0]
        assert set(node) == {"states", "outputs", "quiescent"}
        assert node["states"] == ["sHG", "TSidle", "TLidle"]
        assert node["outputs"] == ["FR", "HG", "StartTL"]
        edge = doc["edges"][0]
        assert set(edge) == {"src", "dst", "guard"}
        assert all(0 <= e["src"] < 13 and 0 <= e["dst"] < 13 for e in doc["edges"])
