import inspect
import itertools
import json
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cosma import assets, frontend, model, reach, robdd
import oracles
import gensys
from gensys import random_system
from oracles import (
    all_valuations,
    explicit_rg,
    guard_holds,
    product_rg_explicit,
    reachable_by_stepping,
    whole_set_reachable,
)

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

    def test_graph_is_built_from_five_fields(self, tlc_rg):
        fields = list(inspect.signature(reach.ReachGraph).parameters)
        assert fields == ["system", "nodes", "edges", "outputs", "manager"]
        rebuilt = reach.ReachGraph(**{name: getattr(tlc_rg, name) for name in fields})
        for i in range(len(tlc_rg)):
            assert rebuilt.out_edges(i) == [e for e in tlc_rg.edges if e.src == i]
            assert rebuilt.predecessors(i) == [e.src for e in tlc_rg.edges if e.dst == i]

    def test_node_without_out_edges_fails_the_totality_check(self, tlc_rg):
        # node 0's out-edges dropped: the step relation is no longer total
        edges = [e for e in tlc_rg.edges if e.src != 0]
        with pytest.raises(AssertionError, match="total"):
            reach.ReachGraph(tlc_rg.system, tlc_rg.nodes, edges, tlc_rg.outputs, tlc_rg.manager)

    # seeds 4 and 35 renumber nodes if the leaves are left in the order of
    # the merged moves instead of that of their first satisfiable combination
    @settings(deadline=None, max_examples=200)
    @given(seed=st.integers(0, 10**6))
    @example(seed=4)
    @example(seed=35)
    def test_same_graph_as_the_product_of_moves(self, seed):
        system = random_system(random.Random(seed), max_machines=4, max_states=4, max_env=3)
        expected, rg = product_rg_explicit(system), reach.build_rg_explicit(system)
        assert rg.nodes == expected.nodes
        assert [(e.src, e.dst) for e in rg.edges] == [(e.src, e.dst) for e in expected.edges]
        assert rg.quiescent == expected.quiescent
        assert reach.json_text(rg) == reach.json_text(expected)
        assert reach.to_dot(rg) == reach.to_dot(expected)

    @settings(deadline=None, max_examples=150)
    @given(seed=st.integers(0, 10**6))
    def test_same_graph_as_the_walk_at_every_node(self, seed):
        system = random_system(random.Random(seed), max_machines=5, max_states=4, max_env=3)
        assert_same_graph(reach.build_rg_explicit(system), explicit_rg(system))

    @pytest.mark.parametrize("family, sizes", [
        ("toggles", range(2, 6)), ("ring", range(3, 9)), ("parallel", range(2, 6)),
        ("kguard", range(1, 5)), ("cycle", range(1, 6)),
    ])
    def test_families_same_graph_as_the_walk_at_every_node(self, family, sizes):
        for n in sizes:
            system = getattr(gensys, family)(n)
            assert_same_graph(reach.build_rg_explicit(system), explicit_rg(system))

    def test_bundled_same_graph_as_the_walk_at_every_node(self, tlc_system, tlc_car_system):
        mutant = frontend.parse_system(
            assets.text("tlc.csm").replace("-> sFG when TimTS;", ""), "mutant.csm").system
        for system in (tlc_system, tlc_car_system, mutant):
            assert_same_graph(reach.build_rg_explicit(system), explicit_rg(system))

    def test_a_machine_without_a_choice_still_orders_the_leaves(self):
        # M0 always moves to b, by y or by ~y; M1 moves to A by ~y and to B
        # by y.  The first combination of moves into (b, B) is (y, y), which
        # comes before (~y, ~y) into (b, A), so (b, B) is found first: a sort
        # that skipped M0 would put A, M1's first move, first
        text = """system S {
          machine M0 { init a; state a { -> b when y; -> b when ~y; } state b { } }
          machine M1 { init p; state p { -> A when ~y; -> B when y; } state A { } state B { } }
        }"""
        system = frontend.parse_system(text, "s.csm").system
        assert reach.build_rg_explicit(system).nodes == [(0, 0), (1, 2), (1, 1)]
        assert product_rg_explicit(system).nodes == [(0, 0), (1, 2), (1, 1)]

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_toggles_take_ands_in_proportion_to_the_nodes(self, monkeypatch, n):
        # every one of the 2^n nodes offers the same guards, x_i and ~x_i per
        # machine, so one pruned walk of 2^(n+1) - 2 ANDs serves them all;
        # with two more per (machine, state) for the implicit stays the count
        # stays below 4 * 2^n.  A walk at every node takes 2^n (2^(n+1) - 2),
        # which grows as 4^n: 8,064 ANDs at n = 6
        limit_ands(monkeypatch, 4 * 2 ** n)
        rg = reach.build_rg_explicit(gensys.toggles(n))
        assert (len(rg), len(rg.edges)) == (2 ** n, 4 ** n)

    def test_parallel_arcs_take_linearly_many_ands(self, monkeypatch):
        # two complementary arcs into one state per machine: a product of
        # moves makes 2^20 combinations of 20 ANDs each
        n = 20
        machines = "".join(
            f"machine P{i} {{ init a; state a {{ -> b when y{i}; -> b when ~y{i}; }}"
            f" state b {{ out B{i}; -> a when 1; }} }}\n"
            for i in range(n)
        )
        system = frontend.parse_system(f"system Parallel {{\n{machines}}}\n", "p.csm").system
        limit_ands(monkeypatch, 10 * n)
        rg = reach.build_rg_explicit(system)
        assert len(rg) == 2
        assert [(e.src, e.dst, e.guard) for e in rg.edges] == [(0, 1, rg.manager.TRUE),
                                                                (1, 0, rg.manager.TRUE)]

    def test_more_machines_than_the_recursion_limit(self, monkeypatch):
        # more machines than the default recursion limit of 1,000; each one's
        # arc and implicit stay both lead back to ``s``
        n = 1100
        machines = "".join(f"machine M{i} {{ init s; state s {{ -> s when go; }} }}\n"
                           for i in range(n))
        system = frontend.parse_system(f"system Many {{\n{machines}}}\n", "many.csm").system
        limit_ands(monkeypatch, 10 * n)
        rg = reach.build_rg_explicit(system)
        assert rg.nodes == [(0,) * n]
        assert [(e.src, e.dst, e.guard) for e in rg.edges] == [(0, 0, rg.manager.TRUE)]
        assert rg.quiescent == frozenset({0})


def assert_same_graph(rg, expected) -> None:
    """``rg`` has the nodes, outputs and edges of ``expected``, and the same exports."""
    assert rg.nodes == expected.nodes
    assert rg.outputs == expected.outputs
    assert [(e.src, e.dst) for e in rg.edges] == [(e.src, e.dst) for e in expected.edges]
    assert reach.json_text(rg) == reach.json_text(expected)
    assert reach.to_dot(rg) == reach.to_dot(expected)


def limit_ands(monkeypatch, bound: int) -> None:
    """Make ``BddManager.and_`` fail once it has run more than ``bound`` times."""
    and_ = robdd.BddManager.and_
    calls = 0

    def counted(manager, f, g):
        nonlocal calls
        calls += 1
        assert calls <= bound, f"more than {bound} ANDs"
        return and_(manager, f, g)

    monkeypatch.setattr(robdd.BddManager, "and_", counted)


class TestSymbolic:
    def test_tlc_count(self, tlc_system):
        assert reach.build_rg_symbolic(tlc_system).count == 13

    def test_one_state_count(self):
        system = frontend.parse_system(ONE_STATE, "one.csm").system
        assert reach.build_rg_symbolic(system).count == 1

    def test_count_equals_masked_sat_count(self, tlc_system):
        # counted over every declared level: the inputs sit between the
        # machines' bits, so the state bits are not the top levels
        sym = reach.build_rg_symbolic(tlc_system)
        total_bits = sum(len(bits) for bits in sym.current_bits)
        free = total_bits + len(sym.env_vars)  # the next bits and the inputs
        assert sym.count == sym.manager.sat_count(sym.reachable, total_bits + free) >> free

    def test_each_input_follows_its_last_reader(self):
        # ``a`` is read by the first machine and the last, ``b`` by the middle
        # one only and ``pass`` by the last; ``Q`` is produced, not an input
        text = """system S {
          machine M0 { init p; state p { -> q when a; } state q { out Q; -> p when 1; } }
          machine M1 { init p; state p { -> p when b * Q; } }
          machine M2 { init p; state p { -> q when a + pass; } state q { -> p when Q; } }
        }"""
        sym = reach.build_rg_symbolic(frontend.parse_system(text, "s.csm").system)
        names = [v for bits in sym.current_bits + sym.next_bits for v in bits]
        names += sym.env_vars.values()
        assert sorted(names, key=sym.manager.level_of) == [
            "cur[0][0]", "nxt[0][0]", "env[b]", "cur[2][0]", "nxt[2][0]", "env[a]", "env[pass]"]

    def test_toggles_store_grows_linearly(self):
        # each input sits right after its own machine's bits, so n toggles
        # cost n times one: 467 nodes at n = 16 and 947 at n = 32.  With every
        # input below every state bit the store held 721,103 nodes at n = 16
        sizes = []
        for n in (16, 32):
            sym = reach.build_rg_symbolic(gensys.toggles(n))
            assert sym.count == 2 ** n
            sizes.append(len(sym.manager))
            assert sizes[-1] < 40 * n
        assert sizes[1] < 2.1 * sizes[0]

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

    def test_contains_agrees_with_bit_lists(self):
        rng = random.Random(2024)
        for _ in range(8):
            system = random_system(rng)
            explicit = set(reach.build_rg_explicit(system).nodes)
            symbolic = reach.build_rg_symbolic(system)
            nodes_before = len(symbolic.manager)
            for gstate in itertools.product(*(range(len(m.states)) for m in system.machines)):
                true_bits = [
                    bit
                    for bits, idx in zip(symbolic.current_bits, gstate)
                    for k, bit in enumerate(bits)
                    if idx >> k & 1
                ]
                held = symbolic.manager.evaluate(symbolic.reachable, true_bits)
                assert symbolic.contains(gstate) == held == (gstate in explicit), gstate
            assert len(symbolic.manager) == nodes_before

    @settings(deadline=None, max_examples=60)
    @given(seed=st.integers(0, 10**6))
    def test_frontier_fixpoint_agrees_with_whole_set_oracle(self, seed):
        system = random_system(random.Random(seed))
        calls = []
        exists = robdd.BddManager.exists

        def counted(manager, names, f):
            calls.append(f)
            return exists(manager, names, f)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(robdd.BddManager, "exists", counted)
            sym = reach.build_rg_symbolic(system)
        assert whole_set_reachable(sym, system) == sym.reachable
        assert len(calls) == bfs_depth(reach.build_rg_explicit(system)) + 1

    def test_token_ring_relation_stays_small(self):
        # 100 two-state machines pass a token round whenever ``pass`` occurs;
        # conjoining the machine relations left to right makes 135,242 nodes,
        # from the last machine to the first about 41,000
        machines = "".join(
            f"machine R{i} {{ init {'tok' if i == 0 else 'idle'};"
            f" state idle {{ -> tok when T{(i - 1) % 100} * pass;"
            f" -> idle when ~(T{(i - 1) % 100} * pass); }}"
            f" state tok {{ out T{i}; -> idle when pass; -> tok when ~pass; }} }}\n"
            for i in range(100)
        )
        system = frontend.parse_system(f"system Ring {{\n{machines}}}\n", "ring.csm").system
        sym = reach.build_rg_symbolic(system)
        assert sym.count == 100
        assert len(sym.manager) < 70_000


def bfs_depth(rg) -> int:
    """The largest breadth-first distance of a node from the initial one."""
    depth = {0: 0}
    queue = [0]
    for node in queue:
        for edge in rg.out_edges(node):
            if edge.dst not in depth:
                depth[edge.dst] = depth[node] + 1
                queue.append(edge.dst)
    return max(depth.values())


def calls_of(name: str, build, system):
    """The number of ``BddManager.<name>`` calls that ``build(system)`` makes, and its result."""
    real = getattr(robdd.BddManager, name)
    calls = 0

    def counted(manager, *args):
        nonlocal calls
        calls += 1
        return real(manager, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(robdd.BddManager, name, counted)
        result = build(system)
    return calls, result


class TestCountGuard:
    """Deterministic counts at two sizes n and 2n, each bounded by the growth
    the problem itself has, so that a blow-up fails in tier-1 whatever the
    machine's speed."""

    # explicit ANDs, measured: ring 8 -> 16 86 -> 166, cycle 50 -> 100
    # 102 -> 202, parallel 8 -> 16 24 -> 48, kguard 16 -> 32 35 -> 67.  The
    # ANDs come from building each (machine, state, outputs read) entry once
    # and from one walk per distinct tuple of offered guards, and each family
    # has O(n) of both; kguard's come from its one n-input conjunction, built
    # for the arc and for its negation.  Linear growth doubles the count;
    # 2.2 leaves room for the constant part
    @pytest.mark.parametrize("family, n", [("ring", 8), ("cycle", 50), ("parallel", 8),
                                           ("kguard", 16)])
    def test_explicit_ands_grow_linearly(self, family, n):
        small, _ = calls_of("and_", reach.build_rg_explicit, getattr(gensys, family)(n))
        large, _ = calls_of("and_", reach.build_rg_explicit, getattr(gensys, family)(2 * n))
        assert large <= 2.2 * small, (small, large)

    # the symbolic store, measured: ring 50 -> 100 10,412 -> 35,912 nodes,
    # cycle 100 -> 200 2,566 -> 5,159, parallel 8 -> 16 168 -> 344 and kguard
    # 16 -> 32 76 -> 156.  The manager frees no node, and ring's fixpoint has
    # m levels that each image an O(m)-node frontier, so its dead
    # intermediates grow as m^2 (ROADMAP item 7): bounded by 4 per doubling.
    # The others grow linearly: bounded by 2.2.  Each fixpoint takes one
    # image step per breadth-first level plus the one that finds nothing new
    @pytest.mark.parametrize("family, n, growth", [("ring", 50, 4), ("cycle", 100, 2.2),
                                                   ("parallel", 8, 2.2), ("kguard", 16, 2.2)])
    def test_symbolic_store_and_image_steps(self, family, n, growth):
        stores = []
        for size in (n, 2 * n):
            system = getattr(gensys, family)(size)
            steps, sym = calls_of("exists", reach.build_rg_symbolic, system)
            assert steps == bfs_depth(reach.build_rg_explicit(system)) + 1
            stores.append(len(sym.manager))
        assert stores[1] <= growth * stores[0], stores

    # the ite table after build_rg_symbolic, measured: ring 50 -> 100 11,697
    # -> 38,547 entries, cycle 100 -> 200 3,335 -> 6,583, parallel 8 -> 16
    # 126 -> 254 and kguard 16 -> 32 74 -> 154.  The table keeps an entry
    # for every ite the build computed, so it grows like the store: ring's
    # as m^2 (ROADMAP item 7), bounded by 4 per doubling, the others
    # linearly, bounded by 2.2
    @pytest.mark.parametrize("family, n, growth", [("ring", 50, 4), ("cycle", 100, 2.2),
                                                   ("parallel", 8, 2.2), ("kguard", 16, 2.2)])
    def test_symbolic_ite_table(self, family, n, growth):
        entries = [len(reach.build_rg_symbolic(getattr(gensys, family)(size)).manager._ite_cache)
                   for size in (n, 2 * n)]
        assert entries[1] <= growth * entries[0], entries

    # the ite entries of model.validate, the guard analysis that only lint
    # and vhdl run, in the one manager it makes; measured: ring 50 -> 100
    # 350 -> 700, cycle 100 -> 200 3 -> 3 and parallel 8 -> 16 24 -> 48,
    # linear in the states and their arcs, bounded by 2.2.  kguard's are
    # exactly 3k + (k/2) log2 k (16, 36, 80, 176, 384, 832 at k = 4 to
    # 128): the pairwise fold of its k-input conjunction, built for the arc
    # and its negation, makes (k/2) log2 k + k, and the coverage OR and the
    # overlap AND walk k levels each.  That grows by 2 (1 + 1 / (6 + log2 k))
    # per doubling, 2.2 at k = 16 and less above, so its bound is 2.3
    @pytest.mark.parametrize("family, n, growth", [("ring", 50, 2.2), ("cycle", 100, 2.2),
                                                   ("parallel", 8, 2.2), ("kguard", 16, 2.3)])
    def test_validate_ite_entries(self, family, n, growth):
        entries = []
        init = robdd.BddManager.__init__
        for size in (n, 2 * n):
            system = getattr(gensys, family)(size)
            managers = []
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(robdd.BddManager, "__init__",
                              lambda manager, *args: managers.append(manager) or init(manager, *args))
                model.validate(system)
            assert len(managers) == 1
            entries.append(len(managers[0]._ite_cache))
        assert entries[1] <= growth * entries[0], entries

    def test_chain_store_grows_more_slowly_than_the_reachable_set(self):
        # 467 / 2,568 / 7,316 nodes against 13 / 130 / 1,233 states at k = 1-3
        stores, counts = [], []
        for k in (1, 2, 3):
            sym = reach.build_rg_symbolic(gensys.tlc_chain(k))
            stores.append(len(sym.manager))
            counts.append(sym.count)
        for k in (1, 2):
            assert stores[k] / stores[k - 1] < counts[k] / counts[k - 1], (stores, counts)


class TestTlcChain:
    """``gensys.tlc_chain(k)``: k copies of the paper's intersection, each
    copy's farm-road sensor fed by its neighbour's farm green."""

    @pytest.mark.parametrize("k, states, edges", [(1, 13, 21), (2, 130, 282), (3, 1233, 3578)])
    def test_reachable_states_and_edges(self, k, states, edges):
        rg = reach.build_rg_explicit(gensys.tlc_chain(k))
        assert (len(rg), len(rg.edges)) == (states, edges)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_nodes_are_those_reached_by_stepping(self, k):
        system = gensys.tlc_chain(k)
        assert set(reach.build_rg_explicit(system).nodes) == reachable_by_stepping(system)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_same_graph_as_the_earlier_engines(self, k):
        system = gensys.tlc_chain(k)
        rg = reach.build_rg_explicit(system)
        assert_same_graph(rg, explicit_rg(system))
        assert_same_graph(rg, product_rg_explicit(system))

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_symbolic_engine_agrees(self, k):
        system = gensys.tlc_chain(k)
        nodes = reach.build_rg_explicit(system).nodes
        sym = reach.build_rg_symbolic(system)
        assert sym.count == len(nodes)
        assert all(sym.contains(node) for node in nodes)


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
        doc = json.loads(reach.json_text(tlc_rg))
        assert doc["system"] == "tlc"
        assert len(doc["nodes"]) == 13
        node = doc["nodes"][0]
        assert set(node) == {"states", "outputs", "quiescent"}
        assert node["states"] == ["sHG", "TSidle", "TLidle"]
        assert node["outputs"] == ["FR", "HG", "StartTL"]
        edge = doc["edges"][0]
        assert set(edge) == {"src", "dst", "guard"}
        assert all(0 <= e["src"] < 13 and 0 <= e["dst"] < 13 for e in doc["edges"])

    @settings(deadline=None, max_examples=200)
    @given(seed=st.integers(0, 10**6))
    def test_exports_match_the_first_exporters(self, seed):
        system = random_system(random.Random(seed), max_machines=4, max_states=4, max_env=3)
        assert_exports_match(reach.build_rg_explicit(system))

    def test_bundled_exports_match_the_first_exporters(self, tlc_rg, tlc_car_rg, one_state_rg):
        for rg in (tlc_rg, tlc_car_rg, one_state_rg):
            assert_exports_match(rg)

    def test_one_isop_per_distinct_guard(self, monkeypatch):
        # four independent toggles: 16 nodes, each with an edge to every node,
        # guarded by the 16 full cubes over the four inputs
        machines = "".join(
            f"machine T{i} {{ init a; state a {{ -> b when x{i}; }}"
            f" state b {{ out B{i}; -> a when x{i}; }} }}\n"
            for i in range(4)
        )
        system = frontend.parse_system(f"system Toggles {{\n{machines}}}\n", "t.csm").system
        rg = reach.build_rg_explicit(system)
        isop = robdd.BddManager.isop
        covered = []

        def counted(manager, f):
            covered.append(f.node)
            return isop(manager, f)

        monkeypatch.setattr(robdd.BddManager, "isop", counted)
        reach.to_dot(rg)
        reach.json_text(rg)
        assert (len(rg), len(rg.edges)) == (16, 256)
        assert sorted(covered) == sorted({edge.guard.node for edge in rg.edges})
        assert len(covered) == 16


def assert_exports_match(rg) -> None:
    """Both exports of ``rg`` equal those of the first exporters, before and
    after the graph keeps its guard texts."""
    text = json.dumps(oracles.to_json(rg), indent=2) + "\n"
    dot = oracles.to_dot(rg)
    assert reach.json_text(rg) == text
    assert reach.to_dot(rg) == dot
    assert reach.json_text(rg) == text
