import random

import pytest

from cosma import assets, frontend, model
from cosma import formula as F
from gensys import BREAKS, broken_system, random_system
from oracles import all_valuations


def names(symbols):
    return sorted(s.name for s in symbols)


class TestEnvAlphabet:
    def test_tlc(self, tlc_system):
        assert names(model.env_alphabet(tlc_system)) == ["Car", "tauTL", "tauTS"]

    def test_tlc_with_car_machine(self, tlc_car_system):
        assert names(model.env_alphabet(tlc_car_system)) == ["go", "tauTL", "tauTS"]

    def test_fully_self_fed_system_has_empty_environment(self):
        tick = F.Symbol("tick")
        machine = model.Machine(
            "m",
            [model.State("s0", frozenset({tick})), model.State("s1", frozenset())],
            "s0",
            [
                model.Arc("s0", "s1", tick),
                model.Arc("s1", "s0", F.Not(tick)),
            ],
        )
        system = model.System("loop", [machine])
        assert model.env_alphabet(system) == frozenset()

    def test_disjoint_from_outputs_by_construction(self):
        rng = random.Random(5)
        for _ in range(10):
            system = random_system(rng)
            assert not (model.env_alphabet(system) & system.produced_symbols())


class TestSymbolOrder:
    def test_guard_symbols_by_first_mention_then_outputs_by_name(self):
        a, b, c, z = (F.Symbol(n) for n in "abcz")
        machine = model.Machine(
            "m",
            [model.State("s", frozenset({z, c})), model.State("t", frozenset())],
            "s",
            [model.Arc("s", "t", F.And(b, F.Not(a))), model.Arc("t", "s", F.Or(a, z))],
        )
        system = model.System("sys", [machine])
        assert system.symbols == ("b", "a", "z", "c")
        assert model.declaration_order(system, model.env_alphabet(system)) == ["b", "a"]

    @pytest.mark.parametrize("name", ["tlc.csm", "tlc_car.csm"])
    def test_environment_follows_the_source_text(self, name):
        text = assets.text(name)
        system = frontend.parse_system(text, name).system
        env = model.env_alphabet(system)
        words = frontend._lex(text, name, glyphs=False)[0]
        first_seen = list(dict.fromkeys(w for w in words if w in env))
        assert model.declaration_order(system, env) == first_seen
        assert len(first_seen) == len(env) == 3


class TestOutputValuation:
    def test_tlc_initial(self, tlc_system):
        got = model.output_valuation(tlc_system, tlc_system.initial_state())
        assert names(got) == ["FR", "HG", "StartTL"]

    def test_controller_yellow_phase(self, tlc_system):
        controller = tlc_system.machines[0]
        ts = tlc_system.machines[1]
        tl = tlc_system.machines[2]
        g = (
            controller.state_index("sHY"),
            ts.state_index("TSrun"),
            tl.state_index("TLidle"),
        )
        assert names(model.output_valuation(tlc_system, g)) == [
            "AckTL",
            "FR",
            "HY",
            "StartTS",
        ]

    def test_silent_state_alone(self):
        machine = model.Machine(
            "m", [model.State("quiet", frozenset())], "quiet",
            [model.Arc("quiet", "quiet", F.TRUE)],
        )
        system = model.System("s", [machine])
        assert model.output_valuation(system, (0,)) == frozenset()


class TestEnabledArcs:
    def test_short_timer_elapsed_always_returns(self, tlc_system):
        ts = tlc_system.machines[1]
        elap = ts.state_index("TSelap")
        for valuation in all_valuations(model.env_alphabet(tlc_system)):
            enabled = model.enabled_arcs(ts, elap, valuation)
            assert [a.dst for a in enabled] == ["TSidle"]

    def test_long_timer_reset_while_running(self, tlc_system):
        tl = tlc_system.machines[2]
        run = tl.state_index("TLrun")
        enabled = model.enabled_arcs(tl, run, {F.Symbol("ResTL")})
        assert [a.dst for a in enabled] == ["TLidle"]

    def test_complementary_guards(self):
        sig = F.Symbol("a")
        machine = model.Machine(
            "m",
            [model.State("s", frozenset()), model.State("t", frozenset())],
            "s",
            [
                model.Arc("s", "t", sig),
                model.Arc("s", "s", F.Not(sig)),
            ],
        )
        enabled = model.enabled_arcs(machine, 0, frozenset())
        assert len(enabled) == 1 and enabled[0].dst == "s"

    def test_agreement_with_eval_on_random_systems(self):
        rng = random.Random(9)
        for _ in range(8):
            system = random_system(rng)
            env = model.env_alphabet(system)
            for machine in system.machines:
                for idx in range(len(machine.states)):
                    for valuation in all_valuations(env):
                        full = valuation | machine.states[idx].outputs
                        enabled = model.enabled_arcs(machine, idx, full)
                        assert set(enabled) <= set(machine.arcs_from(idx))
                        for arc in machine.arcs_from(idx):
                            assert (arc in enabled) == F.evaluate(arc.guard, full)


class TestValidate:
    def test_tlc_is_clean(self, tlc_system):
        report = model.validate(tlc_system)
        assert report.errors == []
        # the only warnings are the environment-input notes
        assert {e.code for e in report.warnings} == {"env-symbol"}

    def test_missing_initial_state(self):
        machine = model.Machine(
            "m", [model.State("s", frozenset())], "nope",
            [model.Arc("s", "s", F.TRUE)],
        )
        report = model.validate(model.System("sys", [machine]))
        assert len(report.errors) == 1
        assert report.errors[0].code == "bad-initial"

    def test_dangling_arc_target(self):
        machine = model.Machine(
            "m", [model.State("s", frozenset())], "s",
            [model.Arc("s", "ghost", F.TRUE)],
        )
        report = model.validate(model.System("sys", [machine]))
        assert [e.code for e in report.errors] == ["bad-arc"]

    def test_duplicate_state_names(self):
        machine = model.Machine(
            "m",
            [model.State("s", frozenset()), model.State("s", frozenset())],
            "s",
            [model.Arc("s", "s", F.TRUE)],
        )
        report = model.validate(model.System("sys", [machine]))
        assert any(e.code == "duplicate-state" for e in report.errors)

    def test_empty_machine(self):
        # the parser rejects a machine without states, so only the API builds one
        report = model.validate(model.System("sys", [model.Machine("m", [], "s", [])]))
        assert [(e.code, e.machine) for e in report.errors] == [("empty-machine", 0)]

    def test_full_coverage_has_no_gap_warning(self, tlc_system):
        # sHG's pair Car*TimTL / ~(Car*TimTL) covers everything
        report = model.validate(tlc_system)
        assert not any(e.code == "coverage-gap" for e in report.entries)

    def test_gap_warning_when_guards_do_not_cover(self):
        a = F.Symbol("a")
        machine = model.Machine(
            "m",
            [model.State("s", frozenset()), model.State("t", frozenset())],
            "s",
            [model.Arc("s", "t", a), model.Arc("t", "t", F.TRUE)],
        )
        report = model.validate(model.System("sys", [machine]))
        assert report.ok
        gaps = [e for e in report.warnings if e.code == "coverage-gap"]
        assert [(e.machine, e.state) for e in gaps] == [(0, 0)]

    def test_overlap_warning(self):
        a, b = F.Symbol("a"), F.Symbol("b")
        machine = model.Machine(
            "m",
            [model.State("s", frozenset()), model.State("t", frozenset())],
            "s",
            [
                model.Arc("s", "t", a),
                model.Arc("s", "s", F.Or(b, F.Not(a))),
            ],
        )
        report = model.validate(model.System("sys", [machine]))
        assert any(e.code == "overlap" for e in report.warnings)

    def test_shared_output_warning(self):
        sig = F.Symbol("sig")
        mk = lambda name: model.Machine(
            name, [model.State("s", frozenset({sig}))], "s",
            [model.Arc("s", "s", F.TRUE)],
        )
        report = model.validate(model.System("sys", [mk("m1"), mk("m2")]))
        assert report.ok
        assert any(e.code == "shared-output" for e in report.warnings)

    def test_shared_output_warnings_come_in_name_order(self):
        outputs = frozenset(F.Symbol(n) for n in "xyzw")
        mk = lambda name: model.Machine(
            name, [model.State("s", outputs)], "s", [model.Arc("s", "s", F.TRUE)],
        )
        report = model.validate(model.System("sys", [mk("m1"), mk("m2")]))
        shared = [e.message for e in report.warnings if e.code == "shared-output"]
        assert shared == [f"symbol {n!r} is produced by machines 'm1' and 'm2'" for n in "wxyz"]

    def test_pure(self, tlc_system):
        assert model.validate(tlc_system) == model.validate(tlc_system)

    def test_guard_atoms_are_collected_once_per_arc(self, monkeypatch):
        # a 50-machine token ring, 200 arcs: parsing, validating and asking
        # for the symbol sets again walk the guards of a system once
        from cosma import frontend

        n = 50
        machines = "".join(
            f"machine R{i} {{ init {'tok' if i == 0 else 'idle'};"
            f" state idle {{ -> tok when T{i - 1} * pass; -> idle when ~(T{i - 1} * pass); }}"
            f" state tok {{ out T{i}; -> idle when pass; -> tok when ~pass; }} }}\n"
            for i in range(n)
        ).replace("T-1", f"T{n - 1}")
        walks = []
        guards_read = vars(model.System)["_guards_read"]
        real = guards_read.func
        monkeypatch.setattr(guards_read, "func", lambda system: walks.append(system) or real(system))
        result = frontend.parse_system(f"system Ring {{\n{machines}}}\n", "ring.csm")
        assert result.ok
        system = result.system
        assert names(model.env_alphabet(system)) == ["pass"]
        model.validate(system)
        system.guard_symbols()
        assert len(system.symbols) == n + 1
        assert sum(len(m.arcs) for m in system.machines) == 4 * n
        assert len(walks) == 1 and walks[0] is system


class TestStructure:
    """``System.structure``, the structural pass: every error of ``validate``'s
    report, in order, and the warnings that come before the guard analysis."""

    @staticmethod
    def assert_validate_builds_on_it(system):
        report = model.validate(system)
        assert system.structure.errors == report.errors
        assert report.entries[:len(system.structure.entries)] == system.structure.entries

    def test_random_systems(self):
        for seed in range(150):
            self.assert_validate_builds_on_it(random_system(random.Random(seed)))

    @pytest.mark.parametrize("kind", BREAKS)
    def test_each_break(self, kind):
        for seed in range(40):
            system = broken_system(random.Random(seed), [kind])
            assert kind in {e.code for e in system.structure.errors}
            self.assert_validate_builds_on_it(system)

    def test_broken_systems(self):
        for seed in range(150):
            system = broken_system(random.Random(seed))
            assert system.structure.errors
            self.assert_validate_builds_on_it(system)

    def test_a_shared_output_keeps_its_place_among_the_errors(self):
        x = F.Symbol("x")
        a = model.Machine("A", [model.State("s", frozenset({x}))], "s", [])
        b = model.Machine("B", [model.State("t", frozenset({x})), model.State("t", frozenset())],
                          "zz", [model.Arc("t", "ghost", F.TRUE)])
        system = model.System("sys", [a, b])
        assert [e.code for e in system.structure.entries] == [
            "shared-output", "duplicate-state", "bad-initial", "bad-arc"]
        self.assert_validate_builds_on_it(system)

    def test_runs_no_guard_analysis(self, tlc_system, monkeypatch):
        monkeypatch.setattr(F, "GuardContext", None)  # a guard analysis would call it
        system = model.System(tlc_system.name, tlc_system.machines)
        assert system.structure.entries == []


class TestStepSemantics:
    def test_self_feedback_leaves_state(self):
        # the state's own output satisfies the guard out of it
        go = F.Symbol("go")
        machine = model.Machine(
            "m",
            [model.State("a", frozenset({go})), model.State("b", frozenset())],
            "a",
            [model.Arc("a", "b", go), model.Arc("b", "b", F.TRUE)],
        )
        system = model.System("sys", [machine])
        assert model.step_successors(system, (0,), frozenset()) == [(1,)]

    def test_stuck_component_stays(self):
        a = F.Symbol("a")
        machine = model.Machine(
            "m",
            [model.State("s", frozenset()), model.State("t", frozenset())],
            "s",
            [model.Arc("s", "t", a)],
        )
        system = model.System("sys", [machine])
        assert model.step_successors(system, (0,), frozenset()) == [(0,)]
        assert model.step_successors(system, (0,), {a}) == [(1,)]

    def test_nondeterministic_choice_yields_both(self):
        machine = model.Machine(
            "m",
            [model.State("s", frozenset()), model.State("t", frozenset())],
            "s",
            [model.Arc("s", "t", F.TRUE), model.Arc("s", "s", F.TRUE)],
        )
        system = model.System("sys", [machine])
        assert set(model.step_successors(system, (0,), frozenset())) == {(0,), (1,)}
