import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosma import assets, frontend, mc, model, reach, robdd
from cosma import formula as F
import gensys
from gensys import random_system
from oracles import (
    eventually_query_oracle,
    first_step_env,
    next_query_oracle,
    replay_trace,
    rescanning_check_query,
    rescanning_ctl_sat,
)


def q(text):
    res = frontend.parse_queries(text)
    assert res.ok, [str(d) for d in res.diagnostics]
    return res.queries[0]


class TestBundledSuite:
    def test_all_ten_hold_on_tlc(self, tlc_rg, tlc_queries):
        for name, verdict in mc.check_suite(tlc_rg, tlc_queries):
            assert verdict.holds, name
            assert not verdict.vacuous, name

    def test_all_ten_hold_with_car_machine(self, tlc_car_rg, tlc_car_system):
        queries = frontend.parse_queries(
            assets.text("tlc_queries.tq"), system=tlc_car_system
        ).queries
        verdicts = dict(mc.check_suite(tlc_car_rg, queries))
        assert all(v.holds for v in verdicts.values())
        # an endless car stream makes FG and ~Car irreconcilable
        assert verdicts["q3"].vacuous and verdicts["q8"].vacuous
        assert not verdicts["q1"].vacuous

    def test_next_step_query_q1(self, tlc_rg):
        verdict = mc.check_query(tlc_rg, q("q1: always (HG * Car * TimTL => next HY);"))
        assert verdict.holds and not verdict.vacuous

    def test_eventually_query_q6(self, tlc_rg):
        verdict = mc.check_query(
            tlc_rg, q("q6: always (HG * Car * TimTL => eventually HY);")
        )
        assert verdict.holds

    def test_universal_and_existential_eventually_coincide_here(self, tlc_rg, tlc_queries):
        for query in tlc_queries:
            if query.mode != "eventually":
                continue
            weak = mc.Query(query.name, query.antecedent, "eventually",
                            query.consequent, universal=False)
            assert mc.check_query(tlc_rg, weak).holds == mc.check_query(tlc_rg, query).holds

    # intersection i >= 1 sees its farm car only while its neighbour shows
    # farm green, so the verdicts are checked, not carried over
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_every_chained_copy_of_the_suite_holds(self, k):
        queries = gensys.tlc_chain_queries(k)
        verdicts = mc.check_suite(reach.build_rg_explicit(gensys.tlc_chain(k)), queries)
        assert len(verdicts) == 10 * k
        for name, verdict in verdicts:
            assert verdict.holds and not verdict.vacuous, name

    # the path oracle took 44 s at k = 3
    @pytest.mark.parametrize("k", [1, 2])
    def test_chained_suite_matches_the_oracles(self, k):
        system = gensys.tlc_chain(k)
        rg = reach.build_rg_explicit(system)
        for query in gensys.tlc_chain_queries(k):
            verdict = mc.check_query(rg, query)
            if query.mode == "next":
                expected = next_query_oracle(system, query)
            else:
                expected = eventually_query_oracle(rg, query)
            assert (verdict.holds, verdict.vacuous) == expected, query.name


class TestFailuresAndTraces:
    def test_green_does_not_jump_to_farm_green(self, tlc_rg, tlc_system):
        verdict = mc.check_query(tlc_rg, q("bad: always (HG => next FG);"))
        assert not verdict.holds
        assert verdict.trace is not None
        # the counterexample starts in a highway-green node and replays
        assert F.Symbol("HG") in tlc_rg.outputs[verdict.trace[0].node]
        assert replay_trace(tlc_system, tlc_rg, verdict.trace)

    def test_deleting_the_yellow_to_farm_green_arc(self):
        text = assets.text("tlc.csm").replace("-> sFG when TimTS;", "")
        result = frontend.parse_system(text, "mutant.csm")
        assert result.ok  # only a coverage-gap warning
        assert any("do not cover" in d.message for d in result.diagnostics)
        rg = reach.build_rg_explicit(result.system)
        queries = frontend.parse_queries(assets.text("tlc_queries.tq")).queries
        verdicts = dict(mc.check_suite(rg, queries))
        assert not verdicts["q2"].holds
        assert not verdicts["q7"].holds
        for name in ("q2", "q7"):
            trace = verdicts[name].trace
            assert trace is not None
            assert replay_trace(result.system, rg, trace)

    def test_eventually_counterexample_is_a_lasso(self, tlc_rg, tlc_system):
        verdict = mc.check_query(tlc_rg, q("bad: always (HG * Car * TimTL => eventually FY);"))
        if verdict.holds:
            pytest.skip("needs a failing eventually query on this graph")
        assert replay_trace(tlc_system, tlc_rg, verdict.trace)

    def test_vacuous_query(self, tlc_rg):
        # highway and farm road are never green together
        verdict = mc.check_query(tlc_rg, q("v: always (HG * FG => next HY);"))
        assert verdict.holds and verdict.vacuous

    def test_unsatisfiable_environment_part_fails(self, tlc_rg):
        verdict = mc.check_query(tlc_rg, q("u: always (HG * Car * !Car => next HY);"))
        assert not verdict.holds
        assert verdict.trace is not None and len(verdict.trace) == 1

    def test_mixed_factor_rejected(self, tlc_rg):
        with pytest.raises(mc.QueryError):
            mc.check_query(tlc_rg, q("m: always ((HG + Car) => next HY);"))

    def test_environment_atom_in_consequent_rejected(self, tlc_rg):
        with pytest.raises(mc.QueryError):
            mc.check_query(tlc_rg, q("c: always (HG => next Car);"))


class TestOracleAgreement:
    def random_queries(self, rng, system):
        produced = sorted(system.produced_symbols(), key=lambda s: s.name)
        env = sorted(model.env_alphabet(system), key=lambda s: s.name)
        if not produced:
            return
        for _ in range(6):
            factors = [rng.choice(produced)]
            if rng.random() < 0.5:
                factors.append(F.Not(rng.choice(produced)))
            if env and rng.random() < 0.6:
                atom = rng.choice(env)
                factors.append(F.Not(atom) if rng.random() < 0.4 else atom)
            antecedent = F.and_all(factors)
            consequent = rng.choice(produced)
            if rng.random() < 0.4:
                consequent = F.Or(consequent, rng.choice(produced))
            mode = "next" if rng.random() < 0.5 else "eventually"
            yield mc.Query("r", antecedent, mode, consequent)

    def test_next_mode_matches_brute_force_on_tlc(self, tlc_rg, tlc_system, tlc_queries):
        for query in tlc_queries:
            if query.mode != "next":
                continue
            verdict = mc.check_query(tlc_rg, query)
            holds, vacuous = next_query_oracle(tlc_system, query)
            assert (verdict.holds, verdict.vacuous) == (holds, vacuous), query.name

    def test_random_systems_match_both_oracles(self):
        rng = random.Random(77)
        checked_next = checked_ev = 0
        for _ in range(12):
            system = random_system(rng)
            rg = reach.build_rg_explicit(system)
            for query in self.random_queries(rng, system):
                verdict = mc.check_query(rg, query)
                if query.mode == "next":
                    holds, vacuous = next_query_oracle(system, query)
                    checked_next += 1
                elif len(rg) <= 8:
                    holds, vacuous = eventually_query_oracle(rg, query)
                    checked_ev += 1
                else:
                    continue
                assert (verdict.holds, verdict.vacuous) == (holds, vacuous), (
                    frontend.system_to_text(system),
                    str(query),
                )
                if not verdict.holds:
                    assert verdict.trace is not None
                    if len(verdict.trace) > 1:
                        assert replay_trace(system, rg, verdict.trace)
        assert checked_next >= 20
        assert checked_ev >= 5

    def test_trace_env_is_the_first_satisfying_valuation(self):
        # declaration order differs from name order, the first valuation that
        # fires the arc needs three inputs, and choosing the inputs from the
        # first name on would give the other product
        text = """
        system pick {
          machine M {
            init a;
            state a { -> b when go * right * up + left * ~stop * fast * go; }
            state b { out B; -> a when 1; }
          }
        }
        """
        system = frontend.parse_system(text, "pick.csm").system
        rg = reach.build_rg_explicit(system)
        query = q("calm: always (~B * go * ~extra => next ~B);")
        verdict = mc.check_query(rg, query)
        assert not verdict.holds
        here, there = (rg.nodes[step.node] for step in verdict.trace)
        _, env_part = mc.split_query(query, system.produced_symbols())
        env = model.env_alphabet(system) | {F.Symbol("extra")}
        expected = first_step_env(system, here, there, env, env_part)
        assert verdict.trace[0].env == expected
        assert sorted(s.name for s in expected) == ["fast", "go", "left"]

    def test_eventually_bounded_paths_on_tlc_like_small_graph(self):
        rng = random.Random(13)
        seen = 0
        while seen < 4:
            system = random_system(rng, max_machines=2, max_states=3)
            rg = reach.build_rg_explicit(system)
            if len(rg) > 8:
                continue
            seen += 1
            for query in self.random_queries(rng, system):
                if query.mode != "eventually":
                    continue
                verdict = mc.check_query(rg, query)
                holds, vacuous = eventually_query_oracle(rg, query)
                assert (verdict.holds, verdict.vacuous) == (holds, vacuous)


class TestCtl:
    def test_some_highway_light_is_always_on(self, tlc_rg):
        res = frontend.parse_queries("ctl lights: AG (HG + HY + HR);")
        verdict = mc.check_ctl(tlc_rg, res.queries[0].formula)
        assert verdict.holds

    def test_ef_on_single_dark_node(self):
        # an atom no state outputs is false at every node
        system = frontend.parse_system(
            "system one { machine m { init s; state s { -> s when 1; } } }", "one.csm"
        ).system
        rg = reach.build_rg_explicit(system)
        verdict = mc.check_ctl(rg, mc.CtlEF(F.Symbol("x")))
        assert not verdict.holds

    def test_non_output_ctl_atom_warns_at_parse_time(self, tlc_system):
        res = frontend.parse_queries("ctl c: EF Car;", system=tlc_system)
        assert res.ok
        assert any("false at every" in d.message for d in res.diagnostics)

    def test_tlc_cycle_properties(self, tlc_rg):
        checks = {
            "ctl a: AG (HG => EF FG);": True,   # a farm phase is always attainable
            "ctl b: AG (HG => AF FG);": False,  # but not inevitable without cars
            "ctl c: EF (HR * FG);": True,
            "ctl d: AG ~(HG * FG);": True,      # never green both ways
            "ctl e: A [ ~FG U HY ];": False,    # the initial node already delays
        }
        for text, expected in checks.items():
            res = frontend.parse_queries(text)
            assert res.ok, text
            got = mc.check_ctl(tlc_rg, res.queries[0].formula).holds
            assert got == expected, text

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_dualities_on_random_graphs(self, seed):
        rng = random.Random(seed)
        system = random_system(rng)
        rg = reach.build_rg_explicit(system)
        produced = sorted(system.produced_symbols(), key=lambda s: s.name)
        if not produced:
            pytest.skip("no outputs to talk about")
        for sym in produced[:3]:
            p = sym
            # the oracle's own loop for each operator against its dual
            pairs = [
                (("AG", p), F.Not(mc.CtlEF(F.Not(p)))),
                (("AF", p), F.Not(mc.CtlEG(F.Not(p)))),
                (("AX", p), F.Not(mc.CtlEX(F.Not(p)))),
                (("EF", p), mc.CtlEU(F.TRUE, p)),
            ]
            for spec, dual in pairs:
                assert rescanning_ctl_sat(rg, spec) == mc._label(rg, dual)

    def test_au_definition_on_random_graphs(self):
        rng = random.Random(4)
        system = random_system(rng)
        rg = reach.build_rg_explicit(system)
        produced = sorted(system.produced_symbols(), key=lambda s: s.name)
        if len(produced) < 2:
            pytest.skip("need two outputs")
        p, r = produced[0], produced[1]
        # A[p U r] == not (E[~r U (~p * ~r)] + EG ~r), against the oracle's own loop
        rewritten = F.Not(
            F.Or(
                mc.CtlEU(F.Not(r), F.And(F.Not(p), F.Not(r))),
                mc.CtlEG(F.Not(r)),
            )
        )
        assert rescanning_ctl_sat(rg, ("AU", p, r)) == mc._label(rg, rewritten)


class TestEdgeConditioningConsistency:
    def test_q1_matches_across_modeling_styles(self, tlc_rg, tlc_car_rg):
        # environment-atom conditioning on the plain model must agree with
        # making Car a produced signal via the generator machine
        query = q("q1: always (HG * Car * TimTL => next HY);")
        plain = mc.check_query(tlc_rg, query)
        produced = mc.check_query(tlc_car_rg, query)
        assert plain.holds and produced.holds
        assert plain.vacuous == produced.vacuous == False  # noqa: E712

    def test_edges_are_conditioned_only_on_an_environment_part(self, monkeypatch):
        # four toggles: 8 nodes show On0, each with 16 out-edges
        rg = reach.build_rg_explicit(gensys.toggles(4))
        and_ = robdd.BddManager.and_
        calls = []

        def counted(manager, f, g):
            calls.append((f, g))
            return and_(manager, f, g)

        monkeypatch.setattr(robdd.BddManager, "and_", counted)
        assert mc.check_query(rg, q("can: always (On0 => exists eventually ~On0);")).holds
        assert mc.check_query(rg, q("hop: always (On0 => next (On0 + ~On0));")).holds
        assert calls == []
        assert mc.check_query(rg, q("flip: always (On0 * x0 => next ~On0);")).holds
        assert len(calls) == 8 * 16

    def test_verdict_json_shape(self, tlc_rg):
        verdict = mc.check_query(tlc_rg, q("bad: always (HG => next FG);"))
        doc = verdict.as_json(tlc_rg)
        assert doc["holds"] is False
        assert doc["trace"][0]["states"] == ["sHG", "TSidle", "TLidle"]
        assert isinstance(doc["trace"][0]["env"], list)


CTL_UNARY = ("~", "EX", "AX", "EF", "AF", "EG", "AG")
CTL_BINARY = ("*", "+", "=>", "EU", "AU")
CTL_CONSTRUCTORS = {
    "~": F.Not, "*": F.And, "+": F.Or, "=>": mc.CtlImplies, "EX": mc.CtlEX, "AX": mc.CtlAX,
    "EF": mc.CtlEF, "AF": mc.CtlAF, "EG": mc.CtlEG, "AG": mc.CtlAG, "EU": mc.CtlEU,
    "AU": mc.CtlAU,
}


def random_ctl(rng, symbols, depth=3):
    """A random spec for ``oracles.rescanning_ctl_sat`` over ``symbols``, using
    every operator."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.1:
            return F.TRUE if rng.random() < 0.5 else F.FALSE
        return rng.choice(symbols)
    op = rng.choice(CTL_UNARY + CTL_BINARY)
    arity = 1 if op in CTL_UNARY else 2
    return (op, *(random_ctl(rng, symbols, depth - 1) for _ in range(arity)))


def ctl_formula(spec):
    """The ``mc`` formula of a spec, built through the public constructors."""
    if not isinstance(spec, tuple):
        return spec
    op, *operands = spec
    return CTL_CONSTRUCTORS[op](*map(ctl_formula, operands))


def random_implication(rng, system):
    """A random query in any mode, over outputs and environment inputs."""
    produced = sorted(system.produced_symbols(), key=lambda s: s.name)
    env = sorted(model.env_alphabet(system), key=lambda s: s.name) + [F.Symbol("unused")]
    factors = [rng.choice(produced)] if rng.random() < 0.8 else []
    if rng.random() < 0.6:
        atom = rng.choice(env)
        factors.append(F.Not(atom) if rng.random() < 0.4 else atom)
    consequent = rng.choice(produced)
    if rng.random() < 0.4:
        consequent = F.Not(consequent) if rng.random() < 0.5 else F.Or(
            consequent, rng.choice(produced))
    mode = rng.choice(("next", "eventually", "eventually"))
    universal = mode == "next" or rng.random() < 0.5
    return mc.Query("r", F.and_all(factors), mode, consequent, universal)


class TestFixpointCore:
    @settings(deadline=None, max_examples=200)
    @given(seed=st.integers(0, 10**6))
    def test_agrees_with_rescanning_oracle(self, seed):
        rng = random.Random(seed)
        system = random_system(rng)
        rg = reach.build_rg_explicit(system)
        produced = sorted(system.produced_symbols(), key=lambda s: s.name)
        if not produced:
            return
        symbols = produced + [F.Symbol("dark")]  # an atom false everywhere
        for _ in range(8):
            spec = random_ctl(rng, symbols)
            expected = rescanning_ctl_sat(rg, spec)
            formula_ = ctl_formula(spec)
            assert mc._label(rg, formula_) == expected
            assert mc.check_ctl(rg, formula_).holds == (0 in expected)
        for _ in range(6):
            query = random_implication(rng, system)
            got, expected = mc.check_query(rg, query), rescanning_check_query(rg, query)
            assert (got.holds, got.vacuous) == (expected.holds, expected.vacuous), str(query)
            assert got.as_json(rg) == expected.as_json(rg), str(query)

    def test_work_is_linear_on_a_long_cycle(self, monkeypatch):
        # the rescanning loops read every node's edges once per node they
        # add, about n * n / 2 calls for EF and exists-eventually here
        n = 2000
        states = "\n".join(
            f"state c{i} {{ {'out Home; ' if i == 0 else ''}{'out Half; ' if i == n // 2 else ''}"
            f"-> c{(i + 1) % n} when go; -> c{i} when ~go; }}"
            for i in range(n)
        )
        text = f"system Cycle {{ machine Cyc {{ init c0; {states} }} }}"
        rg = reach.build_rg_explicit(frontend.parse_system(text, "cycle.csm").system)
        assert len(rg) == n

        calls = Counter()
        for name in ("out_edges", "predecessors"):
            def counted(self, node, _original=getattr(reach.ReachGraph, name), _name=name):
                calls[_name] += 1
                return _original(self, node)
            monkeypatch.setattr(reach.ReachGraph, name, counted)

        checks = {
            "ctl back: AG EF Home;": True,
            "ret: always (Half => eventually Home);": False,
            "can: always (Half => exists eventually Home);": True,
        }
        for text, holds in checks.items():
            calls.clear()
            req = q(text)
            if isinstance(req, mc.CtlQuery):
                verdict = mc.check_ctl(rg, req.formula)
            else:
                verdict = mc.check_query(rg, req)
            assert verdict.holds == holds, text
            # each node's edges and predecessors are read at most once per
            # primitive, plus once per step of a trace
            assert sum(calls.values()) <= 3 * n, (text, calls)
