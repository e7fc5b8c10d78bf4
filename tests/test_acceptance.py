"""End-to-end acceptance criteria.

Each test exercises one headline requirement at its stated tolerance and
prints a single PASS line when it survives (failures surface as ordinary
assertion errors).  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import itertools
import json
import random
import re
import time

import pytest

from cosma import cli, frontend, mc, model, reach, robdd, vhdlgen
from cosma import formula as F
from gensys import random_guard, random_system
from oracles import all_valuations, next_query_oracle, replay_trace
from vhdl_interp import ProcessModel


@pytest.fixture(autouse=True)
def plain_output(monkeypatch):
    monkeypatch.setenv("COSMA_COLOR", "0")


@pytest.fixture()
def workdir(tmp_path):
    assert cli.main(["examples", "--emit", str(tmp_path)]) == 0
    return tmp_path


def report(n, label):
    print(f"ACCEPTANCE {n} ({label}): PASS")


def test_1_tlc_reachability(workdir, capsys):
    started = time.perf_counter()
    code = cli.main(["rg", str(workdir / "tlc.csm"), "--engine", "both"])
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    assert code == 0
    assert "36 product states" in out
    assert out.count("13 reachable states") == 2  # explicit and symbolic agree
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    report(1, "13 of 36 states, both engines, under 1s")


def test_2_temporal_suite(workdir, capsys):
    for name in ("tlc.csm", "tlc_car.csm"):
        started = time.perf_counter()
        code = cli.main(
            ["check", str(workdir / name), "--queries", str(workdir / "tlc_queries.tq")]
        )
        elapsed = time.perf_counter() - started
        out = capsys.readouterr().out
        assert code == 0, name
        assert "10/10 queries hold" in out, name
        assert elapsed < 1.0, f"{name} took {elapsed:.3f}s"
    report(2, "all 10 queries true on both models, under 1s")


def test_3_mutation_sensitivity(workdir, capsys):
    # (a) drop the yellow-to-farm-green arc
    mutant = workdir / "mutant.csm"
    mutated = (workdir / "tlc.csm").read_text().replace("-> sFG when TimTS;", "")
    assert mutated != (workdir / "tlc.csm").read_text()
    mutant.write_text(mutated)
    code = cli.main(
        ["check", str(mutant), "--queries", str(workdir / "tlc_queries.tq"), "--json"]
    )
    out = capsys.readouterr().out
    assert code == 1
    doc = json.loads(out)
    failing = {e["name"] for e in doc["queries"] if not e["holds"]}
    assert {"q2", "q7"} <= failing

    mutant_system = frontend.parse_system(mutated, "mutant.csm").system
    mutant_rg = reach.build_rg_explicit(mutant_system)
    queries = frontend.parse_queries((workdir / "tlc_queries.tq").read_text()).queries
    for query in queries:
        if query.name not in failing:
            continue
        verdict = mc.check_query(mutant_rg, query)
        assert not verdict.holds and verdict.trace
        assert replay_trace(mutant_system, mutant_rg, verdict.trace), query.name

    # (b) swap a consequent
    swapped = workdir / "swapped.tq"
    swapped.write_text("s: always (HG => next FG);\n")
    code = cli.main(["check", str(workdir / "tlc.csm"), "--queries", str(swapped)])
    out = capsys.readouterr().out
    assert code == 1 and "at (" in out  # a printed trace accompanies the failure

    tlc = frontend.parse_system((workdir / "tlc.csm").read_text(), "tlc.csm").system
    rg = reach.build_rg_explicit(tlc)
    verdict = mc.check_query(rg, frontend.parse_queries("s: always (HG => next FG);").queries[0])
    assert not verdict.holds
    assert replay_trace(tlc, rg, verdict.trace)
    report(3, "mutations fail with replayable counterexamples, exit 1")


def test_4_cross_engine_and_next_oracle():
    rng = random.Random(20260809)
    systems = [random_system(rng, max_machines=3, max_states=4, max_env=3) for _ in range(20)]
    next_checks = 0
    for system in systems:
        explicit = reach.build_rg_explicit(system)
        symbolic = reach.build_rg_symbolic(system)
        assert symbolic.count == len(explicit), frontend.system_to_text(system)

        produced = sorted(system.produced_symbols(), key=lambda s: s.name)
        env = sorted(model.env_alphabet(system), key=lambda s: s.name)
        if not produced:
            continue
        for _ in range(4):
            factors = [rng.choice(produced)]
            if env and rng.random() < 0.6:
                atom = rng.choice(env)
                factors.append(F.Not(atom) if rng.random() < 0.4 else atom)
            query = mc.Query(
                "r", F.and_all(factors), "next", rng.choice(produced)
            )
            verdict = mc.check_query(explicit, query)
            holds, vacuous = next_query_oracle(system, query)
            assert (verdict.holds, verdict.vacuous) == (holds, vacuous), (
                frontend.system_to_text(system),
                str(query),
            )
            next_checks += 1
    assert next_checks >= 20
    report(4, f"20 random systems, engines agree, {next_checks} NEXT verdicts match oracle")


def test_5_robdd_property_run():
    started = time.perf_counter()
    rng = random.Random(5)
    syms = [F.Symbol(f"v{i}") for i in range(4)]
    manager = robdd.BddManager([s.name for s in syms])

    def table(expr):
        return tuple(F.evaluate(expr, v) for v in all_valuations(syms))

    formulas = [random_guard(rng, syms, depth=4) for _ in range(400)]
    refs = []
    for expr in formulas:
        ref = manager.from_expr(expr)
        refs.append((expr, ref))
        # exhaustive 16-row truth-table agreement
        for valuation in all_valuations(syms):
            names = {s.name for s in valuation}
            assert manager.evaluate(ref, names) == F.evaluate(expr, valuation)
        # complementarity
        assert manager.sat_count(ref, 4) + manager.sat_count(manager.not_(ref), 4) == 16

    # canonicity: function-equal builds share handles, different functions differ
    for (e1, r1), (e2, r2) in zip(refs, refs[1:]):
        assert (r1 == r2) == (table(e1) == table(e2))
    assert manager.audit() == []

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"took {elapsed:.3f}s"
    report(5, f"canonicity + 400 exhaustive truth tables in {elapsed:.2f}s")


def test_6_vhdl_generation(tlc_system):
    opts = vhdlgen.CodegenOptions(state_encoding=3)
    text = vhdlgen.generate(tlc_system, opts)
    again = vhdlgen.generate(tlc_system, opts)
    assert text == again  # byte-identical

    problems = vhdlgen.structural_audit(text, tlc_system)
    assert not problems, problems
    assert "Car : in BIT;" in text
    assert 'variable current_state : BIT_VECTOR (2 downto 0) :="000";' in text
    assert "wait for 10 ns;" in text

    # one-cycle interpreter vs the machine semantics, all states x env inputs
    env = model.env_alphabet(tlc_system)
    for position, machine in enumerate(tlc_system.machines):
        process = ProcessModel(text, machine.name)
        for gstate in itertools.product(*(range(len(m.states)) for m in tlc_system.machines)):
            base = model.output_valuation(tlc_system, gstate)
            idx = gstate[position]
            for env_val in all_valuations(env):
                names = {s.name for s in (base | env_val)}
                got_code, _ = process.step(vhdlgen._encode(idx, 3, False), names)
                enabled = model.enabled_arcs(machine, idx, base | env_val)
                expect = machine.state_index(enabled[0].dst) if enabled else idx
                assert got_code == vhdlgen._encode(expect, 3, False)
    report(6, "audit, fragments, determinism, one-cycle equivalence")


def test_7_environment_atom_consistency(tlc_rg, tlc_car_rg):
    query = frontend.parse_queries(
        "q1: always (HG * Car * TimTL => next HY);"
    ).queries[0]
    conditioned = mc.check_query(tlc_rg, query)  # Car conditions the edges
    produced = mc.check_query(tlc_car_rg, query)  # Car is produced by CarGen
    assert conditioned.holds and produced.holds
    assert conditioned.vacuous == produced.vacuous is False
    report(7, "edge conditioning agrees with the produced-signal modeling")
