import argparse
import collections
import contextlib
import copy
import gc
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosma import assets, cli, frontend, model, reach, robdd, vhdlgen
from cosma import formula as F
from test_frontend import LEX_PIECES


@pytest.fixture(autouse=True)
def plain_output(monkeypatch):
    monkeypatch.setenv("COSMA_COLOR", "0")


@pytest.fixture()
def workdir(tmp_path):
    assert cli.main(["examples", "--emit", str(tmp_path)]) == 0
    return tmp_path


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLint:
    def test_clean_model(self, workdir, capsys):
        code, out, err = run(capsys, ["lint", str(workdir / "tlc.csm")])
        assert code == 0
        assert "0 errors" in out

    def test_parse_error_exits_two_with_stderr_diagnostics(self, tmp_path, capsys):
        bad = tmp_path / "bad.csm"
        bad.write_text("system x { machine m { init a; state a { -> ghost when 1; } } }")
        code, out, err = run(capsys, ["lint", str(bad)])
        assert code == 2
        assert "ghost" in err and "error" in err
        # nesting past the parser's bound is an input error with a location
        queries = tmp_path / "q.tq"
        queries.write_text("q: always (1 => next 1);\n")
        n = frontend.MAX_NESTING
        for depth, expected in ((2000, 2), (n + 1, 2), (n, 0)):
            for guard in ("(" * depth + "x" + ")" * depth, "~" * depth + "x"):
                bad.write_text(
                    "system x { machine m { init a; state a { -> a when %s; } } }" % guard
                )
                for argv in (["lint"], ["rg"], ["check", "--queries", str(queries)]):
                    code, out, err = run(capsys, [argv[0], str(bad), *argv[1:]])
                    assert code == expected, (depth, argv, err)
                    if expected == 2:
                        assert re.search(r"bad\.csm:1:\d+: error: formula nested more than", err)

    def test_coverage_gap_is_only_a_warning(self, tmp_path, capsys):
        gap = tmp_path / "gap.csm"
        gap.write_text(
            "system g { machine m { init a;"
            " state a { -> b when x; } state b { -> b when 1; } } }"
        )
        code, out, err = run(capsys, ["lint", str(gap)])
        assert code == 0
        assert "do not cover" in err

    def test_warnings_do_not_depend_on_the_hash_seed(self, tmp_path):
        path = tmp_path / "shared.csm"
        path.write_text(
            "system s { machine A { init a; state a { out x, y, z, w; } }"
            " machine B { init b; state b { out x, y, z, w; } } }\n"
        )
        src = os.path.dirname(os.path.dirname(cli.__file__))
        runs = [
            subprocess.run(
                [sys.executable, "-m", "cosma.cli", "lint", str(path)],
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed, "COSMA_COLOR": "0"},
                capture_output=True, text=True, check=True,
            ).stderr
            for seed in ("1", "2")
        ]
        assert runs[0] == runs[1]
        shared = [line for line in runs[0].splitlines() if "produced by machines" in line]
        assert [line.split("'")[1] for line in shared] == ["w", "x", "y", "z"]

    def test_missing_file(self, capsys):
        code, out, err = run(capsys, ["lint", "no/such/file.csm"])
        assert code == 2

    def test_duplicate_machine_name_is_placed_at_the_repeat(self, tmp_path, capsys):
        path = tmp_path / "dup.csm"
        path.write_text(
            "system s { machine A { init a; state a { } } machine A { init b; state b { } } }\n"
        )
        code, out, err = run(capsys, ["lint", str(path)])
        assert code == 2
        assert err == f"{path}:1:54: error: duplicate machine name 'A'\n"

    def test_each_copy_of_a_machine_gets_its_own_bad_initial(self, tmp_path, capsys):
        path = tmp_path / "dup.csm"
        path.write_text("system S {\n"
                        "  machine M { init zz; state a { } }\n"
                        "  machine M { init yy; state b { } }\n"
                        "}\n")
        code, out, err = run(capsys, ["lint", str(path)])
        assert code == 2
        assert [line for line in err.splitlines() if ": error: " in line] == [
            f"{path}:3:11: error: duplicate machine name 'M'",
            f"{path}:2:20: error: machine 'M': initial state 'zz' does not exist",
            f"{path}:3:20: error: machine 'M': initial state 'yy' does not exist",
        ]


BROKEN = ("system S {\n  machine M {\n    init zz;\n"
          "    state a { -> b when x; -> c when y; }\n    state b { -> c when 1; }\n  }\n}\n")


class TestGuardAnalysis:
    """Only ``lint`` and ``vhdl``'s overlap comments read the guard
    analysis's findings, so ``rg`` and ``check`` get the structural errors
    alone."""

    @pytest.mark.parametrize("command, validations",
                             [("lint", 1), ("rg", 0), ("check", 0), ("vhdl", 1)])
    def test_only_lint_and_vhdl_validate(self, workdir, capsys, monkeypatch, command, validations):
        calls, contexts = [], []
        real = model.validate
        monkeypatch.setattr(model, "validate", lambda system: calls.append(system) or real(system))
        init = F.GuardContext.__init__
        monkeypatch.setattr(F.GuardContext, "__init__",
                            lambda ctx, *args: contexts.append(ctx) or init(ctx, *args))
        argv = [command, str(workdir / "tlc.csm")]
        if command == "check":
            argv += ["--queries", str(workdir / "tlc_queries.tq")]
        code, out, err = run(capsys, argv)
        assert code == 0, err
        # the one context is validate's, or the explicit engine's
        assert (len(calls), len(contexts)) == (validations, 1)

    @pytest.mark.parametrize("command", ["rg", "check"])
    def test_many_arcs_out_of_a_state_cost_linear_ands(self, tmp_path, capsys, monkeypatch,
                                                        command):
        # one state with n arcs on distinct inputs: the guard analysis ANDs
        # every pair, n(n-1)/2, and rg and check do not run it.  Measured at
        # n = 100 and 200: rg --engine both 204 and 404 ANDs, check 100 and
        # 200 (with the analysis 5,154 -> 20,304 and 5,050 -> 20,100); 2.2
        # leaves room for the constant part
        queries = tmp_path / "q.tq"
        queries.write_text("q: always (S => next S);\n")
        options = {"rg": ["--engine", "both"], "check": ["--queries", str(queries)]}[command]
        ands = []
        real = robdd.BddManager.and_
        monkeypatch.setattr(robdd.BddManager, "and_",
                            lambda manager, *args: ands.append(None) or real(manager, *args))
        counts = []
        for n in (100, 200):
            arcs = " ".join(f"-> s when x{i};" for i in range(n))
            path = tmp_path / f"fan{n}.csm"
            path.write_text(f"system Fan {{ machine M {{ init s; state s {{ out S; {arcs} }} }} }}\n")
            ands.clear()
            code, out, err = run(capsys, [command, str(path), *options])
            assert code == 0, err
            counts.append(len(ands))
        assert counts[1] <= 2.2 * counts[0], counts

    def test_structural_errors_are_placed_at_their_token(self, tmp_path, workdir, capsys):
        path = tmp_path / "b.csm"
        path.write_text(BROKEN)
        # each arc to the missing state 'c' is placed at its own target
        missing = "error: machine 'M': arc target 'c' is not a state"
        errors = [f"{path}:3:10: error: machine 'M': initial state 'zz' does not exist",
                  f"{path}:4:31: {missing}", f"{path}:5:18: {missing}"]
        code, out, err = run(capsys, ["lint", str(path)])
        assert code == 2
        assert [line for line in err.splitlines() if ": error: " in line] == errors
        for argv in (["rg"], ["check", "--queries", str(workdir / "tlc_queries.tq")], ["vhdl"]):
            code, out, err = run(capsys, [argv[0], str(path), *argv[1:]])
            assert code == 2
            assert err.splitlines() == errors


class TestRg:
    def test_both_engines_on_bundled_model(self, workdir, capsys):
        code, out, err = run(capsys, ["rg", str(workdir / "tlc.csm"), "--engine", "both"])
        assert code == 0
        assert "13 reachable states" in out
        assert "36 product states" in out

    def test_single_state_model_singular_wording(self, tmp_path, capsys):
        one = tmp_path / "one.csm"
        one.write_text("system one { machine m { init s; state s { -> s when 1; } } }")
        code, out, err = run(capsys, ["rg", str(one)])
        assert code == 0
        assert "1 reachable state" in out
        assert "1 reachable states" not in out

    def test_car_variant_engines_agree(self, workdir, capsys):
        code, out, err = run(capsys, ["rg", str(workdir / "tlc_car.csm"), "--engine", "both"])
        assert code == 0
        counts = re.findall(r"(\d+) reachable states", out)
        assert len(set(counts)) == 1

    def test_engine_choice(self, workdir, capsys):
        code, out, err = run(capsys, ["rg", str(workdir / "tlc.csm"), "--engine", "explicit"])
        assert code == 0 and "symbolic" not in out
        code, out, err = run(capsys, ["rg", str(workdir / "tlc.csm"), "--engine", "bdd"])
        assert code == 0 and "explicit" not in out
        # the symbolic engine alone still exports the explicit graph
        for engine in ("bdd", "explicit"):
            js = workdir / f"{engine}.json"
            code, out, err = run(capsys, ["rg", str(workdir / "tlc.csm"), "--engine", engine,
                                          "--json", str(js)])
            assert code == 0, err
        assert (workdir / "bdd.json").read_bytes() == (workdir / "explicit.json").read_bytes()

    def test_dot_and_json_outputs(self, workdir, capsys):
        dot = workdir / "g.dot"
        js = workdir / "g.json"
        code, out, err = run(
            capsys,
            ["rg", str(workdir / "tlc.csm"), "--dot", str(dot), "--json", str(js)],
        )
        assert code == 0
        assert dot.read_text().startswith("digraph")
        doc = json.loads(js.read_text())
        assert len(doc["nodes"]) == 13

    def test_unwritable_output_paths_are_input_errors(self, workdir, capsys):
        # a missing directory, and a regular file in the place of one
        for bad in (workdir / "missing" / "g.out", workdir / "tlc.csm" / "g.out"):
            for flag in ("--dot", "--json"):
                code, out, err = run(capsys, ["rg", str(workdir / "tlc.csm"), flag, str(bad)])
                assert code == 2, (flag, bad, err)
                assert err.startswith(f"error: cannot write {bad}: "), err

    def test_engine_mismatch_is_internal_error(self, workdir, capsys, monkeypatch):
        class Fake:
            count = 999

        monkeypatch.setattr(cli.reach, "build_rg_symbolic", lambda system: Fake())
        code, out, err = run(capsys, ["rg", str(workdir / "tlc.csm"), "--engine", "both"])
        assert code == 3
        assert "mismatch" in err

    def test_missing_state_is_a_mismatch_despite_equal_counts(self, workdir, capsys, monkeypatch):
        build = reach.build_rg_symbolic

        def drop_last_node(system):
            sym = build(system)
            gstate = reach.build_rg_explicit(system).nodes[-1]
            m = sym.manager
            cube = m.TRUE
            for bits, idx in zip(sym.current_bits, gstate):
                for k, bit in enumerate(bits):
                    cube = m.and_(cube, m.mk_var(bit) if idx >> k & 1 else m.not_(m.mk_var(bit)))
            changed = copy.copy(sym)
            changed.reachable = m.and_(sym.reachable, m.not_(cube))
            return changed

        monkeypatch.setattr(cli.reach, "build_rg_symbolic", drop_last_node)
        code, out, err = run(capsys, ["rg", str(workdir / "tlc.csm"), "--engine", "both"])
        assert code == 3
        assert "symbolic: 13 reachable states" in out
        assert "mismatch" in err and "is not in the symbolic set" in err

    def test_deterministic_stdout(self, workdir, capsys):
        argv = ["rg", str(workdir / "tlc.csm"), "--engine", "both"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second


# SHA-256 of what the bundled models print and write: ``rg`` stdout and its
# JSON and DOT files, and the ``check --json`` report.  Determinism alone
# would let a change renumber nodes or reorder edges unnoticed.
GOLDEN = {
    "tlc": {
        "rg": "d1b01750e3afcca9566fdf165890fae88e30e37b25c124c94ecef99cea864705",
        "json": "33c108d8f18f4f24df89459755ab46411be7f347b3af15aff260da419161d245",
        "dot": "04ffed320bccce0b8a9452c2008e6b51a9a88f7ab2e6db814411f72336c77509",
        "check": "02efd02c7fe8cb1e4aba026424ec83dea84fc415494214fd487665e6cb6b8691",
    },
    "tlc_car": {
        "rg": "3961876bb007df909c94b0925c3aaeb90323a1e1d2968448dfbf6750801cddf2",
        "json": "8c0562a5688abb98b69436af4f258f5be6083fef97f81ca99cec4b81838fdccc",
        "dot": "014adc8fff8a6abad6f32553f613423f4339bb473f67cdf70b91bb3f8755460c",
        "check": "ad6418b12fb041433a80ba596206589d905a6ee69bfeeb3050bb1829e70f0d55",
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_bundled_outputs_are_pinned(name, workdir, capsys, monkeypatch):
    monkeypatch.chdir(workdir)
    code, rg_out, _ = run(capsys, ["rg", f"{name}.csm", "--engine", "both",
                                   "--json", "g.json", "--dot", "g.dot"])
    assert code == 0
    code, check_out, _ = run(capsys, ["check", f"{name}.csm", "--queries", "tlc_queries.tq",
                                      "--json"])
    assert code == 0
    outputs = {"rg": rg_out.encode(), "json": (workdir / "g.json").read_bytes(),
               "dot": (workdir / "g.dot").read_bytes(), "check": check_out.encode()}
    assert {k: hashlib.sha256(v).hexdigest() for k, v in outputs.items()} == GOLDEN[name]


def parallel_arcs(tmp_path, m: int):
    """``m`` machines with two complementary arcs into one state; the merged
    guard of the edge between the two reachable states is a sum of 2^m
    products equivalent to ``1``."""
    machines = "".join(
        f"machine P{i} {{ init a; state a {{ -> b when y{i}; -> b when ~y{i}; }}"
        f" state b {{ out B{i}; -> a when 1; }} }}\n"
        for i in range(m)
    )
    model = tmp_path / "parallel.csm"
    model.write_text(f"system Parallel {{\n{machines}}}\n")
    return model


class TestParallelArcs:
    def test_rg_json_prints_merged_guards_as_one(self, tmp_path, capsys):
        model = parallel_arcs(tmp_path, 12)
        js, dot = tmp_path / "g.json", tmp_path / "g.dot"
        code, out, err = run(capsys, ["rg", str(model), "--json", str(js), "--dot", str(dot)])
        assert code == 0, err
        assert "explicit: 2 reachable states, 2 edges" in out
        assert [e["guard"] for e in json.loads(js.read_text())["edges"]] == ["1", "1"]
        assert dot.read_text().count('[label="1"]') == 2

    def test_check_verdicts(self, tmp_path, capsys):
        model = parallel_arcs(tmp_path, 12)
        queries = tmp_path / "parallel.tq"
        queries.write_text(
            "ctl alt: AG (B0 => AX ~B0);\nctl fair: AG AF B0;\nctl split: EF (B0 * ~B11);\n"
            "go: always (~B0 => next B0);\nrest: always (~B0 => next ~B0);\n"
        )
        code, out, err = run(capsys, ["check", str(model), "--queries", str(queries), "--json"])
        assert code == 1, err
        doc = json.loads(out)
        verdicts = {entry["name"]: entry["holds"] for entry in doc["queries"]}
        assert verdicts == {"alt": True, "fair": True, "split": False, "go": True, "rest": False}
        rest = next(entry for entry in doc["queries"] if entry["name"] == "rest")
        assert [step["env"] for step in rest["trace"]] == [[], None]


def test_product_of_sums_guard_prints_its_cover(tmp_path, capsys):
    """An ISOP of a product of ten sums has 2^10 products; it still prints."""
    guard = " * ".join(f"(y{i} + z{i})" for i in range(10))
    model = tmp_path / "pos.csm"
    model.write_text(
        f"system Pos {{ machine M {{ init a; state a {{ -> b when {guard}; }}"
        " state b { out B; -> a when 1; } } }\n"
    )
    js = tmp_path / "g.json"
    dot = tmp_path / "g.dot"
    code, out, err = run(capsys, ["rg", str(model), "--json", str(js), "--dot", str(dot)])
    assert code == 0, err
    (edge,) = [e for e in json.loads(js.read_text())["edges"] if e["dst"] == 1]
    assert len(edge["guard"].split(" + ")) == 2**10
    queries = tmp_path / "pos.tq"
    queries.write_text("go: always (~B => next B);\n")
    code, out, err = run(capsys, ["check", str(model), "--queries", str(queries)])
    assert code == 1, err


FLAT = 10_000


@pytest.mark.parametrize("op", ["+", "*"])
def test_flat_chains_have_no_length_limit(tmp_path, capsys, op):
    """A 10,000-operand chain over 100 inputs is one node: nothing recurses per operand."""
    chain = f" {op} ".join(f"x{i % 100}" for i in range(FLAT))
    model = tmp_path / "flat.csm"
    model.write_text(
        f"system Flat {{ machine M {{ init a; state a {{ out A; -> b when {chain};"
        f" -> a when ~({chain}); }} state b {{ -> a when 1; }} }} }}\n"
    )
    env = " * ".join(f"x{i % 100}" for i in range(FLAT - 1))
    holds, fails = tmp_path / "holds.tq", tmp_path / "fails.tq"
    holds.write_text(
        "ctl some: " + " + ".join(["A"] * FLAT) + ";\n"
        "ctl back: AG (" + " * ".join(["~A"] * FLAT) + " => AX A);\n"
        f"leave: always (A * {env} => next ~A);\n"
    )
    fails.write_text(
        "ctl none: " + " * ".join(["~A"] * FLAT) + ";\n"
        f"stay: always (A * {env} => next A);\n"
    )
    for argv in (["lint"], ["rg"], ["vhdl", "-o", str(tmp_path / "flat.vhd")]):
        code, out, err = run(capsys, [argv[0], str(model), *argv[1:]])
        assert code == 0, (argv, err)
    for queries, expected in ((holds, {"some": True, "back": True, "leave": True}),
                              (fails, {"none": False, "stay": False})):
        code, out, err = run(capsys, ["check", str(model), "--queries", str(queries), "--json"])
        assert code == (0 if all(expected.values()) else 1), err
        assert {q["name"]: q["holds"] for q in json.loads(out)["queries"]} == expected


def test_deepest_ctl_nests_are_checked(workdir, capsys):
    # the A-operators are built from EX, EU and EG, several node levels per
    # parsed level, and a right-nested until repeats its right operand three
    # times; the checker walks the shared tree with an explicit stack
    n = frontend.MAX_NESTING
    nests = [
        "A [ " * n + "HG" + " U HY ]" * n,
        "A [ HG U " * n + "HY" + " ]" * n,
        *(op * n + "HG" for op in ("AG ", "AF ", "AX ")),
        "~ AG " * (n // 2) + "HG",
    ]
    queries = workdir / "deep.tq"
    for nest in nests:
        queries.write_text(f"ctl c: {nest};\n")
        code, out, err = run(capsys, ["check", str(workdir / "tlc.csm"), "--queries", str(queries)])
        assert code in (0, 1), (nest[:20], err)


def test_commands_leave_no_cosma_function_in_cyclic_garbage(workdir, capsys):
    # a self-referencing closure holds what it captures (a BDD manager, a
    # graph) until the cyclic collector runs
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        tlc = str(workdir / "tlc.csm")
        assert cli.main(["rg", tlc, "--json", str(workdir / "g.json"),
                         "--dot", str(workdir / "g.dot")]) == 0
        assert cli.main(["check", tlc, "--queries", str(workdir / "tlc_queries.tq")]) == 0
        gc.collect()
        leaked = sorted({f"{o.__module__}.{o.__qualname__}" for o in gc.garbage
                         if isinstance(o, types.FunctionType) and o.__module__.startswith("cosma")})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    capsys.readouterr()
    assert leaked == []


def test_non_ascii_symbol_names_are_input_errors(tmp_path, workdir, capsys):
    # the lexer takes "é" for a letter, but a symbol name is ASCII
    fine = tmp_path / "fine.tq"
    fine.write_text("q: always (1 => next 1);\n")
    bad = tmp_path / "bad.csm"
    for body in ("out é; -> a when 1;", "-> a when xé;"):
        bad.write_text(f"system s {{ machine M {{ init a; state a {{ {body} }} }} }}\n")
        for argv in (["lint"], ["rg"], ["check", "--queries", str(fine)], ["vhdl"]):
            code, out, err = run(capsys, [argv[0], str(bad), *argv[1:]])
            assert code == 2, (body, argv, err)
            assert re.search(r"bad\.csm:1:\d+: error: invalid symbol name '", err), err
    broken = tmp_path / "broken.tq"
    for text in ("q: always (é => next HY);", "ctl c: EF é;"):
        broken.write_text(text + "\n")
        code, out, err = run(capsys, ["check", str(workdir / "tlc.csm"), "--queries", str(broken)])
        assert code == 2, (text, err)
        assert re.search(r"broken\.tq:1:\d+: error: invalid symbol name 'é'", err), err


# the words of both languages that test_frontend's LEX_PIECES lacks, and names that
# the model language accepts but VHDL does not
MUTANT_PIECES = LEX_PIECES + ["state", "out", "ctl", "always", "eventually", "exists", "not",
                              "AG", "EF", "AX", "A", "E", "U", "HG", "Car",
                              "process", "signal", "bit", "x__y", "clk"]
MUTANT_COMMANDS = [["lint", "{model}"],
                   ["rg", "{model}", "--json", "{out}.json", "--dot", "{out}.dot"],
                   ["check", "{model}", "--queries", "{queries}", "--json"],
                   ["vhdl", "{model}", "-o", "{out}.vhd"],
                   ["vhdl", "{model}", "--state-encoding", "onehot", "--clock", "-o", "{out}.vhd"]]
# words that VHDL reserves, that its STANDARD package declares, or that the
# generated text declares, to rename a name of the model to
VHDL_WORDS = ["signal", "process", "next", "end", "is", "wait", "BIT", "bit_vector", "TRUE",
              "false", "ns", "clk", "Clk", "newstate", "current_state", "newHG", "x__y", "_a"]
IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


def draw_mutant(data, texts, model_path, queries_path):
    """The text of one of ``texts`` after one to three token-sized edits, or
    the model's text with one or every mention of one of its names (no
    keyword) renamed to one of ``VHDL_WORDS``; and the path it is for."""
    if data.draw(st.booleans()):
        text = texts[model_path]
        names = sorted({m.group() for m in IDENTIFIER.finditer(text)}
                       - frontend._SYSTEM_KEYWORDS)
        old, new = data.draw(st.sampled_from(names)), data.draw(st.sampled_from(VHDL_WORDS))
        spots = [m.start() for m in IDENTIFIER.finditer(text) if m.group() == old]
        if data.draw(st.booleans()):
            spots = [data.draw(st.sampled_from(spots))]
        for at in reversed(spots):
            text = text[:at] + new + text[at + len(old):]
        return model_path, text
    mutated = data.draw(st.sampled_from([model_path, queries_path]))
    text = texts[mutated]
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(0, len(text)))
        cut = data.draw(st.integers(0, 6))
        piece = data.draw(st.sampled_from(MUTANT_PIECES))
        text = text[:at] + piece + text[at + cut:]
    return mutated, text


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_every_command_survives_mutated_input(data, tmp_path_factory):
    # token-sized edits of the bundled model or requirements, or a name of the
    # model renamed to a VHDL word; an input problem exits 2 with its
    # location, never as an internal error
    where = tmp_path_factory.mktemp("mutant")
    model_path, queries_path = where / "m.csm", where / "q.tq"
    texts = {model_path: assets.text("tlc.csm"), queries_path: assets.text("tlc_queries.tq")}
    mutated, text = draw_mutant(data, texts, model_path, queries_path)
    texts[mutated] = text
    for path, written in texts.items():
        path.write_bytes(written.encode())
    located = re.compile(rf"({re.escape(str(model_path))}|{re.escape(str(queries_path))})"
                         r":\d+:\d+: error: ")
    for command in MUTANT_COMMANDS:
        argv = [word.format(model=model_path, queries=queries_path, out=where / "out")
                for word in command]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        lines = err.getvalue().splitlines()
        assert code in (0, 1, 2), (argv, text, lines)
        assert not any("internal error" in line for line in lines), (argv, text, lines)
        if code == 2:
            errors = [line for line in lines if "error: " in line]
            assert all(located.match(line) for line in errors), (argv, text, errors)


class CountingPattern:
    """A stand-in for ``frontend._TOKEN`` that counts its scans by the text scanned."""

    def __init__(self, pattern):
        self.pattern = pattern
        self.scans = collections.Counter()

    def findall(self, text):
        self.scans["findall", text] += 1
        return self.pattern.findall(text)

    def finditer(self, text):
        self.scans["finditer", text] += 1
        return self.pattern.finditer(text)


SCANNED_MODELS = {
    "clean": assets.text("tlc.csm").encode(),
    "next-output": b"system s { machine M { init a; state a { out next; -> a when 1; } } }\n",
    "superscript": b"system s { machine M { init a; state a { -> a when 1\xc2\xb2; } } }\n",
    "not-utf8": b"system s { machine M { init a; state a { out \xff; } } }\n",
}


@pytest.mark.parametrize("queries", ["clean", "stray-dollar"])
@pytest.mark.parametrize("name", SCANNED_MODELS)
def test_each_command_scans_each_file_once_for_texts_and_once_for_places(
        name, queries, tmp_path, monkeypatch):
    model_path, queries_path = tmp_path / "m.csm", tmp_path / "q.tq"
    model_path.write_bytes(SCANNED_MODELS[name])
    queries_path.write_text(assets.text("tlc_queries.tq") + ("$\n" if queries != "clean" else ""))
    counting = CountingPattern(frontend._TOKEN)
    monkeypatch.setattr(frontend, "_TOKEN", counting)
    for argv in (["lint"], ["rg"], ["check", "--queries", str(queries_path)],
                 ["vhdl", "-o", str(tmp_path / "m.vhd")]):
        counting.scans.clear()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main([argv[0], str(model_path), *argv[1:]])
        assert code in (0, 1, 2) and "internal error" not in err.getvalue(), (argv, err.getvalue())
        # the model is scanned, or the bytes before its first one that is not UTF-8
        assert counting.scans and max(counting.scans.values()) == 1, (argv, counting.scans)
        if argv[0] == "vhdl" and name == "next-output":
            assert code == 2 and err.getvalue().startswith(f"{model_path}:1:46: error: "), err


class TestNotUtf8:
    def test_model_file(self, tmp_path, workdir, capsys):
        bad = tmp_path / "bad.csm"
        bad.write_bytes(
            b"system s {\r\n  machine M { init a;\r state a { out \xc3\xa9\xff; } }\n}\n"
        )
        for argv in (["lint"], ["rg"], ["check", "--queries", str(workdir / "tlc_queries.tq")],
                     ["vhdl"]):
            code, out, err = run(capsys, [argv[0], str(bad), *argv[1:]])
            assert code == 2, (argv, err)
            # lines break as the parser breaks them, columns count characters
            assert err == f"{bad}:3:17: error: byte 0xff is not UTF-8\n"
            assert out == ""

    def test_query_file(self, tmp_path, workdir, capsys):
        bad = tmp_path / "bad.tq"
        bad.write_bytes(b"q: always (HG => next HY);\n\xfe\n")
        code, out, err = run(capsys, ["check", str(workdir / "tlc.csm"), "--queries", str(bad)])
        assert code == 2
        assert err == f"{bad}:2:1: error: byte 0xfe is not UTF-8\n"
        assert out == ""


class TestCheck:
    def test_bundled_suite_passes(self, workdir, capsys):
        code, out, err = run(
            capsys,
            ["check", str(workdir / "tlc.csm"), "--queries", str(workdir / "tlc_queries.tq")],
        )
        assert code == 0
        assert "10/10 queries hold" in out

    def test_car_variant_also_passes(self, workdir, capsys):
        code, out, err = run(
            capsys,
            ["check", str(workdir / "tlc_car.csm"), "--queries", str(workdir / "tlc_queries.tq")],
        )
        assert code == 0
        assert "(vacuous)" in out  # q3/q8 under the endless car stream

    def test_failing_query_exits_one_with_trace(self, workdir, capsys):
        bad = workdir / "bad.tq"
        bad.write_text("b: always (HG => next FG);\n")
        code, out, err = run(
            capsys, ["check", str(workdir / "tlc.csm"), "--queries", str(bad)]
        )
        assert code == 1
        assert "b: FALSE" in out
        assert "at (sHG, TSidle, TLidle)" in out

    def test_json_output(self, workdir, capsys):
        bad = workdir / "mixed.tq"
        bad.write_text("g: always (HY * TimTS => next (HR * FG));\nb: always (HG => next FG);\n")
        code, out, err = run(
            capsys,
            ["check", str(workdir / "tlc.csm"), "--queries", str(bad), "--json"],
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["all_hold"] is False
        by_name = {entry["name"]: entry for entry in doc["queries"]}
        assert by_name["g"]["holds"] is True
        assert by_name["b"]["holds"] is False
        assert by_name["b"]["trace"][0]["states"] == ["sHG", "TSidle", "TLidle"]

    def test_query_parse_error_exits_two(self, workdir, capsys):
        broken = workdir / "broken.tq"
        broken.write_text("oops next\n")
        code, out, err = run(
            capsys, ["check", str(workdir / "tlc.csm"), "--queries", str(broken)]
        )
        assert code == 2
        assert "error" in err
        n = frontend.MAX_NESTING
        for deep in ("q: always (" + "~" * 2000 + "HG => next HY);",
                     "ctl c: " + "EX " * 2000 + "HG;",
                     "ctl c: " + "(" * (n + 1) + "HG" + ")" * (n + 1) + ";"):
            broken.write_text(deep + "\n")
            code, out, err = run(
                capsys, ["check", str(workdir / "tlc.csm"), "--queries", str(broken)]
            )
            assert code == 2
            assert re.search(r"broken\.tq:1:\d+: error: formula nested more than", err)
        # queries that parse but cannot be checked against the model
        for text, message in (
            ("q: always (HG => next Car);", "query 'q': consequent uses non-output symbols Car"),
            ("m: always ((HG + Car) => next HY);", "antecedent factor 'HG + Car' mixes"),
        ):
            broken.write_text("ok: always (HG => next HY);\n" + text + "\n")
            code, out, err = run(
                capsys, ["check", str(workdir / "tlc.csm"), "--queries", str(broken)]
            )
            assert code == 2
            assert f"broken.tq:2:1: error: {message}" in err, err
        code, out, err = run(capsys, ["check", str(workdir / "tlc.csm"),
                                      "--queries", str(workdir / "missing.tq")])
        assert code == 2
        assert err.startswith(f"error: cannot read {workdir / 'missing.tq'}: "), err
        # the costliest level the parser accepts: a parenthesised CTL operand
        broken.write_text("ctl c: " + "(" * n + "HG" + ")" * n + ";\n")
        code, out, err = run(capsys, ["check", str(workdir / "tlc.csm"), "--queries", str(broken)])
        assert code == 0, err

    def test_query_warnings_are_placed_at_the_requirement_name(self, workdir, capsys):
        queries = workdir / "warn.tq"
        queries.write_text("ok: always (HY * TimTS => next FG);\n"
                           "  ok: always (HY * TimTS * Rain => next FG);\n"
                           "ctl  dry: AG (Sun => HG);\n")
        code, out, err = run(
            capsys, ["check", str(workdir / "tlc.csm"), "--queries", str(queries)]
        )
        assert code == 0, err
        assert err.splitlines() == [
            f"{queries}:2:3: warning: duplicate query name 'ok'",
            f"{queries}:2:3: warning: query 'ok' uses symbol 'Rain' that the system never "
            "mentions (it may be environmental)",
            f"{queries}:3:6: warning: requirement 'dry': no machine produces 'Sun', so the "
            "atom is false at every state",
        ]

    def test_model_parse_error_exits_two(self, tmp_path, workdir, capsys):
        bad = tmp_path / "bad.csm"
        bad.write_text("system {")
        code, out, err = run(
            capsys, ["check", str(bad), "--queries", str(workdir / "tlc_queries.tq")]
        )
        assert code == 2


class TestVhdl:
    def test_validates_once(self, workdir, capsys, monkeypatch):
        calls = []
        real = model.validate
        monkeypatch.setattr(model, "validate", lambda system: calls.append(system) or real(system))
        code, out, err = run(
            capsys, ["vhdl", str(workdir / "tlc.csm"), "-o", str(workdir / "t.vhd")]
        )
        assert code == 0, err
        assert len(calls) == 1

    def test_writes_file_and_reports_processes(self, workdir, capsys):
        out_path = workdir / "tlc.vhd"
        code, out, err = run(
            capsys,
            ["vhdl", str(workdir / "tlc.csm"), "-o", str(out_path),
             "--state-encoding", "width:3"],
        )
        assert code == 0
        assert "3 processes" in out
        text = out_path.read_text()
        assert "Car : in BIT;" in text
        assert ':="000";' in text
        assert "wait for 10 ns;" in text

    def test_stdout_when_no_output_path(self, workdir, capsys):
        code, out, err = run(capsys, ["vhdl", str(workdir / "tlc.csm")])
        assert code == 0
        assert "entity tlc is" in out

    def test_clock_flag(self, workdir, capsys):
        code, out, err = run(capsys, ["vhdl", str(workdir / "tlc.csm"), "--clock"])
        assert code == 0
        assert "wait until Clk'event" in out

    def test_clock_flag_on_a_model_that_produces_clk(self, tmp_path, capsys):
        path = tmp_path / "clk.csm"
        path.write_text("system c { machine M { init a; state a { out Clk; -> a when 1; } } }\n")
        code, out, err = run(capsys, ["vhdl", str(path), "--clock"])
        assert code == 2
        assert err == (f"{path}:1:46: error: clock port 'Clk' and output 'Clk' are the same "
                       "identifier in VHDL, which ignores case; rename one of them\n")
        assert out == ""

    @pytest.mark.parametrize("machine, label, where", [
        ("machine M { init a; state a { -> a when clk; } }", "input 'clk'", "1:52"),
        ("machine clk { init a; state a { -> a when 1; } }", "machine 'clk'", "1:20"),
    ], ids=["input-clk", "machine-clk"])
    def test_clock_port_clashes_like_any_other_name(self, tmp_path, capsys, machine, label,
                                                    where):
        path = tmp_path / "clk.csm"
        path.write_text(f"system c {{ {machine} }}\n")
        assert run(capsys, ["vhdl", str(path)])[0] == 0
        code, out, err = run(capsys, ["vhdl", str(path), "--clock"])
        assert code == 2
        assert err == (f"{path}:{where}: error: clock port 'Clk' and {label} are the same "
                       "identifier in VHDL, which ignores case; rename one of them\n")
        assert out == ""

    def test_empty_entity_name_is_not_a_vhdl_name(self, workdir, capsys):
        code, out, err = run(capsys, ["vhdl", str(workdir / "tlc.csm"), "--entity", ""])
        assert code == 2
        assert err == ("error: entity name '' is not a legal VHDL identifier; "
                       "rename it (for example to 's')\n")
        assert out == ""

    # a clash is placed at the later name, where a process variable new<X> is placed at X
    @pytest.mark.parametrize("machine, message, where", [
        ("machine M { init s; state s { out a; -> t when 1; } state t { out A; -> s when 1; } }",
         "output 'A' and output 'a'", "1:46"),
        ("machine M { init s; state s { out X; -> t when 1; } state t { out newX; -> s when 1; } }",
         "output 'newX' and process variable 'newX' (the next value of 'X')", "1:46"),
        ("machine go { init s; state s { out A; -> t when go; -> s when ~go; }"
         " state t { -> s when 1; } }",
         "input 'go' and machine 'go'", "1:20"),
        ("machine M { init s; state s { out X; -> t when newX; -> s when ~newX; }"
         " state t { -> s when 1; } }",
         "input 'newX' and process variable 'newX' (the next value of 'X')", "1:46"),
    ], ids=["outputs-differ-in-case", "output-named-like-a-variable", "machine-named-like-a-port",
            "input-named-like-a-variable"])
    def test_names_that_vhdl_reads_as_one_are_input_errors(self, tmp_path, capsys, machine,
                                                           message, where):
        path = tmp_path / "clash.csm"
        path.write_text(f"system c {{ {machine} }}\n")
        assert run(capsys, ["lint", str(path)])[0] == 0
        code, out, err = run(capsys, ["vhdl", str(path)])
        assert code == 2
        assert err == (f"{path}:{where}: error: {message} are the same identifier in VHDL, "
                       "which ignores case; rename one of them\n")
        assert out == ""

    # a name given by --entity has no place in the model
    @pytest.mark.parametrize("system, options, message, where", [
        ("s { machine M { init a; state a { out BIT; -> a when 1; } } }", [],
         "symbol 'BIT' hides 'BIT'", "1:46"),
        ("s { machine M { init a; state a { -> a when bit_vector; } } }", [],
         "symbol 'bit_vector' hides 'BIT_VECTOR'", "1:52"),
        ("s { machine M { init a; state a { out True; -> a when 1; } } }", [],
         "symbol 'True' hides 'TRUE'", "1:46"),
        ("s { machine FALSE { init a; state a { -> a when 1; } } }", [],
         "machine name 'FALSE' hides 'FALSE'", "1:20"),
        ("Bit { machine M { init a; state a { -> a when 1; } } }", [],
         "entity name 'Bit' hides 'BIT'", "1:8"),
        ("s { machine M { init a; state a { -> a when 1; } } }", ["--entity", "true"],
         "entity name 'true' hides 'TRUE'", None),
        ("s { machine M { init a; state a { out NS; -> a when 1; } } }", [],
         "symbol 'NS' hides 'ns'", "1:46"),
    ], ids=["output-BIT", "input-BIT_VECTOR", "output-TRUE", "machine-FALSE", "system-BIT",
            "entity-option-TRUE", "output-NS-unclocked"])
    def test_names_that_hide_standard_names_are_input_errors(self, tmp_path, capsys, system,
                                                             options, message, where):
        path = tmp_path / "std.csm"
        path.write_text(f"system {system}\n")
        assert run(capsys, ["lint", str(path)])[0] == 0
        code, out, err = run(capsys, ["vhdl", str(path), *options])
        assert code == 2
        prefix = "" if where is None else f"{path}:{where}: "
        assert err == (f"{prefix}error: {message} of VHDL's STANDARD package, which the "
                       "generated text uses; rename it\n")
        assert out == ""

    def test_ns_is_a_legal_name_under_clock(self, tmp_path, capsys):
        path = tmp_path / "ns.csm"
        path.write_text("system s { machine M { init a; state a { out NS; -> a when 1; } } }\n")
        code, out, err = run(capsys, ["vhdl", str(path), "--clock"])
        assert code == 0, err
        assert "wait until Clk'event" in out and " ns;" not in out

    @pytest.mark.parametrize("encoding", ["binary", "onehot"])
    def test_named_encodings_print_what_generate_gives(self, workdir, capsys, encoding):
        for name in ("tlc", "tlc_car"):
            path = workdir / f"{name}.csm"
            code, out, err = run(capsys, ["vhdl", str(path), "--state-encoding", encoding])
            assert code == 0, err
            system = frontend.parse_system(path.read_text(), str(path)).system
            opts = vhdlgen.CodegenOptions(state_encoding=encoding)
            assert out == vhdlgen.generate(system, opts)

    def test_a_state_without_arcs_stays_put(self, tmp_path, capsys):
        path = tmp_path / "still.csm"
        path.write_text("system s { machine M { init a; state a { } } }\n")
        code, out, err = run(capsys, ["vhdl", str(path)])
        assert code == 0 and err == "", err
        system = frontend.parse_system(path.read_text(), str(path)).system
        assert vhdlgen.structural_audit(out, system) == []
        assert '        when "0" => -- a\n          newstate := "0";\n      end case;' in out

    @pytest.mark.parametrize("encoding", ["binary", "onehot"])
    @pytest.mark.parametrize("name", ["if", "case", "loop", "process"])
    def test_a_state_named_like_a_block_word(self, tmp_path, capsys, name, encoding):
        # the name stands in its branch's "-- name" comment, where block words do not count
        path = tmp_path / "word.csm"
        path.write_text(f"system s {{ machine M {{ init a; state a {{ -> {name} when go; }} "
                        f"state {name} {{ -> a when go; }} }} }}\n")
        code, out, err = run(capsys, ["vhdl", str(path), "--state-encoding", encoding])
        assert code == 0 and err == "", err
        system = frontend.parse_system(path.read_text(), str(path)).system
        assert vhdlgen.structural_audit(out, system) == []
        assert f" => -- {name}\n" in out

    def test_illegal_output_name_gets_a_suggestion(self, tmp_path, capsys):
        path = tmp_path / "ux.csm"
        path.write_text("system u { machine M { init a; state a { out _x; -> a when 1; } } }\n")
        code, out, err = run(capsys, ["vhdl", str(path)])
        assert code == 2
        assert err == (f"{path}:1:46: error: symbol '_x' is not a legal VHDL identifier; "
                       "rename it (for example to 'x')\n")

    @pytest.mark.parametrize("model, where", [
        ("system s { machine M { init a; state a { out next; -> a when 1; } } }\n", "1:46"),
        # the state names before the output are not the symbol
        ("system s {\n  machine M {\n    init next;\n    state next { out next; -> next when 1; }"
         "\n  }\n}\n", "4:22"),
    ], ids=["one-line", "states-named-alike"])
    def test_a_keyword_output_is_placed_at_its_name(self, tmp_path, capsys, model, where):
        path = tmp_path / "kw.csm"
        path.write_text(model)
        assert run(capsys, ["lint", str(path)])[0] == 0
        code, out, err = run(capsys, ["vhdl", str(path)])
        assert code == 2
        assert err == (f"{path}:{where}: error: symbol 'next' is not a legal VHDL identifier; "
                       "rename it (for example to 'next0')\n")
        assert out == ""

    def test_bad_encoding_argument(self, workdir, capsys):
        for encoding in ("gray", "width:x"):
            with pytest.raises(SystemExit):
                cli.main(["vhdl", str(workdir / "tlc.csm"), "--state-encoding", encoding])
            assert "bad state encoding" in capsys.readouterr().err

    def test_width_overflow_is_input_error(self, workdir, capsys):
        code, out, err = run(
            capsys,
            ["vhdl", str(workdir / "tlc.csm"), "--state-encoding", "width:1"],
        )
        assert code == 2
        assert "at most" in err

    # each suggested rename is itself a name that vhdl accepts
    @pytest.mark.parametrize("text, option, error", [
        ("system s { machine é { init a; state a { -> a when 1; } } }", [],
         "1:20: error: machine name 'é' is not a legal VHDL identifier; rename it "
         "(for example to 's')"),
        ("system s { machine M { init a; state a { -> a when 1; } } }", ["--entity", "a b"],
         "error: entity name 'a b' is not a legal VHDL identifier; rename it "
         "(for example to 'a_b')"),
        ("system s { machine M { init a; state a { -> a when 1; } } }", ["--entity", "a-b"],
         "error: entity name 'a-b' is not a legal VHDL identifier; rename it "
         "(for example to 'a_b')"),
        ("system s { machine M { init a; state a { out bit_; -> a when 1; } } }", [],
         "1:46: error: symbol 'bit_' is not a legal VHDL identifier; rename it "
         "(for example to 'bit0')"),
        ("system true_ { machine M { init a; state a { -> a when 1; } } }", [],
         "1:8: error: entity name 'true_' is not a legal VHDL identifier; rename it "
         "(for example to 'true0')"),
    ], ids=["non-ascii", "space", "hyphen", "hides-bit", "hides-true"])
    def test_suggested_rename_is_legal(self, tmp_path, capsys, text, option, error):
        path = tmp_path / "names.csm"
        path.write_text(text + "\n", encoding="utf-8")
        code, out, err = run(capsys, ["vhdl", str(path), *option])
        assert code == 2
        assert err == (error if option else f"{path}:{error}") + "\n"
        assert out == ""
        # the suggestion, put in the name's place, passes
        name = re.search(r"'(.*?)'", error).group(1)
        renamed = re.search(r"for example to '(\w+)'", error).group(1)
        if option:
            option = [option[0], renamed]
        else:
            path.write_text(text.replace(name, renamed) + "\n", encoding="utf-8")
        assert run(capsys, ["vhdl", str(path), *option])[0] == 0

    # the top index of BIT_VECTOR (N-1 downto 0) must be a VHDL INTEGER, so a
    # wider vector is refused before any text is built
    @pytest.mark.parametrize("width", ["2147483649", "99999999999999999999"])
    def test_huge_width_is_input_error(self, workdir, capsys, width):
        code, out, err = run(
            capsys, ["vhdl", str(workdir / "tlc.csm"), "--state-encoding", f"width:{width}"])
        assert code == 2
        assert err == (f"error: --state-encoding width:{width}: "
                       "the width must be at most 2147483648\n")
        assert out == ""

    def test_bad_option_values_are_input_errors(self, workdir, capsys):
        for option in (["--state-encoding", "width:0"], ["--delay-ns", "-1"]):
            code, out, err = run(capsys, ["vhdl", str(workdir / "tlc.csm"), *option])
            assert code == 2, (option, err)
            assert err.startswith("error: ") and "internal" not in err, err
            assert err.startswith(f"error: {' '.join(option)}: "), err
            assert out == ""

    def test_unwritable_output_path_is_input_error(self, workdir, capsys):
        bad = workdir / "missing" / "tlc.vhd"
        code, out, err = run(capsys, ["vhdl", str(workdir / "tlc.csm"), "-o", str(bad)])
        assert code == 2, err
        assert err.startswith(f"error: cannot write {bad}: "), err

    def test_audit_failure_is_internal_error(self, workdir, capsys, monkeypatch):
        original = cli.vhdlgen.generate
        monkeypatch.setattr(
            cli.vhdlgen, "generate",
            lambda system, opts, **kw: original(system, opts, **kw).replace("end if;", "", 1),
        )
        out_path = workdir / "broken.vhd"
        code, out, err = run(
            capsys, ["vhdl", str(workdir / "tlc.csm"), "-o", str(out_path)]
        )
        assert code == 3
        assert "audit failure" in err
        assert not out_path.exists()


def break_symbolic_engine(monkeypatch, exc):
    def broken(system):
        raise exc

    monkeypatch.setattr(reach, "build_rg_symbolic", broken)


def test_unexpected_exception_is_internal_error(workdir, capsys, monkeypatch):
    break_symbolic_engine(monkeypatch, RuntimeError("engine broke"))
    code, out, err = run(capsys, ["rg", str(workdir / "tlc.csm"), "--engine", "bdd"])
    assert code == 3
    assert err == "internal error: RuntimeError: engine broke\n"


def test_internal_error_without_message_names_its_type(workdir, capsys, monkeypatch):
    # what a bare assert raises
    break_symbolic_engine(monkeypatch, AssertionError())
    code, out, err = run(capsys, ["rg", str(workdir / "tlc.csm"), "--engine", "bdd"])
    assert code == 3
    assert err == "internal error: AssertionError\n"


# a complete argv of each command, apart from the command's name
COMPLETE = {"lint": ["m.csm"], "rg": ["m.csm"], "check": ["m.csm", "--queries", "q.tq"],
            "vhdl": ["m.csm"], "examples": []}

# argvs on which parsing exits: help, usage errors and bad option values
PARSE_EXITS = [
    *([name, "-h"] for name in COMPLETE),
    *([name, *args, "extra"] for name, args in COMPLETE.items()),
    *([name, *args, "--bogus"] for name, args in COMPLETE.items()),
    ["lint"], ["rg"], ["rg", "--engine", "bdd"], ["check"], ["check", "m.csm"], ["vhdl"],
    ["rg", "m.csm", "--engine", "fast"],
    ["vhdl", "m.csm", "--state-encoding", "gray"], ["vhdl", "m.csm", "--state-encoding", "width:x"],
    ["vhdl", "m.csm", "--delay-ns", "x"],
    ["check", "m.csm", "--queries"], ["vhdl", "m.csm", "-o"], ["rg", "m.csm", "--dot"],
    ["examples", "--emit"],
    [], ["-h"], ["bogus"], ["vh"], ["LINT"], ["--"], ["-x", "lint"],
]


@pytest.mark.parametrize("argv", PARSE_EXITS, ids=lambda argv: " ".join(argv) or "(none)")
def test_parsing_exits_as_the_full_tree_does(argv, capsys, monkeypatch):
    # main builds only the named command's parser; build_parser() builds all five
    monkeypatch.setenv("COLUMNS", "80")
    outcomes = []
    for call in (cli.main, lambda argv: cli.build_parser().parse_args(argv)):
        with pytest.raises(SystemExit) as exc:
            call(argv)
        outcomes.append((exc.value.code, *capsys.readouterr()))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] in (0, 2)


class TestParserCount:
    @pytest.fixture()
    def built(self, monkeypatch):
        """The list of every ``argparse.ArgumentParser`` built from now on."""
        parsers = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            parsers.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        return parsers

    @pytest.mark.parametrize("argv", [
        ["lint", "tlc.csm"], ["rg", "tlc.csm", "--engine", "explicit"],
        ["check", "tlc.csm", "--queries", "tlc_queries.tq"], ["vhdl", "tlc.csm", "-o", "tlc.vhd"],
        ["examples"],
    ], ids=lambda argv: argv[0])
    def test_a_command_builds_the_top_parser_and_its_own(self, argv, workdir, capsys, built):
        argv = [str(workdir / word) if "." in word else word for word in argv]
        assert cli.main(argv) == 0, capsys.readouterr().err
        assert len(built) == 2

    def test_no_command_name_builds_all_five(self, capsys, built):
        with pytest.raises(SystemExit):
            cli.main(["bogus"])
        capsys.readouterr()
        assert len(built) == 6

    def test_each_call_builds_a_fresh_parser(self, workdir, capsys, built):
        for _ in range(2):
            assert cli.main(["lint", str(workdir / "tlc.csm")]) == 0
        assert len(built) == 4


class TestExamples:
    def test_listing(self, capsys):
        code, out, err = run(capsys, ["examples"])
        assert code == 0
        assert "tlc.csm" in out and "tlc_queries.tq" in out

    def test_emitted_files_parse(self, workdir):
        for name in ("tlc.csm", "tlc_car.csm", "tlc_queries.tq"):
            assert (workdir / name).exists()

    def test_unwritable_targets_are_input_errors(self, tmp_path, capsys):
        # a regular file in the place of the directory, then a directory in
        # the place of one of the files
        (tmp_path / "file").write_text("")
        (tmp_path / "dir" / "tlc.csm").mkdir(parents=True)
        for emit, bad in ((tmp_path / "file" / "ex", tmp_path / "file" / "ex"),
                          (tmp_path / "dir", tmp_path / "dir" / "tlc.csm")):
            code, out, err = run(capsys, ["examples", "--emit", str(emit)])
            assert code == 2, err
            assert err.startswith(f"error: cannot write {bad}: "), err


class _Stream(io.StringIO):
    """A text stream that says whether it is a terminal."""

    def __init__(self, tty: bool):
        super().__init__()
        self.tty = tty

    def isatty(self):
        return self.tty


class TestColor:
    @pytest.mark.parametrize("stdout_tty", [True, False], ids=["stdout-tty", "stderr-tty"])
    def test_each_stream_is_colored_when_it_is_a_terminal(self, workdir, monkeypatch,
                                                          stdout_tty):
        monkeypatch.delenv("COSMA_COLOR")
        out, err = _Stream(stdout_tty), _Stream(not stdout_tty)
        monkeypatch.setattr(sys, "stdout", out)
        monkeypatch.setattr(sys, "stderr", err)
        bad = workdir / "bad.csm"
        bad.write_text("system x {")
        assert cli.main(["lint", str(bad)]) == 2
        queries = str(workdir / "tlc_queries.tq")
        assert cli.main(["check", str(workdir / "tlc.csm"), "--queries", queries]) == 0
        assert ("\x1b[" in out.getvalue()) is stdout_tty
        assert ("\x1b[" in err.getvalue()) is not stdout_tty

    def test_forced_on(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("COSMA_COLOR", "1")
        bad = tmp_path / "bad.csm"
        bad.write_text("system x {")
        code, out, err = run(capsys, ["lint", str(bad)])
        assert code == 2
        assert "\x1b[31m" in err

    def test_forced_off(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("COSMA_COLOR", "0")
        bad = tmp_path / "bad.csm"
        bad.write_text("system x {")
        code, out, err = run(capsys, ["lint", str(bad)])
        assert "\x1b[" not in err
