import dataclasses
import hashlib
import json
import re

import pytest

from cosma import cli, frontend, model, reach


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

    def test_missing_file(self, capsys):
        code, out, err = run(capsys, ["lint", "no/such/file.csm"])
        assert code == 2


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
            return dataclasses.replace(sym, reachable=m.and_(sym.reachable, m.not_(cube)))

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
        # the costliest level the parser accepts: a parenthesised CTL operand
        broken.write_text("ctl c: " + "(" * n + "HG" + ")" * n + ";\n")
        code, out, err = run(capsys, ["check", str(workdir / "tlc.csm"), "--queries", str(broken)])
        assert code == 0, err

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

    def test_bad_encoding_argument(self, workdir, capsys):
        with pytest.raises(SystemExit):
            cli.main(["vhdl", str(workdir / "tlc.csm"), "--state-encoding", "gray"])
        capsys.readouterr()

    def test_width_overflow_is_input_error(self, workdir, capsys):
        code, out, err = run(
            capsys,
            ["vhdl", str(workdir / "tlc.csm"), "--state-encoding", "width:1"],
        )
        assert code == 2
        assert "at most" in err

    def test_bad_option_values_are_input_errors(self, workdir, capsys):
        for option in (["--state-encoding", "width:0"], ["--delay-ns", "-1"]):
            code, out, err = run(capsys, ["vhdl", str(workdir / "tlc.csm"), *option])
            assert code == 2, (option, err)
            assert err.startswith("error: ") and "internal" not in err, err
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


class TestColor:
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
