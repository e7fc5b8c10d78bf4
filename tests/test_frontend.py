import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosma import assets, frontend, mc
from cosma import formula as F
from cosma import model
from gensys import broken_system, random_system, tlc_chain
from oracles import charwise_words, locate_name

TINY = """
system tiny {
  machine only {
    init off;
    state off {
      -> on when go;
      -> off when ~go;
    }
    state on {
      out lit;
      -> on when 1;
    }
  }
}
"""


class TestSystemParsing:
    def test_bundled_model_shape(self, tlc_system):
        assert [m.name for m in tlc_system.machines] == ["Controller", "TimerTS", "TimerTL"]
        assert [len(m.states) for m in tlc_system.machines] == [4, 3, 3]

    def test_empty_file(self):
        result = frontend.parse_system("", "empty.csm")
        assert not result.ok
        assert "expected 'system'" in result.diagnostics[0].message

    def test_tiny_model(self):
        result = frontend.parse_system(TINY, "tiny.csm")
        assert result.ok
        machine = result.system.machines[0]
        assert machine.initial == "off"
        assert [a.dst for a in machine.arcs] == ["on", "off", "on"]
        assert model.output_valuation(result.system, (1,)) == frozenset({F.Symbol("lit")})

    def test_misspelled_guard_symbol_becomes_environmental(self):
        # TimL instead of the produced TimTL: parses, but the never-produced
        # symbol shows up in the environment alphabet and gets a lint note
        text = """
        system drift {
          machine m {
            init a;
            state a { -> b when TimL; -> a when ~TimL; }
            state b { out TimTL; -> a when 1; }
          }
        }
        """
        result = frontend.parse_system(text, "drift.csm")
        assert result.ok
        env = {s.name for s in model.env_alphabet(result.system)}
        assert env == {"TimL"}
        notes = [d for d in result.diagnostics if "TimL" in d.message]
        assert notes and notes[0].severity == "warning"
        assert "never produced" in notes[0].message

    def test_syntax_error_has_position(self):
        text = "system x {\n  machine m {\n    init a\n"
        result = frontend.parse_system(text, "x.csm")
        assert not result.ok
        diag = result.diagnostics[0]
        assert diag.span is not None
        assert diag.span.line == 4  # the missing ';' is noticed at end of input

    def test_validation_errors_become_diagnostics(self):
        text = "system x { machine m { init ghost; state s { -> s when 1; } } }"
        result = frontend.parse_system(text, "x.csm")
        assert result.system is None
        assert any("ghost" in d.message for d in result.diagnostics if d.severity == "error")

    def test_structural_errors_are_placed_at_their_token(self):
        text = ("system S {\n  machine M {\n    init zz;\n"
                "    state a { -> b when x; -> c when y; }\n    state b { -> c when 1; }\n  }\n}\n")
        result = frontend.parse_system(text, "b.csm", errors_only=True)
        missing = "error: machine 'M': arc target 'c' is not a state"
        assert [str(d) for d in result.diagnostics] == [
            "b.csm:3:10: error: machine 'M': initial state 'zz' does not exist",
            f"b.csm:4:31: {missing}", f"b.csm:5:18: {missing}"]

    @pytest.mark.parametrize("errors_only", [True, False])
    def test_each_finding_is_placed_in_the_copy_it_is_about(self, errors_only, monkeypatch):
        # repeated machines and states: a finding lands on the line of its
        # own machine, state or arc, at the name it is about
        parsed = []
        real = model.check_structure
        monkeypatch.setattr(model, "check_structure",
                            lambda system: parsed.append(system) or real(system))
        rng = random.Random(26)
        repeats = 0
        # a third of the models repeat a machine, a third repeat states and
        # add two arcs to a missing state, a third take random breaks
        kinds = [["duplicate-machine", "bad-initial", "bad-arc"],
                 ["duplicate-state"] * 3 + ["bad-arc"] * 2, None]
        for i in range(200):
            breaks = kinds[i % 3]
            text = frontend.system_to_text(broken_system(rng, breaks))
            lines = text.splitlines()
            parsed.clear()
            result = frontend.parse_system(text, "r.csm", errors_only=errors_only)
            (system,) = parsed
            report = system.structure if errors_only else system.report
            entries = report.errors if errors_only else report.entries
            assert len(result.diagnostics) == len(entries)
            names = [m.name for m in system.machines]
            repeats += len(names) > len(set(names))
            # per machine, the lines (0-based) of its name, its init, its
            # states and its arcs, as system_to_text prints them
            blocks = []
            for number, line in enumerate(lines):
                if line.startswith("  machine "):
                    blocks.append((number, number + 1, [], []))
                elif line.startswith("    state "):
                    blocks[-1][2].append(number)
                elif line.startswith("      -> "):
                    blocks[-1][3].append(number)
            for diag, entry in zip(result.diagnostics, entries):
                assert diag.message == entry.message
                if entry.machine is None:
                    line, name = 0, system.name
                else:
                    machine = system.machines[entry.machine]
                    machine_line, init_line, state_lines, arc_lines = blocks[entry.machine]
                    if entry.code == "bad-initial":
                        line, name = init_line, machine.initial
                    elif entry.code == "bad-arc":
                        line, name = arc_lines[entry.arc], machine.arcs[entry.arc].dst
                    elif entry.state is not None:
                        line, name = state_lines[entry.state], machine.states[entry.state].name
                    else:
                        line, name = machine_line, machine.name
                span = diag.span
                assert span.line == line + 1, (str(diag), text)
                assert lines[line][span.column - 1:][:span.length] == name, (str(diag), text)
        assert repeats >= 50

    def test_errors_only_gives_the_errors_of_the_full_parse(self):
        rng = random.Random(7)
        # a shared output is a structural warning, with and without an error
        shared = ("system s { machine A { init a; state a { out x; } }"
                  " machine B { init %s; state b { out x; } } }")
        texts = [shared % "b", shared % "zz"] + [
            frontend.system_to_text(random_system(rng) if i % 2 else broken_system(rng))
            for i in range(200)]
        for text in texts:
            full = frontend.parse_system(text, "r.csm")
            errors = frontend.parse_system(text, "r.csm", errors_only=True)
            assert errors.diagnostics == [d for d in full.diagnostics if d.severity == "error"]
            assert (errors.ok, errors.system is None) == (full.ok, full.system is None)

    def test_query_and_temporal_words_are_names_in_models(self):
        text = "system x { machine m { init a; state a { -> a when not * AX; } } }"
        result = frontend.parse_system(text, "x.csm")
        assert result.ok
        assert result.system.machines[0].arcs[0].guard == F.And(F.Symbol("not"), F.Symbol("AX"))
        assert model.env_alphabet(result.system) == {"not", "AX"}

    def test_keyword_cannot_name_a_state(self):
        text = "system x { machine m { init state; state state { } } }"
        result = frontend.parse_system(text, "x.csm")
        assert not result.ok

    def test_trailing_garbage_rejected(self):
        result = frontend.parse_system(TINY + "leftover", "tiny.csm")
        assert not result.ok

    def test_comments_are_skipped(self):
        result = frontend.parse_system("// hello\n" + TINY, "tiny.csm")
        assert result.ok


class TestRoundTrip:
    def assert_same_structure(self, a: model.System, b: model.System):
        assert a.name == b.name
        assert len(a.machines) == len(b.machines)
        for ma, mb in zip(a.machines, b.machines):
            assert ma.name == mb.name
            assert ma.initial == mb.initial
            assert [(s.name, s.outputs) for s in ma.states] == [
                (s.name, s.outputs) for s in mb.states
            ]
            assert ma.arcs == mb.arcs

    def test_bundled_models(self, tlc_system, tlc_car_system):
        for system in (tlc_system, tlc_car_system):
            text = frontend.system_to_text(system)
            reparsed = frontend.parse_system(text, "roundtrip.csm")
            assert reparsed.ok
            self.assert_same_structure(system, reparsed.system)

    def test_random_systems(self):
        rng = random.Random(21)
        for _ in range(12):
            system = random_system(rng)
            text = frontend.system_to_text(system)
            reparsed = frontend.parse_system(text, "roundtrip.csm")
            assert reparsed.ok, [str(d) for d in reparsed.diagnostics]
            self.assert_same_structure(system, reparsed.system)


class TestQueryParsing:
    def test_next_query(self):
        res = frontend.parse_queries("q1: always (HG * Car * TimTL => next HY);")
        assert res.ok
        (query,) = res.queries
        assert isinstance(query, mc.Query)
        assert query.mode == "next" and query.universal
        assert F.to_text(query.antecedent) == "HG * Car * TimTL"
        assert F.to_text(query.consequent) == "HY"

    def test_eventually_query(self):
        res = frontend.parse_queries("q6: always (HY * TimTS => eventually (HR * FG));")
        (query,) = res.queries
        assert query.mode == "eventually" and query.universal
        assert F.to_text(query.consequent) == "HR * FG"

    def test_trivial_query(self):
        res = frontend.parse_queries("t: always (1 => next 1);")
        assert res.ok
        (query,) = res.queries
        assert query.antecedent == F.TRUE and query.consequent == F.TRUE

    def test_exists_variant(self):
        res = frontend.parse_queries("e: always (HG => exists eventually FG);")
        (query,) = res.queries
        assert query.mode == "eventually" and not query.universal

    def test_exists_next_rejected(self):
        res = frontend.parse_queries("e: always (HG => exists next FG);")
        assert not res.ok

    def test_glyph_aliases(self):
        res = frontend.parse_queries("g: always ((HG * Car * TimTL) ⇒ (○ HY));")
        assert res.ok, [str(d) for d in res.diagnostics]
        (query,) = res.queries
        assert query.mode == "next"
        assert F.to_text(query.consequent) == "HY"
        res2 = frontend.parse_queries("h: always ((HY * TimTS) ⇒ (◇ (HR * FG)));")
        assert res2.ok
        assert res2.queries[0].mode == "eventually"

    def test_not_keyword_in_queries(self):
        res = frontend.parse_queries("n: always (FG * not Car => next FY);")
        assert res.ok
        assert F.to_text(res.queries[0].antecedent) == "FG * ~Car"

    def test_ctl_escape_form(self):
        res = frontend.parse_queries("ctl lights: AG (HG + HY + HR);")
        assert res.ok
        (req,) = res.queries
        assert isinstance(req, mc.CtlQuery)
        assert req.formula == mc.CtlAG(F.Or(*(F.Symbol(n) for n in ("HG", "HY", "HR"))))

    def test_ctl_until(self):
        res = frontend.parse_queries("ctl u: A [ FR U FG ];")
        assert res.ok
        assert res.queries[0].formula == mc.CtlAU(F.Symbol("FR"), F.Symbol("FG"))
        res = frontend.parse_queries("ctl v: E [ 1 U HY ];")
        assert res.queries[0].formula == mc.CtlEU(F.TRUE, F.Symbol("HY"))

    def test_ctl_implication_and_nesting(self):
        res = frontend.parse_queries("ctl i: AG (Car => EF FG);")
        assert res.ok
        assert res.queries[0].formula == mc.CtlAG(
            mc.CtlImplies(F.Symbol("Car"), mc.CtlEF(F.Symbol("FG")))
        )

    def test_ctl_boolean_part_is_the_guard_grammar(self):
        text = "~x * (y + not z) + 1 + x * y * 0"
        (req,) = frontend.parse_queries(f"ctl b: {text};").queries
        (query,) = frontend.parse_queries(f"q: always ({text} => next y);").queries
        assert req.formula == query.antecedent
        assert F.to_text(req.formula) == "~x * (y + ~z) + 1 + x * y * 0"

    def test_temporal_words_are_names_outside_ctl(self, tlc_system):
        # a CTL requirement's operators end with it: the queries after one read
        # AX, E, EG, A and U as symbols, and "not" negates in every query
        text = (
            "ctl c: AG HG;\n"
            "q: always (AX * E => next HY);\n"
            "ctl d: EF (A + U);\n"
            "r: always (EG * not A => eventually HG);\n"
        )
        res = frontend.parse_queries(text, system=tlc_system)
        assert res.ok
        c, q, d, r = res.queries
        assert c.formula == mc.CtlAG(F.Symbol("HG"))
        assert q.antecedent == F.And(F.Symbol("AX"), F.Symbol("E"))
        assert d.formula == mc.CtlEF(F.Or(F.Symbol("A"), F.Symbol("U")))
        assert r.antecedent == F.And(F.Symbol("EG"), F.Not(F.Symbol("A")))
        assert len(res.diagnostics) == 6
        assert all(diag.severity == "warning" for diag in res.diagnostics)

    def test_unknown_symbol_warning_with_system(self, tlc_system):
        res = frontend.parse_queries(
            "w: always (HG * TimL => next HY);", system=tlc_system
        )
        assert res.ok  # warnings only
        assert any("TimL" in d.message for d in res.diagnostics)

    def test_bundled_suite_known_symbols_only(self, tlc_system):
        res = frontend.parse_queries(assets.text("tlc_queries.tq"), system=tlc_system)
        assert res.ok
        assert res.diagnostics == []
        assert [q.name for q in res.queries] == [f"q{i}" for i in range(1, 11)]

    def test_duplicate_names_warn(self):
        res = frontend.parse_queries("a: always (1 => next 1); a: always (1 => next 1);")
        assert any("duplicate" in d.message for d in res.diagnostics)

    def test_bad_query_syntax(self):
        res = frontend.parse_queries("q1 always (HG => next HY);")
        assert not res.ok
        assert res.diagnostics[0].span is not None


# -- the lexer against the character-at-a-time oracle ---------------------------

# pieces of random source text, with the known traps: "_", tabs, "\r", line
# comments (also at the end of the input), the query glyphs, the
# non-decimal digit "²" (str.isdigit but not \d), the Arabic-Indic digit
# "٣" (a decimal digit outside ASCII) and the non-ASCII letter "é"
LEX_PIECES = [
    "a", "Zq", "_", "x1", "when", "next", "0", "1", "10", "2", "²", "٣", "é",
    "⇒", "○", "◇", "->", "=>", "-", ">", "=", "{", "}", ";", ":", ",", "(", ")",
    "*", "+", "~", "!", "[", "]", "/", "//", "// note", " ", "  ", "\t", "\r",
    "\n", "@", ".", "\x0b", "\u00a0",
]


def lex_outcome(lex, text, glyphs):
    """Every token as (text, location, length), or the error raised.  The
    middle token is located first, so that later lookups go back as well."""
    try:
        words, locate = lex(text, "t.csm", glyphs)
    except frontend.ParseError as exc:
        return ("error", str(exc), exc.span.length)
    locate(len(words) // 2)
    spans = [locate(i) for i in range(len(words))]
    return [(word, str(span), span.length) for word, span in zip(words, spans)]


@settings(max_examples=400, deadline=None)
@given(pieces=st.lists(st.sampled_from(LEX_PIECES), max_size=30), glyphs=st.booleans())
def test_lexer_agrees_with_charwise_oracle(pieces, glyphs):
    text = "".join(pieces)
    assert lex_outcome(frontend._lex, text, glyphs) == lex_outcome(charwise_words, text, glyphs)


LEX_TRAPS = ["", "//", "x // end", "x\n// end", "\r\n\t_", "a²", "1²", "²1", "1٣", "٣", "1a",
             "0_", "é1", "½", "x - y", "a⇒b", "○◇"]


def numbered(cases):
    return pytest.mark.parametrize("text", cases, ids=[f"case{i}" for i in range(len(cases))])


@numbered(LEX_TRAPS)
@pytest.mark.parametrize("glyphs", [False, True])
def test_lexer_traps(text, glyphs):
    assert lex_outcome(frontend._lex, text, glyphs) == lex_outcome(charwise_words, text, glyphs)


def diagnostics_text(result):
    return [(str(d), d.span.length if d.span else None) for d in result.diagnostics]


# the inputs of the parser's error tests, in this file and in test_cli.py
N = frontend.MAX_NESTING
SYSTEM_ERRORS = [
    "",
    "system x {\n  machine m {\n    init a\n",
    "system x { machine m { init ghost; state s { -> s when 1; } } }",
    "system x { machine m { init state; state state { } } }",
    TINY + "leftover",
    "system x { machine m { init a; state a { -> ghost when 1; } } }",
    "system g { machine m { init a; state a { -> b when x; } state b { -> b when 1; } } }",
    "system {",
    "system x {",
] + [
    "system x { machine m { init a; state a { -> a when %s; } } }" % guard
    for depth in (2000, N + 1, N)
    for guard in ("(" * depth + "x" + ")" * depth, "~" * depth + "x")
] + [
    # names the lexer takes for identifiers but that are no symbol names
    "system s { machine M { init a; state a { out é; -> a when 1; } } }",
    "system s { machine M { init a; state a { out o; -> a when xé; } } }",
    # no machines, a machine without states
    "system x { }",
    "system x { machine m { init a; } }",
]
QUERY_ERRORS = [
    "e: always (HG => exists next FG);",
    "q1 always (HG => next HY);",
    "oops next\n",
    "q: always (" + "~" * 2000 + "HG => next HY);",
    "ctl c: " + "EX " * 2000 + "HG;",
    "ctl c: " + "(" * (N + 1) + "HG" + ")" * (N + 1) + ";",
    "w: always (HG * TimL => next HY);",
    "ctl c: EF Car;",
    # names the lexer takes for identifiers but that are no symbol names
    "q: always (é => next HY);",
    "ctl c: EF é;",
    # an until without U, a keyword as an atom, a missing mode
    "ctl c: A [ HG HY ];",
    "ctl c: EF next;",
    "q: always (HG => HY);",
    # parsed, but not checkable against the system
    "q: always (HG => next Car);",
    "m: always ((HG + Car) => next HY);",
]


@numbered(SYSTEM_ERRORS)
def test_system_diagnostics_match_charwise_oracle(text, monkeypatch):
    new = diagnostics_text(frontend.parse_system(text, "bad.csm"))
    monkeypatch.setattr(frontend, "_lex", charwise_words)
    assert new == diagnostics_text(frontend.parse_system(text, "bad.csm"))


@numbered(QUERY_ERRORS)
def test_query_diagnostics_match_charwise_oracle(text, tlc_system, monkeypatch):
    new = diagnostics_text(frontend.parse_queries(text, tlc_system, "broken.tq"))
    monkeypatch.setattr(frontend, "_lex", charwise_words)
    assert new == diagnostics_text(frontend.parse_queries(text, tlc_system, "broken.tq"))


def deepest_call(fn, *args):
    """The most Python frames that ``fn(*args)`` has open at once."""
    depth = deepest = 0

    def profile(frame, event, arg):
        nonlocal depth, deepest
        if event == "call":
            depth += 1
            deepest = max(deepest, depth)
        elif event == "return":
            depth -= 1

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return deepest


@pytest.mark.parametrize("form", ["system", "ctl", "until"])
def test_nesting_level_costs_five_frames(form):
    # the frame count behind MAX_NESTING's comment: a parenthesised operand
    # (an until form in CTL) costs 5 frames per level, at any depth
    def text(depth):
        if form == "system":
            guard = "(" * depth + "x" + ")" * depth
            return "system x { machine m { init a; state a { -> a when %s; } } }" % guard
        if form == "ctl":
            return "ctl c: " + "(" * depth + "HG" + ")" * depth + ";"
        return "ctl c: " + "A [ " * depth + "HG" + " U HG ]" * depth + ";"

    parse = frontend.parse_system if form == "system" else frontend.parse_queries
    half, last, full = (deepest_call(parse, text(depth)) for depth in (N // 2, N - 1, N))
    assert full - last == 5
    assert full - half == 5 * (N - N // 2)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_model_diagnostics_match_charwise_oracle(data):
    text = assets.text("tlc.csm")
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(0, len(text)))
        cut = data.draw(st.integers(0, 6))
        piece = data.draw(st.sampled_from(LEX_PIECES + ["state", "out"]))
        text = text[:at] + piece + text[at + cut:]

    new = diagnostics_text(frontend.parse_system(text, "m.csm"))
    real = frontend._lex
    frontend._lex = charwise_words
    try:
        assert new == diagnostics_text(frontend.parse_system(text, "m.csm"))
    finally:
        frontend._lex = real


# -- spans are built only for what is reported ------------------------------------


def cycle_text(n, stay):
    states = "".join(
        f"    state s{j} {{ out o{j}; -> s{(j + 1) % n} when go;"
        + (f" -> s{j} when ~go;" if stay else "")
        + " }\n"
        for j in range(n)
    )
    return f"system cycle {{\n  machine m {{\n    init s0;\n{states}  }}\n}}\n"


def cycle_diagnostics_with_charwise_oracle(text, monkeypatch):
    """``diagnostics_text`` of ``text`` parsed as cycle.csm, with the front
    end's lexer and then with the oracle's."""
    new = diagnostics_text(frontend.parse_system(text, "cycle.csm"))
    monkeypatch.setattr(frontend, "_lex", charwise_words)
    return new, diagnostics_text(frontend.parse_system(text, "cycle.csm"))


def test_far_down_warning_matches_charwise_oracle(monkeypatch):
    # a coverage gap at every state; the last state's name is 2,000 tokens in
    new, oracle = cycle_diagnostics_with_charwise_oracle(cycle_text(150, stay=False), monkeypatch)
    assert new == oracle
    (last_gap,) = [(where, length) for where, length in new if "'s149'" in where]
    assert last_gap[0].startswith("cycle.csm:153:11: warning: ")
    assert last_gap[1] == 4


def test_error_at_the_last_token_of_a_large_model_matches_charwise_oracle(monkeypatch):
    text = cycle_text(165, stay=True)
    assert len(text) > 10_000
    new, oracle = cycle_diagnostics_with_charwise_oracle(text[:-2] + "]\n", monkeypatch)
    assert new == oracle == [("cycle.csm:170:1: error: expected 'machine', found ']'", 1)]


@pytest.fixture()
def spans_built(monkeypatch):
    """The arguments of every ``SourceSpan`` the front end builds."""
    built = []
    real = frontend.SourceSpan
    monkeypatch.setattr(frontend, "SourceSpan", lambda *args: built.append(args) or real(*args))
    return built


@pytest.mark.parametrize("stay", [True, False])
def test_valid_parse_builds_one_span_per_diagnostic(stay, spans_built):
    result = frontend.parse_system(cycle_text(150, stay), "cycle.csm")
    assert result.ok
    # the environment note alone, or also a coverage gap at every state
    assert len(result.diagnostics) == (1 if stay else 151)
    assert len(spans_built) <= len(result.diagnostics)


def test_parse_error_builds_one_span(spans_built):
    result = frontend.parse_system(cycle_text(150, True)[:-2] + "} extra", "cycle.csm")
    assert [str(d) for d in result.diagnostics] == [
        "cycle.csm:155:3: error: unexpected 'extra' after the system"
    ]
    assert len(spans_built) == 1


# -- names are placed at their first mention ---------------------------------------


def assert_placed_as_the_oracle(text, file="m.csm"):
    """``ParseResult.place`` gives the oracle's span for the system, each machine
    and each symbol, and None, as the oracle does, for a name that none is."""
    result = frontend.parse_system(text, file)
    system = result.system
    names = [("system", system.name), *[("machine", m.name) for m in system.machines],
             *[("symbol", s) for s in system.symbols], ("machine", "nosuch"), ("symbol", "nosuch")]
    for kind, name in names:
        span = result.place(kind, name)
        assert span == locate_name(text, file, kind, name), (kind, name)
        assert (span is None) == (name == "nosuch"), (kind, name)


# whole lines inserted between the model's lines; the comments name its names
INSERTED_LINES = ["\n", "\n\n", "// a comment\n", "  // machine m0 { init m0s0; }\n",
                  "// out o0_0, e0; -> m0s1 when e1;\n", "\t//\n"]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), data=st.data())
def test_placement_agrees_with_the_oracle_on_random_systems(seed, data):
    lines = frontend.system_to_text(random_system(random.Random(seed))).splitlines(keepends=True)
    for _ in range(data.draw(st.integers(0, 6))):
        at = data.draw(st.integers(0, len(lines)))
        lines.insert(at, data.draw(st.sampled_from(INSERTED_LINES)))
    assert_placed_as_the_oracle("".join(lines))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_placement_agrees_with_the_oracle_on_tlc_chains(k):
    assert_placed_as_the_oracle(frontend.system_to_text(tlc_chain(k)))


@pytest.mark.parametrize("name", ["tlc.csm", "tlc_car.csm"])
def test_placement_agrees_with_the_oracle_on_the_bundled_models(name):
    assert_placed_as_the_oracle(assets.text(name), name)
