import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosma import formula as F
from cosma import assets, frontend, mc, model, vhdlgen
from gensys import random_system
from oracles import all_valuations, regex_audit
from vhdl_interp import ProcessModel

WIDTH3 = vhdlgen.CodegenOptions(state_encoding=3)


@pytest.fixture(scope="module")
def tlc_vhdl(tlc_system):
    return vhdlgen.generate(tlc_system, WIDTH3)


def first_machine_system(guards_and_outputs):
    """One-machine helper; guards_and_outputs: list of (outputs, [(dst, guard)])."""
    states = []
    arcs = []
    for j, (outs, arclist) in enumerate(guards_and_outputs):
        states.append(model.State(f"s{j}", frozenset(F.Symbol(o) for o in outs)))
        for dst, guard in arclist:
            arcs.append(model.Arc(f"s{j}", f"s{dst}", guard))
    machine = model.Machine("m", states, "s0", arcs)
    return model.System("sys", [machine])


def process_spans(lines):
    """(first, last) line index of every ``X : process`` ... ``end process X;``."""
    spans, opened = [], {}
    for i, line in enumerate(lines):
        if line.endswith(" : process"):
            opened[line.split(" : ")[0].strip()] = i
        elif line.startswith("  end process ") and line.endswith(";"):
            first = opened.pop(line[len("  end process ") : -1], None)
            if first is not None:
                spans.append((first, i))
    return spans


def swap_processes(lines, first, second):
    """The lines with two disjoint process spans exchanged."""
    (a, b), (c, d) = sorted((first, second))
    return lines[:a] + lines[c : d + 1] + lines[b + 1 : c] + lines[a : b + 1] + lines[d + 1 :]


class TestFragments:
    def test_environment_port_line(self, tlc_vhdl):
        assert "Car : in BIT;" in tlc_vhdl
        assert "tauTL : in BIT;" in tlc_vhdl

    def test_produced_symbols_are_out_ports(self, tlc_vhdl):
        assert "HG : out BIT;" in tlc_vhdl
        assert "StartTL : out BIT;" in tlc_vhdl

    def test_width3_initial_constant(self, tlc_vhdl):
        assert 'variable current_state : BIT_VECTOR (2 downto 0) :="000";' in tlc_vhdl

    def test_default_delay(self, tlc_vhdl):
        assert "wait for 10 ns;" in tlc_vhdl

    def test_custom_delay(self, tlc_system):
        text = vhdlgen.generate(tlc_system, vhdlgen.CodegenOptions(delay_ns=25))
        assert "wait for 25 ns;" in text
        assert "wait for 10 ns;" not in text

    def test_clock_variant(self, tlc_system):
        text = vhdlgen.generate(tlc_system, vhdlgen.CodegenOptions(clock=True))
        assert "Clk : in BIT;" in text
        assert "wait until Clk'event and Clk = '1';" in text
        assert "wait for" not in text

    def test_guard_translation(self, tlc_vhdl):
        assert "((Car='1') and (TimTL='1'))" in tlc_vhdl
        assert "(not ((Car='1') and (TimTL='1')))" in tlc_vhdl

    def test_chains_print_left_nested_pairs(self):
        x, y, z = (F.Symbol(n) for n in "xyz")
        flat, nested = F.And(F.And(x, y), z), F.And(x, F.And(y, z))
        assert vhdlgen._condition(flat) == "(((x='1') and (y='1')) and (z='1'))"
        assert vhdlgen._condition(nested) == "((x='1') and ((y='1') and (z='1')))"
        mixed = F.Or(F.Or(x, F.Not(y)), F.And(y, z))
        assert vhdlgen._condition(mixed) == "(((x='1') or (not (y='1'))) or ((y='1') and (z='1')))"

    def test_prepared_value_variables(self, tlc_vhdl):
        assert "variable newHG : BIT;" in tlc_vhdl
        assert "HG <= newHG;" in tlc_vhdl

    def test_byte_identical_output(self, tlc_system):
        again = vhdlgen.generate(tlc_system, WIDTH3)
        assert again == vhdlgen.generate(tlc_system, WIDTH3)


class TestAudit:
    def test_bundled_model_passes(self, tlc_vhdl, tlc_system):
        problems = vhdlgen.structural_audit(tlc_vhdl, tlc_system)
        assert not problems, problems

    def test_missing_end_if_detected(self, tlc_vhdl, tlc_system):
        corrupted = tlc_vhdl.replace("end if;", "", 1)
        problems = vhdlgen.structural_audit(corrupted, tlc_system)
        assert problems
        assert any("if" in p for p in problems)

    def test_missing_port_detected(self, tlc_vhdl, tlc_system):
        corrupted = tlc_vhdl.replace("    Car : in BIT;\n", "")
        problems = vhdlgen.structural_audit(corrupted, tlc_system)
        assert any("'Car'" in p for p in problems)

    def test_dropped_when_branch_detected(self, tlc_vhdl, tlc_system):
        corrupted = tlc_vhdl.replace('when "001" => -- sHY', 'when "001" => -- zzz', 1)
        problems = vhdlgen.structural_audit(corrupted, tlc_system)
        assert any("sHY" in p for p in problems)

    def test_one_state_machine(self):
        system = first_machine_system([((), [(0, F.TRUE)])])
        text = vhdlgen.generate(system)
        problems = vhdlgen.structural_audit(text, system)
        assert not problems, problems
        assert text.count('when "') == 1
        assert "\n          if " not in text  # single spontaneous arc is compound

    def test_when_branch_moved_to_another_process(self, tlc_vhdl, tlc_system):
        branch = '        when "001" => -- TSrun\n'
        target = '        when "010" => -- TLelap\n'
        corrupted = tlc_vhdl.replace(branch, "").replace(target, target + branch)
        problems = vhdlgen.structural_audit(corrupted, tlc_system)
        assert problems == [
            "machine 'TimerTS', state 'TSrun': 0 'when' branches, expected exactly one"
        ]

    def test_duplicated_port_line(self, tlc_vhdl, tlc_system):
        line = "    tauTL : in BIT;\n"
        corrupted = tlc_vhdl.replace(line, line + line)
        problems = vhdlgen.structural_audit(corrupted, tlc_system)
        assert problems == ["symbol 'tauTL' appears as a port 2 times, expected once"]

    def test_missing_end_case(self, tlc_vhdl, tlc_system):
        corrupted = tlc_vhdl.replace("      end case;\n", "", 1)
        problems = vhdlgen.structural_audit(corrupted, tlc_system)
        assert problems == ["unbalanced case blocks: 3 openers, 2 closers"]

    def test_missing_end_loop(self, tlc_vhdl, tlc_system):
        corrupted = tlc_vhdl.replace("    end loop;\n", "", 1)
        problems = vhdlgen.structural_audit(corrupted, tlc_system)
        assert problems == ["unbalanced loop blocks: 3 openers, 2 closers"]

    def test_missing_end_process(self, tlc_vhdl, tlc_system):
        corrupted = tlc_vhdl.replace("  end process TimerTS;\n", "")
        problems = vhdlgen.structural_audit(corrupted, tlc_system)
        assert problems == [
            "no process block for machine 'TimerTS'",
            "unbalanced process blocks: 3 openers, 2 closers",
        ]

    def test_removed_state_vector_declaration(self, tlc_vhdl, tlc_system):
        # the last process is TimerTL's; both of its vector variables go
        head, _, tail = tlc_vhdl.rpartition(
            '    variable current_state : BIT_VECTOR (2 downto 0) :="000";\n'
            '    variable newstate : BIT_VECTOR (2 downto 0) :="000";\n'
        )
        problems = vhdlgen.structural_audit(head + tail, tlc_system)
        assert problems == ["machine 'TimerTL': no state vector declaration"]

    def test_processes_in_swapped_order(self, tlc_vhdl, tlc_system):
        lines = tlc_vhdl.split("\n")
        _, timer_ts, timer_tl = process_spans(lines)
        corrupted = "\n".join(swap_processes(lines, timer_ts, timer_tl))
        problems = vhdlgen.structural_audit(corrupted, tlc_system)
        assert problems == [
            "expected one process per machine ['Controller', 'TimerTS', 'TimerTL'], "
            "found ['Controller', 'TimerTL', 'TimerTS']"
        ]

    def test_audit_compiles_no_pattern_per_name(self, monkeypatch):
        go = F.Symbol("go")
        n = 300
        states = [model.State(f"s{j}", frozenset()) for j in range(n)]
        arcs = [model.Arc(f"s{j}", f"s{(j + 1) % n}", go) for j in range(n)]
        system = model.System("cycle", [model.Machine("m", states, "s0", arcs)])
        text = vhdlgen.generate(system, vhdlgen.CodegenOptions(state_encoding="onehot"))

        def refuse(*args, **kwargs):
            raise AssertionError("the audit built a pattern at run time")

        for name in ("compile", "search", "findall", "finditer"):
            monkeypatch.setattr(re, name, refuse)
        problems = vhdlgen.structural_audit(text, system)
        assert not problems, problems


@st.composite
def mutated_vhdl(draw):
    """A random system's VHDL in some mode, after a few line-level edits."""
    system = random_system(random.Random(draw(st.integers(0, 10**6))))
    mode = draw(st.sampled_from(["binary", "onehot", "width", "clock"]))
    if mode == "width":
        fits = max(1, (max(len(m.states) for m in system.machines) - 1).bit_length())
        opts = vhdlgen.CodegenOptions(state_encoding=fits + draw(st.integers(0, 2)))
    elif mode == "clock":
        opts = vhdlgen.CodegenOptions(clock=True)
    else:
        opts = vhdlgen.CodegenOptions(state_encoding=mode)
    lines = vhdlgen.generate(system, opts).split("\n")
    state_names = [s.name for m in system.machines for s in m.states]
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["delete", "duplicate", "copy", "append", "split", "rename",
                                     "recode", "swap", "glue"]))
        if kind in ("delete", "duplicate", "copy", "append", "split"):
            # one kind of line the audit reads, or any line ("")
            keys = draw(st.sampled_from(
                [("process",), (" => -- ",), ("BIT",), ("if", "case", "loop"), ("",)]
            ))
            wanted = [i for i, line in enumerate(lines) if any(k in line for k in keys)]
            if not wanted:
                continue
            i = draw(st.sampled_from(wanted))
            if kind == "delete":
                del lines[i]
            elif kind == "duplicate":
                lines.insert(i, lines[i])
            elif kind == "copy":
                lines.insert(draw(st.integers(0, len(lines))), lines[i])
            elif kind == "split":  # the line broken in two at one of its spaces
                spaces = [j for j, char in enumerate(lines[i]) if char == " "]
                if spaces:
                    j = draw(st.sampled_from(spaces))
                    lines[i : i + 1] = [lines[i][:j], lines[i][j + 1 :]]
            else:
                lines[i] += draw(st.sampled_from([";", ",", " ", " x", "0"]))
        elif kind in ("rename", "recode"):
            branches = [i for i, line in enumerate(lines) if " => -- " in line]
            if branches:
                i = draw(st.sampled_from(branches))
                head, _, name = lines[i].partition(" => -- ")
                if kind == "rename":
                    name = draw(st.sampled_from(state_names + ["zz", "if", "case", "loop",
                                                                "process"]))
                    name += draw(st.sampled_from(["", ".", " x", "x", "_", "0"]))
                else:  # a code one bit shorter or longer
                    prefix, code, _ = head.split('"')
                    code = code[1:] if draw(st.booleans()) else code + draw(st.sampled_from("01"))
                    head = f'{prefix}"{code}"'
                lines[i] = f"{head} => -- {name}"
        elif kind == "swap":
            spans = process_spans(lines)
            if len(spans) >= 2:
                first, second = draw(
                    st.lists(st.sampled_from(spans), min_size=2, max_size=2, unique=True)
                )
                if first[1] < second[0] or second[1] < first[0]:
                    lines = swap_processes(lines, first, second)
        else:  # glue: "end" no longer a whole word, or a second space after it
            ends = [i for i, line in enumerate(lines) if "end " in line]
            if ends:
                i = draw(st.sampled_from(ends))
                glued = draw(st.sampled_from(["xend ", "_end ", "end  "]))
                lines[i] = lines[i].replace("end ", glued, 1)
    return system, "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(case=mutated_vhdl())
def test_audit_agrees_with_regex_oracle(case):
    system, text = case
    assert vhdlgen.structural_audit(text, system) == regex_audit(text, system)


@pytest.mark.parametrize("old, new, clean", [
    ("  TimerTS : process\n", "  TimerTS\n    : process\n", True),
    ("  TimerTS : process\n", "  TimerTS\n  :\n  process\n", True),
    ("  port (\n", "  port (\n\n   \n", True),
    ("\n", "\r\n", True),
    (" : in BIT;\n", " : in BIT;  \n", True),
    ("  TimerTS : process\n", "  TimerTS : process TimerTS : process\n", False),
    # the second line starts inside the first label's match, so "process" is no label
    ("  TimerTS : process\n", "  TimerTS :\nprocess : process\n", False),
], ids=["label-split-from-process", "colon-on-its-own-line", "blank-lines-before-a-port",
        "crlf-line-ends", "trailing-spaces-after-a-port", "two-labels-on-one-line",
        "line-start-inside-a-label-match"])
def test_audit_agrees_with_regex_oracle_on_layout(tlc_vhdl, tlc_system, old, new, clean):
    assert old in tlc_vhdl
    text = tlc_vhdl.replace(old, new)
    problems = vhdlgen.structural_audit(text, tlc_system)
    assert problems == regex_audit(text, tlc_system)
    assert (problems == []) == clean, problems


class TestOptionsAndErrors:
    def test_default_binary_width(self, tlc_system):
        text = vhdlgen.generate(tlc_system)
        # four controller states fit in two bits
        assert 'variable current_state : BIT_VECTOR (1 downto 0) :="00";' in text

    def test_onehot_encoding(self, tlc_system):
        text = vhdlgen.generate(tlc_system, vhdlgen.CodegenOptions(state_encoding="onehot"))
        assert 'variable current_state : BIT_VECTOR (3 downto 0) :="0001";' in text
        assert vhdlgen.structural_audit(text, tlc_system) == []

    def test_width_overflow(self, tlc_system):
        with pytest.raises(vhdlgen.VhdlGenError, match="at most"):
            vhdlgen.generate(tlc_system, vhdlgen.CodegenOptions(state_encoding=1))

    def test_entity_name_override(self, tlc_system):
        text = vhdlgen.generate(tlc_system, vhdlgen.CodegenOptions(entity_name="lights"))
        assert "entity lights is" in text

    def test_empty_entity_name_is_checked_like_any_name(self, tlc_system):
        with pytest.raises(vhdlgen.VhdlGenError,
                           match="entity name '' is not a legal VHDL identifier"):
            vhdlgen.generate(tlc_system, vhdlgen.CodegenOptions(entity_name=""))

    def test_illegal_symbol_name(self):
        system = first_machine_system([(("very__bad",), [(0, F.TRUE)])])
        with pytest.raises(vhdlgen.VhdlGenError) as err:
            vhdlgen.generate(system)
        assert "very_bad" in str(err.value)  # the suggested rename

    def test_reserved_word_symbol(self):
        system = first_machine_system([(("signal",), [(0, F.TRUE)])])
        with pytest.raises(vhdlgen.VhdlGenError, match="not a legal VHDL identifier"):
            vhdlgen.generate(system)

    # for any name refused as not legal, the suggested rename passes the same
    # check; tests/test_cli.py runs five such names through vhdl
    @settings(max_examples=300, deadline=None)
    @given(name=st.text(st.sampled_from("aZb9_é -.xBIT") | st.characters(), max_size=12)
           | st.sampled_from(sorted(vhdlgen._VHDL_RESERVED) + ["bit_", "true_", "_ns", "false__"]),
           clock=st.booleans())
    def test_every_suggestion_passes_the_same_check(self, name, clock):
        hidden = vhdlgen._STANDARD if clock else vhdlgen._STANDARD_UNCLOCKED
        try:
            vhdlgen._check_identifier(name, "symbol", hidden, None)
            return
        except vhdlgen.VhdlGenError as exc:
            found = re.fullmatch(r"symbol .* is not a legal VHDL identifier; "
                                 r"rename it \(for example to '(.*)'\)", str(exc), re.S)
            if found is None:  # it hides a STANDARD name
                return
        vhdlgen._check_identifier(found.group(1), "symbol", hidden, None)

    def test_invalid_encoding_option(self):
        with pytest.raises(vhdlgen.VhdlGenError):
            vhdlgen.CodegenOptions(state_encoding="gray")

    def test_invalid_width_and_delay_options(self):
        with pytest.raises(vhdlgen.VhdlGenError, match="unknown state encoding"):
            vhdlgen.CodegenOptions(state_encoding="width")
        # in the words of the cosma vhdl options that give them
        with pytest.raises(vhdlgen.VhdlGenError) as err:
            vhdlgen.CodegenOptions(state_encoding=0)
        assert str(err.value) == "--state-encoding width:0: the width must be at least 1"
        with pytest.raises(vhdlgen.VhdlGenError) as err:
            vhdlgen.CodegenOptions(delay_ns=-1)
        assert str(err.value) == "--delay-ns -1: the delay must be nonnegative"

    def test_condition_refuses_a_ctl_node(self):
        with pytest.raises(vhdlgen.VhdlGenError, match="not a formula node"):
            vhdlgen._condition(F.Or(F.Symbol("a"), mc.CtlEX(F.Symbol("a"))))

    def test_silent_system_has_no_port_clause(self):
        system = first_machine_system([((), [(0, F.TRUE)])])
        text = vhdlgen.generate(system)
        assert "port (" not in text
        assert vhdlgen.structural_audit(text, system) == []

    def test_unvalidated_system_rejected(self):
        machine = model.Machine(
            "m", [model.State("s", frozenset())], "ghost",
            [model.Arc("s", "s", F.TRUE)],
        )
        with pytest.raises(vhdlgen.VhdlGenError, match="does not validate"):
            vhdlgen.generate(model.System("sys", [machine]))

    def test_parse_and_generation_validate_once(self, monkeypatch):
        calls = []
        real = model.validate
        monkeypatch.setattr(model, "validate", lambda system: calls.append(system) or real(system))
        result = frontend.parse_system(assets.text("tlc.csm"), "tlc.csm")
        vhdlgen.generate(result.system)
        vhdlgen.generate(result.system, vhdlgen.CodegenOptions(state_encoding="onehot"))
        assert calls == [result.system]


class TestOverlapHandling:
    def test_overlapping_guards_flagged_and_first_wins(self):
        a = F.Symbol("a")
        states = [model.State("s0", frozenset()), model.State("s1", frozenset({F.Symbol("x")}))]
        arcs = [
            model.Arc("s0", "s1", a),
            model.Arc("s0", "s0", F.TRUE),
            model.Arc("s1", "s0", F.TRUE),
        ]
        machine = model.Machine("m", states, "s0", arcs)
        system = model.System("sys", [machine])
        text = vhdlgen.generate(system)
        assert "overlapping guards: the first true branch wins" in text
        process = ProcessModel(text, "m")
        # with a present both arcs fire in the model; the code takes the first
        code, outputs = process.step("0", {"a"})
        assert code == "1" and outputs == {"x"}


class TestOneCycleEquivalence:
    def check_system(self, system, opts=vhdlgen.CodegenOptions()):
        text = vhdlgen.generate(system, opts)
        assert vhdlgen.structural_audit(text, system) == []
        env = model.env_alphabet(system)
        widths = vhdlgen._widths(system, opts)
        onehot = opts.state_encoding == "onehot"
        for position, (machine, width) in enumerate(zip(system.machines, widths)):
            process = ProcessModel(text, machine.name)
            mine = sorted({s for st in machine.states for s in st.outputs},
                          key=lambda s: s.name)
            for gstate in itertools.product(*(range(len(m.states)) for m in system.machines)):
                base = model.output_valuation(system, gstate)
                idx = gstate[position]
                for env_val in all_valuations(env):
                    valuation = base | env_val
                    names = {s.name for s in valuation}
                    got_code, got_outputs = process.step(
                        vhdlgen._encode(idx, width, onehot), names
                    )
                    enabled = model.enabled_arcs(machine, idx, valuation)
                    expect_dst = machine.state_index(enabled[0].dst) if enabled else idx
                    expect_outputs = {
                        s.name for s in machine.states[expect_dst].outputs if s in set(mine)
                    }
                    assert got_code == vhdlgen._encode(expect_dst, width, onehot), (
                        machine.name, gstate, sorted(names),
                    )
                    assert got_outputs == expect_outputs

    def test_bundled_model_all_states_and_inputs(self, tlc_system):
        self.check_system(tlc_system, WIDTH3)

    def test_bundled_model_binary_default(self, tlc_system):
        self.check_system(tlc_system)

    def test_random_systems(self):
        rng = random.Random(31)
        for _ in range(5):
            system = random_system(rng, max_machines=2, max_states=3, max_env=2)
            self.check_system(system)

    @pytest.mark.parametrize("encoding", ["binary", "onehot"])
    def test_state_without_arcs_stays_put(self, encoding):
        system = first_machine_system([((), [(1, F.Symbol("go"))]), (("x",), [])])
        self.check_system(system, vhdlgen.CodegenOptions(state_encoding=encoding))


class TestArcBranchCorrespondence:
    def test_every_arc_has_a_branch(self, tlc_vhdl, tlc_system):
        for machine in tlc_system.machines:
            process = ProcessModel(tlc_vhdl, machine.name)
            total_branches = 0
            for branches in process.branches.values():
                conditional = [b for b in branches if b[0] is not None]
                if conditional:
                    # if/elsif per arc plus the implicit-stay else
                    total_branches += len(conditional)
                    assert len(branches) == len(conditional) + 1
                else:
                    total_branches += 1  # compound: exactly one spontaneous arc
            assert total_branches == len(machine.arcs)

    def test_every_output_latched_once_per_process(self, tlc_vhdl, tlc_system):
        _, blocks = vhdlgen._process_blocks(tlc_vhdl)
        for machine in tlc_system.machines:
            block = blocks[machine.name]
            for sym in {s for st in machine.states for s in st.outputs}:
                assert block.count(f"{sym.name} <= new{sym.name};") == 1
