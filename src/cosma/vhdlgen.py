"""VHDL generation from a system of machines.

The translation is deliberately plain:

* environment symbols become ``in BIT`` ports, produced symbols ``out BIT``
  ports;
* each machine's states are coded on a bit vector held in process
  variables, initialized to the initial state's encoding;
* every produced symbol gets a ``new<Sym>`` variable holding its prepared
  value;
* each machine becomes one process: an infinite loop with a ``case`` over
  the state vector whose branches are if/elsif chains over the outgoing arc
  guards, assigning the next state and all prepared outputs (taken from the
  destination state's output set);
* the loop epilogue latches the state vector and the output signals, then
  waits for a fixed delay (or for a rising clock edge with ``clock=True``).

Overlapping guards collapse to first-declared-arc priority, since a VHDL
process is deterministic; each such state is flagged with a comment.
Output is a pure function of the input, hence byte-identical across runs.
"""

from __future__ import annotations

import re
from collections import Counter

from cosma import formula as F
from cosma import model

__all__ = ["CodegenOptions", "VhdlGenError", "generate", "structural_audit"]


class VhdlGenError(ValueError):
    """Input that cannot be rendered as VHDL.  ``place`` is None or the model
    name it is about: ``(kind, name)``, kind "system", "machine" or "symbol"."""

    def __init__(self, message: str, place: tuple[str, str] | None = None):
        super().__init__(message)
        self.place = place


class CodegenOptions(F.Record):
    """How ``generate`` renders: ``state_encoding`` is "binary", "onehot" or an int width >= 1."""

    __slots__ = ("state_encoding", "delay_ns", "entity_name", "clock")

    def __init__(self, state_encoding: str | int = "binary", delay_ns: int = 10,
                 entity_name: str | None = None, clock: bool = False):
        if state_encoding not in ("binary", "onehot") and not (
                type(state_encoding) is int and state_encoding >= 1):
            raise VhdlGenError(f"unknown state encoding {state_encoding!r}")
        if delay_ns < 0:
            raise VhdlGenError("delay_ns must be nonnegative")
        self.state_encoding = state_encoding
        self.delay_ns = delay_ns
        self.entity_name = entity_name
        self.clock = clock


_VHDL_RESERVED = frozenset(
    """abs access after alias all and architecture array assert attribute begin
    block body buffer bus case component configuration constant disconnect
    downto else elsif end entity exit file for function generate generic group
    guarded if impure in inertial inout is label library linkage literal loop
    map mod nand new next nor not null of on open or others out package port
    postponed procedure process pure range record register reject rem report
    return rol ror select severity shared signal sla sll sra srl subtype then
    to transport type unaffected units until use variable wait when while with
    xnor xor""".split()
)

_VHDL_IDENT = re.compile(r"[A-Za-z](?:_?[A-Za-z0-9])*\Z")

# names from VHDL's STANDARD package that the generated text reads, by their
# lower case: an entity, port or process label of the same name hides them
_STANDARD = {"bit": "BIT", "bit_vector": "BIT_VECTOR", "true": "TRUE", "false": "FALSE"}
_STANDARD_UNCLOCKED = {**_STANDARD, "ns": "ns"}  # "wait for N ns"


def _check_identifier(name: str, what: str, hidden: dict[str, str], place: tuple | None) -> None:
    if name.lower() in hidden:
        raise VhdlGenError(
            f"{what} {name!r} hides {hidden[name.lower()]!r} of VHDL's STANDARD package, "
            "which the generated text uses; rename it", place
        )
    if _VHDL_IDENT.match(name) and name.lower() not in _VHDL_RESERVED:
        return
    suggestion = re.sub(r"_+", "_", name).strip("_")
    if not suggestion or not suggestion[0].isalpha():
        suggestion = "s_" + suggestion if suggestion else "s"
        suggestion = suggestion.strip("_")
    if suggestion.lower() in _VHDL_RESERVED:
        suggestion += "0"
    raise VhdlGenError(
        f"{what} {name!r} is not a legal VHDL identifier; rename it (for example to "
        f"{suggestion!r})", place
    )


def _check_names(system: model.System, env: list, produced: list, entity: str,
                 opts: CodegenOptions) -> None:
    """Check the names that the VHDL text declares, from one table: the entity,
    then each row with a word, must be a legal identifier that hides no
    STANDARD name; then the rows must differ ignoring case, as VHDL ignores it.
    A row is a name, its label, its word (None: legal by form) and its place."""
    hidden = _STANDARD if opts.clock else _STANDARD_UNCLOCKED
    _check_identifier(entity, "entity name", hidden,
                      ("system", entity) if opts.entity_name is None else None)
    rows = [("Clk", "clock port 'Clk'", None, None)] if opts.clock else []
    rows += [(s, f"input {s!r}", "symbol", ("symbol", s)) for s in env]
    rows += [(s, f"output {s!r}", "symbol", ("symbol", s)) for s in produced]
    rows += [(m.name, f"machine {m.name!r}", "machine name", ("machine", m.name))
             for m in system.machines]
    rows += [(n, f"process variable {n!r}", None, None) for n in ("current_state", "newstate")]
    rows += [(f"new{s}", f"process variable 'new{s}' (the next value of {s!r})", None,
              ("symbol", s)) for s in produced]
    for name, _, what, place in rows:
        if what is not None:
            _check_identifier(name, what, hidden, place)
    seen: dict[str, tuple] = {}
    for name, label, _, place in rows:
        first, first_place = seen.setdefault(name.lower(), (label, place))
        if first != label:
            raise VhdlGenError(
                f"{first} and {label} are the same identifier in VHDL, which ignores "
                "case; rename one of them", place or first_place
            )


def _widths(system: model.System, opts: CodegenOptions) -> list[int]:
    encoding = opts.state_encoding
    widths = []
    for machine in system.machines:
        n = len(machine.states)
        if encoding == "onehot":
            widths.append(n)
        elif encoding == "binary":
            widths.append(max(1, (n - 1).bit_length()))
        elif (n - 1).bit_length() > encoding:
            raise VhdlGenError(
                f"machine {machine.name!r} has {n} states; width {encoding} encodes at most "
                f"{1 << encoding}"
            )
        else:
            widths.append(encoding)
    return widths


def _encode(state_idx: int, width: int, onehot: bool) -> str:
    value = (1 << state_idx) if onehot else state_idx
    return format(value, f"0{width}b")


def _condition(expr: F.BoolExpr) -> str:
    """Fully parenthesized VHDL condition; atoms read the signal lines."""
    if isinstance(expr, F.Symbol):
        return f"({expr}='1')"
    if isinstance(expr, F.Not):
        return f"(not {_condition(expr.operand)})"
    if isinstance(expr, (F.And, F.Or)):
        # left-nested pairs: "((a and b) and c)"
        op = " and " if isinstance(expr, F.And) else " or "
        first, *rest = expr.operands
        tail = "".join([f"{op}{_condition(e)})" for e in rest])
        return "(" * len(rest) + _condition(first) + tail
    if isinstance(expr, F.ConstTrue):
        return "(TRUE)"
    if isinstance(expr, F.ConstFalse):
        return "(FALSE)"
    raise VhdlGenError(f"not a formula node: {expr!r}")


def generate(system: model.System, opts: CodegenOptions = CodegenOptions()) -> str:
    """Render the whole system as one entity with one process per machine;
    a system whose ``report`` has errors is rejected."""
    report = system.report
    if not report.ok:
        raise VhdlGenError(
            "system does not validate: " + "; ".join(e.message for e in report.errors)
        )

    env = sorted(model.env_alphabet(system))
    produced = sorted(system.produced_symbols())
    entity = system.name if opts.entity_name is None else opts.entity_name

    _check_names(system, env, produced, entity, opts)

    widths = _widths(system, opts)
    onehot = opts.state_encoding == "onehot"
    # the system's report already found every state whose guards overlap
    overlapping = {(e.machine, e.state) for e in report.warnings if e.code == "overlap"}

    out = []
    emit = out.append
    emit(f"entity {entity} is")
    port_lines = []
    if opts.clock:
        port_lines.append("    Clk : in BIT")
    for sym in env:
        port_lines.append(f"    {sym} : in BIT")
    for sym in produced:
        port_lines.append(f"    {sym} : out BIT")
    if port_lines:
        emit("  port (")
        emit(";\n".join(port_lines))
        emit("  );")
    emit(f"end {entity};")
    emit("")
    emit(f"architecture behavior of {entity} is")
    emit("begin")

    for m, (machine, width) in enumerate(zip(system.machines, widths)):
        mine = sorted({s for st in machine.states for s in st.outputs})
        init_code = _encode(machine.initial_index, width, onehot)
        emit("")
        emit(f"  {machine.name} : process")
        emit(f'    variable current_state : BIT_VECTOR ({width - 1} downto 0) :="{init_code}";')
        emit(f'    variable newstate : BIT_VECTOR ({width - 1} downto 0) :="{init_code}";')
        for sym in mine:
            emit(f"    variable new{sym} : BIT;")
        emit("  begin")
        emit("    loop")
        emit("      case current_state is")
        for idx, state in enumerate(machine.states):
            code = _encode(idx, width, onehot)
            emit(f'        when "{code}" => -- {state.name}')
            arcs = machine.arcs_from(idx)
            if (m, idx) in overlapping:
                emit("          -- overlapping guards: the first true branch wins")

            def assigns(dst_idx: int, pad: str):
                emit(f'{pad}newstate := "{_encode(dst_idx, width, onehot)}";')
                dst_outputs = machine.states[dst_idx].outputs
                for sym in mine:
                    bit = "1" if sym in dst_outputs else "0"
                    emit(f"{pad}new{sym} := '{bit}';")

            if not arcs:
                assigns(idx, "          ")
            elif len(arcs) == 1 and arcs[0].guard == F.TRUE:
                assigns(machine.state_index(arcs[0].dst), "          ")
            else:
                for pos, arc in enumerate(arcs):
                    word = "if" if pos == 0 else "elsif"
                    emit(f"          {word} {_condition(arc.guard)} then")
                    assigns(machine.state_index(arc.dst), "            ")
                emit("          else")
                assigns(idx, "            ")
                emit("          end if;")
        emit("      end case;")
        emit("      current_state := newstate;")
        for sym in mine:
            emit(f"      {sym} <= new{sym};")
        if opts.clock:
            emit("      wait until Clk'event and Clk = '1';")
        else:
            emit(f"      wait for {opts.delay_ns} ns;")
        emit("    end loop;")
        emit(f"  end process {machine.name};")

    emit("")
    emit("end behavior;")
    emit("")
    return "\n".join(out)


# Patterns of the audit.  Each begins with a literal that occurs only where
# its check can match, so re's fast search jumps from one occurrence of that
# literal to the next instead of trying the pattern at every position; the
# candidate's own context is tested from there.  Names are matched as whole
# words, which is what the parser accepts as an identifier, so no pattern is
# built per machine, state or symbol.  A lookbehind after a leading word
# stands for the word boundary before it.
#
# A process label is the first word of a line, then ":" and the word
# "process", with any whitespace, line ends too, between the three.  The
# audit finds "process", reads back to the label's line and matches that.
_PROCESS_WORD = re.compile(r"process\b")
_LABEL_LINE = re.compile(r"\s*(\w+)\s*:\s*process\b")
_PROCESS_END = re.compile(r"end(?<!\wend) process (\w+);")
# A port line is a word, " : in BIT" or " : out BIT", an optional ";" or ","
# and nothing else but whitespace.  The audit finds "BIT" after " : in " or
# " : out " (the letter B is rarer than the space) and matches its own line.
_PORT_MARK = re.compile(r"BIT(?:(?<= : in BIT)|(?<= : out BIT))")
_PORT_LINE = re.compile(r"\s*(\w+) : (?:in|out) BIT[;,]?\s*$", re.M)
_VECTOR_DECL = re.compile(r"BIT_VECTOR \((\d+) downto 0\)")
_WHEN_BRANCH = re.compile(r'when "([01]+)" => -- (\w+)')
# Block words count outside "--" comments only, because the comments of the
# "when" branches hold state names.  An opener is the whole word not right
# after "end "; a closer is "end" after a word boundary, one space and the
# word, so "xend if" is neither.
_BLOCK_KINDS = ("if", "case", "loop", "process")
_COMMENT = re.compile(r"--.*")
_OPENERS = {kind: re.compile(rf"{kind}\b(?<!\w{kind})(?<!end {kind})") for kind in _BLOCK_KINDS}
_CLOSER = re.compile(r"end(?<!\wend) (if|case|loop|process)\b")


def structural_audit(vhdl_text: str, system: model.System) -> list[str]:
    """Token-level self-check of generated VHDL.

    Verifies one process per machine, in machine order; one port line per
    symbol; in each machine's process, a state vector declaration and one
    ``when`` branch per state whose code has the vector's width; and
    balanced if / case / loop / process blocks outside ``--`` comments.
    Every check scans for a literal of its precompiled pattern and tests
    only the candidates found, whatever the number of machines, states and
    symbols: the audit is linear in the text.  Returns the problems found,
    in that order; none when the text passes.
    """
    problems = []

    labels, blocks = _process_blocks(vhdl_text)
    machine_names = [m.name for m in system.machines]
    if labels != machine_names:
        problems.append(f"expected one process per machine {machine_names}, found {labels}")

    ports: Counter[str] = Counter()
    for mark in _PORT_MARK.finditer(vhdl_text):
        line = _PORT_LINE.match(vhdl_text, vhdl_text.rfind("\n", 0, mark.start()) + 1)
        if line is not None:  # a matching line holds just one mark
            ports[line.group(1)] += 1
    for sym in sorted(model.env_alphabet(system) | system.produced_symbols()):
        hits = ports[sym]
        if hits != 1:
            problems.append(f"symbol {sym!r} appears as a port {hits} times, expected once")

    for machine in system.machines:
        block = blocks.get(machine.name)
        if block is None:
            problems.append(f"no process block for machine {machine.name!r}")
            continue
        m = _VECTOR_DECL.search(block)
        if m is None:
            if machine.states:
                problems.append(f"machine {machine.name!r}: no state vector declaration")
            continue
        width = int(m.group(1)) + 1
        branches = Counter(
            name for code, name in _WHEN_BRANCH.findall(block) if len(code) == width
        )
        for state in machine.states:
            hits = branches[state.name]
            if hits != 1:
                problems.append(
                    f"machine {machine.name!r}, state {state.name!r}: {hits} 'when' "
                    "branches, expected exactly one"
                )

    code = _COMMENT.sub("", vhdl_text)
    closers = Counter(_CLOSER.findall(code))
    for kind in _BLOCK_KINDS:
        n_open = len(_OPENERS[kind].findall(code))
        n_close = closers[kind]
        if n_open != n_close:
            problems.append(f"unbalanced {kind} blocks: {n_open} openers, {n_close} closers")

    return problems


def _process_blocks(vhdl_text: str) -> tuple[list[str], dict[str, str]]:
    """The process labels in text order, and each label's block.

    The labels are those that ``^\\s*(\\w+)\\s*:\\s*process\\b`` finds with
    ``re.M``.  From each "process" the scan reads back over whitespace and
    the colon to the label's line, which must start no earlier than the
    end of the previous label's match, and matches that line forwards.  A
    block runs from the line of the label's first ``X : process`` to the
    end of the first ``end process X;`` in the text; a label without such
    an end has no block.
    """
    labels = []
    starts: dict[str, int] = {}
    floor = 0  # where the previous label's match ended
    for m in _PROCESS_WORD.finditer(vhdl_text):
        colon = _space_before(vhdl_text, m.start(), floor) - 1
        if colon < floor or vhdl_text[colon] != ":":
            continue
        # the label ends where the whitespace before the colon begins, and
        # no line end comes between the label's line start and its end
        line = vhdl_text.rfind("\n", floor, _space_before(vhdl_text, colon, floor)) + 1
        if line == 0 and floor:
            continue
        label = _LABEL_LINE.match(vhdl_text, line)
        if label is None or label.end() != m.end():
            continue
        labels.append(label.group(1))
        starts.setdefault(label.group(1), line)
        floor = m.end()
    ends: dict[str, int] = {}
    for m in _PROCESS_END.finditer(vhdl_text):
        ends.setdefault(m.group(1), m.end())
    blocks = {
        label: vhdl_text[start : ends[label]] for label, start in starts.items() if label in ends
    }
    return labels, blocks


def _space_before(text: str, i: int, floor: int) -> int:
    """The least ``j >= floor`` such that ``text[j:i]`` is whitespace."""
    while i > floor and text[i - 1].isspace():
        i -= 1
    return i
