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

__all__ = ["AuditReport", "CodegenOptions", "VhdlGenError", "generate", "structural_audit"]


class VhdlGenError(ValueError):
    """Input that cannot be rendered as VHDL."""


class CodegenOptions(F.Record):
    __slots__ = ("state_encoding", "explicit_width", "delay_ns", "entity_name", "clock")

    def __init__(self, state_encoding: str = "binary", explicit_width: int | None = None,
                 delay_ns: int = 10, entity_name: str | None = None, clock: bool = False):
        if state_encoding not in ("binary", "onehot", "width"):
            raise VhdlGenError(f"unknown state encoding {state_encoding!r}")
        if state_encoding == "width" and (explicit_width is None or explicit_width < 1):
            raise VhdlGenError("state_encoding 'width' needs explicit_width >= 1")
        if delay_ns < 0:
            raise VhdlGenError("delay_ns must be nonnegative")
        self.state_encoding = state_encoding  # "binary" | "onehot" | "width"
        self.explicit_width = explicit_width  # used when state_encoding == "width"
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


def _check_identifier(name: str, what: str, hidden: dict[str, str]) -> None:
    if name.lower() in hidden:
        raise VhdlGenError(
            f"{what} {name!r} hides {hidden[name.lower()]!r} of VHDL's STANDARD package, "
            "which the generated text uses; rename it"
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
        f"{suggestion!r})"
    )


def _check_distinct(system: model.System, env: list, produced: list, clock: bool) -> None:
    """VHDL ignores case in identifiers, so the ports, the process labels and
    the names a process declares must differ ignoring case; only
    ``current_state`` and ``newstate`` are declared again in each process."""
    names = [("Clk", "clock port 'Clk'")] if clock else []
    names += [(s, f"input {s!r}") for s in env]
    names += [(s, f"output {s!r}") for s in produced]
    names += [(m.name, f"machine {m.name!r}") for m in system.machines]
    names += [(n, f"process variable {n!r}") for n in ("current_state", "newstate")]
    names += [(f"new{s}", f"process variable 'new{s}' (the next value of {s!r})")
              for s in produced]
    seen: dict[str, str] = {}
    for name, label in names:
        first = seen.setdefault(name.lower(), label)
        if first != label:
            raise VhdlGenError(
                f"{first} and {label} are the same identifier in VHDL, which ignores "
                "case; rename one of them"
            )


def _widths(system: model.System, opts: CodegenOptions) -> list[int]:
    widths = []
    for machine in system.machines:
        n = len(machine.states)
        if opts.state_encoding == "binary":
            widths.append(max(1, (n - 1).bit_length()))
        elif opts.state_encoding == "onehot":
            widths.append(n)
        else:
            if (1 << opts.explicit_width) < n:
                raise VhdlGenError(
                    f"machine {machine.name!r} has {n} states; width "
                    f"{opts.explicit_width} encodes at most {1 << opts.explicit_width}"
                )
            widths.append(opts.explicit_width)
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
    entity = opts.entity_name or system.name

    hidden = _STANDARD if opts.clock else _STANDARD_UNCLOCKED
    _check_identifier(entity, "entity name", hidden)
    for sym in env + produced:
        _check_identifier(sym, "symbol", hidden)
    for machine in system.machines:
        _check_identifier(machine.name, "machine name", hidden)
    if opts.clock and any(s.lower() == "clk" for s in env + produced):
        raise VhdlGenError("clock mode reserves the port name 'Clk'")
    _check_distinct(system, env, produced, opts.clock)

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

    for machine, width in zip(system.machines, widths):
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
            if (machine.name, state.name) in overlapping:
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


class AuditReport(F.Record):
    __slots__ = ("problems", "process_count")
    __hash__ = None  # problems are added

    def __init__(self, problems: list[str] | None = None, process_count: int = 0):
        self.problems = [] if problems is None else problems
        self.process_count = process_count

    @property
    def ok(self) -> bool:
        return not self.problems


# Patterns of the audit, one scan of the text (or of one process block) each.
# Names are matched as whole words, which is what the parser accepts as an
# identifier, so no pattern is built per machine, state or symbol.  Patterns
# that may start anywhere begin with a letter, and a lookbehind after it
# stands for the word boundary before it, so that the scan can skip ahead
# to that letter.
_PROCESS_START = re.compile(r"^\s*(\w+)\s*:\s*process\b", re.M)
_PROCESS_END = re.compile(r"end(?<!\wend) process (\w+);")
_PORT_LINE = re.compile(r"^\s*(\w+) : (?:in|out) BIT[;,]?\s*$", re.M)
_VECTOR_DECL = re.compile(r"BIT_VECTOR \((\d+) downto 0\)")
_WHEN_BRANCH = re.compile(r'when "([01]+)" => -- (\w+)')
# A block closer is "end if" (etc.) after a word boundary; an opener is a
# whole-word "if" not right after "end ", so "xend if" is neither.
_BLOCK_WORD = re.compile(
    r"(?:end(?<!\wend) (?:if|case|loop|process)"
    r"|i(?<!\wi)(?<!end i)f|c(?<!\wc)(?<!end c)ase"
    r"|l(?<!\wl)(?<!end l)oop|p(?<!\wp)(?<!end p)rocess)\b"
)


def structural_audit(vhdl_text: str, system: model.System) -> AuditReport:
    """Token-level self-check of generated VHDL.

    Verifies one process per machine, in machine order; one port line per
    symbol; in each machine's process, a state vector declaration and one
    ``when`` branch per state whose code has the vector's width; and
    balanced if / case / loop / process blocks.  Each check counts the
    matches of one precompiled pattern, so the text is scanned four times
    and each process block at most twice more, whatever the number of
    machines, states and symbols: the audit is linear in the text.
    """
    report = AuditReport()

    labels, blocks = _process_blocks(vhdl_text)
    report.process_count = len(labels)
    machine_names = [m.name for m in system.machines]
    if labels != machine_names:
        report.problems.append(
            f"expected one process per machine {machine_names}, found {labels}"
        )

    ports = Counter(_PORT_LINE.findall(vhdl_text))
    for sym in sorted(model.env_alphabet(system) | system.produced_symbols()):
        hits = ports[sym]
        if hits != 1:
            report.problems.append(
                f"symbol {sym!r} appears as a port {hits} times, expected once"
            )

    for machine in system.machines:
        block = blocks.get(machine.name)
        if block is None:
            report.problems.append(f"no process block for machine {machine.name!r}")
            continue
        m = _VECTOR_DECL.search(block)
        if m is None:
            if machine.states:
                report.problems.append(
                    f"machine {machine.name!r}: no state vector declaration"
                )
            continue
        width = int(m.group(1)) + 1
        branches = Counter(
            name for code, name in _WHEN_BRANCH.findall(block) if len(code) == width
        )
        for state in machine.states:
            hits = branches[state.name]
            if hits != 1:
                report.problems.append(
                    f"machine {machine.name!r}, state {state.name!r}: {hits} 'when' "
                    "branches, expected exactly one"
                )

    words = Counter(_BLOCK_WORD.findall(vhdl_text))
    for kind in ("if", "case", "loop", "process"):
        n_open = words[kind]
        n_close = words["end " + kind]
        if n_open != n_close:
            report.problems.append(
                f"unbalanced {kind} blocks: {n_open} openers, {n_close} closers"
            )

    return report


def _process_blocks(vhdl_text: str) -> tuple[list[str], dict[str, str]]:
    """The process labels in text order, and each label's block.

    A block runs from the label's first ``X : process`` line to the end of
    the first ``end process X;`` in the text; a label without such an end
    has no block.
    """
    labels = []
    starts: dict[str, int] = {}
    for m in _PROCESS_START.finditer(vhdl_text):
        labels.append(m.group(1))
        starts.setdefault(m.group(1), m.start())
    ends: dict[str, int] = {}
    for m in _PROCESS_END.finditer(vhdl_text):
        ends.setdefault(m.group(1), m.end())
    blocks = {
        label: vhdl_text[start : ends[label]] for label, start in starts.items() if label in ends
    }
    return labels, blocks
