"""Parsers for the system description language and for requirement files.

System files
------------
::

    system   := "system" IDENT "{" machine+ "}"
    machine  := "machine" IDENT "{" "init" IDENT ";" state+ "}"
    state    := "state" IDENT "{" ("out" symlist ";")? arc* "}"
    arc      := "->" IDENT "when" formula ";"
    symlist  := IDENT ("," IDENT)*
    formula  := or ; or := and ("+" and)* ; and := unary ("*" unary)*
    unary    := ("!"|"~") unary | "(" formula ")" | IDENT | "1" | "0"

``//`` starts a comment running to the end of the line.

Requirement files
-----------------
One requirement per line-ish statement::

    IDENT ":" "always" "(" formula "=>" ("next"|"eventually") formula ")" ";"
    "ctl" IDENT ":" ctlformula ";"

    ctlformula := implies ; implies := or ("=>" implies)?
    unary      := ... | ("AX"|"EX"|"AF"|"EF"|"AG"|"EG") unary
                | ("A"|"E") "[" implies "U" implies "]" | "(" implies ")"

In requirement files ``not`` is accepted alongside ``!``/``~``, ``exists``
may prefix ``eventually`` (asking for one witnessing path instead of all
paths), and the glyphs ``⇒``, ``○`` and ``◇`` are aliases for ``=>``,
``next`` and ``eventually``.  The CTL grammar is the guard grammar, parsed
by the same functions into the same nodes, plus the temporal prefixes, the
until forms and ``=>`` at the top and inside groups.  A chain ``a + b + c``
is one n-ary node; only nesting is bounded, by ``MAX_NESTING``.

Messages are placed at tokens by index, with positions from ``_Source``
alone; ``ParseResult.place`` finds a parsed system's names the same way.
"""

from __future__ import annotations

import bisect
import functools
import re
from collections.abc import Callable

from cosma import formula as F
from cosma import mc
from cosma import model

__all__ = [
    "ParseDiagnostic",
    "ParseError",
    "ParseResult",
    "QueryParseResult",
    "SourceSpan",
    "decode",
    "parse_queries",
    "parse_system",
    "system_to_text",
]


class SourceSpan(F.Record):
    __slots__ = ("file", "line", "column", "length")

    def __init__(self, file: str, line: int, column: int, length: int):
        self.file = file
        self.line = line  # 1-based
        self.column = column  # 1-based
        self.length = length

    def __str__(self):
        return f"{self.file}:{self.line}:{self.column}"


class ParseDiagnostic(F.Record):
    __slots__ = ("severity", "message", "span")

    def __init__(self, severity: str, message: str, span: SourceSpan | None):
        self.severity = severity  # "error" | "warning"
        self.message = message
        self.span = span

    def __str__(self):
        where = f"{self.span}: " if self.span else ""
        return f"{where}{self.severity}: {self.message}"


class ParseError(Exception):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{span}: {message}")
        self.message = message
        self.span = span


class ParseResult(F.Record):
    __slots__ = ("system", "diagnostics", "place")
    __hash__ = None  # its list of diagnostics may grow

    def __init__(self, system: model.System | None,
                 diagnostics: list[ParseDiagnostic] | None = None,
                 place: Callable[[str, str], SourceSpan | None] | None = None):
        self.system = system
        self.diagnostics = [] if diagnostics is None else diagnostics
        self.place = place  # (kind, name) to the first token that names it, or None

    @property
    def ok(self) -> bool:
        return self.system is not None and not any(
            d.severity == "error" for d in self.diagnostics
        )


class QueryParseResult(F.Record):
    __slots__ = ("queries", "diagnostics")
    __hash__ = None  # queries and diagnostics are added

    def __init__(self, queries: list | None = None,
                 diagnostics: list[ParseDiagnostic] | None = None):
        self.queries = [] if queries is None else queries  # mc.Query | mc.CtlQuery
        self.diagnostics = [] if diagnostics is None else diagnostics

    @property
    def ok(self) -> bool:
        return not any(d.severity == "error" for d in self.diagnostics)


# -- lexing ------------------------------------------------------------------

_GLYPHS = {"⇒": "=>", "○": "next", "◇": "eventually"}

# Deepest formula the parsers accept, in parentheses, negations and CTL
# operators.  A level costs at most 5 Python frames in the parser (a
# parenthesised operand: _parse_unary, _Parser.nested, _parse_implies,
# _parse_or, _parse_and) and at most 2 in the guard walkers that run later
# (BddManager.from_expr, evaluate, to_text, vhdlgen._condition), so 150
# levels take at most 750 of Python's default 1000 frames and leave the rest
# to the CLI and its callers.  The CTL checker walks its formulas with an
# explicit stack, so the deeper trees that the A-operators build cost it none.
MAX_NESTING = 150
_SYSTEM_KEYWORDS = frozenset({"system", "machine", "init", "state", "out", "when"})
_QUERY_KEYWORDS = frozenset({"always", "next", "eventually", "exists", "ctl", "not"})

# One match: the blanks and line comments before a token, then the token as
# the only group: punctuation, a word, a run of decimal digits, the end of the
# input (after a last comment that no newline ends) or any other character.
# ``\w`` is exactly ``str.isalnum()`` plus "_", so a word starts with a
# letter, with "_" or with a character such as "²" or "½" that ``_lex`` rejects.
_TOKEN = re.compile(
    r"""(?: [ \t\r\n]+ | //[^\n]*\n )*
    ( -> | => | [{};:,()*+~!\[\]] | [^\W\d]\w* | \d+ | (?://[^\n]*)?\Z | . )""",
    re.VERBOSE,
)
_NEWLINE = re.compile("\n")
_PUNCT = frozenset({"->", "=>", "{", "}", ";", ":", ",", "(", ")", "*", "+", "~", "!", "[", "]"})
# once an input has lexed, every word outside these is a name; "" ends the input
_NOT_NAMES = _PUNCT | {"0", "1", ""}


class _Source:
    """Locates the tokens of one input by index.

    Their offsets and lengths come from one ``_TOKEN.finditer`` after
    ``_lex``'s ``findall``; it runs only as far as the furthest token asked
    for.  Lines come from the newlines' offsets.
    """

    def __init__(self, file: str, text: str):
        self.file = file
        self.text = text
        self._matches = _TOKEN.finditer(text)
        self._located: list[tuple[int, int]] = []  # (offset, length) of the first tokens

    @functools.cached_property
    def line_starts(self) -> list[int]:
        return [0] + [m.end() for m in _NEWLINE.finditer(self.text)]

    def span(self, start: int, length: int) -> SourceSpan:
        line = bisect.bisect_right(self.line_starts, start)
        return SourceSpan(self.file, line, start - self.line_starts[line - 1] + 1, length)

    def offset(self, index: int) -> tuple[int, int]:
        located = self._located
        while len(located) <= index:
            match = next(self._matches)
            word = match.group(1)
            # the end of input has no length, also when a last comment is its text
            located.append((match.start(1), 0 if word[:2] in ("", "//") else len(word)))
        return located[index]

    def locate(self, index: int) -> SourceSpan:
        return self.span(*self.offset(index))

    def raise_first_error(self, words: list[str], bad: set[str]):
        """Raise the error at the first of the lexed ``words`` that is in
        ``bad``, or at a "0" or "1" before it that runs on in digits outside
        ``\\d`` (such as the "1" of "1²", whose "²" starts a bad token)."""
        text = self.text
        for index, word in enumerate(words):
            if word in bad or word == "0" or word == "1":
                start = self.offset(index)[0]
                if not word[0].isdigit():
                    raise ParseError(f"unexpected character {word[0]!r}", self.span(start, 1))
                end = start + 1
                while end < len(text) and text[end].isdigit():
                    end += 1
                number = text[start:end]
                if number not in ("0", "1"):
                    message = f"unexpected number {number!r} (only 0 and 1 are formulas)"
                    raise ParseError(message, self.span(start, end - start))


def _lex(text: str, file: str, glyphs: bool) -> tuple[list[str], Callable[[int], SourceSpan]]:
    """The token texts of ``text`` and a function from a token's index to its span.

    The last text is "", the end of input.  With ``glyphs``, a glyph comes
    as the text it stands for.  A character or number outside the language
    is an error at the first one, found before any parsing starts.
    """
    words = _TOKEN.findall(text)
    # the match that reaches the end of the input may be followed by an empty one
    if len(words) > 1 and words[-2][:2] in ("", "//"):
        words.pop()
    words[-1] = ""
    source = _Source(file, text)
    unknown = set(words).difference(_NOT_NAMES)
    if glyphs and not unknown.isdisjoint(_GLYPHS):
        words = [_GLYPHS.get(word, word) for word in words]
        unknown.difference_update(_GLYPHS)
    bad = {word for word in unknown if not (word[0].isalpha() or word[0] == "_")}
    if bad:
        source.raise_first_error(words, bad)
    return words, source.locate


def decode(data: bytes, file: str) -> str:
    """A file's UTF-8 text with universal newlines, as ``Path.read_text`` gives
    it; a byte that is not UTF-8 is an error at its place in that text."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = decode(data[: exc.start], file)  # the bytes before the first bad one decode
        span = _Source(file, before).span(len(before), 1)
        raise ParseError(f"byte 0x{data[exc.start]:02x} is not UTF-8", span) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


# -- shared parser state ---------------------------------------------------------


class _Parser:
    """The token texts of one input and the index ``pos`` of the current one.

    ``pos`` stops at the last text, "", because the parser takes no text
    that it has not compared with a word or a name first.  ``reserved``
    holds the input's keywords, which cannot be names (where "not" is one of
    them, it negates), and ``ctl`` is set while a CTL formula is read, which
    adds the temporal forms and "=>".  ``symbols`` maps each name already
    read as a symbol to its symbol, so a repeated name is one dict lookup
    rather than one more validation; ``first_at`` maps it to the index of
    the token that first named it.
    """

    __slots__ = ("words", "pos", "depth", "locate", "reserved", "ctl", "symbols", "first_at")

    def __init__(self, words: list[str], locate: Callable[[int], SourceSpan],
                 reserved: frozenset[str]):
        self.words = words
        self.pos = 0
        self.depth = 0
        self.locate = locate
        self.reserved = reserved
        self.ctl = False
        self.symbols: dict[str, F.Symbol] = {}
        self.first_at: dict[str, int] = {}

    def error(self, message: str, index: int | None = None) -> ParseError:
        """An input error at the token ``index``, by default the current one."""
        return ParseError(message, self.locate(self.pos if index is None else index))

    def found(self) -> str:
        word = self.words[self.pos]
        return repr(word) if word else "end of input"

    def accept(self, word: str) -> bool:
        if self.words[self.pos] == word:
            self.pos += 1
            return True
        return False

    def expect(self, word: str) -> None:
        if self.words[self.pos] != word:
            raise self.error(f"expected {word!r}, found {self.found()}")
        self.pos += 1

    def name(self, what: str) -> int:
        """Take the current token as a name and return its index."""
        index = self.pos
        word = self.words[index]
        if word in _NOT_NAMES:
            raise self.error(f"expected {what}, found {self.found()}")
        if word in self.reserved:
            raise self.error(f"keyword {word!r} cannot be used as {what}")
        self.pos = index + 1
        return index

    def nested(self, parse):
        """``parse(self)`` one formula level deeper; too deep is an input error."""
        if self.depth == MAX_NESTING:
            raise self.error(f"formula nested more than {MAX_NESTING} levels deep")
        self.depth += 1
        result = parse(self)
        self.depth -= 1
        return result


# -- formulas ------------------------------------------------------------------
# One grammar serves guards, implication queries and CTL, in the parser's mode.


def _symbol(p: _Parser, index: int) -> F.Symbol:
    """The symbol named by the text at ``index``; a word that is no valid
    symbol name is an input error."""
    word = p.words[index]
    sym = p.symbols.get(word)
    if sym is None:
        try:
            sym = p.symbols[word] = F.Symbol(word)
        except F.FormulaError as exc:
            raise p.error(str(exc), index) from None
        p.first_at[word] = index
    return sym


def _parse_implies(p):
    left = _parse_or(p)
    if p.ctl and p.accept("=>"):
        return mc.CtlImplies(left, p.nested(_parse_implies))
    return left


def _parse_or(p):
    operands = [_parse_and(p)]
    while p.accept("+"):
        operands.append(_parse_and(p))
    return F.Or(*operands) if len(operands) > 1 else operands[0]


def _parse_and(p):
    operands = [_parse_unary(p)]
    while p.accept("*"):
        operands.append(_parse_unary(p))
    return F.And(*operands) if len(operands) > 1 else operands[0]


_TEMPORAL = {"AX": mc.CtlAX, "EX": mc.CtlEX, "AF": mc.CtlAF,
             "EF": mc.CtlEF, "AG": mc.CtlAG, "EG": mc.CtlEG}


def _parse_unary(p):
    index = p.pos
    word = p.words[index]
    if word == "!" or word == "~" or (word == "not" and "not" in p.reserved):
        p.pos = index + 1
        return F.Not(p.nested(_parse_unary))
    if word == "(":
        p.pos = index + 1
        expr = p.nested(_parse_implies)
        p.expect(")")
        return expr
    if word == "1" or word == "0":
        p.pos = index + 1
        return F.TRUE if word == "1" else F.FALSE
    if p.ctl and word in _TEMPORAL:
        p.pos = index + 1
        return _TEMPORAL[word](p.nested(_parse_unary))
    if p.ctl and (word == "A" or word == "E") and p.words[index + 1] == "[":
        p.pos = index + 2
        left = p.nested(_parse_implies)
        if not p.accept("U"):
            raise p.error("expected 'U' in the until form")
        right = p.nested(_parse_implies)
        p.expect("]")
        return (mc.CtlAU if word == "A" else mc.CtlEU)(left, right)
    if word not in _NOT_NAMES:
        if word in p.reserved:
            raise p.error(f"keyword {word!r} cannot be a symbol")
        p.pos = index + 1
        return _symbol(p, index)
    raise p.error(f"expected {'a CTL formula' if p.ctl else 'a formula'}, found {p.found()}")


# -- system files --------------------------------------------------------------


def parse_system(text: str, filename: str = "<input>", errors_only: bool = False) -> ParseResult:
    """Parse and validate a system description.

    Returns the system together with diagnostics: the parse error, or the
    findings of the system's ``report``, each placed in its own machine at
    the token it is about: a repeat at the repeated name, a ``bad-initial``
    error at the name after ``init``, a ``bad-arc`` error at its arc's
    target.  With ``errors_only``, the findings are those of the system's
    ``structure`` that are errors, which are all of the report's errors,
    and the guard analysis does not run.  The system is None when there is
    an error, so a result with a system is safe to analyze.
    """
    diagnostics: list[ParseDiagnostic] = []
    # per machine, the token indices of its name, of its initial state's
    # name, of each state's name and of each arc's target, by the positions
    # that the findings give; a span is built only for those they point at
    tokens: list[tuple[int, int, list[int], list[int]]] = []
    try:
        words, locate = _lex(text, filename, glyphs=False)
        p = _Parser(words, locate, _SYSTEM_KEYWORDS)
        p.expect("system")
        name_at = p.name("a system name")
        p.expect("{")
        machines: list[model.Machine] = []
        while not p.accept("}"):
            machines.append(_parse_machine(p, tokens))
        if words[p.pos]:
            raise p.error(f"unexpected {words[p.pos]!r} after the system")
        if not machines:
            raise p.error("a system needs at least one machine", name_at)
        system = model.System(words[name_at], machines)
    except ParseError as exc:
        diagnostics.append(ParseDiagnostic("error", exc.message, exc.span))
        return ParseResult(None, diagnostics)

    report = system.structure if errors_only else system.report
    for entry in report.errors if errors_only else report.entries:
        index = name_at  # a finding about no machine, such as an environment note
        if entry.machine is not None:
            machine_at, initial_at, states_at, targets_at = tokens[entry.machine]
            if entry.code == "bad-initial":
                index = initial_at
            elif entry.arc is not None:
                index = targets_at[entry.arc]
            else:
                index = machine_at if entry.state is None else states_at[entry.state]
        diagnostics.append(ParseDiagnostic(entry.severity, entry.message, locate(index)))
    first = {"system": {system.name: name_at}, "symbol": p.first_at,
             "machine": {words[at]: at for at, *_ in reversed(tokens)}}

    def place(kind: str, name: str) -> SourceSpan | None:
        index = first[kind].get(name)
        return None if index is None else locate(index)

    return ParseResult(None if report.errors else system, diagnostics, place)


def _parse_machine(p, tokens) -> model.Machine:
    words = p.words
    p.expect("machine")
    name_at = p.name("a machine name")
    name = words[name_at]
    p.expect("{")
    p.expect("init")
    initial_at = p.name("the initial state name")
    p.expect(";")
    states: list[model.State] = []
    arcs: list[model.Arc] = []
    states_at: list[int] = []  # the tokens of the state names and arc targets
    targets_at: list[int] = []
    while not p.accept("}"):
        if words[p.pos] != "state":
            raise p.error("expected 'state' or '}'")
        _parse_state(p, states, arcs, states_at, targets_at)
    if not states:
        raise p.error(f"machine {name!r} has no states", name_at)
    tokens.append((name_at, initial_at, states_at, targets_at))
    return model.Machine(name, states, words[initial_at], arcs)


def _parse_state(p, states, arcs, states_at, targets_at):
    words = p.words
    p.expect("state")
    name_at = p.name("a state name")
    name = words[name_at]
    states_at.append(name_at)
    p.expect("{")
    outputs: list[F.Symbol] = []
    if p.accept("out"):
        outputs.append(_symbol(p, p.name("an output symbol")))
        while p.accept(","):
            outputs.append(_symbol(p, p.name("an output symbol")))
        p.expect(";")
    while p.accept("->"):
        dst_at = p.name("a target state name")
        targets_at.append(dst_at)
        p.expect("when")
        guard = _parse_or(p)
        p.expect(";")
        arcs.append(model.Arc(name, words[dst_at], guard))
    p.expect("}")
    states.append(model.State(name, frozenset(outputs)))


# -- requirement files ---------------------------------------------------------


def parse_queries(
    text: str, system: model.System | None = None, filename: str = "<queries>"
) -> QueryParseResult:
    """Parse a requirement file into temporal queries and CTL requirements.

    When ``system`` is given, atoms that name no symbol of the system are
    reported as warnings (they may well be environment inputs, so they are
    not errors), and an implication query that cannot be checked against
    the system (``mc.split_query``) is an error.  Each of these, and a
    repeated name, is placed at the name of its requirement.
    """
    result = QueryParseResult()
    try:
        words, locate = _lex(text, filename, glyphs=True)
        p = _Parser(words, locate, _QUERY_KEYWORDS)
        seen_names: set[str] = set()
        names: list[int] = []  # per entry, the token of its name
        while words[p.pos]:
            if words[p.pos] == "ctl":
                names.append(p.pos + 1)
                entry = _parse_ctl_query(p)
            else:
                names.append(p.pos)
                entry = _parse_always_query(p)
            if entry.name in seen_names:
                result.diagnostics.append(ParseDiagnostic(
                    "warning", f"duplicate query name {entry.name!r}", locate(names[-1])))
            seen_names.add(entry.name)
            result.queries.append(entry)
    except ParseError as exc:
        result.diagnostics.append(ParseDiagnostic("error", exc.message, exc.span))
        return result

    if system is not None:
        produced = system.produced_symbols()
        mentioned = produced | system.guard_symbols()
        for entry, name_pos in zip(result.queries, names):
            if isinstance(entry, mc.Query):
                used = F.atoms(entry.antecedent) | F.atoms(entry.consequent)
                for name in sorted(used - mentioned):
                    result.diagnostics.append(
                        ParseDiagnostic(
                            "warning",
                            f"query {entry.name!r} uses symbol {name!r} that the system "
                            "never mentions (it may be environmental)",
                            locate(name_pos),
                        )
                    )
                try:
                    mc.split_query(entry, produced)
                except mc.QueryError as exc:
                    result.diagnostics.append(ParseDiagnostic("error", str(exc), locate(name_pos)))
            else:
                # CTL atoms are read against node outputs only
                foreign = sorted(mc.ctl_atoms(entry.formula) - produced)
                for name in foreign:
                    result.diagnostics.append(
                        ParseDiagnostic(
                            "warning",
                            f"requirement {entry.name!r}: no machine produces {name!r}, "
                            "so the atom is false at every state",
                            locate(name_pos),
                        )
                    )
    return result


def _parse_always_query(p: _Parser) -> mc.Query:
    words = p.words
    name = words[p.name("a query name")]
    p.expect(":")
    p.expect("always")
    p.expect("(")
    antecedent = _parse_or(p)
    p.expect("=>")
    # the mode keyword may sit inside its own parentheses: "=> (next HY)"
    wrapped = words[p.pos] == "(" and words[p.pos + 1] in ("next", "eventually", "exists")
    if wrapped:
        p.pos += 1
    universal = not p.accept("exists")
    if p.accept("next"):
        mode = "next"
    elif p.accept("eventually"):
        mode = "eventually"
    else:
        raise p.error("expected 'next' or 'eventually' after '=>'")
    if not universal and mode != "eventually":
        raise p.error("'exists' applies to 'eventually' only")
    consequent = _parse_or(p)
    if wrapped:
        p.expect(")")
    p.expect(")")
    p.expect(";")
    return mc.Query(name, antecedent, mode, consequent, universal=universal)


def _parse_ctl_query(p: _Parser) -> mc.CtlQuery:
    p.expect("ctl")
    name = p.words[p.name("a requirement name")]
    p.expect(":")
    p.ctl = True
    formula_ = _parse_implies(p)
    p.ctl = False
    p.expect(";")
    return mc.CtlQuery(name, formula_)


# -- pretty printing -----------------------------------------------------------


def system_to_text(system: model.System) -> str:
    """Render a system back to the description language.

    Reparsing the output yields a structurally identical system (state
    output sets are unordered, so they are printed sorted).
    """
    lines = [f"system {system.name} {{"]
    for machine in system.machines:
        lines.append(f"  machine {machine.name} {{")
        lines.append(f"    init {machine.initial};")
        for idx, state in enumerate(machine.states):
            lines.append(f"    state {state.name} {{")
            if state.outputs:
                names = ", ".join(sorted(state.outputs))
                lines.append(f"      out {names};")
            for arc in machine.arcs_from(idx):
                lines.append(f"      -> {arc.dst} when {F.to_text(arc.guard)};")
            lines.append("    }")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
