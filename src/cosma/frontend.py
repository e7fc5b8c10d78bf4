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
"""

from __future__ import annotations

import bisect
import functools
import re
from dataclasses import dataclass, field

from cosma import formula as F
from cosma import mc
from cosma import model

__all__ = [
    "ParseDiagnostic",
    "ParseError",
    "ParseResult",
    "QueryParseResult",
    "SourceSpan",
    "parse_queries",
    "parse_system",
    "system_to_text",
]


@dataclass(frozen=True)
class SourceSpan:
    file: str
    line: int  # 1-based
    column: int  # 1-based
    length: int

    def __str__(self):
        return f"{self.file}:{self.line}:{self.column}"


@dataclass(frozen=True)
class ParseDiagnostic:
    severity: str  # "error" | "warning"
    message: str
    span: SourceSpan | None

    def __str__(self):
        where = f"{self.span}: " if self.span else ""
        return f"{where}{self.severity}: {self.message}"


class ParseError(Exception):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{span}: {message}")
        self.message = message
        self.span = span


@dataclass
class ParseResult:
    system: model.System | None
    diagnostics: list[ParseDiagnostic] = field(default_factory=list)
    report: model.LintReport | None = None  # validation's findings; None when parsing failed

    @property
    def ok(self) -> bool:
        return self.system is not None and not any(
            d.severity == "error" for d in self.diagnostics
        )


@dataclass
class QueryParseResult:
    queries: list = field(default_factory=list)  # mc.Query | mc.CtlQuery
    diagnostics: list[ParseDiagnostic] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not any(d.severity == "error" for d in self.diagnostics)


# -- lexing ------------------------------------------------------------------

_GLYPHS = {"⇒": "=>", "○": "next", "◇": "eventually"}

# Deepest formula the parsers accept, in parentheses, negations and CTL
# operators.  A level costs at most 5 Python frames in the parser (a
# parenthesised operand: _parse_unary, nested, _parse_implies, _parse_or,
# _parse_and) and at most 2 in the guard walkers that run later
# (BddManager.from_expr, evaluate, to_text, vhdlgen._condition), so 150
# levels take at most 750 of Python's default 1000 frames and leave the rest
# to the CLI and its callers.  The CTL checker walks its formulas with an
# explicit stack, so the deeper trees that the A-operators build cost it none.
MAX_NESTING = 150
_SYSTEM_KEYWORDS = frozenset({"system", "machine", "init", "state", "out", "when"})
_QUERY_KEYWORDS = frozenset({"always", "next", "eventually", "exists", "ctl", "not"})

# One match: the blanks and line comments before a token, then the token.
# ``\w`` is exactly ``str.isalnum()`` plus "_"; numbers and words that start
# outside ASCII are sorted out by ``str.isalpha``/``isdigit`` in ``_lex``.
_TOKEN = re.compile(
    r"""(?: [ \t\r\n]+ | //[^\n]*\n )*
    (?: (?P<punct> -> | => | [{};:,()*+~!\[\]] ) | (?P<ident> [A-Za-z_]\w* ) | (?P<const> \d+ )
      | (?P<word> [^\W\d]\w* ) | (?P<eof> (?://[^\n]*)? \Z ) | (?P<other> . ) )""",
    re.VERBOSE,
)
_NEWLINE = re.compile("\n")


@dataclass
class _Source:
    file: str
    text: str

    @functools.cached_property
    def line_starts(self) -> list[int]:
        return [0] + [m.end() for m in _NEWLINE.finditer(self.text)]

    def span(self, start: int, length: int) -> SourceSpan:
        line = bisect.bisect_right(self.line_starts, start)
        return SourceSpan(self.file, line, start - self.line_starts[line - 1] + 1, length)


@dataclass(slots=True)
class _Token:
    kind: str  # "ident" | "punct" | "const" | "eof"
    text: str
    start: int  # offset in the source text
    length: int
    source: _Source

    @property
    def span(self) -> SourceSpan:
        return self.source.span(self.start, self.length)


def _lex(text: str, file: str, glyphs: bool) -> list[_Token]:
    source = _Source(file, text)
    tokens: list[_Token] = []
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        start = match.start(kind)
        word = match.group(kind)
        if kind == "ident" or kind == "punct":
            tokens.append(_Token(kind, word, start, len(word), source))
        elif kind == "eof":
            tokens.append(_Token(kind, "", start, 0, source))
            break
        elif glyphs and word in _GLYPHS:
            alias = _GLYPHS[word]
            tokens.append(_Token("punct" if alias == "=>" else "ident", alias, start, 1, source))
        elif word[0].isalpha():
            tokens.append(_Token("ident", word, start, len(word), source))
        elif word[0].isdigit():
            end = start
            while end < len(text) and text[end].isdigit():
                end += 1
            word = text[start:end]
            if word not in ("0", "1"):
                message = f"unexpected number {word!r} (only 0 and 1 are formulas)"
                raise ParseError(message, source.span(start, end - start))
            tokens.append(_Token("const", word, start, 1, source))
        else:
            raise ParseError(f"unexpected character {word[0]!r}", source.span(start, 1))
    return tokens


# -- shared token cursor -------------------------------------------------------


class _Cursor:
    """Walks the tokens; ``tok`` is the current one and stays on the eof token."""

    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._pos = 0
        self._depth = 0
        self.tok = tokens[0]

    def take(self) -> _Token:
        tok = self.tok
        if tok.kind != "eof":
            self._pos += 1
            self.tok = self._tokens[self._pos]
        return tok

    def at(self, text: str) -> bool:
        # no caller asks for "", the eof token's text
        return self.tok.text == text

    def accept(self, text: str) -> bool:
        if self.tok.text == text:
            self.take()
            return True
        return False

    def expect(self, text: str, what: str | None = None) -> _Token:
        tok = self.tok
        if tok.text != text:
            expected = what or f"'{text}'"
            found = "end of input" if tok.kind == "eof" else f"{tok.text!r}"
            raise ParseError(f"expected {expected}, found {found}", tok.span)
        return self.take()

    def nested(self, parse, *args):
        """``parse(self, *args)`` one formula level deeper; too deep is an input error."""
        if self._depth == MAX_NESTING:
            message = f"formula nested more than {MAX_NESTING} levels deep"
            raise ParseError(message, self.tok.span)
        self._depth += 1
        result = parse(self, *args)
        self._depth -= 1
        return result

    def expect_ident(self, what: str, reserved: frozenset[str]) -> _Token:
        tok = self.tok
        if tok.kind != "ident":
            found = "end of input" if tok.kind == "eof" else f"{tok.text!r}"
            raise ParseError(f"expected {what}, found {found}", tok.span)
        if tok.text in reserved:
            raise ParseError(f"keyword {tok.text!r} cannot be used as {what}", tok.span)
        return self.take()


# -- formulas ------------------------------------------------------------------
# One grammar serves guards, implication queries and CTL.  ``make`` turns an
# atom's name into its symbol, ``reserved`` holds the words that cannot be
# atoms (where "not" is one of them, it negates), and ``ctl`` adds the
# temporal forms and "=>".


def _symbol(make, tok: _Token) -> F.Symbol:
    """``make(tok.text)``; a word that is no valid symbol name is an input error."""
    try:
        return make(tok.text)
    except F.FormulaError as exc:
        raise ParseError(str(exc), tok.span) from None


def _parse_implies(cur, make, reserved, ctl):
    left = _parse_or(cur, make, reserved, ctl)
    if ctl and cur.accept("=>"):
        return mc.CtlImplies(left, cur.nested(_parse_implies, make, reserved, ctl))
    return left


def _parse_or(cur, make, reserved, ctl):
    operands = [_parse_and(cur, make, reserved, ctl)]
    while cur.accept("+"):
        operands.append(_parse_and(cur, make, reserved, ctl))
    return F.Or(*operands) if len(operands) > 1 else operands[0]


def _parse_and(cur, make, reserved, ctl):
    operands = [_parse_unary(cur, make, reserved, ctl)]
    while cur.accept("*"):
        operands.append(_parse_unary(cur, make, reserved, ctl))
    return F.And(*operands) if len(operands) > 1 else operands[0]


_TEMPORAL = {"AX": mc.CtlAX, "EX": mc.CtlEX, "AF": mc.CtlAF,
             "EF": mc.CtlEF, "AG": mc.CtlAG, "EG": mc.CtlEG}


def _parse_unary(cur, make, reserved, ctl):
    tok = cur.tok
    if tok.text in ("!", "~") or (tok.text == "not" and "not" in reserved):
        cur.take()
        return F.Not(cur.nested(_parse_unary, make, reserved, ctl))
    if tok.text == "(":
        cur.take()
        expr = cur.nested(_parse_implies, make, reserved, ctl)
        cur.expect(")")
        return expr
    if tok.kind == "const":
        cur.take()
        return F.TRUE if tok.text == "1" else F.FALSE
    if ctl and tok.text in _TEMPORAL:
        cur.take()
        return _TEMPORAL[tok.text](cur.nested(_parse_unary, make, reserved, ctl))
    if ctl and tok.text in ("A", "E") and cur._tokens[cur._pos + 1].text == "[":
        cur.take()
        cur.expect("[")
        left = cur.nested(_parse_implies, make, reserved, ctl)
        until_tok = cur.tok
        if until_tok.kind != "ident" or until_tok.text != "U":
            raise ParseError("expected 'U' in the until form", until_tok.span)
        cur.take()
        right = cur.nested(_parse_implies, make, reserved, ctl)
        cur.expect("]")
        return (mc.CtlAU if tok.text == "A" else mc.CtlEU)(left, right)
    if tok.kind == "ident":
        if tok.text in reserved:
            raise ParseError(f"keyword {tok.text!r} cannot be a symbol", tok.span)
        cur.take()
        return F.Atom(_symbol(make, tok))
    found = "end of input" if tok.kind == "eof" else f"{tok.text!r}"
    raise ParseError(f"expected {'a CTL formula' if ctl else 'a formula'}, found {found}", tok.span)


# -- system files --------------------------------------------------------------


def parse_system(text: str, filename: str = "<input>") -> ParseResult:
    """Parse and validate a system description.

    Returns the system together with diagnostics and validation's report;
    the report's findings are folded into the diagnostics, so a result with
    no error diagnostics is safe to analyze.
    """
    diagnostics: list[ParseDiagnostic] = []
    # the name token of the system, each machine and each state; a span is
    # built only for the validation findings that point at one, and a
    # repeated name keeps its last token, so a duplicate is placed there
    spans: dict[tuple, _Token] = {}
    try:
        cur = _Cursor(_lex(text, filename, glyphs=False))
        table = F.SymbolTable()
        reserved = _SYSTEM_KEYWORDS
        cur.expect("system")
        name_tok = cur.expect_ident("a system name", reserved)
        spans[("system",)] = name_tok
        cur.expect("{")
        machines: list[model.Machine] = []
        while not cur.accept("}"):
            machines.append(_parse_machine(cur, table, spans, reserved))
        tail = cur.tok
        if tail.kind != "eof":
            raise ParseError(f"unexpected {tail.text!r} after the system", tail.span)
        if not machines:
            raise ParseError("a system needs at least one machine", name_tok.span)
        table.freeze()
        system = model.System(name_tok.text, machines, table)
    except ParseError as exc:
        diagnostics.append(ParseDiagnostic("error", exc.message, exc.span))
        return ParseResult(None, diagnostics)

    report = model.validate(system)
    fallback = spans[("system",)]
    for entry in report.entries:
        tok = (
            spans.get(("state", entry.machine, entry.state))
            or spans.get(("machine", entry.machine))
            or fallback
        )
        diagnostics.append(ParseDiagnostic(entry.severity, entry.message, tok.span))
    if report.errors:
        return ParseResult(None, diagnostics, report)
    return ParseResult(system, diagnostics, report)


def _parse_machine(cur, table, spans, reserved) -> model.Machine:
    cur.expect("machine")
    name_tok = cur.expect_ident("a machine name", reserved)
    spans[("machine", name_tok.text)] = name_tok
    cur.expect("{")
    cur.expect("init")
    init_tok = cur.expect_ident("the initial state name", reserved)
    cur.expect(";")
    states: list[model.State] = []
    arcs: list[model.Arc] = []
    while not cur.accept("}"):
        if not cur.at("state"):
            raise ParseError("expected 'state' or '}'", cur.tok.span)
        _parse_state(cur, table, spans, reserved, name_tok.text, states, arcs)
    if not states:
        raise ParseError(f"machine {name_tok.text!r} has no states", name_tok.span)
    return model.Machine(name_tok.text, states, init_tok.text, arcs)


def _parse_state(cur, table, spans, reserved, machine_name, states, arcs):
    cur.expect("state")
    name_tok = cur.expect_ident("a state name", reserved)
    spans[("state", machine_name, name_tok.text)] = name_tok
    cur.expect("{")
    outputs: list[F.Symbol] = []
    if cur.accept("out"):
        outputs.append(_symbol(table.intern, cur.expect_ident("an output symbol", reserved)))
        while cur.accept(","):
            outputs.append(_symbol(table.intern, cur.expect_ident("an output symbol", reserved)))
        cur.expect(";")
    while cur.accept("->"):
        dst_tok = cur.expect_ident("a target state name", reserved)
        cur.expect("when")
        guard = _parse_or(cur, table.intern, reserved, False)
        cur.expect(";")
        arcs.append(model.Arc(name_tok.text, dst_tok.text, guard))
    cur.expect("}")
    states.append(model.State(name_tok.text, frozenset(outputs)))


# -- requirement files ---------------------------------------------------------


def parse_queries(
    text: str, system: model.System | None = None, filename: str = "<queries>"
) -> QueryParseResult:
    """Parse a requirement file into temporal queries and CTL requirements.

    When ``system`` is given, atoms that name no symbol of the system are
    reported as warnings (they may well be environment inputs, so they are
    not errors), and an implication query that cannot be checked against
    the system (``mc.split_query``) is an error at the query's name.
    """
    result = QueryParseResult()
    reserved = _QUERY_KEYWORDS
    try:
        cur = _Cursor(_lex(text, filename, glyphs=True))
        seen_names: set[str] = set()
        first_tokens: list[_Token] = []  # per entry; an implication query's name
        while cur.tok.kind != "eof":
            first_tokens.append(cur.tok)
            if cur.at("ctl"):
                entry = _parse_ctl_query(cur, reserved)
            else:
                entry = _parse_always_query(cur, reserved)
            if entry.name in seen_names:
                result.diagnostics.append(
                    ParseDiagnostic("warning", f"duplicate query name {entry.name!r}", None)
                )
            seen_names.add(entry.name)
            result.queries.append(entry)
    except ParseError as exc:
        result.diagnostics.append(ParseDiagnostic("error", exc.message, exc.span))
        return result

    if system is not None:
        produced = system.produced_symbols()
        for entry, first in zip(result.queries, first_tokens):
            if isinstance(entry, mc.Query):
                used = F.atoms(entry.antecedent) | F.atoms(entry.consequent)
                unknown = sorted(s.name for s in used if s not in system.symbols)
                for name in unknown:
                    result.diagnostics.append(
                        ParseDiagnostic(
                            "warning",
                            f"query {entry.name!r} uses symbol {name!r} that the system "
                            "never mentions (it may be environmental)",
                            None,
                        )
                    )
                try:
                    mc.split_query(entry, produced)
                except mc.QueryError as exc:
                    result.diagnostics.append(ParseDiagnostic("error", str(exc), first.span))
            else:
                # CTL atoms are read against node outputs only
                foreign = sorted(s.name for s in mc.ctl_atoms(entry.formula) - produced)
                for name in foreign:
                    result.diagnostics.append(
                        ParseDiagnostic(
                            "warning",
                            f"requirement {entry.name!r}: no machine produces {name!r}, "
                            "so the atom is false at every state",
                            None,
                        )
                    )
    return result


def _parse_always_query(cur: _Cursor, reserved) -> mc.Query:
    name_tok = cur.expect_ident("a query name", reserved)
    cur.expect(":")
    cur.expect("always")
    cur.expect("(")
    antecedent = _parse_or(cur, F.Symbol, reserved, False)
    cur.expect("=>")
    # the mode keyword may sit inside its own parentheses: "=> (next HY)"
    wrapped = False
    if cur.at("(") and cur._tokens[cur._pos + 1].text in ("next", "eventually", "exists"):
        cur.take()
        wrapped = True
    universal = True
    if cur.accept("exists"):
        universal = False
    if cur.accept("next"):
        mode = "next"
    elif cur.accept("eventually"):
        mode = "eventually"
    else:
        raise ParseError("expected 'next' or 'eventually' after '=>'", cur.tok.span)
    if not universal and mode != "eventually":
        raise ParseError("'exists' applies to 'eventually' only", cur.tok.span)
    consequent = _parse_or(cur, F.Symbol, reserved, False)
    if wrapped:
        cur.expect(")")
    cur.expect(")")
    cur.expect(";")
    return mc.Query(name_tok.text, antecedent, mode, consequent, universal=universal)


def _parse_ctl_query(cur: _Cursor, reserved) -> mc.CtlQuery:
    cur.expect("ctl")
    name_tok = cur.expect_ident("a requirement name", reserved)
    cur.expect(":")
    formula_ = _parse_implies(cur, F.Symbol, reserved, True)
    cur.expect(";")
    return mc.CtlQuery(name_tok.text, formula_)


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
                names = ", ".join(sorted(s.name for s in state.outputs))
                lines.append(f"      out {names};")
            for arc in machine.arcs_from(idx):
                lines.append(f"      -> {arc.dst} when {F.to_text(arc.guard)};")
            lines.append("    }")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
