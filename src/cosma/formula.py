"""Boolean guard formulas over an abstract symbol alphabet.

Machine arcs are labelled with formulas over named signals rather than
letters from an input alphabet: an atom is true in a step exactly when its
signal occurs in the step's valuation, and a valuation is simply the set
of signals currently present.  The constant ``1`` (always true) labels
spontaneous transitions; ``0`` never fires.

Formulas are plain immutable trees: what the parsers build and what VHDL,
lint messages and printed queries show.  ``And`` and ``Or`` are n-ary: a
chain ``a + b + c`` is one node with three operands, so no walker recurses
once per operand.  CTL formulas share these connectives; only their
temporal nodes are ``mc``'s own.  Once parsed, a guard is reasoned about
only as a BDD, translated by ``BddManager.from_expr`` into the one manager
of a :class:`GuardContext`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import AbstractSet, Iterable, Iterator

from cosma import robdd

__all__ = [
    "And",
    "Atom",
    "BoolExpr",
    "ConstFalse",
    "ConstTrue",
    "FALSE",
    "FormulaError",
    "GuardContext",
    "Not",
    "Or",
    "Symbol",
    "SymbolTable",
    "TRUE",
    "and_all",
    "atoms",
    "conj_factors",
    "evaluate",
    "to_text",
]

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class FormulaError(ValueError):
    """Malformed symbol or misused formula operation."""


@dataclass(frozen=True, order=True)
class Symbol:
    """A named signal.  Case-sensitive identifier; equal names are equal."""

    name: str

    def __post_init__(self):
        if not _IDENT.match(self.name):
            raise FormulaError(f"invalid symbol name {self.name!r}")

    def __str__(self):
        return self.name

    def __repr__(self):
        return f"Symbol({self.name!r})"


class SymbolTable:
    """Interning table: each distinct name gets exactly one id.

    The table is frozen once a system is fully parsed; interning an unknown
    name afterwards is an error.
    """

    def __init__(self):
        self._ids: dict[str, int] = {}
        self._symbols: list[Symbol] = []
        self._frozen = False

    def intern(self, name: str | Symbol) -> Symbol:
        key = name.name if isinstance(name, Symbol) else name
        idx = self._ids.get(key)
        if idx is not None:
            return self._symbols[idx]
        if self._frozen:
            raise FormulaError(f"symbol table is frozen; unknown symbol {key!r}")
        sym = Symbol(key)
        self._ids[key] = len(self._symbols)
        self._symbols.append(sym)
        return sym

    def id_of(self, symbol: str | Symbol) -> int:
        key = symbol.name if isinstance(symbol, Symbol) else symbol
        try:
            return self._ids[key]
        except KeyError:
            raise FormulaError(f"unregistered symbol {key!r}") from None

    def freeze(self):
        self._frozen = True

    @property
    def frozen(self) -> bool:
        return self._frozen

    def __contains__(self, item: str | Symbol) -> bool:
        key = item.name if isinstance(item, Symbol) else item
        return key in self._ids

    def __iter__(self) -> Iterator[Symbol]:
        return iter(self._symbols)

    def __len__(self) -> int:
        return len(self._symbols)


class BoolExpr:
    """Base class of formula nodes.  Instances are immutable and hashable."""

    __slots__ = ()


@dataclass(frozen=True)
class ConstTrue(BoolExpr):
    """The always-true guard; prints as ``1`` and marks spontaneous arcs."""


@dataclass(frozen=True)
class ConstFalse(BoolExpr):
    """The never-true guard; prints as ``0``."""


@dataclass(frozen=True)
class Atom(BoolExpr):
    symbol: Symbol


@dataclass(frozen=True)
class Not(BoolExpr):
    operand: BoolExpr


@dataclass(frozen=True, init=False)
class _Chain(BoolExpr):
    """``And``/``Or`` over two or more operands.

    A first operand of the same kind is spliced in, as ``a + b + c`` reads:
    ``Or(Or(a, b), c) == Or(a, b, c)``, while ``a + (b + c)`` stays nested.
    """

    operands: tuple[BoolExpr, ...]

    def __init__(self, *operands: BoolExpr):
        if len(operands) < 2:
            raise FormulaError(f"{type(self).__name__} needs two or more operands")
        if type(operands[0]) is type(self):
            operands = operands[0].operands + operands[1:]
        object.__setattr__(self, "operands", operands)


class And(_Chain):
    pass


class Or(_Chain):
    pass


TRUE = ConstTrue()
FALSE = ConstFalse()


def and_all(exprs: Iterable[BoolExpr]) -> BoolExpr:
    """The conjunction of ``exprs`` as one node, or a constant: ``TRUE``
    factors are dropped, and a ``FALSE`` factor makes it ``FALSE``."""
    factors = [e for e in exprs if e != TRUE]
    if FALSE in factors:
        return FALSE
    if len(factors) < 2:
        return factors[0] if factors else TRUE
    return And(*factors)


def atoms(expr: BoolExpr) -> frozenset[Symbol]:
    """All symbols occurring in ``expr``."""
    found: set[Symbol] = set()
    stack = [expr]
    while stack:
        e = stack.pop()
        if isinstance(e, Atom):
            found.add(e.symbol)
        elif isinstance(e, Not):
            stack.append(e.operand)
        elif isinstance(e, _Chain):
            stack.extend(e.operands)
    return frozenset(found)


def conj_factors(expr: BoolExpr) -> Iterator[BoolExpr]:
    """Yield the factors of a top-level conjunction (the expr itself if none)."""
    if isinstance(expr, And):
        for operand in expr.operands:
            yield from conj_factors(operand)
    else:
        yield expr


def evaluate(expr: BoolExpr, valuation: AbstractSet[Symbol]) -> bool:
    """Truth of ``expr`` when exactly the symbols in ``valuation`` occur.

    Symbols absent from the valuation are false (a signal either occurs in
    a step or it does not).
    """
    if isinstance(expr, Atom):
        return expr.symbol in valuation
    if isinstance(expr, Not):
        return not evaluate(expr.operand, valuation)
    if isinstance(expr, _Chain):
        # an And is decided by a false operand, an Or by a true one
        decisive = isinstance(expr, Or)
        for operand in expr.operands:
            if evaluate(operand, valuation) is decisive:
                return decisive
        return not decisive
    if isinstance(expr, ConstTrue):
        return True
    if isinstance(expr, ConstFalse):
        return False
    raise FormulaError(f"not a formula node: {expr!r}")


_PREC_OR = 1
_PREC_AND = 2
_PREC_NOT = 3


def to_text(expr: BoolExpr) -> str:
    """Concrete syntax: ``~`` not, ``*`` and, ``+`` or, ``1``/``0`` constants.

    Parenthesization preserves the tree shape, so reparsing the text yields
    a structurally identical formula.
    """
    return _render(expr, 0)


def _render(expr: BoolExpr, min_prec: int) -> str:
    if isinstance(expr, ConstTrue):
        return "1"
    if isinstance(expr, ConstFalse):
        return "0"
    if isinstance(expr, Atom):
        return expr.symbol.name
    if isinstance(expr, Not):
        return "~" + _render(expr.operand, _PREC_NOT)
    if isinstance(expr, _Chain):
        # a nested operand of the same kind is never the first one
        op, prec = (" * ", _PREC_AND) if isinstance(expr, And) else (" + ", _PREC_OR)
        text = op.join([_render(e, prec + 1) for e in expr.operands])
        return f"({text})" if min_prec > prec else text
    raise FormulaError(f"not a formula node: {expr!r}")


class GuardContext:
    """One BDD manager over a fixed alphabet; guards are its ``BddRef`` values.

    An ordered ``alphabet`` (list or tuple) fixes the variable order, so
    callers can pass symbols in declaration order; an unordered one is
    sorted by name.
    """

    def __init__(self, alphabet: Iterable[Symbol]):
        symbols = list(alphabet)
        if isinstance(alphabet, (set, frozenset)):
            symbols.sort(key=lambda s: s.name)
        self.manager = robdd.BddManager(s.name for s in symbols)

    def satisfiable(self, guard: robdd.BddRef) -> bool:
        return guard != self.manager.FALSE

    def tautology(self, guard: robdd.BddRef) -> bool:
        return guard == self.manager.TRUE
