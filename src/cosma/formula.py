"""Boolean guard formulas over an abstract symbol alphabet.

Machine arcs are labelled with formulas over named signals rather than
letters from an input alphabet.  A signal is a :class:`Symbol`, which is
its name as a string and also a formula's leaf: it is true in a step
exactly when it occurs in the step's valuation, and a valuation is simply
the set of symbols currently present.  Equal names are equal symbols, so
no table keeps them: the alphabet of a system is whatever its machines
mention.  The constant ``1`` (always true) labels spontaneous
transitions; ``0`` never fires.

Formulas are trees of :class:`Record` nodes, compared and hashed by value
and never reassigned once built: what the parsers build and what VHDL,
lint messages and printed queries show.  ``And`` and ``Or`` are n-ary: a
chain ``a + b + c`` is one node with three operands, so no walker recurses
once per operand.  CTL formulas share these connectives; only their
temporal nodes are ``mc``'s own.  Once parsed, a guard is reasoned about
only as a BDD, translated by ``BddManager.from_expr`` into the one manager
of a :class:`GuardContext`.
"""

from __future__ import annotations

import re
from typing import AbstractSet, Iterable, Iterator

from cosma import robdd

__all__ = [
    "And",
    "BoolExpr",
    "ConstFalse",
    "ConstTrue",
    "FALSE",
    "FormulaError",
    "GuardContext",
    "Not",
    "Or",
    "Record",
    "Symbol",
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


class Record:
    """A value made of named fields, compared, hashed and printed by them.

    A subclass names its fields in ``__slots__`` and sets them in a plain
    ``__init__``; ``_fields`` lists the fields of the whole class, those of
    its bases first.  A record equals only a record of its own type with
    equal fields, hashes as the tuple of its fields and prints as
    ``Name(field=value, ...)``.  Nothing stops an assignment to a field,
    as with ``robdd.BddRef``; none is made after ``__init__``, so a record
    keeps its hash.  A record that does change, such as a report that
    collects entries, sets ``__hash__ = None``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(
            name for klass in reversed(cls.__mro__) for name in vars(klass).get("__slots__", ())
        )

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if type(other) is type(self):
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"


class BoolExpr(Record):
    """Base class of formula nodes, compared and hashed by value."""

    __slots__ = ()


class Symbol(str, BoolExpr):
    """A named signal, and the formula leaf that reads it: its name itself.

    A case-sensitive identifier.  Hashing, equality and ordering are the
    name's own, so equal names are equal symbols and symbols sort by name.
    """

    __slots__ = ()

    def __new__(cls, name: str):
        if not _IDENT.match(name):
            raise FormulaError(f"invalid symbol name {name!r}")
        return super().__new__(cls, name)

    @property
    def name(self) -> str:
        return self


class ConstTrue(BoolExpr):
    """The always-true guard; prints as ``1`` and marks spontaneous arcs."""

    __slots__ = ()


class ConstFalse(BoolExpr):
    """The never-true guard; prints as ``0``."""

    __slots__ = ()


class Not(BoolExpr):
    __slots__ = ("operand",)

    def __init__(self, operand: BoolExpr):
        self.operand = operand


class _Chain(BoolExpr):
    """``And``/``Or`` over two or more operands.

    A first operand of the same kind is spliced in, as ``a + b + c`` reads:
    ``Or(Or(a, b), c) == Or(a, b, c)``, while ``a + (b + c)`` stays nested.
    """

    __slots__ = ("operands",)

    def __init__(self, *operands: BoolExpr):
        if len(operands) < 2:
            raise FormulaError(f"{type(self).__name__} needs two or more operands")
        if type(operands[0]) is type(self):
            operands = operands[0].operands + operands[1:]
        self.operands: tuple[BoolExpr, ...] = operands


class And(_Chain):
    __slots__ = ()


class Or(_Chain):
    __slots__ = ()


TRUE = ConstTrue()
FALSE = ConstFalse()


def and_all(exprs: Iterable[BoolExpr]) -> BoolExpr:
    """The conjunction of ``exprs`` as one node, or a constant: ``TRUE``
    factors are dropped, and a ``FALSE`` factor makes it ``FALSE``."""
    factors = []
    for e in exprs:
        # the constants have no fields, so their type is their value
        if type(e) is ConstFalse:
            return FALSE
        if type(e) is not ConstTrue:
            factors.append(e)
    if len(factors) < 2:
        return factors[0] if factors else TRUE
    return And(*factors)


def atoms(expr: BoolExpr) -> frozenset[Symbol]:
    """All symbols occurring in ``expr``."""
    found: set[Symbol] = set()
    stack = [expr]
    while stack:
        e = stack.pop()
        if isinstance(e, Symbol):
            found.add(e)
        elif isinstance(e, Not):
            stack.append(e.operand)
        elif isinstance(e, _Chain):
            stack.extend(e.operands)
        elif not isinstance(e, (ConstTrue, ConstFalse)):
            raise FormulaError(f"not a formula node: {e!r}")
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
    if isinstance(expr, Symbol):
        return expr in valuation
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
    if isinstance(expr, Symbol):
        return expr
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

    The order of ``alphabet`` is the variable order.
    """

    def __init__(self, alphabet: Iterable[Symbol]):
        self.manager = robdd.BddManager(alphabet)

    def satisfiable(self, guard: robdd.BddRef) -> bool:
        return guard != self.manager.FALSE

    def tautology(self, guard: robdd.BddRef) -> bool:
        return guard == self.manager.TRUE
