"""Reduced ordered BDD manager with named variables.

The manager wraps a kernel that stores nodes in a unique table, so handles
are canonical: two references are equal exactly when they denote the same
Boolean function under the manager's variable order.  A manager is
single-owner; distinct managers may be used concurrently but their
references must never be mixed.

The kernel is ``cosma._bddpure``, plain Python; ``BACKEND`` names it.
"""

from __future__ import annotations

import functools
from typing import Callable, Iterable, Mapping

from cosma import _bddpure

__all__ = ["BACKEND", "BddError", "BddManager", "BddRef"]

BACKEND = "python"  # the kernel's name, recorded with benchmark results


class BddError(ValueError):
    """Misuse of the BDD API (unknown variable, mixed managers, ...)."""


class BddRef:
    """Opaque handle to a Boolean function inside one manager.

    Two handles are equal exactly when they have the same manager object and
    the same node; they hash alike then, so handles serve as dict keys.
    """

    __slots__ = ("manager", "node")

    def __init__(self, manager: "BddManager", node: int):
        self.manager = manager
        self.node = node

    def __eq__(self, other):
        if type(other) is not BddRef:
            return NotImplemented
        return self.node == other.node and self.manager is other.manager

    def __ne__(self, other):
        if type(other) is not BddRef:
            return NotImplemented
        return self.node != other.node or self.manager is not other.manager

    def __hash__(self):
        return hash((id(self.manager), self.node))

    def __and__(self, other: "BddRef") -> "BddRef":
        return self.manager.and_(self, other)

    def __or__(self, other: "BddRef") -> "BddRef":
        return self.manager.or_(self, other)

    def __xor__(self, other: "BddRef") -> "BddRef":
        return self.manager.xor_(self, other)

    def __invert__(self) -> "BddRef":
        return self.manager.not_(self)

    def __repr__(self):
        return f"BddRef({self.node})"


class BddManager:
    """A variable order, a unique node store, and the logical operations."""

    def __init__(self, variables: Iterable[str] = ()):
        self._k = _bddpure.BddKernel()
        self._levels: dict[str, int] = {}
        self._names: list[str] = []
        self.FALSE = BddRef(self, 0)
        self.TRUE = BddRef(self, 1)
        for var in variables:
            self.mk_var(var)

    # -- variables ---------------------------------------------------------

    def mk_var(self, name: str) -> BddRef:
        """The function of a single variable; declares it on first use."""
        level = self._levels.get(name)
        if level is None:
            level = self._k.add_var()
            self._levels[name] = level
            self._names.append(name)
        return BddRef(self, self._k.var(level))

    def var_order(self) -> tuple[str, ...]:
        return tuple(self._names)

    def level_of(self, name: str) -> int:
        try:
            return self._levels[name]
        except KeyError:
            raise BddError(f"undeclared variable {name!r}") from None

    def __len__(self) -> int:
        return len(self._k)

    # -- operations --------------------------------------------------------

    def _node(self, ref: BddRef) -> int:
        if type(ref) is not BddRef or ref.manager is not self:
            raise BddError("reference does not belong to this manager")
        return ref.node

    # not_, and_ and or_ carry the explicit engine's work, so they check
    # ownership inline and build the result without a helper call
    def not_(self, f: BddRef) -> BddRef:
        if type(f) is not BddRef or f.manager is not self:
            raise BddError("reference does not belong to this manager")
        return BddRef(self, self._k.not_(f.node))

    def and_(self, f: BddRef, g: BddRef) -> BddRef:
        if not (type(f) is BddRef and f.manager is self and type(g) is BddRef
                and g.manager is self):
            raise BddError("reference does not belong to this manager")
        return BddRef(self, self._k.and_(f.node, g.node))

    def or_(self, f: BddRef, g: BddRef) -> BddRef:
        if not (type(f) is BddRef and f.manager is self and type(g) is BddRef
                and g.manager is self):
            raise BddError("reference does not belong to this manager")
        return BddRef(self, self._k.or_(f.node, g.node))

    def xor_(self, f: BddRef, g: BddRef) -> BddRef:
        return BddRef(self, self._k.xor_(self._node(f), self._node(g)))

    def apply(self, op: str, f: BddRef, g: BddRef) -> BddRef:
        try:
            method = {"and": self.and_, "or": self.or_, "xor": self.xor_}[op]
        except KeyError:
            raise BddError(f"unknown operation {op!r}") from None
        return method(f, g)

    def ite(self, f: BddRef, g: BddRef, h: BddRef) -> BddRef:
        return BddRef(self, self._k.ite(self._node(f), self._node(g), self._node(h)))

    def exists(self, names: Iterable[str], f: BddRef) -> BddRef:
        levels = tuple(sorted(self.level_of(n) for n in names))
        return BddRef(self, self._k.exists(self._node(f), levels))

    def rename(self, f: BddRef, mapping: Mapping[str, str]) -> BddRef:
        pairs = tuple(
            sorted((self.level_of(src), self.level_of(dst)) for src, dst in mapping.items())
        )
        return BddRef(self, self._k.rename(self._node(f), pairs))

    def sat_count(self, f: BddRef, nvars: int | None = None) -> int:
        if nvars is None:
            nvars = len(self._names)
        return self._k.sat_count(self._node(f), nvars)

    def support(self, f: BddRef) -> tuple[str, ...]:
        return tuple(self._names[lv] for lv in self._k.support(self._node(f)))

    def evaluate(self, f: BddRef, true_names: Iterable[str]) -> bool:
        levels = {self.level_of(n) for n in true_names}
        return self._k.evaluate(self._node(f), levels)

    def some_assignment(self, f: BddRef) -> dict[str, bool] | None:
        solution = self._k.some_solution(self._node(f))
        if solution is None:
            return None
        return {self._names[lv]: value for lv, value in solution.items()}

    def from_expr(self, expr, leaf: Callable | None = None) -> BddRef:
        """Translate a formula tree; ``leaf(symbol)`` gives each atom's function.

        By default an atom is the declared variable named after its symbol.
        """
        from cosma import formula  # noqa: PLC0415 (avoids an import cycle)

        def build(e) -> BddRef:
            if isinstance(e, formula.Atom):
                if leaf is not None:
                    return leaf(e.symbol)
                if e.symbol.name not in self._levels:
                    raise BddError(f"atom {e.symbol.name!r} has no manager variable")
                return self.mk_var(e.symbol.name)
            if isinstance(e, formula.Not):
                return self.not_(build(e.operand))
            if isinstance(e, (formula.And, formula.Or)):
                # left to right, the operations a left-deep chain would make
                op = self.and_ if isinstance(e, formula.And) else self.or_
                return functools.reduce(op, map(build, e.operands))
            if isinstance(e, formula.ConstTrue):
                return self.TRUE
            if isinstance(e, formula.ConstFalse):
                return self.FALSE
            raise BddError(f"not a formula node: {e!r}")

        return build(expr)

    def isop(self, f: BddRef) -> list[list[tuple[str, bool]]]:
        """An irredundant sum of products of ``f`` (Minato 1992), as cubes.

        A cube lists (variable, polarity) pairs in variable order.  At each
        variable the cubes of its negative cofactor come first, then those
        of its positive cofactor, then those shared by both.
        """
        k = self._k
        memo: dict[tuple[int, int], tuple[tuple, int]] = {}

        def cover(lower: int, upper: int) -> tuple[tuple, int]:
            # cubes and their union g, with lower <= g <= upper
            if lower == 0:
                return (), 0
            if upper == 1:
                return ((),), 1
            if (lower, upper) not in memo:
                (lv, l0, l1), (uv, u0, u1) = k.node(lower), k.node(upper)
                level = min(lv, uv)
                l0, l1 = (l0, l1) if lv == level else (lower, lower)
                u0, u1 = (u0, u1) if uv == level else (upper, upper)
                c0, g0 = cover(k.and_(l0, k.not_(u1)), u0)
                c1, g1 = cover(k.and_(l1, k.not_(u0)), u1)
                rest = k.or_(k.and_(l0, k.not_(g0)), k.and_(l1, k.not_(g1)))
                cs, gs = cover(rest, k.and_(u0, u1))
                cubes = tuple(((level, False),) + c for c in c0)
                cubes += tuple(((level, True),) + c for c in c1) + cs
                memo[(lower, upper)] = cubes, k.or_(k.ite(k.var(level), g1, g0), gs)
            return memo[(lower, upper)]

        node = self._node(f)
        return [[(self._names[lv], pos) for lv, pos in cube] for cube in cover(node, node)[0]]

    def audit(self) -> list[str]:
        """Structural re-check of reduction and unique-table invariants."""
        return self._k.audit()
