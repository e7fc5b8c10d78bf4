"""Reduced ordered BDD manager with named variables, in plain Python.

``BddManager`` owns the node store.  Nodes are ints, the terminals are 0
(false) and 1 (true), and each internal node is a ``(level, low, high)``
triple; a smaller level sits closer to the root, and every child carries a
strictly larger level than its parent.  The unique table keeps one node per
triple, so handles are canonical: two references are equal exactly when
they denote the same Boolean function under the manager's variable order.
A node is appended after its children, so children have smaller ids.

A computed table lives with what it is keyed by: the manager's for ``ite``,
keyed by three nodes; a prepared argument's for ``exists`` and ``rename``,
keyed by node alone; one call's for ISOP.  Each distinct argument of
``exists`` or ``rename``, the level set to quantify (with its deepest level)
or the level-to-level table to rename by, is prepared once per manager, so
a step costs what its nodes cost, not nodes times levels.  ``cube`` builds a
conjunction of literals from its deepest variable up, one node per literal.

A manager is single-owner; distinct managers may be used concurrently but
their references must never be mixed.  ``BACKEND`` names the
implementation, recorded with benchmark results.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

# formula imports this module too; each uses the other only inside functions
from cosma import formula

__all__ = ["BACKEND", "BddError", "BddManager", "BddRef"]

BACKEND = "python"  # the implementation's name, recorded with benchmark results

TERMINAL_LEVEL = 1 << 30  # the level of both terminals, below every variable


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

    def __repr__(self):
        return f"BddRef({self.node})"


class BddManager:
    """A variable order, a unique node store, and the logical operations.

    The public methods take and give ``BddRef`` handles and check that they
    belong to this manager; the private ones (``_make``, ``_ite``,
    ``_exists``, ``_rename``) work on node ids and levels.  ``exists`` and
    ``rename`` resolve the names of an argument they have not seen before,
    check it and give it a computed table of its own; a repeated argument is
    one dict lookup, and an argument that fails its check is not kept.
    """

    def __init__(self, variables: Iterable[str] = ()):
        # node id -> (level, low, high); ids 0 and 1 are the terminals
        self._nodes = [(TERMINAL_LEVEL, 0, 0), (TERMINAL_LEVEL, 1, 1)]
        self._unique: dict[tuple[int, int, int], int] = {}
        self._ite_cache: dict[tuple[int, int, int], int] = {}
        # each prepared argument ends in its own computed table, node -> result
        self._exists_args: dict[tuple, tuple[frozenset, int, dict[int, int]]] = {}
        self._rename_args: dict[tuple, tuple[dict[int, int], dict[int, int]]] = {}
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
            level = len(self._names)
            self._levels[name] = level
            self._names.append(name)
        return BddRef(self, self._make(level, 0, 1))

    def level_of(self, name: str) -> int:
        try:
            return self._levels[name]
        except KeyError:
            raise BddError(f"undeclared variable {name!r}") from None

    def __len__(self) -> int:
        return len(self._nodes)

    # -- node store --------------------------------------------------------

    def _make(self, level: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (level, low, high)
        found = self._unique.get(key)
        if found is not None:
            return found
        ref = len(self._nodes)
        self._nodes.append(key)
        self._unique[key] = ref
        return ref

    def _ite(self, f: int, g: int, h: int) -> int:
        if f == 1:
            return g
        if f == 0:
            return h
        if g == h:
            return g
        if g == 1 and h == 0:
            return f
        if f == g:
            g = 1
        if f == h:
            h = 0
        key = (f, g, h)
        cached = self._ite_cache.get(key)
        if cached is not None:
            return cached
        nodes = self._nodes
        fv, f0, f1 = nodes[f]
        gv, g0, g1 = nodes[g]
        hv, h0, h1 = nodes[h]
        top = fv
        if gv < top:
            top = gv
        if hv < top:
            top = hv
        # cofactors at the top level; a function not rooted there is its own
        if fv != top:
            f0 = f1 = f
        if gv != top:
            g0 = g1 = g
        if hv != top:
            h0 = h1 = h
        result = self._make(top, self._ite(f0, g0, h0), self._ite(f1, g1, h1))
        self._ite_cache[key] = result
        return result

    def _exists(self, f: int, quant: frozenset, last: int, memo: dict) -> int:
        """Quantify the levels in ``quant``, the deepest of them ``last``, out of ``f``.

        ``memo`` is the computed table of this ``quant``.
        """
        if f <= 1:
            return f
        lv, low, high = self._nodes[f]
        if lv > last:
            return f  # every quantified level lies above this node
        cached = memo.get(f)
        if cached is not None:
            return cached
        if lv in quant:
            low = self._exists(low, quant, last, memo)
            if low == 1:
                result = 1
            else:
                high = self._exists(high, quant, last, memo)
                if low > high:
                    low, high = high, low
                result = self._ite(low, 1, high)
        else:
            result = self._make(
                lv, self._exists(low, quant, last, memo), self._exists(high, quant, last, memo)
            )
        memo[f] = result
        return result

    def _rename(self, f: int, table: dict[int, int], memo: dict) -> int:
        """Relabel ``f``'s levels through ``table``; ``memo`` is its computed table."""
        if f <= 1:
            return f
        cached = memo.get(f)
        if cached is not None:
            return cached
        lv, low, high = self._nodes[f]
        target = table.get(lv)
        if target is None:
            raise BddError(f"rename mapping misses support level {lv}")
        result = self._make(
            target, self._rename(low, table, memo), self._rename(high, table, memo)
        )
        memo[f] = result
        return result

    def _below(self, root: int) -> set[int]:
        """The internal nodes reachable from ``root``, itself included."""
        nodes = self._nodes
        seen = set()
        stack = [root]
        while stack:
            ref = stack.pop()
            if ref > 1 and ref not in seen:
                seen.add(ref)
                _, low, high = nodes[ref]
                stack.append(low)
                stack.append(high)
        return seen

    # -- operations --------------------------------------------------------

    def _node(self, ref: BddRef) -> int:
        if type(ref) is not BddRef or ref.manager is not self:
            raise BddError("reference does not belong to this manager")
        return ref.node

    # not_, and_ and or_ carry the explicit engine's work, so they check
    # ownership inline and call _ite without a helper in between
    def not_(self, f: BddRef) -> BddRef:
        if type(f) is not BddRef or f.manager is not self:
            raise BddError("reference does not belong to this manager")
        return BddRef(self, self._ite(f.node, 0, 1))

    def and_(self, f: BddRef, g: BddRef) -> BddRef:
        if not (type(f) is BddRef and f.manager is self and type(g) is BddRef
                and g.manager is self):
            raise BddError("reference does not belong to this manager")
        f, g = f.node, g.node
        if f > g:
            f, g = g, f
        return BddRef(self, self._ite(f, g, 0))

    def or_(self, f: BddRef, g: BddRef) -> BddRef:
        if not (type(f) is BddRef and f.manager is self and type(g) is BddRef
                and g.manager is self):
            raise BddError("reference does not belong to this manager")
        f, g = f.node, g.node
        if f > g:
            f, g = g, f
        return BddRef(self, self._ite(f, 1, g))

    def xor_(self, f: BddRef, g: BddRef) -> BddRef:
        f, g = self._node(f), self._node(g)
        if f > g:
            f, g = g, f
        return BddRef(self, self._ite(f, self._ite(g, 0, 1), g))

    def apply(self, op: str, f: BddRef, g: BddRef) -> BddRef:
        try:
            method = {"and": self.and_, "or": self.or_, "xor": self.xor_}[op]
        except KeyError:
            raise BddError(f"unknown operation {op!r}") from None
        return method(f, g)

    def ite(self, f: BddRef, g: BddRef, h: BddRef) -> BddRef:
        return BddRef(self, self._ite(self._node(f), self._node(g), self._node(h)))

    def exists(self, names: Iterable[str], f: BddRef) -> BddRef:
        names = tuple(names)
        prepared = self._exists_args.get(names)
        if prepared is None:
            quant = frozenset(self.level_of(n) for n in names)
            prepared = (quant, max(quant, default=-1), {})
            self._exists_args[names] = prepared
        return BddRef(self, self._exists(self._node(f), *prepared))

    def rename(self, f: BddRef, mapping: Mapping[str, str]) -> BddRef:
        """Relabel variables per ``mapping``, which must cover the support of ``f``.

        The mapping must also be monotone (sources and targets both in
        increasing variable order), as the primed-to-unprimed shift of image
        computation is; the result is then rebuilt without reordering.
        """
        items = tuple(mapping.items())
        prepared = self._rename_args.get(items)
        if prepared is None:
            pairs = sorted((self.level_of(src), self.level_of(dst)) for src, dst in items)
            for (s1, d1), (s2, d2) in zip(pairs, pairs[1:]):
                if s1 >= s2 or d1 >= d2:
                    raise BddError("rename mapping must be strictly monotone")
            prepared = (dict(pairs), {})
            self._rename_args[items] = prepared
        return BddRef(self, self._rename(self._node(f), *prepared))

    def cube(self, literals: Iterable[tuple[str, bool]]) -> BddRef:
        """The conjunction of ``(name, polarity)`` literals over distinct variables.

        The literals may come in any order; the cube is built from its
        deepest variable up, one node per literal.
        """
        ordered = sorted(((self.level_of(name), bool(pos)) for name, pos in literals),
                         reverse=True)
        node = 1
        below = TERMINAL_LEVEL
        for level, positive in ordered:
            if level == below:
                raise BddError(f"variable {self._names[level]!r} repeated in cube")
            node = self._make(level, 0, node) if positive else self._make(level, node, 0)
            below = level
        return BddRef(self, node)

    def sat_count(self, f: BddRef, nvars: int) -> int:
        """Number of satisfying assignments over the first ``nvars`` variables."""
        root = self._node(f)
        if not 0 <= nvars <= len(self._names):
            raise BddError(f"nvars {nvars} out of range")
        nodes = self._nodes
        # count[ref]: assignments over the levels from ref's own to nvars; a
        # terminal's level counts as nvars, and children come before parents
        count = {0: 0, 1: 1}
        for ref in sorted(self._below(root)):
            lv, low, high = nodes[ref]
            if lv >= nvars:
                raise BddError("support extends beyond the counted variables")
            low_lv = nvars if low <= 1 else nodes[low][0]
            high_lv = nvars if high <= 1 else nodes[high][0]
            count[ref] = (count[low] << (low_lv - lv - 1)) + (count[high] << (high_lv - lv - 1))
        return count[root] << (nvars if root <= 1 else nodes[root][0])

    def support(self, f: BddRef) -> tuple[str, ...]:
        nodes = self._nodes
        levels = {nodes[ref][0] for ref in self._below(self._node(f))}
        return tuple(self._names[lv] for lv in sorted(levels))

    def evaluate(self, f: BddRef, true_names: Iterable[str]) -> bool:
        levels = {self.level_of(n) for n in true_names}
        node = self._node(f)
        nodes = self._nodes
        while node > 1:
            lv, low, high = nodes[node]
            node = high if lv in levels else low
        return node == 1

    def some_assignment(self, f: BddRef) -> dict[str, bool] | None:
        """A satisfying partial assignment, or None for FALSE."""
        node = self._node(f)
        if node == 0:
            return None
        nodes = self._nodes
        out = {}
        while node != 1:
            lv, low, high = nodes[node]
            out[self._names[lv]] = low == 0
            node = high if low == 0 else low
        return out

    def from_expr(self, expr, leaf: Callable | None = None) -> BddRef:
        """Translate a formula tree; ``leaf(symbol)`` gives each symbol's function.

        By default a symbol is the declared variable of its name.
        """
        return self._build(expr, leaf)

    def _build(self, e, leaf: Callable | None) -> BddRef:
        if isinstance(e, formula.Symbol):
            if leaf is not None:
                return leaf(e)
            if e not in self._levels:
                raise BddError(f"atom {e!r} has no manager variable")
            return self.mk_var(e)
        if isinstance(e, formula.Not):
            return self.not_(self._build(e.operand, leaf))
        if isinstance(e, (formula.And, formula.Or)):
            # pairwise, round by round, so k operands cost O(k log k) ite
            # steps in any order; up to three fold left to right
            op = self.and_ if isinstance(e, formula.And) else self.or_
            refs = [self._build(o, leaf) for o in e.operands]
            while len(refs) > 1:
                paired = [op(refs[i], refs[i + 1]) for i in range(0, len(refs) - 1, 2)]
                if len(refs) % 2:
                    paired.append(refs[-1])
                refs = paired
            return refs[0]
        if isinstance(e, formula.ConstTrue):
            return self.TRUE
        if isinstance(e, formula.ConstFalse):
            return self.FALSE
        raise BddError(f"not a formula node: {e!r}")

    def isop(self, f: BddRef) -> list[list[tuple[str, bool]]]:
        """An irredundant sum of products of ``f`` (Minato 1992), as cubes.

        A cube lists (variable, polarity) pairs in variable order.  At each
        variable the cubes of its negative cofactor come first, then those
        of its positive cofactor, then those shared by both.
        """
        node = self._node(f)
        cubes = self._cover(node, node, {})[0]
        return [[(self._names[lv], pos) for lv, pos in cube] for cube in cubes]

    def _cover(self, lower: int, upper: int, memo: dict) -> tuple[tuple, int]:
        """ISOP's cubes between ``lower`` and ``upper``, with their union g:
        lower <= g <= upper."""
        if lower == 0:
            return (), 0
        if upper == 1:
            return ((),), 1
        found = memo.get((lower, upper))
        if found is not None:
            return found
        nodes, ite = self._nodes, self._ite
        (lv, l0, l1), (uv, u0, u1) = nodes[lower], nodes[upper]
        level = min(lv, uv)
        l0, l1 = (l0, l1) if lv == level else (lower, lower)
        u0, u1 = (u0, u1) if uv == level else (upper, upper)
        # ite(a, 0, b) is b AND NOT a, ite(a, 1, b) is a OR b
        c0, g0 = self._cover(ite(u1, 0, l0), u0, memo)
        c1, g1 = self._cover(ite(u0, 0, l1), u1, memo)
        cs, gs = self._cover(ite(ite(g0, 0, l0), 1, ite(g1, 0, l1)), ite(u0, u1, 0), memo)
        cubes = tuple(((level, False),) + c for c in c0)
        cubes += tuple(((level, True),) + c for c in c1) + cs
        # g0 and g1 lie below the level, so they are its cofactors
        found = memo[(lower, upper)] = cubes, ite(self._make(level, g0, g1), 1, gs)
        return found

    def audit(self) -> list[str]:
        """Structural re-check of reduction and unique-table invariants."""
        nodes = self._nodes
        problems = []
        seen_keys = set()
        for ref in range(2, len(nodes)):
            key = lv, low, high = nodes[ref]
            if low == high:
                problems.append(f"node {ref}: low == high")
            for child in (low, high):
                if child > 1 and nodes[child][0] <= lv:
                    problems.append(f"node {ref}: child level not below parent")
            if key in seen_keys:
                problems.append(f"node {ref}: duplicate (var, low, high) triple")
            seen_keys.add(key)
            if self._unique.get(key) != ref:
                problems.append(f"node {ref}: unique table disagrees")
        return problems
