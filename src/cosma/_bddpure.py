"""Pure-Python ROBDD kernel.

Handle-based: nodes are plain ints, the terminals are 0 (false) and 1
(true).  Variables are identified by their level; a smaller level sits
closer to the root, and every node's children carry strictly larger levels
(the ordering rule).  The unique table guarantees reduction, so two handles
are equal exactly when they denote the same Boolean function.

:mod:`cosma.robdd` wraps it with named variables.
"""

from __future__ import annotations

TERMINAL_LEVEL = 1 << 30

_ITE = 0
_EXISTS = 1
_RENAME = 2


class BddKernel:
    def __init__(self):
        self.nvars = 0
        # node id -> (level, low, high); slots 0 and 1 are the terminals
        self._nodes = [(TERMINAL_LEVEL, 0, 0), (TERMINAL_LEVEL, 1, 1)]
        self._unique = {}
        self._cache = {}

    def __len__(self):
        return len(self._nodes)

    def add_var(self):
        """Declare the next variable; returns its level."""
        level = self.nvars
        self.nvars += 1
        return level

    def var(self, level):
        if not 0 <= level < self.nvars:
            raise ValueError(f"undeclared variable level {level}")
        return self._make(level, 0, 1)

    def node(self, ref):
        """The (level, low, high) triple behind ``ref``."""
        return self._nodes[ref]

    def _make(self, level, low, high):
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

    def ite(self, f, g, h):
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
        key = (_ITE, f, g, h)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        nodes = self._nodes
        top = nodes[f][0]
        if nodes[g][0] < top:
            top = nodes[g][0]
        if nodes[h][0] < top:
            top = nodes[h][0]
        f0, f1 = self._cofactors(f, top)
        g0, g1 = self._cofactors(g, top)
        h0, h1 = self._cofactors(h, top)
        low = self.ite(f0, g0, h0)
        high = self.ite(f1, g1, h1)
        result = self._make(top, low, high)
        self._cache[key] = result
        return result

    def _cofactors(self, ref, level):
        lv, low, high = self._nodes[ref]
        if lv == level:
            return low, high
        return ref, ref

    def not_(self, f):
        return self.ite(f, 0, 1)

    def and_(self, f, g):
        if f > g:
            f, g = g, f
        return self.ite(f, g, 0)

    def or_(self, f, g):
        if f > g:
            f, g = g, f
        return self.ite(f, 1, g)

    def xor_(self, f, g):
        if f > g:
            f, g = g, f
        return self.ite(f, self.not_(g), g)

    def exists(self, f, levels):
        """Existential quantification over ``levels`` (sorted tuple)."""
        if f <= 1 or not levels:
            return f
        key = (_EXISTS, f, levels)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        lv, low, high = self._nodes[f]
        i = 0
        n = len(levels)
        while i < n and levels[i] < lv:
            i += 1  # quantified variable above the root: not in the support
        rest = levels[i:]
        if not rest:
            result = f
        elif rest[0] == lv:
            result = self.or_(self.exists(low, rest[1:]), self.exists(high, rest[1:]))
        else:
            result = self._make(lv, self.exists(low, rest), self.exists(high, rest))
        self._cache[key] = result
        return result

    def rename(self, f, mapping):
        """Relabel variables per ``mapping`` (tuple of (src, dst) pairs).

        The mapping must be monotone (sources and targets both strictly
        increasing) and must cover the whole support of ``f``; both hold for
        the primed-to-unprimed shift used in image computation, and keeping
        to them lets the result be rebuilt without reordering.
        """
        for (s1, d1), (s2, d2) in zip(mapping, mapping[1:]):
            if s1 >= s2 or d1 >= d2:
                raise ValueError("rename mapping must be strictly monotone")
        return self._rename(f, dict(mapping), mapping)

    def _rename(self, f, table, key_part):
        if f <= 1:
            return f
        key = (_RENAME, f, key_part)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        lv, low, high = self._nodes[f]
        target = table.get(lv)
        if target is None:
            raise ValueError(f"rename mapping misses support level {lv}")
        result = self._make(
            target, self._rename(low, table, key_part), self._rename(high, table, key_part)
        )
        self._cache[key] = result
        return result

    def sat_count(self, f, nvars):
        """Number of satisfying assignments over the first ``nvars`` levels."""
        if nvars < 0 or nvars > self.nvars:
            raise ValueError(f"nvars {nvars} out of range")
        nodes = self._nodes
        memo = {}

        def level_of(ref):
            lv = nodes[ref][0]
            return nvars if lv == TERMINAL_LEVEL else lv

        def count(ref):
            # assignments over levels [level_of(ref), nvars)
            if ref == 1:
                return 1
            if ref == 0:
                return 0
            found = memo.get(ref)
            if found is not None:
                return found
            lv, low, high = nodes[ref]
            if lv >= nvars:
                raise ValueError("support extends beyond the counted variables")
            result = (count(low) << (level_of(low) - lv - 1)) + (
                count(high) << (level_of(high) - lv - 1)
            )
            memo[ref] = result
            return result

        return count(f) << level_of(f)

    def support(self, f):
        """Sorted tuple of levels the function depends on."""
        seen = set()
        levels = set()
        stack = [f]
        while stack:
            ref = stack.pop()
            if ref <= 1 or ref in seen:
                continue
            seen.add(ref)
            lv, low, high = self._nodes[ref]
            levels.add(lv)
            stack.append(low)
            stack.append(high)
        return tuple(sorted(levels))

    def evaluate(self, f, true_levels):
        """Truth of ``f`` when exactly the levels in ``true_levels`` are 1."""
        while f > 1:
            lv, low, high = self._nodes[f]
            f = high if lv in true_levels else low
        return f == 1

    def some_solution(self, f):
        """A satisfying partial assignment {level: bool}, or None."""
        if f == 0:
            return None
        out = {}
        while f != 1:
            lv, low, high = self._nodes[f]
            if low != 0:
                out[lv] = False
                f = low
            else:
                out[lv] = True
                f = high
        return out

    def audit(self):
        """Independent structural re-check of the reduction invariants."""
        problems = []
        seen_keys = set()
        for ref in range(2, len(self._nodes)):
            lv, low, high = self._nodes[ref]
            if low == high:
                problems.append(f"node {ref}: low == high")
            for child in (low, high):
                if child > 1 and self._nodes[child][0] <= lv:
                    problems.append(f"node {ref}: child level not below parent")
            key = (lv, low, high)
            if key in seen_keys:
                problems.append(f"node {ref}: duplicate (var, low, high) triple")
            seen_keys.add(key)
            if self._unique.get(key) != ref:
                problems.append(f"node {ref}: unique table disagrees")
        return problems
