import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cosma import formula as F
from cosma import robdd
from oracles import all_valuations, brute_satisfiable

from test_formula import exprs

VARS4 = [F.Symbol(n) for n in ("v0", "v1", "v2", "v3")]


def truth_table(expr, symbols):
    return tuple(F.evaluate(expr, v) for v in all_valuations(symbols))


class TestBasics:
    def test_var_evaluates_to_itself(self, kernel):
        m = robdd.BddManager()
        x = m.mk_var("x")
        assert m.evaluate(x, {"x"})
        assert not m.evaluate(x, set())

    def test_same_var_same_handle(self, kernel):
        m = robdd.BddManager()
        assert m.mk_var("x") == m.mk_var("x")

    def test_contradiction_is_false_terminal(self, kernel):
        m = robdd.BddManager()
        x = m.mk_var("x")
        assert m.and_(x, m.not_(x)) == m.FALSE
        assert m.or_(x, m.not_(x)) == m.TRUE

    def test_ite_of_constants_is_the_variable(self, kernel):
        m = robdd.BddManager()
        x = m.mk_var("x")
        assert m.ite(x, m.TRUE, m.FALSE) == x

    def test_and_with_true_is_identity(self, kernel):
        m = robdd.BddManager(["x", "y"])
        f = m.xor_(m.mk_var("x"), m.mk_var("y"))
        assert m.apply("and", f, m.TRUE) == f
        assert m.apply("or", f, m.FALSE) == f

    def test_unknown_apply_op(self):
        m = robdd.BddManager(["x"])
        with pytest.raises(robdd.BddError):
            m.apply("nand", m.TRUE, m.TRUE)

    def test_mixing_managers_rejected(self):
        m1 = robdd.BddManager(["x"])
        m2 = robdd.BddManager(["x"])
        own, foreign = m1.mk_var("x"), m2.mk_var("x")
        for op in (m1.and_, m1.or_, m1.xor_):
            for f, g in ((own, foreign), (foreign, own), (foreign, foreign),
                         (own, own.node), (own.node, own), (own, None)):
                with pytest.raises(robdd.BddError):
                    op(f, g)
        for f in (foreign, m2.TRUE, own.node, None):
            with pytest.raises(robdd.BddError):
                m1.not_(f)


class TestHandles:
    def test_same_node_in_two_managers_is_unequal(self):
        m1, m2 = robdd.BddManager(["x"]), robdd.BddManager(["x"])
        x1, x2 = m1.mk_var("x"), m2.mk_var("x")
        assert x1.node == x2.node
        assert x1 != x2
        assert not x1 == x2
        assert m1.TRUE != m2.TRUE

    def test_equal_handles_hash_equal_and_work_as_keys(self):
        m = robdd.BddManager(["x", "y"])
        x, y = m.mk_var("x"), m.mk_var("y")
        f = m.and_(x, y)
        g = m.not_(m.or_(m.not_(x), m.not_(y)))
        assert f is not g
        assert f == g
        assert not f != g
        assert hash(f) == hash(g)
        table = {f: "x*y", m.TRUE: "1"}
        assert table[g] == "x*y"
        assert table[m.or_(x, m.TRUE)] == "1"
        assert m.FALSE not in table
        assert robdd.BddManager(["x", "y"]).TRUE not in table

    def test_handles_never_equal_other_types(self):
        m = robdd.BddManager()
        assert m.TRUE != 1
        assert m.FALSE != 0
        assert m.TRUE != None  # noqa: E711


class TestTruthTables:
    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(expr=exprs(VARS4))
    def test_agreement_with_formula_eval(self, expr, kernel):
        m = robdd.BddManager([s.name for s in VARS4])
        ref = m.from_expr(expr)
        for valuation in all_valuations(VARS4):
            names = {s.name for s in valuation}
            assert m.evaluate(ref, names) == F.evaluate(expr, valuation)

    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(expr=exprs(VARS4), other=exprs(VARS4))
    def test_canonicity(self, expr, other, kernel):
        # equal truth tables if and only if equal handles
        m = robdd.BddManager([s.name for s in VARS4])
        same_table = truth_table(expr, VARS4) == truth_table(other, VARS4)
        assert (m.from_expr(expr) == m.from_expr(other)) == same_table

    def test_build_order_does_not_matter(self, kernel):
        m = robdd.BddManager(["p", "q", "r"])
        p, q, r = m.mk_var("p"), m.mk_var("q"), m.mk_var("r")
        left = m.and_(p, m.and_(q, r))
        right = m.and_(m.and_(r, p), q)
        assert left == right
        demorgan = m.not_(m.or_(m.not_(p), m.not_(q)))
        assert demorgan == m.and_(p, q)

    def test_randomized_ten_variable_spot_checks(self, kernel):
        rng = random.Random(7)
        syms = [F.Symbol(f"w{i}") for i in range(10)]
        from gensys import random_guard

        m = robdd.BddManager([s.name for s in syms])
        for _ in range(25):
            expr = random_guard(rng, syms, depth=4)
            ref = m.from_expr(expr)
            for _ in range(40):
                valuation = frozenset(s for s in syms if rng.random() < 0.5)
                names = {s.name for s in valuation}
                assert m.evaluate(ref, names) == F.evaluate(expr, valuation)


class TestQuantification:
    def test_exists_removes_a_conjunct(self, kernel):
        m = robdd.BddManager(["x", "y"])
        x, y = m.mk_var("x"), m.mk_var("y")
        assert m.exists(["x"], m.and_(x, y)) == y

    def test_exists_of_tautology(self, kernel):
        m = robdd.BddManager(["x"])
        x = m.mk_var("x")
        assert m.exists(["x"], m.or_(x, m.not_(x))) == m.TRUE

    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(expr=exprs(VARS4))
    def test_exists_all_vars_iff_satisfiable(self, expr, kernel):
        m = robdd.BddManager([s.name for s in VARS4])
        ref = m.from_expr(expr)
        everything = m.exists([s.name for s in VARS4], ref)
        assert everything in (m.TRUE, m.FALSE)
        assert (everything == m.TRUE) == (m.sat_count(ref, 4) > 0)

    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(expr=exprs(VARS4))
    def test_exists_agrees_with_enumeration(self, expr, kernel):
        m = robdd.BddManager([s.name for s in VARS4])
        quantified = m.exists(["v1", "v3"], m.from_expr(expr))
        for v0 in (False, True):
            for v2 in (False, True):
                expect = any(
                    F.evaluate(
                        expr,
                        {s for s, bit in zip(VARS4, (v0, v1, v2, v3)) if bit},
                    )
                    for v1 in (False, True)
                    for v3 in (False, True)
                )
                names = {n for n, bit in (("v0", v0), ("v2", v2)) if bit}
                assert m.evaluate(quantified, names) == expect


class TestCounting:
    def test_terminals(self, kernel):
        m = robdd.BddManager(["x", "y", "z"])
        assert m.sat_count(m.TRUE, 3) == 8
        assert m.sat_count(m.FALSE, 3) == 0

    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(expr=exprs(VARS4))
    def test_complementarity(self, expr, kernel):
        m = robdd.BddManager([s.name for s in VARS4])
        ref = m.from_expr(expr)
        assert m.sat_count(ref, 4) + m.sat_count(m.not_(ref), 4) == 16

    def test_count_matches_enumeration(self, kernel):
        m = robdd.BddManager([s.name for s in VARS4])
        expr = F.Or(F.And(VARS4[0], VARS4[2]), F.Not(VARS4[3]))
        expect = sum(truth_table(expr, VARS4))
        assert m.sat_count(m.from_expr(expr), 4) == expect

    def test_support_outside_prefix_rejected(self, kernel):
        m = robdd.BddManager(["x", "y"])
        with pytest.raises(ValueError):
            m.sat_count(m.mk_var("y"), 1)

    def test_nvars_out_of_range_rejected(self):
        m = robdd.BddManager(["x", "y"])
        for nvars in (-1, 3):
            with pytest.raises(robdd.BddError, match="out of range"):
                m.sat_count(m.TRUE, nvars)

    def test_big_counts_are_exact(self, kernel):
        names = [f"x{i}" for i in range(80)]
        m = robdd.BddManager(names)
        assert m.sat_count(m.TRUE, 80) == 2**80


class TestFromExpr:
    def test_constants(self, kernel):
        m = robdd.BddManager()
        assert m.from_expr(F.TRUE) == m.TRUE
        assert m.from_expr(F.FALSE) == m.FALSE

    def test_neither_a_nor_b(self, kernel):
        m = robdd.BddManager(["a", "b"])
        sa, sb = F.Symbol("a"), F.Symbol("b")
        ref = m.from_expr(F.And(F.Not(sa), F.Not(sb)))
        assert m.evaluate(ref, set())
        assert not m.evaluate(ref, {"a"})

    def test_unmapped_atom_rejected(self, kernel):
        m = robdd.BddManager(["a"])
        with pytest.raises(robdd.BddError):
            m.from_expr(F.Symbol("zz"))

    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(expr=exprs([F.Symbol(f"u{i}") for i in range(6)]))
    def test_nonfalse_iff_brute_satisfiable(self, expr, kernel):
        syms = [F.Symbol(f"u{i}") for i in range(6)]
        m = robdd.BddManager([s.name for s in syms])
        assert (m.from_expr(expr) != m.FALSE) == brute_satisfiable(expr, syms)


class TestChains:
    K = 256

    @pytest.mark.parametrize("op", [F.And, F.Or])
    def test_a_chain_costs_k_log_k_ite_steps_in_either_order(self, op):
        names = [f"z{i}" for i in range(self.K)]
        bound = self.K * (self.K - 1).bit_length()
        for order in (names, names[::-1]):
            m = robdd.BddManager(names)
            before = len(m._ite_cache)
            chain = m.from_expr(op(*[F.Symbol(n) for n in order]))
            assert len(m._ite_cache) - before <= bound
            if op is F.And:
                assert chain == m.cube((n, True) for n in names)
            else:
                assert chain == m.not_(m.cube((n, False) for n in names))

    def test_three_operands_fold_left_to_right(self):
        m = robdd.BddManager(["a", "b", "c"])
        a, b, c = (m.mk_var(n) for n in "abc")
        left = m.or_(m.or_(a, c), b)
        steps, nodes = len(m._ite_cache), len(m)
        assert m.from_expr(F.Or(*[F.Symbol(n) for n in "acb"])) == left
        assert (len(m._ite_cache), len(m)) == (steps, nodes)


class TestIsop:
    @staticmethod
    def cube_ref(m, cube):
        ref = m.TRUE
        for name, positive in cube:
            var = m.mk_var(name)
            ref = m.and_(ref, var if positive else m.not_(var))
        return ref

    def test_constants(self, kernel):
        m = robdd.BddManager(["a"])
        assert m.isop(m.TRUE) == [[]]
        assert m.isop(m.FALSE) == []

    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(expr=exprs(VARS4))
    def test_cover_is_exact_irredundant_and_ordered(self, expr, kernel):
        m = robdd.BddManager([s.name for s in VARS4])
        ref = m.from_expr(expr)
        cubes = m.isop(ref)
        refs = [self.cube_ref(m, cube) for cube in cubes]
        union = m.FALSE
        for cube_ref in refs:
            union = m.or_(union, cube_ref)
        assert union == ref
        for i, cube in enumerate(cubes):
            names = [name for name, _ in cube]
            assert names == sorted(names, key=m.level_of)
            others = m.FALSE
            for cube_ref in refs[:i] + refs[i + 1 :]:
                others = m.or_(others, cube_ref)
            assert others != ref  # no cube can be dropped
            for j in range(len(cube)):
                wider = self.cube_ref(m, cube[:j] + cube[j + 1 :])
                assert m.and_(wider, m.not_(ref)) != m.FALSE  # no literal can be dropped


class TestStructure:
    def test_audit_clean_after_workload(self, kernel):
        rng = random.Random(3)
        from gensys import random_guard

        syms = [F.Symbol(f"z{i}") for i in range(6)]
        m = robdd.BddManager([s.name for s in syms])
        refs = [m.from_expr(random_guard(rng, syms, depth=3)) for _ in range(60)]
        for x, y in itertools.combinations(refs[:12], 2):
            m.ite(x, y, m.xor_(x, y))
        assert m.audit() == []

    def test_rename_shifts_levels(self, kernel):
        m = robdd.BddManager(["a", "a2", "b", "b2"])
        f = m.and_(m.mk_var("a2"), m.not_(m.mk_var("b2")))
        g = m.rename(f, {"a2": "a", "b2": "b"})
        assert g == m.and_(m.mk_var("a"), m.not_(m.mk_var("b")))

    def test_rename_requires_monotone_mapping(self, kernel):
        m = robdd.BddManager(["a", "b", "c"])
        f = m.and_(m.mk_var("b"), m.mk_var("c"))
        with pytest.raises(ValueError):
            m.rename(f, {"b": "c", "c": "a"})

    def test_rename_requires_the_whole_support(self):
        m = robdd.BddManager(["a", "a2", "b", "b2"])
        f = m.and_(m.mk_var("a2"), m.mk_var("b2"))
        with pytest.raises(robdd.BddError, match="misses support"):
            m.rename(f, {"a2": "a"})

    def test_support(self, kernel):
        m = robdd.BddManager(["a", "b", "c"])
        f = m.or_(m.mk_var("a"), m.mk_var("c"))
        assert m.support(f) == ("a", "c")

    def test_some_assignment(self, kernel):
        m = robdd.BddManager(["a", "b"])
        f = m.and_(m.mk_var("a"), m.not_(m.mk_var("b")))
        solution = m.some_assignment(f)
        assert solution == {"a": True, "b": False}
        assert m.some_assignment(m.FALSE) is None



class TestPreparedArguments:
    """``exists`` and ``rename`` prepare each distinct argument once per manager."""

    NAMES = ["x0", "y0", "x1", "y1", "x2", "y2"]

    def test_interleaved_calls_agree_with_enumeration(self, kernel):
        from gensys import random_guard

        rng = random.Random(11)
        syms = {n: F.Symbol(n) for n in self.NAMES}
        m = robdd.BddManager(self.NAMES)
        valuations = [frozenset(s.name for s in v) for v in all_valuations(syms.values())]

        def functions(pool_names, count):
            pool = [syms[n] for n in pool_names]
            out = []
            for _ in range(count):
                expr = random_guard(rng, pool, depth=3)
                table = {v: F.evaluate(expr, {syms[n] for n in v}) for v in valuations}
                out.append((m.from_expr(expr), table))
            return out

        constants = [(m.TRUE, dict.fromkeys(valuations, True)),
                     (m.FALSE, dict.fromkeys(valuations, False))]
        over_x01 = functions(["x0", "x1"], 6) + constants
        shared = functions(self.NAMES, 8) + over_x01
        ops = [("exists", names, shared) for names in
               ([], self.NAMES, ["x0", "x2"], ["x2", "x0"], ["y1"], ["x1", "y0", "y2"])]
        ops += [
            ("rename", {"x0": "y0", "x1": "y1"}, over_x01),
            ("rename", {"x0": "y1", "x1": "y2"}, over_x01),
            ("rename", {}, constants),
        ]
        for _ in range(3):
            rng.shuffle(ops)
            for kind, arg, funcs in ops:
                for ref, table in funcs:
                    if kind == "exists":
                        got = m.exists(arg, ref)
                        free = frozenset(arg)
                        expect = {v: any(table[(v - free) | w] for w in valuations if w <= free)
                                  for v in valuations}
                    else:
                        got = m.rename(ref, arg)
                        expect = {v: table[frozenset(s for s, d in arg.items() if d in v)]
                                  for v in valuations}
                    for v in valuations:
                        assert m.evaluate(got, v) == expect[v], (kind, arg, sorted(v))
        assert m.audit() == []

    def test_bad_arguments_raise_on_every_call(self, kernel):
        m = robdd.BddManager(["a", "b", "c"])
        a, b, c = (m.mk_var(n) for n in "abc")
        f = m.and_(b, c)
        for _ in range(2):
            with pytest.raises(robdd.BddError):
                m.exists(["a", "nope"], f)
            with pytest.raises(robdd.BddError):
                m.rename(f, {"b": "c", "c": "a"})
            with pytest.raises(robdd.BddError):
                m.rename(f, {"b": "a", "c": "nope"})
        assert m.exists(["b"], f) == c
        assert m.rename(f, {"b": "a", "c": "b"}) == m.and_(a, b)


class TestCube:
    NAMES = [f"c{i}" for i in range(8)]

    def test_equals_the_and_not_fold(self, kernel):
        rng = random.Random(5)
        m = robdd.BddManager(self.NAMES)
        assert m.cube([]) == m.TRUE
        for _ in range(200):
            names = rng.sample(self.NAMES, rng.randint(1, len(self.NAMES)))
            literals = [(name, rng.random() < 0.5) for name in names]
            fold = m.TRUE
            for name, positive in literals:
                var = m.mk_var(name)
                fold = m.and_(fold, var if positive else m.not_(var))
            assert m.cube(literals) == fold
        assert m.audit() == []

    def test_rejects_undeclared_and_repeated_variables(self, kernel):
        m = robdd.BddManager(self.NAMES)
        for literals in ([("c0", True), ("nope", False)],
                         [("c1", True), ("c3", False), ("c1", True)],
                         [("c2", False), ("c2", True)]):
            with pytest.raises(robdd.BddError):
                m.cube(literals)
        assert m.audit() == []
