import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosma import formula as F
from cosma import frontend, mc, robdd
from oracles import all_valuations, brute_satisfiable, charwise_words

a, b, c, d, e, f = (F.Symbol(n) for n in "abcdef")


def exprs(symbols, max_leaves=12):
    """Trees whose And/Or nodes have 2 to 5 operands; an operand of the node's
    own kind is spliced in when it comes first and stays nested otherwise."""
    leaves = st.sampled_from([s for s in symbols] + [F.TRUE, F.FALSE])

    def nodes(sub):
        operands = st.lists(sub, min_size=2, max_size=5)
        return st.one_of(
            st.builds(F.Not, sub),
            operands.map(lambda ops: F.And(*ops)),
            operands.map(lambda ops: F.Or(*ops)),
        )

    return st.recursive(leaves, nodes, max_leaves=max_leaves)


def parse_guard(text):
    """``text`` read by the guard parser alone, lexed as the oracle lexes it."""
    words, locate = frontend._lex(text, "<guard>", glyphs=False)
    assert words == charwise_words(text, "<guard>", glyphs=False)[0], text
    p = frontend._Parser(words, locate, frontend._SYSTEM_KEYWORDS)
    expr = frontend._parse_or(p)
    assert p.words[p.pos] == "", text
    return expr


class TestEvaluate:
    def test_neither_a_nor_b(self):
        neither = F.And(F.Not(a), F.Not(b))
        assert F.evaluate(neither, frozenset())
        assert not F.evaluate(neither, {a})
        assert not F.evaluate(neither, {a, b})

    def test_const_true_under_any_valuation(self):
        for valuation in all_valuations({a, b, c}):
            assert F.evaluate(F.TRUE, valuation)

    def test_disjunction_with_one_true_disjunct(self):
        assert F.evaluate(F.Or(a, b), {b})

    def test_absent_symbols_are_false(self):
        assert not F.evaluate(a, {b, c})


def residual(expr, fixed):
    """``expr`` with the ``fixed`` symbols replaced by constants, the way the
    explicit engine fixes produced symbols: a ``from_expr`` leaf.  The
    manager declares every symbol, so a fixed one could still show up."""
    m = robdd.BddManager(s.name for s in (a, b, c, d, e, f))

    def leaf(sym):
        if sym in fixed:
            return m.TRUE if fixed[sym] else m.FALSE
        return m.mk_var(sym.name)

    return m, m.from_expr(expr, leaf)


class TestResidual:
    def test_fixed_true_conjunct_drops_out(self):
        car, timtl = F.Symbol("Car"), F.Symbol("TimTL")
        m = robdd.BddManager(["Car", "TimTL"])
        guard = F.And(car, timtl)
        fixed = lambda sym: m.TRUE if sym == timtl else m.mk_var(sym.name)  # noqa: E731
        assert m.from_expr(guard, fixed) == m.mk_var("Car")

    def test_negation_of_fixed_false_is_const_true(self):
        startts = F.Symbol("StartTS")
        m = robdd.BddManager()
        assert m.from_expr(F.Not(startts), lambda sym: m.FALSE) == m.TRUE

    def test_disjunction_folds_false_disjunct(self):
        m, ref = residual(F.Or(a, b), {a: False})
        assert ref == m.mk_var("b")

    @given(
        expr=exprs([a, b, c, d, e, f]),
        fixed_bits=st.tuples(st.booleans(), st.booleans(), st.booleans()),
        env_bits=st.tuples(st.booleans(), st.booleans(), st.booleans()),
    )
    def test_residual_agrees_with_eval(self, expr, fixed_bits, env_bits):
        fixed = dict(zip((a, b, c), fixed_bits))
        env = {s for s, bit in zip((d, e, f), env_bits) if bit}
        combined = {s for s, bit in fixed.items() if bit} | env
        m, ref = residual(expr, fixed)
        assert m.evaluate(ref, {s.name for s in env}) == F.evaluate(expr, combined)

    @given(expr=exprs([a, b, c, d]), bits=st.tuples(st.booleans(), st.booleans()))
    def test_residual_idempotent(self, expr, bits):
        # fixing the same values again, as a cofactor of the result, changes nothing
        fixed = dict(zip((a, b), bits))
        m, once = residual(expr, fixed)
        cube = m.TRUE
        for sym, value in fixed.items():
            var = m.mk_var(sym.name)
            cube = m.and_(cube, var if value else m.not_(var))
        assert m.exists([s.name for s in fixed], m.and_(once, cube)) == once

    @given(expr=exprs([a, b, c]), bits=st.tuples(st.booleans(), st.booleans()))
    def test_residual_removes_fixed_atoms(self, expr, bits):
        fixed = dict(zip((a, b), bits))
        m, ref = residual(expr, fixed)
        assert not (set(m.support(ref)) & {s.name for s in fixed})


def satisfiable(expr, alphabet) -> bool:
    """True iff some valuation over ``alphabet`` makes ``expr`` true, by BDD."""
    m = robdd.BddManager(sorted(s.name for s in alphabet))
    return m.from_expr(expr) != m.FALSE


class TestSatisfiable:
    def test_contradiction(self):
        assert not satisfiable(F.And(a, F.Not(a)), {a})

    def test_const_true_over_empty_alphabet(self):
        assert satisfiable(F.TRUE, set())
        assert not satisfiable(F.FALSE, set())

    def test_car_and_not_timtl(self):
        car, tautl, timtl = F.Symbol("Car"), F.Symbol("tauTL"), F.Symbol("TimTL")
        guard = F.And(car, F.Not(timtl))
        alphabet = {car, tautl, timtl}
        assert brute_satisfiable(guard, alphabet)  # 8 valuations
        assert satisfiable(guard, alphabet)

    def test_atom_outside_alphabet_rejected(self):
        with pytest.raises(robdd.BddError):
            satisfiable(a, {b})

    @settings(deadline=None)
    @given(expr=exprs([a, b, c, d, e]))
    def test_matches_brute_force(self, expr):
        alphabet = {a, b, c, d, e}
        assert satisfiable(expr, alphabet) == brute_satisfiable(expr, alphabet)

    def test_ten_symbol_alphabet_matches_brute_force(self):
        syms = [F.Symbol(f"s{i}") for i in range(10)]
        expr = F.And(
            F.Or(syms[0], F.Not(syms[9])),
            F.Or(syms[4], syms[7]),
        )
        assert satisfiable(expr, syms) == brute_satisfiable(expr, syms)
        contradiction = F.And(expr, F.Not(expr))
        assert satisfiable(contradiction, syms) == brute_satisfiable(contradiction, syms)


class TestText:
    def test_precedence(self):
        expr = F.And(F.Or(a, b), c)
        assert F.to_text(expr) == "(a + b) * c"
        expr = F.Or(a, F.And(b, c))
        assert F.to_text(expr) == "a + b * c"

    def test_negation_parenthesizes_compounds(self):
        assert F.to_text(F.Not(F.And(a, b))) == "~(a * b)"
        assert F.to_text(F.Not(F.Not(a))) == "~~a"

    def test_constants(self):
        assert F.to_text(F.TRUE) == "1"
        assert F.to_text(F.FALSE) == "0"

    def test_right_nesting_is_visible(self):
        nested = F.Or(a, F.Or(b, c))
        flat = F.Or(F.Or(a, b), c)
        assert F.to_text(nested) == "a + (b + c)"
        assert F.to_text(flat) == "a + b + c"


    @settings(deadline=None)
    @given(expr=exprs([a, b, c, d]))
    def test_text_reparses_to_the_tree_and_bdd_agrees(self, expr):
        assert parse_guard(F.to_text(expr)) == expr
        m = robdd.BddManager(s.name for s in (a, b, c, d))
        ref = m.from_expr(expr)
        for valuation in all_valuations({a, b, c, d}):
            assert m.evaluate(ref, {s.name for s in valuation}) == F.evaluate(expr, valuation)


class TestChains:
    def test_first_operand_of_the_same_kind_is_spliced(self):
        A, B, C = a, b, c
        assert F.And(F.And(A, B), C) == F.And(A, B, C)
        assert F.Or(F.Or(A, B), C).operands == (A, B, C)
        assert F.to_text(F.And(A, B, C)) == "a * b * c"
        assert parse_guard("a * b * c") == parse_guard("(a * b) * c") == F.And(A, B, C)

    def test_later_operand_stays_nested(self):
        A, B, C = a, b, c
        nested = F.And(A, F.And(B, C))
        assert nested.operands == (A, F.And(B, C))
        assert nested != F.And(A, B, C)
        assert F.to_text(nested) == "a * (b * c)"

    def test_other_kinds_are_not_spliced(self):
        A, B, C = a, b, c
        assert F.And(F.Or(A, B), C).operands == (F.Or(A, B), C)
        assert F.And(A, B) != F.Or(A, B)

    def test_needs_two_operands(self):
        with pytest.raises(F.FormulaError):
            F.And(a)

    def test_and_all_builds_one_node(self):
        A, B, C = a, b, c
        assert F.and_all([A, F.TRUE, B, C]) == F.And(A, B, C)
        assert F.and_all([F.And(A, B), F.Or(A, C)]) == F.And(A, B, F.Or(A, C))
        assert F.and_all([A, F.FALSE, B]) == F.FALSE
        assert F.and_all([F.TRUE, A]) == A
        assert F.and_all([]) == F.TRUE

    def test_and_all_reads_fresh_constants_as_the_shared_ones(self):
        A, B = a, b
        for true, false in ((F.TRUE, F.FALSE), (F.ConstTrue(), F.ConstFalse())):
            assert F.and_all([A, true, B]) == F.And(A, B)
            assert F.and_all([true, A]) == A
            assert F.and_all([true, true]) == F.TRUE
            assert F.and_all([A, false, B]) == F.FALSE
            assert F.and_all([false]) == F.FALSE
            assert F.and_all([true, false]) == F.FALSE

    def test_flat_chain_walkers_do_not_recurse_per_operand(self):
        chain = F.Or(*(F.Symbol(f"x{i % 100}") for i in range(10_000)))
        assert F.evaluate(chain, {F.Symbol("x99")})
        assert len(F.atoms(chain)) == 100
        assert F.to_text(chain).count(" + ") == 9_999
        assert list(F.conj_factors(F.And(chain, chain))) == [chain, chain]


class TestAtoms:
    def test_symbols_of_a_formula(self):
        assert F.atoms(F.Or(F.And(a, F.Not(b)), F.TRUE, a)) == {a, b}
        assert F.atoms(F.FALSE) == frozenset()

    @pytest.mark.parametrize("expr", [mc.CtlAG(a), F.And(a, mc.CtlEX(b))],
                             ids=["ctl", "nested-ctl"])
    def test_a_node_that_is_not_a_formula_is_refused(self, expr):
        with pytest.raises(F.FormulaError, match="not a formula node"):
            F.atoms(expr)


class TestSymbols:
    def test_bad_names_rejected(self):
        with pytest.raises(F.FormulaError):
            F.Symbol("2fast")
        with pytest.raises(F.FormulaError):
            F.Symbol("no-dashes")

    def test_a_symbol_is_its_name(self):
        x = F.Symbol("x")
        assert x == "x" and hash(x) == hash("x")
        assert x.name is x and isinstance(x, F.BoolExpr)
        assert F.evaluate(x, {"x"}) and not F.evaluate(x, {"y"})
        assert sorted(F.Symbol(n) for n in ("b", "C", "a")) == ["C", "a", "b"]
        assert repr(x) == "'x'" and F.to_text(F.Not(x)) == "~x"

    def test_non_ascii_names_rejected(self):
        with pytest.raises(F.FormulaError):
            F.Symbol("é")
