"""Temporal verification over a reachability graph.

Two requirement styles are supported:

* implication queries ``always (antecedent => next|eventually consequent)``
  checked at every reachable state, and
* general CTL formulas over output symbols, evaluated at the initial state.

A CTL formula's Boolean part is built from ``formula``'s nodes (constants,
symbols, ``Not`` and the n-ary ``And``/``Or``).  Its temporal part has three
nodes of this module's own, ``CtlEX``, ``CtlEU`` and ``CtlEG``; the other
operators and ``=>`` are functions that build their existential forms.

Antecedent symbols may name machine outputs or environment inputs.  Graph
nodes carry no environment valuation, so environment symbols condition the
outgoing edges instead: at a matching state only the edges whose guard BDD
is consistent with the antecedent's environment part are considered.  This
must agree with the alternative modeling device of adding a small machine
that produces the signal, which the test-suite checks explicitly.

``eventually`` is read universally: after the conditioned first step the
consequent must be hit on all paths.  The ``exists`` variant asks for one
path instead.

Both styles rest on one labeller, ``_label``, with three fixpoints, each
linear in the size of the graph: EX as a union of predecessor lists, EU as
a backward search, and EG by counting each node's successors inside the
region.  A query's bad set is a label too: of its negated consequent
(``next``), of EG of it (``eventually``) or of AG of it (``exists``).
"""

from __future__ import annotations

from cosma import formula as F
from cosma.reach import ReachGraph

__all__ = [
    "CtlAF", "CtlAG", "CtlAU", "CtlAX", "CtlEF", "CtlEG", "CtlEU", "CtlEX",
    "CtlImplies", "CtlQuery", "Query", "QueryError", "TraceStep", "Verdict",
    "check_ctl", "check_query", "check_suite", "ctl_atoms", "split_query",
]


class QueryError(ValueError):
    """A query that cannot be checked against the given system."""


class Query(F.Record):
    """``always (antecedent => mode consequent)`` over all reachable states."""

    __slots__ = ("name", "antecedent", "mode", "consequent", "universal")

    def __init__(self, name: str, antecedent: F.BoolExpr, mode: str,
                 consequent: F.BoolExpr, universal: bool = True):
        self.name = name
        self.antecedent = antecedent
        self.mode = mode  # "next" | "eventually"
        self.consequent = consequent
        self.universal = universal  # False: the "exists eventually" variant

    def __str__(self):
        mode = self.mode if self.universal else f"exists {self.mode}"
        return (
            f"{self.name}: always ({F.to_text(self.antecedent)} => "
            f"{mode} {F.to_text(self.consequent)})"
        )


# -- CTL ASTs ------------------------------------------------------------------
# EX, EU and EG are a basis of CTL (Clarke, Emerson and Sistla 1986); the
# functions below build the other operators, sharing the nodes they repeat.


class CtlEX(F.BoolExpr):
    __slots__ = ("sub",)

    def __init__(self, sub: F.BoolExpr):
        self.sub = sub


class CtlEU(F.BoolExpr):
    __slots__ = ("left", "right")

    def __init__(self, left: F.BoolExpr, right: F.BoolExpr):
        self.left = left
        self.right = right


class CtlEG(F.BoolExpr):
    __slots__ = ("sub",)

    def __init__(self, sub: F.BoolExpr):
        self.sub = sub


def CtlImplies(left: F.BoolExpr, right: F.BoolExpr) -> F.BoolExpr:
    """``left => right`` as ``~left + right``."""
    return F.Or(F.Not(left), right)


def CtlAX(sub: F.BoolExpr) -> F.BoolExpr:
    """AX p as ~EX ~p."""
    return F.Not(CtlEX(F.Not(sub)))


def CtlEF(sub: F.BoolExpr) -> F.BoolExpr:
    """EF p as E[1 U p]."""
    return CtlEU(F.TRUE, sub)


def CtlAF(sub: F.BoolExpr) -> F.BoolExpr:
    """AF p as ~EG ~p."""
    return F.Not(CtlEG(F.Not(sub)))


def CtlAG(sub: F.BoolExpr) -> F.BoolExpr:
    """AG p as ~E[1 U ~p]."""
    return F.Not(CtlEU(F.TRUE, F.Not(sub)))


def CtlAU(left: F.BoolExpr, right: F.BoolExpr) -> F.BoolExpr:
    """A[p U r] as ~(E[~r U ~p * ~r] + EG ~r)."""
    not_right = F.Not(right)
    return F.Not(F.Or(CtlEU(not_right, F.And(F.Not(left), not_right)), CtlEG(not_right)))


class CtlQuery(F.Record):
    __slots__ = ("name", "formula")

    def __init__(self, name: str, formula: F.BoolExpr):
        self.name = name
        self.formula = formula


def _children(f: F.BoolExpr) -> tuple:
    if isinstance(f, (F.And, F.Or)):
        return f.operands
    if isinstance(f, F.Not):
        return (f.operand,)
    if isinstance(f, (CtlEX, CtlEG)):
        return (f.sub,)
    if isinstance(f, CtlEU):
        return (f.left, f.right)
    return ()


def _nodes(f: F.BoolExpr) -> list[F.BoolExpr]:
    """The nodes of ``f``, each once by identity, every child before its parents.

    Depth first over an explicit stack, so the depth of ``f`` costs no
    Python frames; a node that a built form shares is visited once.
    """
    order: list[F.BoolExpr] = []
    seen = {id(f)}
    stack = [(f, iter(_children(f)))]
    while stack:
        node, rest = stack[-1]
        for child in rest:
            if id(child) not in seen:
                seen.add(id(child))
                stack.append((child, iter(_children(child))))
                break
        else:
            stack.pop()
            order.append(node)
    return order


def ctl_atoms(f: F.BoolExpr) -> frozenset[F.Symbol]:
    return frozenset(e for e in _nodes(f) if isinstance(e, F.Symbol))


# -- verdicts ------------------------------------------------------------------


class TraceStep(F.Record):
    __slots__ = ("node", "env")

    def __init__(self, node: int, env: frozenset | None):
        self.node = node
        self.env = env  # environment symbols used to leave the node


class Verdict(F.Record):
    __slots__ = ("holds", "vacuous", "trace")
    __hash__ = None  # its trace is a list

    def __init__(self, holds: bool, vacuous: bool = False, trace: list[TraceStep] | None = None):
        self.holds = holds
        self.vacuous = vacuous
        self.trace = trace

    def as_json(self, rg: ReachGraph) -> dict:
        doc: dict = {"holds": self.holds, "vacuous": self.vacuous}
        if self.trace is None:
            doc["trace"] = None
        else:
            doc["trace"] = [
                {
                    "node": step.node,
                    "states": rg.state_names(step.node),
                    "env": sorted(step.env) if step.env is not None else None,
                }
                for step in self.trace
            ]
        return doc


# -- query checking ------------------------------------------------------------


def split_query(query: Query, produced: frozenset) -> tuple[F.BoolExpr, F.BoolExpr]:
    """The output part and the environment part of ``query``'s antecedent.

    Each top-level factor must be purely over ``produced`` symbols or purely
    over other symbols, and the consequent may name produced symbols only.
    A query that breaks either rule cannot be checked: ``QueryError``.
    """
    state_part, env_part = [], []
    for factor in F.conj_factors(query.antecedent):
        used = F.atoms(factor)
        if not used or used <= produced:
            state_part.append(factor)
        elif used & produced:
            raise QueryError(
                f"antecedent factor {F.to_text(factor)!r} mixes output and environment "
                "symbols; split it into separate conjuncts"
            )
        else:
            env_part.append(factor)
    bad_consequent = sorted(F.atoms(query.consequent) - produced)
    if bad_consequent:
        raise QueryError(
            f"query {query.name!r}: consequent uses non-output symbols "
            f"{', '.join(bad_consequent)}"
        )
    return F.and_all(state_part), F.and_all(env_part)


def _find_env(manager, guard) -> frozenset:
    """Inputs of the first satisfying valuation, counting with bit i for the i-th name.

    The last name is left absent if the guard stays satisfiable, then the
    one before it, and so on: one conjunction per symbol.
    """
    assert guard != manager.FALSE, "guard was reported satisfiable"
    chosen = []
    for sym in sorted(manager.support(guard), reverse=True):
        absent = manager.and_(guard, manager.not_(manager.mk_var(sym)))
        if absent == manager.FALSE:
            chosen.append(sym)  # the guard already implies it
        else:
            guard = absent
    return frozenset(chosen)


def _pre_closure_lasso(rg: ReachGraph, start: int, region: set[int]):
    """A trace from ``start`` that loops inside ``region`` forever.

    Every node of ``region`` has at least one successor in ``region`` (the
    callers pass greatest-fixpoint sets with that property), so following
    the first such edge must eventually revisit a node.
    """
    steps: list[TraceStep] = []
    seen: set[int] = set()
    node = start
    while node not in seen:
        seen.add(node)
        edge = next(e for e in rg.out_edges(node) if e.dst in region)
        steps.append(TraceStep(node, _find_env(rg.manager, edge.guard)))
        node = edge.dst
    steps.append(TraceStep(node, None))
    return steps


# -- fixpoint core: EX, EU and EG, each linear in the graph --------------------


def _pre(rg: ReachGraph, target) -> set[int]:
    """EX: the nodes with an edge into ``target``."""
    return {p for node in target for p in rg.predecessors(node)}


def _until(rg: ReachGraph, hold, goal) -> set[int]:
    """E[hold U goal]: a backward search from ``goal`` through ``hold``."""
    region = set(goal)
    work = list(region)
    while work:
        for p in rg.predecessors(work.pop()):
            if p not in region and p in hold:
                region.add(p)
                work.append(p)
    return region


def _stay(rg: ReachGraph, region) -> set[int]:
    """EG: the greatest subset of ``region`` all of whose members can stay in it.

    Each member counts its successors inside; a member whose count falls
    to zero leaves, and its predecessors inside lose one successor each.
    """
    inside = set(region)
    count = {node: sum(e.dst in inside for e in rg.out_edges(node)) for node in inside}
    work = [node for node, c in count.items() if c == 0]
    inside.difference_update(work)
    while work:
        for p in rg.predecessors(work.pop()):
            if p in inside:
                count[p] -= 1
                if count[p] == 0:
                    inside.discard(p)
                    work.append(p)
    return inside


def check_query(rg: ReachGraph, query: Query) -> Verdict:
    """Check an implication query at every reachable state.

    At each state whose outputs satisfy the antecedent's output part, the
    edges consistent with its environment part must exist and lead only to
    (``next``) or inevitably reach (``eventually``) the consequent: none may
    enter the bad set, the nodes where the consequent fails (``next``) or
    can be missed forever (``eventually``; on every path for the ``exists``
    variant).  A failing verdict carries a trace replaying under the step
    semantics: the first such edge, then one step (``next``) or a lasso
    inside the bad set (``eventually``).  A query whose output part matches
    no reachable state holds vacuously.
    """
    state_part, env_part = split_query(query, rg.system.produced_symbols())

    # conditioning alphabet: the true environment plus any antecedent symbol
    # the system never mentions (unconstrained, hence also environmental,
    # and declared in the graph's manager on first use)
    m = rg.manager
    env_ref = m.from_expr(env_part, m.mk_var)

    matching = [i for i in range(len(rg.nodes)) if F.evaluate(state_part, rg.outputs[i])]
    if not matching:
        return Verdict(holds=True, vacuous=True)

    # nodes where the consequent fails (next), can be missed forever
    # (universal eventually: EG not consequent) or is out of reach (exists:
    # AG not consequent)
    avoid = F.Not(query.consequent)
    if query.mode == "eventually":
        avoid = CtlEG(avoid) if query.universal else CtlAG(avoid)
    bad = _label(rg, avoid)

    for node in matching:
        if env_ref == m.TRUE:
            # nothing to condition on, and an edge guard is never FALSE
            conditioned = [(e, e.guard) for e in rg.out_edges(node)]
        else:
            conditioned = [(e, m.and_(e.guard, env_ref)) for e in rg.out_edges(node)]
            conditioned = [(e, guard) for e, guard in conditioned if guard != m.FALSE]
        if not conditioned:
            return Verdict(holds=False, trace=[TraceStep(node, None)])
        for edge, guard in conditioned:
            if edge.dst in bad:
                tail = ([TraceStep(edge.dst, None)] if query.mode == "next"
                        else _pre_closure_lasso(rg, edge.dst, bad))
                return Verdict(holds=False, trace=[TraceStep(node, _find_env(m, guard)), *tail])
    return Verdict(holds=True)


# -- CTL -----------------------------------------------------------------------


def check_ctl(rg: ReachGraph, formula_: F.BoolExpr) -> Verdict:
    """The verdict is membership of the initial node in ``_label``'s set."""
    return Verdict(holds=0 in _label(rg, formula_))


def _label(rg: ReachGraph, formula_: F.BoolExpr) -> frozenset[int]:
    """Standard fixpoint labeling: the nodes where ``formula_`` holds.

    A symbol is read against node outputs; one that no machine produces is
    false at every node (the requirement parser warns about such symbols).
    Path quantifiers range over infinite paths, which exist from every node
    because the step relation is total.
    """
    n = len(rg.nodes)
    everything = frozenset(range(n))
    sat: dict[int, frozenset[int]] = {}  # by node identity, never hashing a subtree
    for f in _nodes(formula_):
        if isinstance(f, (F.ConstTrue, F.ConstFalse)):
            result = everything if isinstance(f, F.ConstTrue) else frozenset()
        elif isinstance(f, F.Symbol):
            result = frozenset(i for i, out in enumerate(rg.outputs) if f in out)
        elif isinstance(f, F.Not):
            result = everything - sat[id(f.operand)]
        elif isinstance(f, F.And):
            result = frozenset.intersection(*[sat[id(e)] for e in f.operands])
        elif isinstance(f, F.Or):
            result = frozenset.union(*[sat[id(e)] for e in f.operands])
        elif isinstance(f, CtlEX):
            result = frozenset(_pre(rg, sat[id(f.sub)]))
        elif isinstance(f, CtlEU):
            result = frozenset(_until(rg, sat[id(f.left)], sat[id(f.right)]))
        elif isinstance(f, CtlEG):
            result = frozenset(_stay(rg, sat[id(f.sub)]))
        else:
            raise QueryError(f"not a CTL node: {type(f).__name__}")
        sat[id(f)] = result
    return sat[id(formula_)]


# -- suites --------------------------------------------------------------------


def check_suite(rg: ReachGraph, requirements) -> list[tuple[str, Verdict]]:
    """Run a list of queries and CTL requirements against one graph."""
    results = []
    for req in requirements:
        if isinstance(req, Query):
            results.append((req.name, check_query(rg, req)))
        elif isinstance(req, CtlQuery):
            results.append((req.name, check_ctl(rg, req.formula)))
        else:
            raise QueryError(f"not a requirement: {req!r}")
    return results
