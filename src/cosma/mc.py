"""Temporal verification over a reachability graph.

Two requirement styles are supported:

* implication queries ``always (antecedent => next|eventually consequent)``
  checked at every reachable state, and
* general CTL formulas over output symbols, evaluated at the initial state.

A CTL formula's Boolean part is built from ``formula``'s nodes (constants,
atoms, ``Not`` and the n-ary ``And``/``Or``), whose operands may be the
nodes defined here; only implication and the temporal operators are this
module's own.

Antecedent atoms may name machine outputs or environment inputs.  Graph
nodes carry no environment valuation, so environment atoms condition the
outgoing edges instead: at a matching state only the edges whose guard BDD
is consistent with the antecedent's environment part are considered.  This
must agree with the alternative modeling device of adding a small machine
that produces the signal, which the test-suite checks explicitly.

``eventually`` is read universally: after the conditioned first step the
consequent must be hit on all paths.  The ``exists`` variant asks for one
path instead.

Both styles rest on three fixpoints, each linear in the size of the graph:
EX as a union of predecessor lists, EU as a backward search, and EG by
counting each node's successors inside the region.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from cosma import formula as F
from cosma.reach import ReachGraph

__all__ = [
    "CtlAF", "CtlAG", "CtlAU", "CtlAX", "CtlEF", "CtlEG", "CtlEU", "CtlEX",
    "CtlFormula", "CtlImplies", "CtlQuery", "Query", "QueryError", "TraceStep",
    "Verdict", "check_ctl", "check_query", "check_suite", "ctl_atoms",
]


class QueryError(ValueError):
    """A query that cannot be checked against the given system."""


@dataclass(frozen=True)
class Query:
    """``always (antecedent => mode consequent)`` over all reachable states."""

    name: str
    antecedent: F.BoolExpr
    mode: str  # "next" | "eventually"
    consequent: F.BoolExpr
    universal: bool = True  # False: the "exists eventually" variant

    def __str__(self):
        mode = self.mode if self.universal else f"exists {self.mode}"
        return (
            f"{self.name}: always ({F.to_text(self.antecedent)} => "
            f"{mode} {F.to_text(self.consequent)})"
        )


# -- CTL ASTs ------------------------------------------------------------------


class CtlFormula(F.BoolExpr):
    """A node of CTL's own: implication or a temporal operator."""

    __slots__ = ()


@dataclass(frozen=True)
class CtlImplies(CtlFormula):
    left: F.BoolExpr
    right: F.BoolExpr


@dataclass(frozen=True)
class CtlEX(CtlFormula):
    sub: F.BoolExpr


@dataclass(frozen=True)
class CtlAX(CtlFormula):
    sub: F.BoolExpr


@dataclass(frozen=True)
class CtlEF(CtlFormula):
    sub: F.BoolExpr


@dataclass(frozen=True)
class CtlAF(CtlFormula):
    sub: F.BoolExpr


@dataclass(frozen=True)
class CtlEG(CtlFormula):
    sub: F.BoolExpr


@dataclass(frozen=True)
class CtlAG(CtlFormula):
    sub: F.BoolExpr


@dataclass(frozen=True)
class CtlEU(CtlFormula):
    left: F.BoolExpr
    right: F.BoolExpr


@dataclass(frozen=True)
class CtlAU(CtlFormula):
    left: F.BoolExpr
    right: F.BoolExpr


@dataclass(frozen=True)
class CtlQuery:
    name: str
    formula: F.BoolExpr


def ctl_atoms(f: F.BoolExpr) -> frozenset[F.Symbol]:
    if isinstance(f, F.Atom):
        return frozenset({f.symbol})
    if isinstance(f, F.Not):
        return ctl_atoms(f.operand)
    if isinstance(f, (F.And, F.Or)):
        return frozenset.union(*map(ctl_atoms, f.operands))
    if isinstance(f, (CtlEX, CtlAX, CtlEF, CtlAF, CtlEG, CtlAG)):
        return ctl_atoms(f.sub)
    if isinstance(f, (CtlImplies, CtlEU, CtlAU)):
        return ctl_atoms(f.left) | ctl_atoms(f.right)
    return frozenset()


# -- verdicts ------------------------------------------------------------------


@dataclass(frozen=True)
class TraceStep:
    node: int
    env: frozenset | None  # environment symbols used to leave the node


@dataclass
class Verdict:
    holds: bool
    vacuous: bool = False
    trace: list[TraceStep] | None = None

    def as_json(self, rg: ReachGraph | None = None) -> dict:
        doc: dict = {"holds": self.holds, "vacuous": self.vacuous}
        if self.trace is None:
            doc["trace"] = None
        else:
            doc["trace"] = [
                {
                    "node": step.node,
                    "states": [
                        m.states[i].name
                        for m, i in zip(rg.system.machines, rg.nodes[step.node])
                    ]
                    if rg is not None
                    else None,
                    "env": sorted(s.name for s in step.env) if step.env is not None else None,
                }
                for step in self.trace
            ]
        return doc


# -- query checking ------------------------------------------------------------


def split_antecedent(antecedent: F.BoolExpr, produced: frozenset) -> tuple[F.BoolExpr, F.BoolExpr]:
    """Split a conjunction into its output part and its environment part.

    Each top-level factor must be purely over produced symbols or purely
    over other symbols; a mixed factor has no unique reading and is
    rejected.
    """
    state_part, env_part = [], []
    for factor in F.conj_factors(antecedent):
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
    return F.and_all(state_part), F.and_all(env_part)


def _find_env(manager, guard) -> frozenset:
    """Inputs of the first satisfying valuation, counting with bit i for the i-th name.

    The last name is left absent if the guard stays satisfiable, then the
    one before it, and so on: one conjunction per symbol.
    """
    assert guard != manager.FALSE, "guard was reported satisfiable"
    chosen = []
    for name in sorted(manager.support(guard), reverse=True):
        absent = manager.and_(guard, manager.not_(manager.mk_var(name)))
        if absent == manager.FALSE:
            chosen.append(F.Symbol(name))  # the guard already implies it
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
    (``next``) or inevitably reach (``eventually``) the consequent.  A
    failing verdict carries a trace replaying under the step semantics; a
    query whose output part matches no reachable state holds vacuously.
    """
    system = rg.system
    produced = system.produced_symbols()
    state_part, env_part = split_antecedent(query.antecedent, produced)

    bad_consequent = sorted(s.name for s in F.atoms(query.consequent) - produced)
    if bad_consequent:
        raise QueryError(
            f"query {query.name!r}: consequent uses non-output symbols "
            f"{', '.join(bad_consequent)}"
        )

    # conditioning alphabet: the true environment plus any antecedent symbol
    # the system never mentions (unconstrained, hence also environmental,
    # and declared in the graph's manager on first use)
    m = rg.manager
    env_ref = m.from_expr(env_part, lambda sym: m.mk_var(sym.name))

    matching = [i for i in range(len(rg.nodes)) if F.evaluate(state_part, rg.outputs[i])]
    if not matching:
        return Verdict(holds=True, vacuous=True)

    everything = set(range(len(rg.nodes)))
    goal = {i for i in everything if F.evaluate(query.consequent, rg.outputs[i])}
    if query.mode == "eventually":
        # nodes from which the consequent can be missed forever (universal:
        # EG not consequent) or is out of reach (exists: not EF consequent)
        if query.universal:
            bad_region = _stay(rg, everything - goal)
        else:
            bad_region = everything - _until(rg, everything, goal)

    for node in matching:
        conditioned = [(e, m.and_(e.guard, env_ref)) for e in rg.out_edges(node)]
        conditioned = [(e, guard) for e, guard in conditioned if guard != m.FALSE]
        if not conditioned:
            return Verdict(holds=False, trace=[TraceStep(node, None)])
        if query.mode == "next":
            for edge, guard in conditioned:
                if edge.dst not in goal:
                    trace = [TraceStep(node, _find_env(m, guard)), TraceStep(edge.dst, None)]
                    return Verdict(holds=False, trace=trace)
        else:
            for edge, guard in conditioned:
                if edge.dst in bad_region:
                    first = TraceStep(node, _find_env(m, guard))
                    tail = _pre_closure_lasso(rg, edge.dst, bad_region)
                    return Verdict(holds=False, trace=[first, *tail])
    return Verdict(holds=True)


# -- CTL -----------------------------------------------------------------------


def check_ctl(rg: ReachGraph, formula_: F.BoolExpr) -> Verdict:
    """The verdict is membership of the initial node in ``_label``'s set."""
    return Verdict(holds=0 in _label(rg, formula_))


def _label(rg: ReachGraph, formula_: F.BoolExpr) -> frozenset[int]:
    """Standard fixpoint labeling: the nodes where ``formula_`` holds.

    Atoms are read against node outputs; a symbol no machine produces is
    false at every node (the requirement parser warns about such atoms).
    Path quantifiers range over infinite paths, which exist from every node
    because the step relation is total.
    """
    n = len(rg.nodes)
    everything = frozenset(range(n))
    memo: dict[F.BoolExpr, frozenset[int]] = {}

    def sat(f: F.BoolExpr) -> frozenset[int]:
        found = memo.get(f)
        if found is not None:
            return found
        if isinstance(f, (F.ConstTrue, F.ConstFalse)):
            result = everything if f == F.TRUE else frozenset()
        elif isinstance(f, F.Atom):
            result = frozenset(i for i in range(n) if f.symbol in rg.outputs[i])
        elif isinstance(f, F.Not):
            result = everything - sat(f.operand)
        elif isinstance(f, F.And):
            result = frozenset.intersection(*map(sat, f.operands))
        elif isinstance(f, F.Or):
            result = frozenset.union(*map(sat, f.operands))
        elif isinstance(f, CtlImplies):
            result = (everything - sat(f.left)) | sat(f.right)
        elif isinstance(f, CtlEX):
            result = frozenset(_pre(rg, sat(f.sub)))
        elif isinstance(f, CtlAX):
            result = everything - _pre(rg, everything - sat(f.sub))
        elif isinstance(f, CtlEU):
            result = frozenset(_until(rg, sat(f.left), sat(f.right)))
        elif isinstance(f, CtlEF):
            result = frozenset(_until(rg, everything, sat(f.sub)))
        elif isinstance(f, CtlEG):
            result = frozenset(_stay(rg, sat(f.sub)))
        elif isinstance(f, CtlAF):
            result = everything - _stay(rg, everything - sat(f.sub))
        elif isinstance(f, CtlAG):
            result = everything - _until(rg, everything, everything - sat(f.sub))
        elif isinstance(f, CtlAU):
            left, right = sat(f.left), sat(f.right)
            not_right = everything - right
            result = everything - (_until(rg, not_right, not_right - left) | _stay(rg, not_right))
        else:
            raise QueryError(f"not a CTL node: {f!r}")
        memo[f] = result
        return result

    return sat(formula_)


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
