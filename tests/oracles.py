"""Independent reference implementations the engines are checked against.

Everything here sticks to brute force: valuations are enumerated
exhaustively, reachability is recomputed through the raw step semantics,
and temporal operators are decided by path enumeration.  The only engine
code used is ``BddManager.evaluate``, which reads an edge guard under one
valuation at a time; nothing here builds or combines BDDs.
"""

import itertools

from cosma import formula as F
from cosma import mc, model


def all_valuations(symbols):
    """Every subset of ``symbols``, in a fixed lexicographic order."""
    syms = sorted(symbols, key=lambda s: s.name)
    for bits in itertools.product((False, True), repeat=len(syms)):
        yield frozenset(s for s, b in zip(syms, bits) if b)


def brute_satisfiable(expr, alphabet) -> bool:
    return any(F.evaluate(expr, v) for v in all_valuations(alphabet))


def guard_holds(rg, guard, valuation) -> bool:
    """Truth of an edge guard of ``rg`` when exactly ``valuation`` occurs.

    Symbols outside the guard's support cannot change its value, and need
    not be variables of the graph's manager.
    """
    support = set(rg.manager.support(guard))
    return rg.manager.evaluate(guard, {s.name for s in valuation} & support)


def first_step_env(system, src, dst, env, env_part):
    """The first valuation of ``env`` under which ``env_part`` holds and one
    step leads from ``src`` to ``dst``; valuation v has the i-th symbol by
    name exactly when bit i of v is set."""
    syms = sorted(env, key=lambda s: s.name)
    for v in range(1 << len(syms)):
        valuation = frozenset(s for i, s in enumerate(syms) if v >> i & 1)
        if not F.evaluate(env_part, valuation):
            continue
        if dst in model.step_successors(system, src, valuation):
            return valuation
    return None


def reachable_by_stepping(system):
    """Reachable global states recomputed via enabled-arcs stepping."""
    env = model.env_alphabet(system)
    init = system.initial_state()
    seen = {init}
    queue = [init]
    while queue:
        state = queue.pop()
        for valuation in all_valuations(env):
            for succ in model.step_successors(system, state, valuation):
                if succ not in seen:
                    seen.add(succ)
                    queue.append(succ)
    return seen


def next_query_oracle(system, query):
    """(holds, vacuous) for a NEXT-mode query, by direct enumeration."""
    produced = system.produced_symbols()
    state_part, env_part = mc.split_antecedent(query.antecedent, produced)
    env = model.env_alphabet(system) | (F.atoms(env_part) - produced)

    states = sorted(reachable_by_stepping(system))
    matching = [
        g for g in states if F.evaluate(state_part, model.output_valuation(system, g))
    ]
    if not matching:
        return True, True

    env_vals = [v for v in all_valuations(env) if F.evaluate(env_part, v)]
    for state in matching:
        successors = set()
        for valuation in env_vals:
            successors.update(model.step_successors(system, state, valuation))
        if not successors:
            return False, False
        for succ in successors:
            if not F.evaluate(query.consequent, model.output_valuation(system, succ)):
                return False, False
    return True, False


def af_by_paths(rg, start, goal, depth):
    """Do all paths from ``start`` hit ``goal`` within ``depth`` steps?"""
    memo = {}

    def rec(node, d):
        if node in goal:
            return True
        if d == 0:
            return False
        key = (node, d)
        found = memo.get(key)
        if found is None:
            found = all(rec(e.dst, d - 1) for e in rg.out_edges(node))
            memo[key] = found
        return found

    return rec(start, depth)


def ef_by_paths(rg, start, goal, depth):
    """Does some path from ``start`` hit ``goal`` within ``depth`` steps?"""
    memo = {}

    def rec(node, d):
        if node in goal:
            return True
        if d == 0:
            return False
        key = (node, d)
        found = memo.get(key)
        if found is None:
            found = any(rec(e.dst, d - 1) for e in rg.out_edges(node))
            memo[key] = found
        return found

    return rec(start, depth)


def eventually_query_oracle(rg, query):
    """(holds, vacuous) for an EVENTUALLY-mode query via path enumeration."""
    system = rg.system
    produced = system.produced_symbols()
    state_part, env_part = mc.split_antecedent(query.antecedent, produced)
    env = model.env_alphabet(system) | (F.atoms(env_part) - produced)

    matching = [
        i for i in range(len(rg.nodes)) if F.evaluate(state_part, rg.outputs[i])
    ]
    if not matching:
        return True, True

    goal = {i for i in range(len(rg.nodes)) if F.evaluate(query.consequent, rg.outputs[i])}
    depth = len(rg.nodes)
    check = af_by_paths if query.universal else ef_by_paths
    for node in matching:
        conditioned = [
            e
            for e in rg.out_edges(node)
            if any(
                guard_holds(rg, e.guard, v) and F.evaluate(env_part, v)
                for v in all_valuations(env)
            )
        ]
        if not conditioned:
            return False, False
        for edge in conditioned:
            if not check(rg, edge.dst, goal, depth):
                return False, False
    return True, False


def replay_trace(system, rg, trace) -> bool:
    """Does the trace execute under the raw step semantics?"""
    for here, there in zip(trace, trace[1:]):
        if here.env is None:
            return False
        succs = model.step_successors(system, rg.nodes[here.node], here.env)
        if rg.nodes[there.node] not in succs:
            return False
    return True
