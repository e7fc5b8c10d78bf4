"""Independent reference implementations the engines are checked against.

Everything here sticks to brute force: valuations are enumerated
exhaustively, reachability is recomputed through the raw step semantics,
and temporal operators are decided by path enumeration.  The only engine
code used is ``BddManager.evaluate``, which reads an edge guard under one
valuation at a time; nothing here builds or combines BDDs.  The VHDL
audit's reference is the audit as it was first written, with one regex
per machine, state and symbol.
"""

import itertools
import re

from cosma import formula as F
from cosma import mc, model, vhdlgen


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


def regex_audit(vhdl_text: str, system: model.System) -> vhdlgen.AuditReport:
    """The per-name regex audit that ``vhdlgen.structural_audit`` replaced.

    Token-level self-check of generated VHDL.

    Verifies one process per machine, one port line per symbol, one
    ``when`` branch per state inside its machine's process, and balanced
    if / case / loop / process blocks.
    """
    report = vhdlgen.AuditReport()

    labels = re.findall(r"^\s*(\w+)\s*:\s*process\b", vhdl_text, re.M)
    report.process_count = len(labels)
    machine_names = [m.name for m in system.machines]
    if labels != machine_names:
        report.problems.append(
            f"expected one process per machine {machine_names}, found {labels}"
        )

    symbols = sorted(
        model.env_alphabet(system) | system.produced_symbols(), key=lambda s: s.name
    )
    for sym in symbols:
        hits = re.findall(
            rf"^\s*{re.escape(sym.name)} : (?:in|out) BIT[;,]?\s*$", vhdl_text, re.M
        )
        if len(hits) != 1:
            report.problems.append(
                f"symbol {sym.name!r} appears as a port {len(hits)} times, expected once"
            )

    for machine in system.machines:
        block = _process_block(vhdl_text, machine.name)
        if block is None:
            report.problems.append(f"no process block for machine {machine.name!r}")
            continue
        width = None
        m = re.search(r"BIT_VECTOR \((\d+) downto 0\)", block)
        if m:
            width = int(m.group(1)) + 1
        for idx, state in enumerate(machine.states):
            if width is None:
                report.problems.append(
                    f"machine {machine.name!r}: no state vector declaration"
                )
                break
            hits = len(re.findall(rf'when "[01]{{{width}}}" => -- {re.escape(state.name)}\b', block))
            if hits != 1:
                report.problems.append(
                    f"machine {machine.name!r}, state {state.name!r}: {hits} 'when' "
                    "branches, expected exactly one"
                )

    for opener, closer in (
        (r"(?<!end )\bif\b", r"\bend if\b"),
        (r"(?<!end )\bcase\b", r"\bend case\b"),
        (r"(?<!end )\bloop\b", r"\bend loop\b"),
        (r"(?<!end )\bprocess\b", r"\bend process\b"),
    ):
        n_open = len(re.findall(opener, vhdl_text))
        n_close = len(re.findall(closer, vhdl_text))
        if n_open != n_close:
            name = closer.replace(r"\bend ", "").replace(r"\b", "")
            report.problems.append(
                f"unbalanced {name} blocks: {n_open} openers, {n_close} closers"
            )

    return report


def _process_block(vhdl_text: str, label: str) -> str | None:
    start = re.search(rf"^\s*{re.escape(label)}\s*:\s*process\b", vhdl_text, re.M)
    if not start:
        return None
    end = re.search(rf"\bend process {re.escape(label)};", vhdl_text)
    if not end:
        return None
    return vhdl_text[start.start() : end.end()]
