"""Independent reference implementations the engines are checked against.

Everything here sticks to brute force: valuations are enumerated
exhaustively, reachability is recomputed through the raw step semantics,
and temporal operators are decided by path enumeration.  The only engine
code used is ``BddManager.evaluate``, which reads an edge guard under one
valuation at a time; apart from the symbolic fixpoint, the rescanning
query checker and the explicit engine's two earlier loops below, nothing
here builds or combines BDDs.  The symbolic
fixpoint's reference is the loop the engine first ran: images of the whole
reachable set until it stops growing.  The explicit checker's reference is
its first labelling, which rescans every node until nothing changes.  The
VHDL audit's reference is the audit as it was first written, with one
regex per machine, state and symbol.  The lexer's reference is its first
version, which walks the text one character at a time and builds a span
for every token.  The explicit engine's references are its first successor
loop, which conjoins every combination of per-machine moves, and the
pruned walk over merged moves that it then ran anew at every node.  The
exporters' references are their first versions: guard texts keyed by
``BddRef`` and computed anew for each export, and the JSON document as a
dict for ``json.dumps``.  The reference of ``ParseResult.place`` is the
placement it replaced, which lexes the model again and tells a name's kind
by the word before it.
"""

import functools
import itertools
import re
from dataclasses import dataclass

from cosma import formula as F
from cosma import mc, model, reach, robdd
from cosma.frontend import _NOT_NAMES, ParseError, SourceSpan, _lex
from cosma.reach import ReachEdge, ReachGraph


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
    state_part, env_part = mc.split_query(query, produced)
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
    state_part, env_part = mc.split_query(query, produced)
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


def whole_set_reachable(sym, system):
    """The reachable set of ``sym`` recomputed in ``sym.manager`` over
    ``sym.transition`` by images of the whole set, until it stops growing."""
    manager = sym.manager
    init = manager.TRUE
    for names, machine in zip(sym.current_bits, system.machines):
        for k, var in enumerate(names):
            bit = manager.mk_var(var)
            literal = bit if (machine.initial_index >> k) & 1 else manager.not_(bit)
            init = manager.and_(init, literal)

    quantified = [v for bits in sym.current_bits for v in bits] + list(sym.env_vars.values())
    renaming = {
        nxt: cur
        for cur_list, nxt_list in zip(sym.current_bits, sym.next_bits)
        for cur, nxt in zip(cur_list, nxt_list)
    }

    reachable = init
    while True:
        image = manager.exists(quantified, manager.and_(reachable, sym.transition))
        image = manager.rename(image, renaming) if renaming else image
        grown = manager.or_(reachable, image)
        if grown == reachable:
            break
        reachable = grown
    return reachable

# -- the explicit checker's rescanning fixpoints ------------------------------
#
# The three loops below are the ones ``mc`` ran before its linear
# primitives, verbatim: each rescans nodes until nothing changes, which is
# quadratic on a long cycle.  ``rescanning_check_query`` and
# ``rescanning_ctl_sat`` are the checkers that called them, unchanged
# apart from naming ``mc``'s helpers, returning the labelled set and, for
# CTL, reading a spec of every operator rather than ``mc``'s nodes.


def _eg_region(rg: ReachGraph, region: set[int]) -> set[int]:
    """Greatest subset of ``region`` all of whose members can stay in it."""
    z = set(region)
    changed = True
    while changed:
        changed = False
        for node in list(z):
            if not any(e.dst in z for e in rg.out_edges(node)):
                z.discard(node)
                changed = True
    return z


def _ef_region(rg: ReachGraph, goal: set[int]) -> set[int]:
    z = set(goal)
    changed = True
    while changed:
        changed = False
        for node in range(len(rg.nodes)):
            if node not in z and any(e.dst in z for e in rg.out_edges(node)):
                z.add(node)
                changed = True
    return z


def _lfp_until(rg, hold: frozenset[int], goal: frozenset[int], pre_exists) -> frozenset[int]:
    z = set(goal)
    changed = True
    while changed:
        changed = False
        for i in range(len(rg.nodes)):
            if i not in z and i in hold and any(e.dst in z for e in rg.out_edges(i)):
                z.add(i)
                changed = True
    return frozenset(z)


def rescanning_check_query(rg, query):
    """Check an implication query at every reachable state.

    At each state whose outputs satisfy the antecedent's output part, the
    edges consistent with its environment part must exist and lead only to
    (``next``) or inevitably reach (``eventually``) the consequent.  A
    failing verdict carries a trace replaying under the step semantics; a
    query whose output part matches no reachable state holds vacuously.
    """
    system = rg.system
    produced = system.produced_symbols()
    state_part, env_part = mc.split_query(query, produced)

    # conditioning alphabet: the true environment plus any antecedent symbol
    # the system never mentions (unconstrained, hence also environmental,
    # and declared in the graph's manager on first use)
    m = rg.manager
    env_ref = m.from_expr(env_part, lambda sym: m.mk_var(sym.name))

    matching = [i for i in range(len(rg.nodes)) if F.evaluate(state_part, rg.outputs[i])]
    if not matching:
        return mc.Verdict(holds=True, vacuous=True)

    goal = {i for i in range(len(rg.nodes)) if F.evaluate(query.consequent, rg.outputs[i])}
    if query.mode == "eventually":
        if query.universal:
            # AF(consequent) = complement of EG(not consequent)
            bad_region = _eg_region(rg, set(range(len(rg.nodes))) - goal)
            target = set(range(len(rg.nodes))) - bad_region
        else:
            target = _ef_region(rg, goal)
            bad_region = set(range(len(rg.nodes))) - target

    for node in matching:
        conditioned = [(e, m.and_(e.guard, env_ref)) for e in rg.out_edges(node)]
        conditioned = [(e, guard) for e, guard in conditioned if guard != m.FALSE]
        if not conditioned:
            return mc.Verdict(holds=False, trace=[mc.TraceStep(node, None)])
        if query.mode == "next":
            for edge, guard in conditioned:
                if edge.dst not in goal:
                    trace = [mc.TraceStep(node, mc._find_env(m, guard)), mc.TraceStep(edge.dst, None)]
                    return mc.Verdict(holds=False, trace=trace)
        else:
            for edge, guard in conditioned:
                if edge.dst not in target:
                    first = mc.TraceStep(node, mc._find_env(m, guard))
                    tail = mc._pre_closure_lasso(rg, edge.dst, bad_region)
                    return mc.Verdict(holds=False, trace=[first, *tail])
    return mc.Verdict(holds=True)


def rescanning_ctl_sat(rg, spec):
    """Standard fixpoint labeling: the set of nodes where ``spec`` holds.

    ``spec`` is a constant or a symbol of ``formula``, or a tuple
    ``(op, *operands)`` whose ``op`` is any CTL operator: ``"~"``, ``"*"``,
    ``"+"``, ``"=>"``, ``"EX"``, ``"AX"``, ``"EF"``, ``"AF"``, ``"EG"``,
    ``"AG"``, ``"EU"`` or ``"AU"``.  Each operator has its own loop here,
    whereas ``mc`` builds the universal ones and ``EF`` from EX, EU and EG.

    A symbol is read against node outputs; one that no machine produces is
    false at every node (the requirement parser warns about such symbols).
    Path quantifiers range over infinite paths, which exist from every node
    because the step relation is total.
    """
    n = len(rg.nodes)
    everything = frozenset(range(n))
    memo = {}

    def pre_exists(target: frozenset[int]) -> frozenset[int]:
        return frozenset(
            i for i in range(n) if any(e.dst in target for e in rg.out_edges(i))
        )

    def sat(f):
        found = memo.get(f)
        if found is not None:
            return found
        op = f[0] if isinstance(f, tuple) else None
        if isinstance(f, F.ConstTrue):
            result = everything
        elif isinstance(f, F.ConstFalse):
            result = frozenset()
        elif isinstance(f, F.Symbol):
            result = frozenset(i for i in range(n) if f in rg.outputs[i])
        elif op == "~":
            result = everything - sat(f[1])
        elif op == "*":
            result = sat(f[1]) & sat(f[2])
        elif op == "+":
            result = sat(f[1]) | sat(f[2])
        elif op == "=>":
            result = (everything - sat(f[1])) | sat(f[2])
        elif op == "EX":
            result = pre_exists(sat(f[1]))
        elif op == "AX":
            result = everything - pre_exists(everything - sat(f[1]))
        elif op == "EU":
            result = _lfp_until(rg, sat(f[1]), sat(f[2]), pre_exists)
        elif op == "EF":
            result = _lfp_until(rg, everything, sat(f[1]), pre_exists)
        elif op == "EG":
            result = frozenset(_eg_region(rg, set(sat(f[1]))))
        elif op == "AF":
            result = everything - frozenset(_eg_region(rg, set(everything - sat(f[1]))))
        elif op == "AG":
            result = everything - _lfp_until(rg, everything, everything - sat(f[1]), pre_exists)
        elif op == "AU":
            left, right = sat(f[1]), sat(f[2])
            not_right = everything - right
            eu = _lfp_until(rg, not_right, not_right - left, pre_exists)
            eg = frozenset(_eg_region(rg, set(not_right)))
            result = everything - (eu | eg)
        else:
            raise ValueError(f"not a CTL spec: {f!r}")
        memo[f] = result
        return result

    return sat(spec)


def regex_audit(vhdl_text: str, system: model.System) -> list[str]:
    """The per-name regex audit that ``vhdlgen.structural_audit`` replaced.

    Token-level self-check of generated VHDL.

    Verifies one process per machine, one port line per symbol, one
    ``when`` branch per state inside its machine's process, and balanced
    if / case / loop / process blocks outside ``--`` comments.
    """
    problems = []

    labels = re.findall(r"^\s*(\w+)\s*:\s*process\b", vhdl_text, re.M)
    machine_names = [m.name for m in system.machines]
    if labels != machine_names:
        problems.append(
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
            problems.append(
                f"symbol {sym.name!r} appears as a port {len(hits)} times, expected once"
            )

    for machine in system.machines:
        block = _process_block(vhdl_text, machine.name)
        if block is None:
            problems.append(f"no process block for machine {machine.name!r}")
            continue
        width = None
        m = re.search(r"BIT_VECTOR \((\d+) downto 0\)", block)
        if m:
            width = int(m.group(1)) + 1
        for idx, state in enumerate(machine.states):
            if width is None:
                problems.append(
                    f"machine {machine.name!r}: no state vector declaration"
                )
                break
            hits = len(re.findall(rf'when "[01]{{{width}}}" => -- {re.escape(state.name)}\b', block))
            if hits != 1:
                problems.append(
                    f"machine {machine.name!r}, state {state.name!r}: {hits} 'when' "
                    "branches, expected exactly one"
                )

    # block words inside "--" comments (state names, for one) do not count
    code = re.sub(r"--.*", "", vhdl_text)
    for opener, closer in (
        (r"(?<!end )\bif\b", r"\bend if\b"),
        (r"(?<!end )\bcase\b", r"\bend case\b"),
        (r"(?<!end )\bloop\b", r"\bend loop\b"),
        (r"(?<!end )\bprocess\b", r"\bend process\b"),
    ):
        n_open = len(re.findall(opener, code))
        n_close = len(re.findall(closer, code))
        if n_open != n_close:
            name = closer.replace(r"\bend ", "").replace(r"\b", "")
            problems.append(
                f"unbalanced {name} blocks: {n_open} openers, {n_close} closers"
            )

    return problems


def _process_block(vhdl_text: str, label: str) -> str | None:
    start = re.search(rf"^\s*{re.escape(label)}\s*:\s*process\b", vhdl_text, re.M)
    if not start:
        return None
    end = re.search(rf"\bend process {re.escape(label)};", vhdl_text)
    if not end:
        return None
    return vhdl_text[start.start() : end.end()]


# -- the lexer as first written: one character at a time ----------------------

_PUNCT_2 = ("->", "=>")
_PUNCT_1 = "{};:,()*+~![]"
_GLYPHS = {"⇒": "=>", "○": "next", "◇": "eventually"}


@dataclass(frozen=True)
class _Token:
    kind: str  # "ident" | "punct" | "const" | "eof"
    text: str
    span: SourceSpan


def charwise_lex(text: str, file: str, glyphs: bool) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i, n = 0, len(text)

    def span(length: int) -> SourceSpan:
        return SourceSpan(file, line, col, length)

    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if glyphs and ch in _GLYPHS:
            alias = _GLYPHS[ch]
            kind = "punct" if alias == "=>" else "ident"
            tokens.append(_Token(kind, alias, span(1)))
            i += 1
            col += 1
            continue
        two = text[i : i + 2]
        if two in _PUNCT_2:
            tokens.append(_Token("punct", two, span(2)))
            i += 2
            col += 2
            continue
        if ch in _PUNCT_1:
            tokens.append(_Token("punct", ch, span(1)))
            i += 1
            col += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            word = text[i:j]
            if word not in ("0", "1"):
                raise ParseError(f"unexpected number {word!r} (only 0 and 1 are formulas)", span(j - i))
            tokens.append(_Token("const", word, span(len(word))))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], span(j - i)))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", span(1))
    tokens.append(_Token("eof", "", SourceSpan(file, line, col, 0)))
    return tokens


def charwise_words(text: str, file: str, glyphs: bool):
    """``charwise_lex`` in the shape of ``frontend._lex``: the token texts and
    a function from a token's index to its span.  The parser tells names from
    the other tokens by text alone, which the oracle's kinds must bear out."""
    tokens = charwise_lex(text, file, glyphs)
    for tok in tokens:
        assert (tok.kind == "ident") == (tok.text not in _NOT_NAMES), tok
    return [tok.text for tok in tokens], lambda index: tokens[index].span


# -- the explicit engine's product loop -----------------------------------------

# ``reach.build_rg_explicit`` as it was before it merged moves by target,
# verbatim apart from its name: ``itertools.product`` over every machine's
# moves, each combination conjoined from ``TRUE``.  It fixes the node
# numbering and edge order the engine must keep, and is exponential in the
# number of machines with several moves into one state.


def product_rg_explicit(system: model.System) -> ReachGraph:
    env = model.env_alphabet(system)
    ctx = F.GuardContext(model.declaration_order(system, env))
    m = ctx.manager

    initial = system.initial_state()
    index: dict[model.GlobalState, int] = {initial: 0}
    nodes: list[model.GlobalState] = [initial]
    outputs: list[frozenset] = [model.output_valuation(system, initial)]
    edge_guards: dict[tuple[int, int], robdd.BddRef] = {}  # in discovery order
    reads = [[frozenset().union(*(F.atoms(a.guard) for a in machine.arcs_from(j))) - env
              for j in range(len(machine.states))] for machine in system.machines]
    known_moves: dict[tuple, list[tuple[int, robdd.BddRef]]] = {}

    frontier = 0
    while frontier < len(nodes):
        src = frontier
        valuation = outputs[src]

        def leaf(sym):
            if sym in env:
                return m.mk_var(sym.name)
            return m.TRUE if sym in valuation else m.FALSE

        per_machine: list[list[tuple[int, robdd.BddRef]]] = []
        for i, (machine, idx) in enumerate(zip(system.machines, nodes[src])):
            key = (i, idx, valuation & reads[i][idx])
            moves = known_moves.get(key)
            if moves is None:
                moves = known_moves[key] = []
                stay = m.TRUE
                for arc in machine.arcs_from(idx):
                    r = m.from_expr(arc.guard, leaf)
                    stay = m.and_(stay, m.not_(r))
                    if ctx.satisfiable(r):
                        moves.append((machine.state_index(arc.dst), r))
                if ctx.satisfiable(stay):
                    moves.append((idx, stay))
            per_machine.append(moves)

        for choice in itertools.product(*per_machine):
            guard = functools.reduce(m.and_, (r for _, r in choice), m.TRUE)
            if not ctx.satisfiable(guard):
                continue
            succ = tuple(t for t, _ in choice)
            dst = index.get(succ)
            if dst is None:
                dst = len(nodes)
                index[succ] = dst
                nodes.append(succ)
                outputs.append(model.output_valuation(system, succ))
            merged = edge_guards.get((src, dst))
            edge_guards[(src, dst)] = guard if merged is None else m.or_(merged, guard)
        frontier += 1

    edges = [ReachEdge(src, guard, dst) for (src, dst), guard in edge_guards.items()]
    return ReachGraph(system=system, nodes=nodes, edges=edges, outputs=outputs, manager=m)


# -- the explicit engine before it shared one walk among nodes -------------------

# ``reach.build_rg_explicit`` as it was before it walked only the machines
# with a choice and kept one pruned walk per tuple of the shapes of their
# moves: every node walks every machine's merged moves again.  Apart from
# its name and its docstring it is verbatim; it calls the engine's own
# ``_conjunctions``, which the product loop above does not need.


def explicit_rg(system: model.System) -> ReachGraph:
    env = model.env_alphabet(system)
    ctx = F.GuardContext(model.declaration_order(system, env))
    m = ctx.manager

    initial = system.initial_state()
    index: dict[model.GlobalState, int] = {initial: 0}
    nodes: list[model.GlobalState] = [initial]
    outputs: list[frozenset] = [model.output_valuation(system, initial)]
    edges: list[ReachEdge] = []  # in discovery order
    # a machine's moves depend only on its state and the outputs its arcs
    # read, so they are built once per such pair, not once per node: a list
    # of (target, OR of the guards) per target, the (move index, guard) pairs
    # of each target, and whether any target has more than one move
    reads = [[frozenset().union(*(F.atoms(a.guard) for a in machine.arcs_from(j))) - env
              for j in range(len(machine.states))] for machine in system.machines]
    known_moves: dict[tuple, tuple[list, dict, bool]] = {}

    frontier = 0
    while frontier < len(nodes):
        src = frontier
        valuation = outputs[src]

        def leaf(sym):
            if sym in env:
                return m.mk_var(sym)
            return m.TRUE if sym in valuation else m.FALSE

        per_machine = []
        moves_at = []
        merged = False
        for i, (machine, idx) in enumerate(zip(system.machines, nodes[src])):
            key = (i, idx, valuation & reads[i][idx])
            known = known_moves.get(key)
            if known is None:
                by_target: dict[int, list[tuple[int, robdd.BddRef]]] = {}
                stay = m.TRUE
                count = 0
                for arc in machine.arcs_from(idx):
                    r = m.from_expr(arc.guard, leaf)
                    stay = m.and_(stay, m.not_(r))
                    if ctx.satisfiable(r):
                        by_target.setdefault(machine.state_index(arc.dst), []).append((count, r))
                        count += 1
                if ctx.satisfiable(stay):
                    by_target.setdefault(idx, []).append((count, stay))
                    count += 1
                groups = []
                for target, moves in by_target.items():
                    guard = moves[0][1]
                    for _, r in moves[1:]:
                        guard = m.or_(guard, r)
                    # a group that always fires holds m.TRUE itself, whose AND the walk skips
                    groups.append((target, m.TRUE if ctx.tautology(guard) else guard))
                known = known_moves[key] = groups, by_target, len(groups) < count
            per_machine.append(known[0])
            moves_at.append(known[1])
            merged = merged or known[2]

        leaves = list(reach._conjunctions(m, per_machine))
        if merged and len(leaves) > 1:
            # by the indices of each leaf's first satisfiable combination of moves
            leaves.sort(key=lambda edge: next(reach._conjunctions(
                m, [moves[t] for moves, t in zip(moves_at, edge[0])]))[0])
        for succ, guard in leaves:
            dst = index.get(succ)
            if dst is None:
                dst = len(nodes)
                index[succ] = dst
                nodes.append(succ)
                outputs.append(model.output_valuation(system, succ))
            edges.append(ReachEdge(src, guard, dst))
        frontier += 1

    return ReachGraph(system=system, nodes=nodes, edges=edges, outputs=outputs, manager=m)


# -- the exporters as first written ---------------------------------------------

# ``reach.to_dot`` and ``reach.to_json`` before the guard texts were kept in
# the graph and the JSON text was written directly: each export covers every
# distinct guard again, keyed by its ``BddRef``.


def guard_texts(rg: ReachGraph) -> list[str]:
    texts: dict[robdd.BddRef, str] = {}
    for edge in rg.edges:
        if edge.guard not in texts:
            texts[edge.guard] = " + ".join(
                F.to_text(F.and_all(
                    F.Symbol(name) if pos else F.Not(F.Symbol(name))
                    for name, pos in cube
                ))
                for cube in rg.manager.isop(edge.guard)
            ) or "0"
    return [texts[edge.guard] for edge in rg.edges]


def to_dot(rg: ReachGraph) -> str:
    lines = ["digraph reachability {", "  rankdir=TB;", '  node [shape=ellipse, fontsize=10];']
    for i in range(len(rg.nodes)):
        outs = ", ".join(sorted(s.name for s in rg.outputs[i]))
        label = rg.node_name(i) + ("\\n" + "{" + outs + "}" if outs else "")
        shape = ', peripheries=2' if i == 0 else ""
        extra = ', style=dashed' if i in rg.quiescent else ""
        lines.append(f'  n{i} [label="{label}"{shape}{extra}];')
    for edge, guard in zip(rg.edges, guard_texts(rg)):
        lines.append(f'  n{edge.src} -> n{edge.dst} [label="{guard}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json(rg: ReachGraph) -> dict:
    """The document ``reach.json_text`` writes, for ``json.dumps(doc, indent=2)``."""
    return {
        "system": rg.system.name,
        "nodes": [
            {
                "states": [
                    machine.states[idx].name
                    for machine, idx in zip(rg.system.machines, rg.nodes[i])
                ],
                "outputs": sorted(s.name for s in rg.outputs[i]),
                "quiescent": i in rg.quiescent,
            }
            for i in range(len(rg.nodes))
        ],
        "edges": [
            {"src": e.src, "dst": e.dst, "guard": guard}
            for e, guard in zip(rg.edges, guard_texts(rg))
        ],
    }


# -- the placement of vhdl name errors ------------------------------------------

# the words before a name that is not a symbol: a system, machine or state name
_BEFORE_OTHER_NAMES = frozenset({"system", "machine", "init", "state", "->"})


def locate_name(text: str, file: str, kind: str, name: str) -> SourceSpan | None:
    """The span of the first token of a system description that names ``name``
    as a ``kind``: "system" or "machine", the token after that keyword, or
    "symbol", a token after none of ``_BEFORE_OTHER_NAMES``; None if no token
    does.  The text must lex, as the text of a parsed system does."""
    words, locate = _lex(text, file, glyphs=False)
    for index in range(1, len(words)):
        before = words[index - 1]
        if words[index] == name and (
                before not in _BEFORE_OTHER_NAMES if kind == "symbol" else before == kind):
            return locate(index)
    return None
