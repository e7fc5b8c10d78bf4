"""Reachability graphs: every reachable vector of component states.

Two engines build the same set of global states:

* an explicit breadth-first search that also records edges, each guarded
  by a BDD over the environment inputs in the graph's one manager (the arc
  guards with every produced symbol fixed by the source state).  It merges
  each machine's moves by target and walks depth first only the machines
  that have a choice of target, pruning every combination whose running
  conjunction is ``FALSE``; nodes whose machines offer the same guards
  share one walk.  It numbers nodes and orders edges as the plain product
  of moves would; and
* a symbolic fixpoint over a BDD-encoded transition relation, built
  bottom-up (state cubes from the last bit, machine relations conjoined
  from the last machine), whose image steps take only the states reached
  in the step before.  Each environment input sits in the variable order
  right after the last machine that reads it.  It counts, and answers
  membership of one state.

The two must always agree on the reachable set: equal sizes, and every
explicit node in the symbolic set.  That cross-check is the central oracle
of the whole pipeline.

A graph is built from what the explicit engine finds: its nodes, its
edges in discovery order, each node's outputs and the manager of the edge
guards.  It derives the rest itself: each node's out-edges and
predecessors, the quiescent nodes, and each distinct edge guard's text,
which the DOT and JSON exports share.
"""

from __future__ import annotations

import functools
from json.encoder import encode_basestring_ascii as _json_string

from cosma import formula as F
from cosma import model, robdd

__all__ = [
    "ReachEdge",
    "ReachGraph",
    "SymbolicReachability",
    "build_rg_explicit",
    "build_rg_symbolic",
    "json_text",
    "to_dot",
]


class ReachEdge(F.Record):
    __slots__ = ("src", "guard", "dst")

    def __init__(self, src: int, guard: robdd.BddRef, dst: int):
        self.src = src
        self.guard = guard  # over environment symbols only, in the graph's manager
        self.dst = dst


class ReachGraph:
    """The explicit graph, made of what an engine finds.

    Construction derives the views the checker and the exports read: each
    node's out-edges (in edge order) and predecessors, in one pass over the
    edges, and ``quiescent``, the nodes whose only edge is a self-loop that
    always fires.  It asserts that every node has an out-edge, since the
    implicit stay makes the step relation total.  The guard texts are made
    on the first export.  Graphs are compared by identity.
    """

    def __init__(self, system: model.System, nodes: list[model.GlobalState],
                 edges: list[ReachEdge], outputs: list[frozenset], manager: robdd.BddManager):
        self.system = system
        self.nodes = nodes  # index 0 is the initial state
        self.edges = edges  # in discovery order
        self.outputs = outputs  # per-node output valuation
        self.manager = manager  # holds every edge guard; variables are env symbols
        edges_from: list[list[ReachEdge]] = [[] for _ in self.nodes]
        preds: list[list[int]] = [[] for _ in self.nodes]
        for edge in self.edges:
            edges_from[edge.src].append(edge)
            preds[edge.dst].append(edge.src)
        assert all(edges_from), "implicit stay makes the step relation total"
        true = self.manager.TRUE
        self.quiescent = frozenset(
            i for i, out in enumerate(edges_from)
            if len(out) == 1 and out[0].dst == i and out[0].guard == true
        )
        self._edges_from, self._preds = edges_from, preds

    def out_edges(self, node: int) -> list[ReachEdge]:
        return self._edges_from[node]

    def predecessors(self, node: int) -> list[int]:
        """Sources of the edges into ``node``, each once."""
        return self._preds[node]

    def state_names(self, node: int) -> list[str]:
        """The name of each machine's state at ``node``, in machine order."""
        return [machine.states[idx].name
                for machine, idx in zip(self.system.machines, self.nodes[node])]

    def node_name(self, node: int) -> str:
        return "(" + ", ".join(self.state_names(node)) + ")"

    @functools.cached_property
    def _guard_texts(self) -> dict[int, str]:
        """Each distinct edge guard as an irredundant sum of products, literals
        in declaration order, keyed by the guard's node.

        Made in one pass over the edges by the first export, so DOT and JSON
        share them and each distinct guard is covered and printed once.
        Products are printed one by one and joined, never as one formula
        tree, because a cover can have exponentially many of them.
        """
        texts: dict[int, str] = {}
        for edge in self.edges:
            if edge.guard.node not in texts:
                texts[edge.guard.node] = " + ".join(
                    F.to_text(F.and_all(sym if pos else F.Not(sym) for sym, pos in cube))
                    for cube in self.manager.isop(edge.guard)
                ) or "0"
        return texts

    def __len__(self):
        return len(self.nodes)


def _conjunctions(m: robdd.BddManager, options):
    """Every choice of one ``(label, guard)`` pair from each list in ``options``
    whose guards have a satisfiable conjunction, as ``(labels, conjunction)``,
    in lexicographic order of the choices.

    Depth first with an explicit stack, not one recursion per list: each
    prefix is conjoined once and shared by all its extensions, and a prefix
    whose conjunction is ``FALSE`` is not extended.
    """
    if not options:
        yield (), m.TRUE
        return
    and_, true, false = m.and_, m.TRUE, m.FALSE
    last = len(options) - 1
    labels = [None] * len(options)
    conj = [true] * len(options)  # conj[d]: the choices above depth d, conjoined
    untried = [iter(options[0])] + [None] * last  # per depth, the options not yet tried
    depth = 0
    while depth >= 0:
        for label, guard in untried[depth]:
            c = and_(conj[depth], guard)
            if c != false:
                break
        else:
            depth -= 1
            continue
        labels[depth] = label
        if depth == last:
            yield tuple(labels), c
        else:
            depth += 1
            conj[depth] = c
            untried[depth] = iter(options[depth])


def build_rg_explicit(system: model.System) -> ReachGraph:
    """Breadth-first fixpoint over the synchronous product.

    Starting from the initial vector, each frontier state contributes one
    edge per vector of per-machine targets whose guard is satisfiable over
    the environment alphabet; machines whose guards leave some environment
    valuations uncovered contribute an implicit stay move guarded by the
    uncovered remainder.

    Each machine's moves are merged by target: one group per target, in
    order of first occurrence, guarded by the OR of its moves' guards.  The
    groups are enumerated depth first with a running conjunction, pruned as
    soon as it is ``FALSE``, so each leaf is one edge whose guard is the OR
    over every combination of moves into that target vector, and machines
    with several moves into one state add no combinations.

    Only the machines with more than one group are walked: a machine with
    one group always fires into it, since the groups cover every
    valuation, so its target goes straight into each leaf.  Two memos keep
    the work per node small.  ``known_moves`` holds a machine's groups and
    moves per (machine, state, outputs its arcs read).  ``products`` holds
    the walk per tuple of the walked machines' group-guard nodes, since the
    walk depends only on those guards, and each node that offers the same
    guards maps the walk's choices to its own targets.  On n independent
    toggles all 2^n nodes share one walk of 2^(n+1) - 2 ANDs.

    Edges, and so
    the numbering of newly found nodes, come in the order of each target
    vector's lexicographically first satisfiable combination of moves: the
    order a plain product of moves would find them in.  When no machine
    merged moves that is the order of the enumeration; otherwise the leaves
    are sorted by that combination, found by the same pruned walk over the
    leaf's own moves.
    """
    env = model.env_alphabet(system)
    ctx = F.GuardContext(model.declaration_order(system, env))
    m = ctx.manager

    initial = system.initial_state()
    index: dict[model.GlobalState, int] = {initial: 0}
    nodes: list[model.GlobalState] = [initial]
    outputs: list[frozenset] = [model.output_valuation(system, initial)]
    edges: list[ReachEdge] = []  # in discovery order
    # a machine's moves depend only on its state and the outputs its arcs
    # read, so they are built once per such pair, not once per node: each
    # group's target, the tuple of the groups' guard nodes, the (group index,
    # guard) pairs, the (move index, guard) pairs of each target, and whether
    # any target has more than one move
    reads = [[frozenset().union(*(F.atoms(a.guard) for a in machine.arcs_from(j))) - env
              for j in range(len(machine.states))] for machine in system.machines]
    known_moves: dict[tuple, tuple[list, tuple, list, dict, bool]] = {}
    # per tuple of the guard-node tuples of the machines with a choice, the
    # pruned walk over their groups: (group indices, conjunction) in walk order
    products: dict[tuple, list] = {}

    frontier = 0
    while frontier < len(nodes):
        src = frontier
        valuation = outputs[src]

        def leaf(sym):
            if sym in env:
                return m.mk_var(sym)
            return m.TRUE if sym in valuation else m.FALSE

        succ = []  # each machine's first target; a machine with a choice gets its own per leaf
        branching = []  # (machine index, targets) of each machine with more than one target
        offered = []  # the (group index, guard) pairs of each machine with a choice
        walk_key = []
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
                guards = []
                for moves in by_target.values():
                    guard = moves[0][1]
                    for _, r in moves[1:]:
                        guard = m.or_(guard, r)
                    guards.append(guard)
                known = known_moves[key] = (list(by_target), tuple([g.node for g in guards]),
                                            list(enumerate(guards)), by_target,
                                            len(guards) < count)
            targets, guard_nodes, groups, by_target, many = known
            succ.append(targets[0])
            if len(targets) > 1:
                branching.append((i, targets))
                offered.append(groups)
                walk_key.append(guard_nodes)
            moves_at.append(by_target)
            merged = merged or many

        walk_key = tuple(walk_key)
        walk = products.get(walk_key)
        if walk is None:
            walk = products[walk_key] = list(_conjunctions(m, offered))
        leaves = []
        for choice, guard in walk:
            for (i, targets), c in zip(branching, choice):
                succ[i] = targets[c]
            leaves.append((tuple(succ), guard))
        if merged and len(leaves) > 1:
            # by the indices of each leaf's first satisfiable combination of moves
            leaves.sort(key=lambda edge: next(_conjunctions(
                m, [moves[t] for moves, t in zip(moves_at, edge[0])]))[0])
        for target, guard in leaves:
            dst = index.get(target)
            if dst is None:
                dst = len(nodes)
                index[target] = dst
                nodes.append(target)
                outputs.append(model.output_valuation(system, target))
            edges.append(ReachEdge(src, guard, dst))
        frontier += 1

    return ReachGraph(system=system, nodes=nodes, edges=edges, outputs=outputs, manager=m)


# -- symbolic engine -----------------------------------------------------------


class SymbolicReachability:
    """What the symbolic engine finds: the transition relation and the
    reachable set in one manager, and the number of reachable states."""

    def __init__(self, system: model.System, manager: robdd.BddManager,
                 current_bits: list[list[str]], next_bits: list[list[str]], env_vars: dict,
                 transition: robdd.BddRef, reachable: robdd.BddRef, count: int):
        self.system = system
        self.manager = manager
        self.current_bits = current_bits  # per machine, variable names of its state bits
        self.next_bits = next_bits
        self.env_vars = env_vars  # Symbol -> variable name
        self.transition = transition
        self.reachable = reachable
        self.count = count

    def contains(self, gstate: model.GlobalState) -> bool:
        """Whether ``gstate`` is in the reachable set: one walk, no new nodes."""
        true_bits = {
            bit
            for bits, idx in zip(self.current_bits, gstate)
            for k, bit in enumerate(bits)
            if idx >> k & 1
        }
        return self.manager.evaluate(self.reachable, true_bits)


def _bit_width(nstates: int) -> int:
    return (nstates - 1).bit_length()


def _variable_order(system: model.System, current_bits: list[list[str]],
                    next_bits: list[list[str]], env_vars: dict) -> list[str]:
    """The symbolic engine's variables, from the top level down.

    Each machine's current and next state bits are interleaved (the
    standard low-blowup choice for transition relations), and each
    environment input comes right after the bits of the last machine whose
    guards read it; the inputs placed after one machine keep the order of
    ``env_vars``.  An input then sits next to the relations that test it,
    so n machines that each read an input of their own cost n times one
    machine, not 2^n: the fan-in rule for interacting machines of Aziz,
    Tasiran and Brayton (DAC 1994).
    """
    last_reader = {sym: i for i, machine in enumerate(system.machines)
                   for arc in machine.arcs for sym in F.atoms(arc.guard) if sym in env_vars}
    names: list[list[str]] = [[v for pair in zip(cur, nxt) for v in pair]
                              for cur, nxt in zip(current_bits, next_bits)]
    for sym, name in env_vars.items():
        names[last_reader[sym]].append(name)
    return [name for machine_names in names for name in machine_names]


def build_rg_symbolic(system: model.System) -> SymbolicReachability:
    """Least fixpoint of the image operation over a BDD transition relation.

    Each machine's state is binary-encoded, and ``_variable_order`` places
    the bits and the environment inputs: current and next bits interleaved,
    each input right after the last machine that reads it.  Guard atoms
    naming produced symbols are substituted by functions of the current
    state bits, so the relation realizes the same synchronous step
    semantics as the explicit engine, output feedback included.

    Every state cube is built once by ``BddManager.cube``, one node per bit
    from the last bit up.  The per-machine relations are conjoined from the
    last machine to the first: each AND then puts a machine above a product
    of machines whose variables all lie below it, instead of rebuilding the
    whole product as a left-to-right fold does.
    The fixpoint takes the image of the newly reached states only, one
    ``exists`` per breadth-first level plus the one that finds nothing new;
    the quantified set and the renaming are the same arguments on every
    step, so the manager prepares them once.  AND-NOT is a single ``ite``
    (``ite(a, FALSE, b)`` is b AND NOT a), with no copy of NOT a.
    """
    current_bits = [[f"cur[{i}][{k}]" for k in range(_bit_width(len(machine.states)))]
                    for i, machine in enumerate(system.machines)]
    next_bits = [[f"nxt[{i}][{k}]" for k in range(len(bits))]
                 for i, bits in enumerate(current_bits)]
    total_bits = sum(len(bits) for bits in current_bits)
    env_vars = {sym: f"env[{sym}]"
                for sym in model.declaration_order(system, model.env_alphabet(system))}
    manager = robdd.BddManager(_variable_order(system, current_bits, next_bits, env_vars))

    def cubes(names: list[str], nstates: int) -> list[robdd.BddRef]:
        """The cube of each state index over ``names``, bit k of the index on names[k]."""
        return [manager.cube([(var, (j >> k) & 1 == 1) for k, var in enumerate(names)])
                for j in range(nstates)]

    here = [cubes(bits, len(m.states)) for bits, m in zip(current_bits, system.machines)]
    there = [cubes(bits, len(m.states)) for bits, m in zip(next_bits, system.machines)]

    # truth of each produced symbol as a function of the current state bits
    output_fn: dict = {}
    for i, machine in enumerate(system.machines):
        for j, state in enumerate(machine.states):
            for sym in state.outputs:
                prev = output_fn.get(sym)
                output_fn[sym] = here[i][j] if prev is None else manager.or_(prev, here[i][j])

    def leaf(sym) -> robdd.BddRef:
        if sym in env_vars:
            return manager.mk_var(env_vars[sym])
        # guard symbols are either produced somewhere or environmental
        return output_fn[sym]

    transition = manager.TRUE
    for i in reversed(range(len(system.machines))):
        machine = system.machines[i]
        relation = manager.FALSE
        for j in range(len(machine.states)):
            union = manager.FALSE
            moves = manager.FALSE
            for arc in machine.arcs_from(j):
                g = manager.from_expr(arc.guard, leaf)
                union = manager.or_(union, g)
                moves = manager.or_(moves, manager.and_(g, there[i][machine.state_index(arc.dst)]))
            stay = manager.ite(union, manager.FALSE, there[i][j])
            relation = manager.or_(relation, manager.and_(here[i][j], manager.or_(moves, stay)))
        transition = manager.and_(relation, transition)

    init = manager.TRUE
    for i in reversed(range(len(system.machines))):
        init = manager.and_(here[i][system.machines[i].initial_index], init)

    quantified = [v for bits in current_bits for v in bits] + list(env_vars.values())
    renaming = {
        nxt: cur
        for cur_list, nxt_list in zip(current_bits, next_bits)
        for cur, nxt in zip(cur_list, nxt_list)
    }

    reachable = frontier = init
    while frontier != manager.FALSE:
        image = manager.rename(manager.exists(quantified, manager.and_(frontier, transition)),
                               renaming)
        frontier = manager.ite(reachable, manager.FALSE, image)
        reachable = manager.or_(reachable, frontier)

    # reachable holds valid codes only (the initial state and every next-state
    # cube encode states, and a relation is false on any other current code),
    # so it is counted over every declared variable as it is; the next bits
    # and the inputs are free, hence the shift
    count = manager.sat_count(reachable, 2 * total_bits + len(env_vars)) >> (
        total_bits + len(env_vars))

    return SymbolicReachability(
        system=system,
        manager=manager,
        current_bits=current_bits,
        next_bits=next_bits,
        env_vars=env_vars,
        transition=transition,
        reachable=reachable,
        count=count,
    )


# -- export --------------------------------------------------------------------


def to_dot(rg: ReachGraph) -> str:
    """Graphviz rendering; deterministic (discovery order, sorted outputs)."""
    lines = ["digraph reachability {", "  rankdir=TB;", '  node [shape=ellipse, fontsize=10];']
    for i in range(len(rg.nodes)):
        outs = ", ".join(sorted(rg.outputs[i]))
        label = rg.node_name(i) + ("\\n" + "{" + outs + "}" if outs else "")
        shape = ', peripheries=2' if i == 0 else ""
        extra = ', style=dashed' if i in rg.quiescent else ""
        lines.append(f'  n{i} [label="{label}"{shape}{extra}];')
    texts = rg._guard_texts
    for edge in rg.edges:
        lines.append(f'  n{edge.src} -> n{edge.dst} [label="{texts[edge.guard.node]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _json_array(items: list[str], pad: str) -> str:
    """A JSON array of encoded ``items`` whose brackets sit at indentation ``pad``."""
    if not items:
        return "[]"
    return f"[\n{pad}  " + f",\n{pad}  ".join(items) + f"\n{pad}]"


def json_text(rg: ReachGraph) -> str:
    """Stable-keyed dump of nodes and edges, as JSON text.

    The text is exactly ``json.dumps(doc, indent=2)`` and a newline, ASCII
    only, for the document ``{"system", "nodes": [{"states", "outputs",
    "quiescent"}], "edges": [{"src", "dst", "guard"}]}``; nodes and edges are
    in discovery order and outputs are sorted.  It is written directly:
    every name and each distinct guard text is encoded once, by the same
    string encoder ``json.dumps`` uses.
    """
    state_names = [[_json_string(state.name) for state in machine.states]
                   for machine in rg.system.machines]
    outputs: dict[frozenset, str] = {}
    nodes = []
    for i, (gstate, valuation) in enumerate(zip(rg.nodes, rg.outputs)):
        outs = outputs.get(valuation)
        if outs is None:
            outs = outputs[valuation] = _json_array(
                [_json_string(name) for name in sorted(valuation)], "      ")
        states = _json_array([names[idx] for names, idx in zip(state_names, gstate)], "      ")
        quiescent = "true" if i in rg.quiescent else "false"
        nodes.append(f'{{\n      "states": {states},\n      "outputs": {outs},\n'
                     f'      "quiescent": {quiescent}\n    }}')
    guards = {node: _json_string(text) for node, text in rg._guard_texts.items()}
    edges = [f'{{\n      "src": {e.src},\n      "dst": {e.dst},\n'
             f'      "guard": {guards[e.guard.node]}\n    }}' for e in rg.edges]
    return (f'{{\n  "system": {_json_string(rg.system.name)},\n  "nodes": {_json_array(nodes, "  ")},'
            f'\n  "edges": {_json_array(edges, "  ")}\n}}\n')
