"""Checks of the command outputs, computed apart from the engines.

Nothing here calls the reachability engines or the model checker to get
its answers.  Reachable states come from closed forms or from the
benchmark's own breadth-first search over ``model.step_successors``; edge
guards are read back from the ``--json`` text by a small evaluator of its
own; traces are replayed step by step.  The one use of an engine is the
set comparison, which takes the symbolic engine's reachable set and asks
whether it holds exactly the states the explicit engine printed.

Every function returns a list of problems; an empty list means the output
is correct.
"""

from __future__ import annotations

import json
import re
from collections import deque

_RG_LINE = re.compile(r"^(explicit|symbolic): (\d+) reachable states?", re.M)
_LINT_LINE = re.compile(r"^(\S+): (\d+) machines?, (\d+) errors, (\d+) warnings$", re.M)
_PROCESS = re.compile(r"^  (\w+) : process\n(.*?)^  end process \1;", re.M | re.S)
_WHEN = re.compile(r'^        when "([01]+)" => -- (\w+)$', re.M)
_TOKEN = re.compile(r"\s*(?:([A-Za-z_][A-Za-z0-9_]*)|([01])|(.))")


def env_valuations(env: list) -> list[frozenset]:
    """Every subset of ``env``; bit i of the list index says whether ``env[i]`` occurs."""
    return [frozenset(s for i, s in enumerate(env) if v >> i & 1) for v in range(1 << len(env))]


def search(system, model_mod, env: list):
    """Reachable states and labelled edges by stepping under every valuation.

    Returns ``(states, edges)`` where ``edges`` maps ``(src, dst)`` to the
    bit set of valuation indices that take ``src`` to ``dst``.
    """
    valuations = env_valuations(env)
    start = system.initial_state()
    states = {start}
    edges: dict[tuple, int] = {}
    queue = deque([start])
    while queue:
        src = queue.popleft()
        for v, env_true in enumerate(valuations):
            for dst in model_mod.step_successors(system, src, env_true):
                edges[(src, dst)] = edges.get((src, dst), 0) | (1 << v)
                if dst not in states:
                    states.add(dst)
                    queue.append(dst)
    return states, edges


def truth_table(text: str, env_names: list[str]) -> int:
    """Bit v is the guard's value under valuation v (see ``env_valuations``).

    Reads the printed guard syntax: ``~``/``!`` not, ``*`` and, ``+`` or,
    parentheses and the constants ``1``/``0``.
    """
    rows = 1 << len(env_names)
    full = (1 << rows) - 1
    var = {
        name: sum(1 << v for v in range(rows) if v >> i & 1) for i, name in enumerate(env_names)
    }
    tokens = []
    for ident, const, other in _TOKEN.findall(text):
        tokens.append(("id", ident) if ident else ("c", const) if const else ("op", other))
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else ("eof", "")

    def take():
        nonlocal pos
        tok = peek()
        pos += 1
        return tok

    def expr() -> int:
        value = term()
        while peek() == ("op", "+"):
            take()
            value |= term()
        return value

    def term() -> int:
        value = factor()
        while peek() == ("op", "*"):
            take()
            value &= factor()
        return value

    def factor() -> int:
        kind, text_ = take()
        if kind == "op" and text_ in "~!":
            return full ^ factor()
        if kind == "op" and text_ == "(":
            value = expr()
            if take() != ("op", ")"):
                raise ValueError("unbalanced parentheses")
            return value
        if kind == "c":
            return full if text_ == "1" else 0
        if kind == "id":
            return var[text_]
        raise ValueError(f"unexpected token {text_!r}")

    value = expr()
    if peek()[0] != "eof":
        raise ValueError(f"trailing text at token {pos}")
    return value


def _state_tuple(system, names: list[str]) -> tuple:
    return tuple(m.state_index(n) for m, n in zip(system.machines, names))


def check_lint(spec, stdout: str) -> list[str]:
    found = _LINT_LINE.search(stdout)
    if not found:
        return [f"lint printed no summary line: {stdout!r}"]
    problems = []
    if int(found.group(2)) != len(spec.machine_states):
        problems.append(f"lint counted {found.group(2)} machines, expected {len(spec.machine_states)}")
    if found.group(3) != "0":
        problems.append(f"lint reported {found.group(3)} errors")
    return problems


def check_rg(spec, system, cosma, stdout: str, json_text: str, dot_text: str) -> list[str]:
    """Counts, node set, edge set, guards, DOT shape and the symbolic set."""
    problems = []
    doc = json.loads(json_text)
    nodes = [_state_tuple(system, node["states"]) for node in doc["nodes"]]
    edges = [(nodes[e["src"]], nodes[e["dst"]], e["guard"]) for e in doc["edges"]]
    counts = dict((kind, int(n)) for kind, n in _RG_LINE.findall(stdout))

    if nodes[0] != system.initial_state():
        problems.append("node 0 is not the initial state")
    if len(set(nodes)) != len(nodes):
        problems.append("the JSON repeats a node")
    if counts.get("explicit") != len(nodes) or counts.get("symbolic") != len(nodes):
        problems.append(f"printed counts {counts} differ from {len(nodes)} JSON nodes")
    if spec.reachable is not None and len(nodes) != spec.reachable:
        problems.append(f"{len(nodes)} reachable states, expected {spec.reachable}")
    if spec.edges is not None and len(edges) != spec.edges:
        problems.append(f"{len(edges)} edges, expected {spec.edges}")

    env = cosma.model.declaration_order(system, cosma.model.env_alphabet(system))
    env_names = [s.name for s in env]
    if spec.bfs_oracle:
        states, labelled = search(system, cosma.model, env)
        if set(nodes) != states:
            problems.append(f"node set differs from the search: {len(nodes)} vs {len(states)}")
        if {(s, d) for s, d, _ in edges} != set(labelled) or len(edges) != len(labelled):
            problems.append("edge set differs from the search")
        for src, dst, guard in edges:
            if truth_table(guard, env_names) != labelled.get((src, dst)):
                problems.append(f"guard {guard!r} does not match the stepping valuations")
                break
    if spec.tautology_guards:
        full = (1 << (1 << len(env_names))) - 1
        for _, _, guard in edges:
            if truth_table(guard, env_names) != full:
                problems.append(f"guard of {len(guard)} characters is not always true")
                break

    dot_nodes = len(re.findall(r"^  n\d+ \[label=", dot_text, re.M))
    dot_edges = re.findall(r'^  n\d+ -> n\d+ \[label="(.*)"\];$', dot_text, re.M)
    if dot_nodes != len(nodes) or dot_edges != [g for _, _, g in edges]:
        problems.append("the DOT nodes or edge labels differ from the JSON")

    # the symbolic reachable set holds every printed node, and no more
    symbolic = cosma.reach.build_rg_symbolic(system)
    manager = symbolic.manager
    for node in nodes:
        true_bits = [
            bit
            for bits, idx in zip(symbolic.current_bits, node)
            for k, bit in enumerate(bits)
            if idx >> k & 1
        ]
        if not manager.evaluate(symbolic.reachable, true_bits):
            problems.append(f"explicit node {node} is not in the symbolic set")
            break
    if symbolic.count != len(nodes):
        problems.append(f"symbolic set has {symbolic.count} states, explicit {len(nodes)}")
    return problems


def check_verdicts(spec, system, cosma, stdout: str) -> list[str]:
    """Verdicts as constructed, and every failing trace replayed."""
    problems = []
    doc = json.loads(stdout)
    got = {entry["name"]: entry["holds"] for entry in doc["queries"]}
    if got != spec.verdicts:
        wrong = sorted(n for n in spec.verdicts if got.get(n) != spec.verdicts[n])
        problems.append(f"verdicts differ from construction on {wrong or sorted(got)}")
    if doc["all_hold"] != all(spec.verdicts.values()):
        problems.append("all_hold is wrong")

    F, model, mc = cosma.formula, cosma.model, cosma.mc
    parsed = cosma.frontend.parse_queries(spec.queries, system=system)
    queries = {q.name: q for q in parsed.queries if isinstance(q, mc.Query)}
    for entry in doc["queries"]:
        query = queries.get(entry["name"])
        if entry["holds"] or query is None:
            continue
        trace = entry["trace"] or []
        if len(trace) < 2:
            problems.append(f"{entry['name']}: trace of {len(trace)} steps")
            continue
        steps = [
            (_state_tuple(system, s["states"]), frozenset(F.Symbol(n) for n in s["env"] or ()))
            for s in trace
        ]
        for (here, env_true), (there, _) in zip(steps, steps[1:]):
            if there not in model.step_successors(system, here, env_true):
                problems.append(f"{entry['name']}: trace step {here} -> {there} does not replay")
                break
        first, env0 = steps[0]
        if not F.evaluate(query.antecedent, model.output_valuation(system, first) | env0):
            problems.append(f"{entry['name']}: trace does not start where the antecedent holds")
        tail = [state for state, _ in steps[1:]]
        violated = [
            not F.evaluate(query.consequent, model.output_valuation(system, s)) for s in tail
        ]
        if query.mode == "next":
            ok = len(tail) == 1 and violated[0]
        else:
            ok = all(violated) and tail[-1] in tail[:-1] and trace[-1]["env"] is None
        if not ok:
            problems.append(f"{entry['name']}: trace does not end where the consequent fails")
    return problems


def check_vhdl(spec, encoding: str, stdout: str, text: str) -> list[str]:
    """One process per machine, one ``when`` per state, the encoding's width."""
    problems = []
    if f"({len(spec.machine_states)} process" not in stdout:
        problems.append(f"vhdl reported {stdout.strip()!r}")
    blocks = _PROCESS.findall(text)
    if len(blocks) != len(spec.machine_states):
        return problems + [f"{len(blocks)} processes for {len(spec.machine_states)} machines"]
    for (label, block), nstates in zip(blocks, spec.machine_states):
        codes = [code for code, _ in _WHEN.findall(block)]
        width = nstates if encoding == "onehot" else max(1, (nstates - 1).bit_length())
        if len(codes) != nstates or len(set(codes)) != nstates:
            problems.append(f"process {label}: {len(codes)} 'when' branches for {nstates} states")
        elif any(len(code) != width for code in codes):
            problems.append(f"process {label}: codes are not {width} bits wide")
    return problems
