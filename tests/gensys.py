"""Random small systems and growing families for cross-engine and oracle tests."""

import random
import re

from cosma import assets, frontend, mc, model
from cosma import formula as F


def random_guard(rng: random.Random, pool, depth=2) -> F.BoolExpr:
    if depth == 0 or rng.random() < 0.35:
        r = rng.random()
        if r < 0.06:
            return F.TRUE
        if r < 0.10:
            return F.FALSE
        sym = rng.choice(pool)
        atom = sym
        return F.Not(atom) if rng.random() < 0.4 else atom
    left = random_guard(rng, pool, depth - 1)
    right = random_guard(rng, pool, depth - 1)
    return F.And(left, right) if rng.random() < 0.5 else F.Or(left, right)


def random_system(rng: random.Random, max_machines=3, max_states=4, max_env=3) -> model.System:
    """A valid system with small guards over environment and output symbols."""
    env_pool = [F.Symbol(f"e{i}") for i in range(rng.randint(1, max_env))]

    shapes = []
    produced = []
    for i in range(rng.randint(1, max_machines)):
        n_states = rng.randint(1, max_states)
        outs = []
        for j in range(n_states):
            if rng.random() < 0.5:
                sym = F.Symbol(f"o{i}_{j}")
                produced.append(sym)
                outs.append(sym)
            else:
                outs.append(None)
        shapes.append((n_states, outs))

    pool = env_pool + produced
    machines = []
    for i, (n_states, outs) in enumerate(shapes):
        states = [
            model.State(f"m{i}s{j}", frozenset() if outs[j] is None else frozenset({outs[j]}))
            for j in range(n_states)
        ]
        arcs = []
        for j in range(n_states):
            for _ in range(rng.randint(1, 3)):
                dst = rng.randrange(n_states)
                arcs.append(model.Arc(f"m{i}s{j}", f"m{i}s{dst}", random_guard(rng, pool)))
        machines.append(model.Machine(f"m{i}", states, "m" + str(i) + "s0", arcs))

    system = model.System(f"rand{rng.randint(0, 10**6)}", machines)
    report = model.validate(system)
    assert report.ok, [e.message for e in report.errors]
    return system


BREAKS = ("duplicate-machine", "duplicate-state", "bad-initial", "bad-arc")


def broken_system(rng: random.Random, breaks=None) -> model.System:
    """A ``random_system`` with the structural errors ``breaks`` put in, each
    into a machine drawn at random; by default one to four of ``BREAKS``."""
    if breaks is None:
        breaks = rng.sample(BREAKS, rng.randint(1, len(BREAKS)))
    system = random_system(rng)
    machines = list(system.machines)
    for kind in breaks:
        i = rng.randrange(len(machines))
        machine = machines[i]
        if kind == "duplicate-machine":
            machines.insert(rng.randrange(len(machines) + 1), machine)
            continue
        states, initial, arcs = list(machine.states), machine.initial, list(machine.arcs)
        if kind == "duplicate-state":
            states.insert(rng.randrange(len(states) + 1),
                          model.State(rng.choice(states).name, frozenset()))
        elif kind == "bad-initial":
            initial = "ghost"
        else:
            arcs.insert(rng.randrange(len(arcs) + 1),
                        model.Arc(rng.choice(states).name, "ghost", F.TRUE))
        machines[i] = model.Machine(machine.name, states, initial, arcs)
    return model.System(system.name, machines)


# -- growing families, as in the benchmark's ``perfbench/families.py`` ----------


def _parse(name: str, machines: list[str]) -> model.System:
    text = f"system {name} {{\n" + "\n".join(machines) + "\n}\n"
    result = frontend.parse_system(text, f"{name}.csm")
    assert result.ok, [str(d) for d in result.diagnostics]
    return result.system


def toggles(n: int) -> model.System:
    """``n`` independent toggles, each flipped by its own input ``x{i}``:
    2^n states, every one a single step from every other."""
    return _parse("Toggles", [
        f"machine T{i} {{ init off; state off {{ -> on when x{i}; -> off when ~x{i}; }}"
        f" state on {{ out On{i}; -> off when x{i}; -> on when ~x{i}; }} }}"
        for i in range(n)])


def ring(m: int) -> model.System:
    """A token passed round ``m`` two-state machines whenever ``pass`` occurs."""
    return _parse("Ring", [
        f"machine R{i} {{ init {'tok' if i == 0 else 'idle'};"
        f" state idle {{ -> tok when T{(i - 1) % m} * pass; -> idle when ~(T{(i - 1) % m} * pass); }}"
        f" state tok {{ out T{i}; -> idle when pass; -> tok when ~pass; }} }}"
        for i in range(m)])


def parallel(m: int) -> model.System:
    """``m`` machines that each have two complementary arcs into one state,
    so every machine merges two moves by target."""
    return _parse("Parallel", [
        f"machine P{i} {{ init a; state a {{ -> b when y{i}; -> b when ~y{i}; }}"
        f" state b {{ out B{i}; -> a when 1; }} }}"
        for i in range(m)])


def kguard(k: int) -> model.System:
    """One machine that fires only when all ``k`` inputs occur at once."""
    conj = " * ".join(f"z{i}" for i in range(k))
    return _parse("Kguard", [
        f"machine G {{ init g0; state g0 {{ -> g1 when {conj}; -> g0 when ~({conj}); }}"
        " state g1 { out Fire; -> g0 when 1; } }"])


def cycle(n: int) -> model.System:
    """One machine of ``n`` states in a ring, advanced by the input ``go``."""
    states = " ".join(f"state c{i} {{ out C{i}; -> c{(i + 1) % n} when go; -> c{i} when ~go; }}"
                      for i in range(n))
    return _parse("Cycle", [f"machine Cyc {{ init c0; {states} }}"])


# -- the paper's intersection, chained -----------------------------------------

_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


def _copy(text: str, i: int, keywords: frozenset) -> str:
    """``text`` with every identifier but ``keywords`` suffixed by ``i``, and
    ``Car`` read as ``FG{i-1}`` from the second copy on."""
    def rename(match):
        word = match.group()
        if word in keywords:
            return word
        return f"FG{i - 1}" if word == "Car" and i else f"{word}{i}"
    return _IDENTIFIER.sub(rename, text)


def _uncommented(asset: str) -> str:
    return re.sub(r"//[^\n]*", "", assets.text(asset))


def tlc_chain(k: int) -> model.System:
    """``k`` copies of the bundled ``tlc.csm``: copy i's machines, states and
    symbols take the suffix i, and the farm-road sensor of copy i >= 1 is
    copy i-1's farm-green output, so outputs feed guards across machines
    and across intersections.  Copy 0 reads the environment input ``Car0``."""
    text = _uncommented("tlc.csm")
    body = text[text.index("{") + 1:text.rindex("}")]
    return _parse("TlcChain", [_copy(body, i, frontend._SYSTEM_KEYWORDS) for i in range(k)])


def tlc_chain_queries(k: int) -> list[mc.Query]:
    """The ten queries of ``tlc_queries.tq`` per copy of ``tlc_chain(k)``,
    renamed as the copy is: ``q1`` of copy 2 is ``q12`` and reads ``FG1``
    where the original reads ``Car``."""
    text = "".join(_copy(_uncommented("tlc_queries.tq"), i, frontend._QUERY_KEYWORDS)
                   for i in range(k))
    result = frontend.parse_queries(text, tlc_chain(k), "tlc_chain.tq")
    assert result.ok and not result.diagnostics, [str(d) for d in result.diagnostics]
    return result.queries
