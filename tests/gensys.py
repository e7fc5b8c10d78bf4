"""Random small systems for cross-engine and oracle tests."""

import random

from cosma import formula as F
from cosma import model


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
