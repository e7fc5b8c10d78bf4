#!/usr/bin/env python3
"""Time each layer of cosma on models that grow, each case checking its answer.

One table of cases gives each case's family, size (None for a fixed
model), layer, the work that is timed, and the answer that work must give:

* ``lex``        ``frontend._lex``, answering the machines and states that
                 its ``machine`` and ``state`` keywords give;
* ``parse``      ``frontend.parse_system`` with ``frontend._lex`` and
                 ``model.validate`` answered from the first parse,
                 answering the parsed machines and states;
* ``structure``  ``model.check_structure``, the errors-only pass that ``rg``
                 and ``check`` pay for, answering no errors;
* ``validate``   ``model.validate`` with its structural pass, as ``lint``
                 pays for it, answering no errors;
* ``bdd``        the BDD kernel alone: the n-queens function (answering its
                 solutions), 300 random guard formulas over 14 variables
                 combined pairwise, and the fixpoint of an n-bit counter,
                 one new state per image step (answering 2^n);
* ``symbolic``   ``reach.build_rg_symbolic`` on the bundled ``tlc_car``
                 (15 states), the token ``ring`` of n machines (n states)
                 and n ``toggles`` (2^n states).

The front-end layers run on the bundled models and on the benchmark's
families (``perfbench/families.py``).  A round takes each case in turn:
it collects garbage, checks the case's answer, untimed, then takes the
best of ``REPEAT`` runs between two runs of the reference loop of
``perfbench/run.py``, so that the scaled time reads as seconds on a machine
that runs that loop in ``REF_S``.  Each case reports the median of
``ROUNDS`` rounds, run one after another so that a drift of the machine's
speed reaches every case alike, with the lowest and highest round beside
it.  Per family and layer, the growth exponent is the least-squares slope
of log(time) against log(size).

Run:  python benchmarks/bench_scale.py [--smoke] [--record LABEL]

``--smoke`` runs the two smallest sizes of each sweep at the best of 2 runs.
``--record LABEL`` stores the results as the column LABEL of
``benchmarks/BENCH_scale.json`` and keeps the file's other columns.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import json
import math
import platform
import random
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple
from unittest import mock

from cosma import assets, frontend, model, reach, robdd
from cosma import formula as F

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "perfbench"))
import families  # noqa: E402  (read only: the model texts and their answers)
from run import REF_S, reference_loop  # noqa: E402  (read only: the drift correction)

RECORD = HERE / "BENCH_scale.json"
ROUNDS = 7
REPEAT, SMOKE_REPEAT = 7, 2
# family -> the sizes of its sweep, smallest first; --smoke runs the first two
FRONT_END_SWEEPS = {"cycle": (25, 50, 100, 200), "ring": (10, 20, 40, 80),
                    "toggles": (8, 16, 32, 64), "kguard": (16, 32, 64, 128)}
SYMBOLIC_SWEEPS = {"ring": (5, 10, 25, 50, 100), "toggles": (4, 8, 12, 16)}
QUEENS = {4: 2, 5: 10, 6: 4, 7: 40}  # board size -> solutions
COUNTER_BITS = (3, 5, 7, 9)
BUNDLED = {"tlc": [4, 3, 3], "tlc_car": [4, 3, 3, 2]}  # states per machine
GUARDS = 1408  # satisfying valuations of the guards' accumulated ite chain


class Case(NamedTuple):
    family: str
    size: int | None
    layer: str
    run: Callable[[], object]  # the timed work; READ[layer] of its result is the answer
    answer: object
    text: str | None = None  # the model's text, for its bytes and tokens
    patches: tuple = ()  # (owner, attribute, stand-in) set while the case runs


def lexed_states(words: list[str]) -> list[int]:
    states = []
    for word in words:
        if word == "machine":
            states.append(0)
        elif word == "state":
            states[-1] += 1
    return states


READ = {
    "lex": lambda lexed: lexed_states(lexed[0]),
    "parse": lambda result: [len(m.states) for m in result.system.machines],
    "structure": lambda report: report.errors,
    "validate": lambda report: report.errors,
    "bdd": lambda count: count,
    "symbolic": lambda rg: rg.count,
}


def front_end(family: str, size: int | None, text: str, states: list[int]) -> list[Case]:
    """The four front-end layers of one model, each timed apart from the others."""
    filename = f"{family}.csm"
    lexed = frontend._lex(text, filename, False)
    system = frontend.parse_system(text, filename).system
    return [
        Case(family, size, "lex", lambda: frontend._lex(text, filename, False), states, text),
        Case(family, size, "parse", lambda: frontend.parse_system(text, filename), states, text,
             ((frontend, "_lex", lambda *args, **kwargs: lexed),
              (model, "validate", lambda checked: system.report))),
        Case(family, size, "structure", lambda: model.check_structure(system), [], text),
        # validate builds on the system's cached structural pass; uncached, each
        # run pays for that pass as one command does
        Case(family, size, "validate", lambda: model.validate(system), [], text,
             ((model.System, "structure", property(model.check_structure)),)),
    ]


def symbolic(family: str, size: int | None, text: str, states: int) -> Case:
    system = frontend.parse_system(text, f"{family}.csm").system
    return Case(family, size, "symbolic", lambda: reach.build_rg_symbolic(system), states, text)


def xor(manager: robdd.BddManager, f, g):
    return manager.ite(f, manager.not_(g), g)


def queens(n: int) -> int:
    manager = robdd.BddManager()
    cell = [[manager.mk_var(f"q{i}_{j}") for j in range(n)] for i in range(n)]
    board = manager.TRUE
    for i in range(n):
        row = manager.FALSE
        for j in range(n):
            placed = cell[i][j]
            for jj in range(n):
                if jj != j:
                    placed = manager.and_(placed, manager.not_(cell[i][jj]))
            for ii in range(n):
                if ii != i:
                    placed = manager.and_(placed, manager.not_(cell[ii][j]))
            for d in range(1, n):
                for di, dj in ((d, d), (d, -d), (-d, d), (-d, -d)):
                    ii, jj = i + di, j + dj
                    if 0 <= ii < n and 0 <= jj < n:
                        placed = manager.and_(placed, manager.not_(cell[ii][jj]))
            row = manager.or_(row, placed)
        board = manager.and_(board, row)
    return manager.sat_count(board, n * n)


def random_formula(rng: random.Random, symbols: list, depth: int):
    if depth == 0 or rng.random() < 0.3:
        atom = rng.choice(symbols)
        return F.Not(atom) if rng.random() < 0.4 else atom
    left = random_formula(rng, symbols, depth - 1)
    right = random_formula(rng, symbols, depth - 1)
    return F.And(left, right) if rng.random() < 0.5 else F.Or(left, right)


def guards() -> int:
    rng = random.Random(42)
    symbols = [F.Symbol(f"g{i}") for i in range(14)]
    manager = robdd.BddManager([s.name for s in symbols])
    refs = [manager.from_expr(random_formula(rng, symbols, 6)) for _ in range(300)]
    acc = manager.TRUE
    for left, right in zip(refs, refs[1:]):
        acc = manager.ite(left, right, acc)
        xor(manager, left, right)
    return manager.sat_count(acc, 14)


def counter(bits: int) -> int:
    """The reachable states of x' = x + 1 (wrapping) over ``bits`` bits."""
    names: list[str] = []
    for i in range(bits):
        names += [f"x{i}", f"y{i}"]  # interleaved current/next
    manager = robdd.BddManager(names)
    relation = manager.TRUE
    carry = manager.TRUE
    for i in range(bits):
        x = manager.mk_var(f"x{i}")
        y = manager.mk_var(f"y{i}")
        relation = manager.and_(relation, manager.not_(xor(manager, y, xor(manager, x, carry))))
        carry = manager.and_(carry, x)
    current = [f"x{i}" for i in range(bits)]
    renaming = {f"y{i}": f"x{i}" for i in range(bits)}
    reachable = manager.TRUE
    for name in current:
        reachable = manager.and_(reachable, manager.not_(manager.mk_var(name)))
    while True:
        image = manager.rename(manager.exists(current, manager.and_(reachable, relation)),
                               renaming)
        grown = manager.or_(reachable, image)
        if grown == reachable:
            return manager.sat_count(reachable, 2 * bits) >> bits
        reachable = grown


def table(first: int | None = None) -> list[Case]:
    """Every case, each sweep cut to its ``first`` smallest sizes (None: all)."""
    cases = []
    for name, states in BUNDLED.items():
        cases += front_end(name, None, assets.text(f"{name}.csm"), states)
    cases.append(symbolic("tlc_car", None, assets.text("tlc_car.csm"), 15))
    cases.append(Case("guards", None, "bdd", guards, GUARDS))
    namer = families.Namer(0)
    for family, sizes in FRONT_END_SWEEPS.items():
        for size in sizes[:first]:
            spec = getattr(families, family)(namer, size)
            cases += front_end(family, size, spec.text, spec.machine_states)
    cases += [Case("queens", n, "bdd", functools.partial(queens, n), QUEENS[n])
              for n in list(QUEENS)[:first]]
    cases += [Case("counter", bits, "bdd", functools.partial(counter, bits), 2 ** bits)
              for bits in COUNTER_BITS[:first]]
    for family, sizes in SYMBOLIC_SWEEPS.items():
        for size in sizes[:first]:
            spec = getattr(families, family)(namer, size)
            cases.append(symbolic(family, size, spec.text, spec.reachable))
    return cases


@contextlib.contextmanager
def isolated(case: Case):
    with contextlib.ExitStack() as stack:
        for owner, attribute, stand_in in case.patches:
            stack.enter_context(mock.patch.object(owner, attribute, stand_in))
        yield


def check(case: Case) -> None:
    """Run the case once, untimed, and assert its answer."""
    with isolated(case):
        got = READ[case.layer](case.run())
    if got != case.answer:
        raise AssertionError((case.family, case.size, case.layer, got, case.answer))


def measure(case: Case, repeat: int) -> float:
    """Check the case, then the best of ``repeat`` runs, scaled by the reference loop."""
    # a BDD manager is cyclic garbage: collect an earlier case's before this
    # case runs, not inside its timing
    gc.collect()
    check(case)  # also the warm-up
    with isolated(case):
        before = reference_loop()
        best = math.inf
        for _ in range(repeat):
            started = time.perf_counter()
            case.run()
            best = min(best, time.perf_counter() - started)
        after = reference_loop()
    return best * 2 * REF_S / (before + after)


def growth(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(time) against log(size)."""
    xs = [math.log(size) for size, _ in points]
    ys = [math.log(seconds) for _, seconds in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help=f"the two smallest sizes of each sweep, best of {SMOKE_REPEAT}")
    parser.add_argument("--record", metavar="LABEL", help=f"store as a column of {RECORD.name}")
    args = parser.parse_args()
    repeat = SMOKE_REPEAT if args.smoke else REPEAT

    cases = table(2 if args.smoke else None)
    rounds = [[measure(case, repeat) for case in cases] for _ in range(ROUNDS)]
    rows = []
    for case, times in zip(cases, zip(*rounds)):
        words = frontend._lex(case.text, "", False)[0] if case.text else None
        rows.append({
            "family": case.family, "size": case.size, "layer": case.layer,
            "bytes": case.text and len(case.text.encode()), "tokens": words and len(words),
            "median_s": statistics.median(times), "lowest_s": min(times),
            "highest_s": max(times),
        })

    print(f"median of {ROUNDS} rounds of the best of {repeat}, scaled; "
          "the lowest and highest round beside it")
    header = (f"{'family':<8} {'size':>5} {'layer':<10}"
              + "".join(f" {column + ' ms':>12}" for column in ("median", "lowest", "highest")))
    print(header)
    print("-" * len(header))
    for r in rows:
        print(f"{r['family']:<8} {r['size'] or '':>5} {r['layer']:<10}" + "".join(
            f" {r[column] * 1e3:>12.3f}" for column in ("median_s", "lowest_s", "highest_s")))
    sweeps: dict[str, dict[str, list]] = {}
    for r in rows:
        if r["size"] is not None:
            sweeps.setdefault(r["family"], {}).setdefault(r["layer"], []).append(
                (r["size"], r["median_s"]))
    exponents = {family: {layer: round(growth(points), 2) for layer, points in layers.items()}
                 for family, layers in sweeps.items()}
    print("growth exponents against size:")
    for family, per_layer in exponents.items():
        print(f"  {family:<8} " + "  ".join(f"{layer} {e:.2f}" for layer, e in per_layer.items()))

    if args.record:
        document = json.loads(RECORD.read_text(encoding="utf-8")) if RECORD.exists() else {}
        document["times"] = ("per row, the median, lowest and highest of `rounds` interleaved "
                             "rounds of the best of `repeat` runs, in seconds on a machine "
                             "that runs the reference loop of perfbench/run.py in `ref_s`")
        document["ref_s"] = REF_S
        document.setdefault("columns", {})[args.record] = {
            "python": platform.python_version(),
            "backend": "python",  # the one BDD kernel
            "repeat": repeat,
            "rounds": ROUNDS,
            "exponents": exponents,
            "rows": rows,
        }
        RECORD.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
