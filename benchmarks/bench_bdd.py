#!/usr/bin/env python3
"""Time the BDD manager on four workloads, each checking its own answer.

* ``queens``   the n-queens constraint function, built with and_/or_/not_
               alone: pure apply/unique-table traffic.
* ``guards``   random guard formulas over 14 variables, built and combined
               pairwise through the manager API.
* ``counter``  reachability fixpoint of an n-bit binary counter, the
               classic slow-frontier case: one new state per image step.
* ``pipeline`` symbolic reachability of the bundled intersection model,
               end to end through the public API.

Run:  python benchmarks/bench_bdd.py [--repeat N] [--counter-bits N] [--queens N]
"""

from __future__ import annotations

import argparse
import random
import time

from cosma import assets, frontend, reach, robdd
from cosma import formula as F


def random_formula(rng, symbols, depth):
    if depth == 0 or rng.random() < 0.3:
        sym = rng.choice(symbols)
        atom = F.Atom(sym)
        return F.Not(atom) if rng.random() < 0.4 else atom
    left = random_formula(rng, symbols, depth - 1)
    right = random_formula(rng, symbols, depth - 1)
    return F.And(left, right) if rng.random() < 0.5 else F.Or(left, right)


_SOLUTIONS = {4: 2, 5: 10, 6: 4, 7: 40, 8: 92}


def bench_queens(n: int) -> float:
    manager = robdd.BddManager()
    cell = [[manager.mk_var(f"q{i}_{j}") for j in range(n)] for i in range(n)]
    started = time.perf_counter()
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
    count = manager.sat_count(board, n * n)
    if n in _SOLUTIONS:
        assert count == _SOLUTIONS[n], count
    return time.perf_counter() - started


def bench_guards() -> float:
    rng = random.Random(42)
    symbols = [F.Symbol(f"g{i}") for i in range(14)]
    manager = robdd.BddManager([s.name for s in symbols])
    started = time.perf_counter()
    refs = [manager.from_expr(random_formula(rng, symbols, 6)) for _ in range(300)]
    acc = manager.TRUE
    for left, right in zip(refs, refs[1:]):
        acc = manager.ite(left, right, acc)
        manager.xor_(left, right)
    manager.sat_count(acc, 14)
    return time.perf_counter() - started


def bench_counter(bits: int) -> float:
    names: list[str] = []
    for i in range(bits):
        names += [f"x{i}", f"y{i}"]  # interleaved current/next
    manager = robdd.BddManager(names)
    started = time.perf_counter()

    # transition relation of x' = x + 1 (wrapping)
    relation = manager.TRUE
    carry = manager.TRUE
    for i in range(bits):
        x = manager.mk_var(f"x{i}")
        y = manager.mk_var(f"y{i}")
        bit_next = manager.xor_(x, carry)
        relation = manager.and_(relation, manager.not_(manager.xor_(y, bit_next)))
        carry = manager.and_(carry, x)

    current = [f"x{i}" for i in range(bits)]
    renaming = {f"y{i}": f"x{i}" for i in range(bits)}
    reachable = manager.TRUE
    for name in current:
        reachable = manager.and_(reachable, manager.not_(manager.mk_var(name)))
    while True:
        image = manager.exists(current, manager.and_(reachable, relation))
        image = manager.rename(image, renaming)
        grown = manager.or_(reachable, image)
        if grown == reachable:
            break
        reachable = grown
    assert manager.sat_count(reachable, 2 * bits) >> bits == 1 << bits
    return time.perf_counter() - started


def bench_pipeline(repeat: int) -> float:
    system = frontend.parse_system(assets.text("tlc_car.csm"), "tlc_car.csm").system
    started = time.perf_counter()
    for _ in range(repeat):
        sym = reach.build_rg_symbolic(system)
        assert sym.count == 15
    return time.perf_counter() - started


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=30, help="pipeline repetitions")
    parser.add_argument("--counter-bits", type=int, default=9)
    parser.add_argument("--queens", type=int, default=7)
    args = parser.parse_args()

    workloads = [
        ("queens", lambda: bench_queens(args.queens)),
        ("guards", bench_guards),
        ("counter", lambda: bench_counter(args.counter_bits)),
        ("pipeline", lambda: bench_pipeline(args.repeat)),
    ]

    width = max(len(n) for n, _ in workloads)
    header = f"{'workload':<{width}}  {'seconds':>12}"
    print(header)
    print("-" * len(header))
    for name, fn in workloads:
        fn()  # warm-up
        print(f"{name:<{width}}  {min(fn() for _ in range(3)):>11.4f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
