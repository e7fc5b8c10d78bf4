#!/usr/bin/env python3
"""Time the front end's four layers on the bundled models and four model families.

For each model the script times, separately:

* ``lex``        ``frontend._lex``: the model's text to its tokens;
* ``parse``      ``frontend.parse_system`` with ``frontend._lex`` and
                 ``model.validate`` answered from the first parse: the
                 parser and the diagnostics it folds in;
* ``structure``  ``model.check_structure`` on the parsed system: the
                 errors-only pass, all that ``rg`` and ``check`` validate;
* ``validate``   ``model.validate`` on the parsed system, its structural
                 pass included, as ``lint`` pays for it.

The families are the benchmark's own (``perfbench/families.py``): a cycle of
n states, a ring of n machines, n toggles and one guard over k inputs, each
at four sizes.  Each size checks that the parsed system has the family's
machines and states.  A round times every layer of every model once, as
the best of ``--repeat`` runs, with the reference loop of
``perfbench/run.py`` timed just before and just after them: the scaled time
reads as seconds on a machine that runs that loop in ``REF_S``, as
``perfbench/run.py`` does.  Each time reported is the median over
``ROUNDS`` such rounds, run one after another, so that a drift of the
machine's speed reaches every model alike, as the median over passes does
in ``perfbench/run.py``.  Per family and layer, the growth exponent is the
least-squares slope of log(time) against log(tokens).

Run:  python benchmarks/bench_frontend.py [--repeat N] [--smoke] [--record LABEL]

``--smoke`` runs the two smallest sizes of each family.  ``--record LABEL``
stores the results as the column LABEL of ``benchmarks/BENCH_frontend.json``
and keeps the file's other columns.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import statistics
import sys
import time
from pathlib import Path
from unittest import mock

from cosma import assets, frontend, model

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "perfbench"))
import families  # noqa: E402  (read only: the model texts and their shapes)
from run import REF_S, reference_loop  # noqa: E402  (read only: the drift correction)

RECORD = HERE / "BENCH_frontend.json"
FAMILIES = {
    "cycle": [25, 50, 100, 200],
    "ring": [10, 20, 40, 80],
    "toggles": [8, 16, 32, 64],
    "kguard": [16, 32, 64, 128],
}
LAYERS = ("lex", "parse", "structure", "validate")
ROUNDS = 7


def best_scaled(fn, repeat: int) -> float:
    """The best of ``repeat`` runs of ``fn``, scaled by the reference loop."""
    fn()  # warm-up
    before = reference_loop()
    best = math.inf
    for _ in range(repeat):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    after = reference_loop()
    return best * 2 * REF_S / (before + after)


def measure(key: str, family: str, size: int | None, text: str, machine_states: list[int],
            repeat: int) -> dict:
    filename = f"{key}.csm"
    result = frontend.parse_system(text, filename)
    system = result.system
    assert result.ok, [str(d) for d in result.diagnostics]
    assert [len(m.states) for m in system.machines] == machine_states, key

    lexed = frontend._lex(text, filename, False)
    # the word list, or the token objects of a lexer that makes them
    tokens = lexed[0] if isinstance(lexed, tuple) else lexed
    lex_s = best_scaled(lambda: frontend._lex(text, filename, False), repeat)
    with mock.patch.object(frontend, "_lex", lambda *args, **kwargs: lexed), \
            mock.patch.object(model, "validate", lambda checked: result.system.report):
        parse_s = best_scaled(lambda: frontend.parse_system(text, filename), repeat)
    structure_s = best_scaled(lambda: model.check_structure(system), repeat)
    # validate builds on the system's cached structural pass; uncached, each
    # run pays for that pass as one command does
    with mock.patch.object(model.System, "structure", property(model.check_structure)):
        validate_s = best_scaled(lambda: model.validate(system), repeat)
    return {
        "model": key, "family": family, "size": size,
        "bytes": len(text.encode()), "tokens": len(tokens),
        "machines": len(machine_states), "states": sum(machine_states),
        "lex_s": lex_s, "parse_s": parse_s, "structure_s": structure_s,
        "validate_s": validate_s,
    }


def growth(rows: list[dict], layer: str) -> float:
    """Least-squares slope of log(time) against log(tokens)."""
    xs = [math.log(r["tokens"]) for r in rows]
    ys = [math.log(r[f"{layer}_s"]) for r in rows]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=7, help="runs per time, best kept")
    parser.add_argument("--smoke", action="store_true", help="two smallest sizes per family")
    parser.add_argument("--record", metavar="LABEL", help=f"store as a column of {RECORD.name}")
    args = parser.parse_args()

    namer = families.Namer(0)
    cases = []  # the arguments of measure, but for the repeat
    for name in ("tlc.csm", "tlc_car.csm"):
        text = assets.text(name)
        shape = [len(m.states) for m in frontend.parse_system(text, name).system.machines]
        cases.append((name[:-4], "bundled", None, text, shape))
    for family, sizes in FAMILIES.items():
        for size in sizes[:2] if args.smoke else sizes:
            spec = getattr(families, family)(namer, size)
            cases.append((spec.key, family, size, spec.text, spec.machine_states))
    rounds = [[measure(*case, args.repeat) for case in cases] for _ in range(ROUNDS)]
    rows = [
        {**row, **{f"{layer}_s": statistics.median(r[i][f"{layer}_s"] for r in rounds)
                   for layer in LAYERS}}
        for i, row in enumerate(rounds[0])
    ]

    header = f"{'model':<12} {'bytes':>7} {'tokens':>7}" + "".join(
        f" {layer + ' ms':>12}" for layer in LAYERS)
    print(header)
    print("-" * len(header))
    for r in rows:
        print(f"{r['model']:<12} {r['bytes']:>7} {r['tokens']:>7}"
              + "".join(f" {r[f'{layer}_s'] * 1e3:>12.3f}" for layer in LAYERS))
    exponents = {
        family: {layer: round(growth([r for r in rows if r["family"] == family], layer), 2)
                 for layer in LAYERS}
        for family in FAMILIES
    }
    print("growth exponents against tokens:")
    for family, per_layer in exponents.items():
        print(f"  {family:<8} " + "  ".join(f"{layer} {e:.2f}" for layer, e in per_layer.items()))

    if args.record:
        document = json.loads(RECORD.read_text(encoding="utf-8")) if RECORD.exists() else {}
        document["times"] = ("median over `rounds` interleaved rounds (one round where a "
                             "column has no `rounds`) of the best of `repeat` runs, in "
                             "seconds on a machine that runs the reference loop of "
                             "perfbench/run.py in `ref_s`")
        document["ref_s"] = REF_S
        document.setdefault("columns", {})[args.record] = {
            "python": platform.python_version(),
            "backend": "python",  # the one BDD kernel; the front end builds no BDD
            "repeat": args.repeat,
            "rounds": ROUNDS,
            "exponents": exponents,
            "models": rows,
        }
        RECORD.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
