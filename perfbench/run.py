#!/usr/bin/env python3
"""Benchmark of cosma's four commands on the paper's models and on model families.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke      # every workload at its smallest size
    python3 perfbench/run.py --sweep      # per-layer cost against model size

One process, one thread.  Set-up imports cosma from ``src/`` and writes the
workload's model and query files; it is repeated and its median reported.
The timed part then runs whole passes until ``--seconds`` have gone by: a
pass calls ``cosma.cli.main`` in-process for ``lint``, ``rg --engine both
--json --dot``, ``check --queries --json`` and ``vhdl`` in the binary and
onehot encodings, on every model of the workload.  Each time is the median
over passes.  With ``--trace 1`` spans are recorded around the package's
public functions and the per-layer metrics are reported instead.

The machine's speed drifts by up to a factor of two within seconds, so every
end-to-end time is scaled by a fixed pure-Python reference loop that is timed
just before and just after each command (and each set-up): a time reads as
seconds on a machine that runs the loop in ``REF_S``.  The raw times are kept
in the result file under ``perfbench/work/``.

Every command is one operation.  It fails when its exit code is not the one
expected, when its output differs from the first pass, or when the first
pass's output fails a check of ``checks.py``.  The last line of standard
output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import platform
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import families  # noqa: E402
from tracer import BDD_OPS, Tracer  # noqa: E402

SETUP_REPEATS = 11
REF_ITERATIONS = 8000
REF_S = 0.0035  # the reference loop's time on the machine of the README's figures
MIN_PASSES = 3
COMMANDS = ("lint", "rg", "check", "vhdl")
MODULES = ("cli", "frontend", "model", "formula", "robdd", "reach", "mc", "vhdlgen")

# workload -> (sizes, smoke sizes); see families.py for what the sizes mean
WORKLOADS = {
    "tlc-batch": ({"repeat": 4}, {"repeat": 1}),
    "deep": ({"cycle": 150, "ring": 50}, {"cycle": 8, "ring": 4}),
    "wide": ({"toggles": 6, "parallel": 7, "kguard": 15}, {"toggles": 2, "parallel": 2, "kguard": 3}),
}

END_TO_END = [
    ("setup_s", "s"), ("lint_s", "s"), ("rg_s", "s"), ("check_s", "s"), ("vhdl_s", "s"),
    ("wall_s", "s"), ("peak_rss_mb", "MB"), ("export_bytes", "bytes"),
]

_BDD = [f"robdd.BddManager.{op}" for op in BDD_OPS]

# per-layer metric -> (unit, how it is read from one pass's span summary)
PER_LAYER = {
    "frontend.parse_system_s": ("s", lambda s: s["inclusive"]["frontend.parse_system"]),
    "frontend.parse_queries_s": ("s", lambda s: s["inclusive"]["frontend.parse_queries"]),
    "frontend.source_bytes": ("bytes", lambda s: s["counts"]["frontend.source_bytes"]),
    "model.validate_s": ("s", lambda s: s["inclusive"]["model.validate"]),
    "formula.guard_contexts": ("count", lambda s: s["calls"]["formula.GuardContext.__init__"]),
    "robdd.managers": ("count", lambda s: s["calls"]["robdd.BddManager.__init__"]),
    "formula.sat_calls": ("count", lambda s: s["calls"]["formula.GuardContext.satisfiable"]
                          + s["calls"]["formula.GuardContext.tautology"]),
    "formula.sat_s": ("s", lambda s: s["inclusive"]["formula.GuardContext.satisfiable"]
                      + s["inclusive"]["formula.GuardContext.tautology"]),
    "formula.evaluate_calls": ("count", lambda s: s["calls"]["formula.evaluate"]),
    "formula.to_text_bytes": ("bytes", lambda s: s["counts"]["formula.to_text_bytes"]),
    "reach.export_s": ("s", lambda s: s["inclusive"]["reach.to_dot"]
                       + s["inclusive"]["reach.json_text"]),
    "reach.explicit_s": ("s", lambda s: s["inclusive"]["reach.build_rg_explicit"]),
    "reach.nodes": ("count", lambda s: s["counts"]["reach.nodes"]),
    "reach.edges": ("count", lambda s: s["counts"]["reach.edges"]),
    "reach.symbolic_s": ("s", lambda s: s["inclusive"]["reach.build_rg_symbolic"]),
    "reach.image_steps": ("count", lambda s: s["image_steps"]),
    "robdd.op_calls": ("count", lambda s: sum(s["calls"][n] for n in _BDD)),
    "robdd.op_s": ("s", lambda s: sum(s["self"][n] for n in _BDD)),
    "robdd.nodes": ("count", lambda s: s["counts"]["robdd.nodes"]),
    "mc.check_query_s": ("s", lambda s: s["inclusive"]["mc.check_query"]),
    "mc.check_ctl_s": ("s", lambda s: s["inclusive"]["mc.check_ctl"]),
    "mc.trace_steps": ("count", lambda s: s["counts"]["mc.trace_steps"]),
    "vhdlgen.generate_s": ("s", lambda s: s["inclusive"]["vhdlgen.generate"]),
    "vhdlgen.audit_s": ("s", lambda s: s["inclusive"]["vhdlgen.structural_audit"]),
    "vhdlgen.bytes": ("bytes", lambda s: s["counts"]["vhdlgen.bytes"]),
    "cli.pass_s": ("s", lambda s: s["pass_s"]),
}


@dataclass
class Op:
    """One command of a pass; ``outputs`` are the files it writes."""

    command: str
    spec: families.Model
    argv: list[str]
    expect: int
    outputs: list[Path] = field(default_factory=list)
    encoding: str | None = None


def reference_loop() -> float:
    """Seconds taken by a fixed loop of dict, tuple and hash work; no cosma code.

    The collector is off during the loop, so that the objects a command leaves
    behind do not make the loop slower.
    """
    gc.disable()
    try:
        started = perf_counter()
        counts: dict[tuple[int, int], int] = {}
        acc = 0
        for i in range(REF_ITERATIONS):
            key = (i & 1023, i >> 10)
            counts[key] = counts.get(key, 0) + 1
            acc ^= hash(key)
        return perf_counter() - started
    finally:
        gc.enable()


def import_cosma():
    """Import cosma from this checkout's ``src/`` afresh and return its modules."""
    for name in [n for n in sys.modules if n == "cosma" or n.startswith("cosma.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cosma = importlib.import_module("cosma")
    if Path(cosma.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"cosma was imported from {cosma.__file__}, not from {SRC}")
    modules = {name: importlib.import_module(f"cosma.{name}") for name in MODULES}
    modules["assets"] = importlib.import_module("cosma.assets")
    return cosma, modules


def build_models(workload: str, namer: families.Namer, assets, sizes: dict):
    """The workload's models and how many times a pass runs each of them."""
    if workload == "tlc-batch":
        names = ("tlc.csm", "tlc_car.csm", "tlc_queries.tq")
        return families.tlc_models(namer, *(assets.text(n) for n in names)), sizes["repeat"]
    return [getattr(families, family)(namer, size) for family, size in sizes.items()], 1


def write_ops(specs, repeat: int, workdir: Path) -> list[Op]:
    """Write every model and query file; list the commands of one pass."""
    workdir.mkdir(parents=True, exist_ok=True)
    ops = []
    for spec in specs:
        model_path = workdir / f"{spec.key}.csm"
        query_path = workdir / f"{spec.key}.tq"
        model_path.write_text(spec.text, encoding="utf-8")
        query_path.write_text(spec.queries, encoding="utf-8")
        for rep in range(repeat):
            out = workdir / f"{spec.key}-{rep}"
            json_path, dot_path = Path(f"{out}.json"), Path(f"{out}.dot")
            ops += [
                Op("lint", spec, ["lint", str(model_path)], 0),
                Op("rg", spec, ["rg", str(model_path), "--engine", "both", "--json",
                                str(json_path), "--dot", str(dot_path)], 0, [json_path, dot_path]),
                Op("check", spec, ["check", str(model_path), "--queries", str(query_path),
                                   "--json"], spec.check_exit),
            ]
            for encoding in ("binary", "onehot"):
                vhd = Path(f"{out}-{encoding}.vhd")
                ops.append(Op("vhdl", spec, ["vhdl", str(model_path), "--state-encoding",
                                             encoding, "-o", str(vhd)], 0, [vhd], encoding))
    return ops


def set_up(workload: str, seed: int, sizes: dict):
    """Import cosma and write the workload's files, ``SETUP_REPEATS`` times.

    Returns the median scaled and raw set-up times, then what set-up made.
    """
    scaled, raw = [], []
    before = reference_loop()
    for _ in range(SETUP_REPEATS):
        started = perf_counter()
        cosma, modules = import_cosma()
        specs, repeat = build_models(workload, families.Namer(seed), modules["assets"], sizes)
        ops = write_ops(specs, repeat, WORK / workload)
        took = perf_counter() - started
        after = reference_loop()
        raw.append(took)
        scaled.append(took * 2 * REF_S / (before + after))
        before = after
    return statistics.median(scaled), statistics.median(raw), cosma, modules, specs, ops


def run_pass(cli, ops: list[Op]):
    """Run every command once; returns scaled and raw seconds per command, and outputs.

    Each command's time is scaled by the mean of the reference loop's times
    just before and just after it.
    """
    scaled = dict.fromkeys(COMMANDS, 0.0)
    raw = dict.fromkeys(COMMANDS, 0.0)
    captured = []
    before = reference_loop()
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            code = cli.main(op.argv)
            took = perf_counter() - t0
        after = reference_loop()
        raw[op.command] += took
        scaled[op.command] += took * 2 * REF_S / (before + after)
        before = after
        captured.append((code, out.getvalue(), err.getvalue()))
    return scaled, raw, captured


def read_outputs(ops: list[Op], captured) -> list[tuple]:
    """Each command's exit code, stdout and written files, for comparison."""
    return [
        (code, stdout, tuple(path.read_bytes() for path in op.outputs))
        for op, (code, stdout, _) in zip(ops, captured)
    ]


def check_first_pass(cosma, ops: list[Op], outputs) -> list[list[str]]:
    """Problems found in each command's output of the first pass."""
    problems = []
    systems = {}
    for op, (code, stdout, files) in zip(ops, outputs):
        spec = op.spec
        if spec.key not in systems:
            systems[spec.key] = cosma.frontend.parse_system(spec.text, spec.key).system
        system = systems[spec.key]
        found = [f"exit code {code}, expected {op.expect}"] if code != op.expect else []
        try:
            if op.command == "lint":
                found += checks.check_lint(spec, stdout)
            elif op.command == "rg":
                found += checks.check_rg(spec, system, cosma, stdout, files[0].decode(),
                                         files[1].decode())
            elif op.command == "check":
                found += checks.check_verdicts(spec, system, cosma, stdout)
            else:
                found += checks.check_vhdl(spec, op.encoding, stdout, files[0].decode())
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            found.append(f"output could not be read: {exc!r}")
        problems.append(found)
    return problems


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
                 sizes: dict | None = None) -> tuple[dict, dict]:
    """Set up, run passes for ``seconds``, check; returns the result and run facts."""
    if sizes is None:
        sizes = WORKLOADS[workload][1 if smoke else 0]
    setup_s, raw_setup_s, cosma, modules, specs, ops = set_up(workload, seed, sizes)
    cli = modules["cli"]
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install(modules)

    passes, raw_passes, layers, first = [], [], [], None
    changed = [0] * len(ops)  # passes in which each command's output differed from the first
    lo = 0
    started = perf_counter()
    try:
        while len(passes) < MIN_PASSES or perf_counter() - started < seconds:
            gc.collect()
            lo = len(tracer) if tracer is not None else 0
            scaled, raw, captured = run_pass(cli, ops)
            if tracer is not None:
                summary = tracer.summarize(lo, len(tracer))
                summary.update(counts=tracer.take_counts(), pass_s=sum(scaled.values()))
                layers.append(summary)
            passes.append({**scaled, "wall": sum(scaled.values())})
            raw_passes.append({**raw, "wall": sum(raw.values())})
            outputs = read_outputs(ops, captured)
            if first is None:
                first = outputs
                for op, (code, _, stderr) in zip(ops, captured):
                    if code != op.expect:
                        print(f"{' '.join(op.argv[:2])}: {stderr.strip()[-300:]}", file=sys.stderr)
            for i, output in enumerate(outputs):
                changed[i] += output != first[i]
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = check_first_pass(cosma, ops, first)
    for op, found, differed in zip(ops, problems, changed):
        for problem in found + ([f"output changed in {differed} passes"] if differed else []):
            print(f"{' '.join(op.argv[:2])}: {problem}", file=sys.stderr)
    attempted = len(ops) * len(passes)
    failed = sum(len(passes) if found else differed for found, differed in zip(problems, changed))

    if tracer is not None:
        tracer.write(WORK / f"spans-{workload}.tsv", lo, len(tracer))
        # counts repeat exactly from pass to pass; the low median keeps them whole
        metrics = {
            name: {"value": (statistics.median if unit == "s" else statistics.median_low)(
                [read(s) for s in layers]), "unit": unit}
            for name, (unit, read) in PER_LAYER.items()
        }
    else:
        first_exports = sum(len(f) for op, out in zip(ops, first) if op.command == "rg"
                            for f in out[2])
        values = {
            "setup_s": setup_s,
            **{f"{c}_s": statistics.median(p[c] for p in passes) for c in COMMANDS},
            "wall_s": statistics.median(p["wall"] for p in passes),
            "peak_rss_mb": peak_rss_mb,
            "export_bytes": first_exports,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    info = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "backend": cosma.robdd.BACKEND,
        "python": platform.python_version(),
        "passes": len(passes),
        "commands_per_pass": len(ops),
        "models": {
            spec.key: {"machines": len(spec.machine_states), "states": sum(spec.machine_states),
                       "reachable": spec.reachable, "model_bytes": len(spec.text.encode())}
            for spec in specs
        },
    }
    raw_medians = {f"{c}_s": statistics.median(p[c] for p in raw_passes)
                   for c in (*COMMANDS, "wall")}
    info["raw_s"] = {"setup_s": raw_setup_s, **raw_medians}
    (WORK / f"result-{workload}-{seed}-trace{int(trace)}.json").write_text(
        json.dumps({"info": info, "passes": passes, "raw_passes": raw_passes,
                    "metrics": metrics}, indent=1) + "\n",
        encoding="utf-8")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, info


def smoke() -> int:
    """Every workload at its smallest size, untraced and traced, with all checks."""
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            result, _ = run_workload(workload, seed=0, seconds=0, trace=trace, smoke=True)
            metrics = result["metrics"]
            missing = [n for n, m in metrics.items() if not m["value"]]
            good = result["correct"] and not result["failed"] and not missing
            ok &= good
            print(f"{workload} trace={int(trace)}: {'ok' if good else 'FAILED'}"
                  f" ({result['attempted']} commands, {result['failed']} failed"
                  f"{', zero: ' + ', '.join(missing) if missing else ''})")
    return 0 if ok else 1


SWEEP = {
    "cycle": ("deep", [100, 200, 400, 800]),
    "ring": ("deep", [25, 50, 100, 200]),
    "toggles": ("wide", [4, 5, 6, 7]),
    "parallel": ("wide", [5, 6, 7, 8]),
    "kguard": ("wide", [12, 14, 16, 18]),
}
SWEEP_COLUMNS = ["lint_s", "rg_s", "check_s", "vhdl_s", "reach.explicit_s", "reach.symbolic_s",
                 "reach.export_s", "formula.sat_s", "mc.check_query_s", "mc.check_ctl_s",
                 "vhdlgen.audit_s", "reach.edges", "reach.image_steps", "formula.evaluate_calls"]


def sweep() -> int:
    """Markdown table of one traced and one untraced pass per family and size."""
    print("| family | size | " + " | ".join(SWEEP_COLUMNS) + " |")
    print("|---" * (len(SWEEP_COLUMNS) + 2) + "|")
    for family, (workload, sizes) in SWEEP.items():
        for size in sizes:
            row = {}
            for trace in (False, True):
                result, _ = run_workload(workload, 0, 0, trace, sizes={family: size})
                row.update({k: m["value"] for k, m in result["metrics"].items()})
            cells = [f"{row[c]:.3f}" if isinstance(row[c], float) else str(row[c])
                     for c in SWEEP_COLUMNS]
            print(f"| {family} | {size} | " + " | ".join(cells) + " |", flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--sweep", action="store_true")
    args = parser.parse_args(argv)
    try:
        import_cosma()
    except ImportError as exc:
        print(f"cannot import cosma from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.sweep:
        return sweep()
    if args.workload is None:
        parser.error("--workload is required")
    result, info = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
