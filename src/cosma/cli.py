"""Command-line interface.

Subcommands: ``lint`` (parse + validate), ``rg`` (reachability graph),
``check`` (temporal requirements), ``vhdl`` (code generation), and
``examples`` (emit the bundled benchmark files).

Exit codes: 0 success / all checks pass, 1 some query verdict is false,
2 parse or validation error (diagnostics on stderr), 3 internal invariant
violation (engine mismatch, audit failure).  ``COSMA_COLOR=1`` forces ANSI
colors on, ``COSMA_COLOR=0`` off; the default follows stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from cosma import assets, frontend, mc, model, reach, vhdlgen

EXIT_OK = 0
EXIT_QUERY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_INTERNAL = 3


def _color_enabled() -> bool:
    flag = os.environ.get("COSMA_COLOR")
    if flag == "1":
        return True
    if flag == "0":
        return False
    return sys.stdout.isatty()


def _style(text: str, code: str) -> str:
    if _color_enabled():
        return f"\x1b[{code}m{text}\x1b[0m"
    return text


_SEVERITY_STYLE = {"error": "31", "warning": "33"}


def _print_diagnostics(diagnostics, errors_only: bool = False) -> None:
    for diag in diagnostics:
        if errors_only and diag.severity != "error":
            continue
        where = f"{diag.span}: " if diag.span else ""
        label = _style(diag.severity, _SEVERITY_STYLE.get(diag.severity, "0"))
        print(f"{where}{label}: {diag.message}", file=sys.stderr)


def _input_error(message: str) -> int:
    """Report a problem with the user's input, such as a file that cannot be
    read or written."""
    print(f"{_style('error', '31')}: {message}", file=sys.stderr)
    return EXIT_INPUT_ERROR


def _write(path, text: str) -> bool:
    """Write ``text`` to ``path``; on failure report it and return False."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        _input_error(f"cannot write {path}: {exc}")
        return False
    return True


def _read(path: str) -> str | None:
    """A model or query file's text (``frontend.decode``), or None after reporting why not."""
    try:
        return frontend.decode(Path(path).read_bytes(), path)
    except OSError as exc:
        _input_error(f"cannot read {path}: {exc}")
    except frontend.ParseError as exc:
        _print_diagnostics([frontend.ParseDiagnostic("error", exc.message, exc.span)])
    return None


def _load_system(path: str, errors_only: bool = True) -> model.System | None:
    """Parse and validate a model file and print its diagnostics; None on error."""
    text = _read(path)
    if text is None:
        return None
    result = frontend.parse_system(text, filename=path)
    _print_diagnostics(result.diagnostics, errors_only)
    return result.system


def _plural(count: int, word: str) -> str:
    return f"{count} {word}" + ("" if count == 1 else "s")


# -- subcommands ---------------------------------------------------------------


def cmd_lint(args) -> int:
    system = _load_system(args.model, errors_only=False)
    if system is None:
        return EXIT_INPUT_ERROR
    print(
        f"{system.name}: {_plural(len(system.machines), 'machine')}, "
        f"{len(system.report.errors)} errors, {len(system.report.warnings)} warnings"
    )
    return EXIT_OK


def cmd_rg(args) -> int:
    system = _load_system(args.model)
    if system is None:
        return EXIT_INPUT_ERROR

    print(f"model: {system.name} ({_plural(len(system.machines), 'machine')}, "
          f"{system.product_size()} product states)")

    graph = None
    explicit_count = symbolic_count = None
    if args.engine in ("explicit", "both"):
        graph = reach.build_rg_explicit(system)
        explicit_count = len(graph)
        print(f"explicit: {_plural(explicit_count, 'reachable state')}, "
              f"{_plural(len(graph.edges), 'edge')}")
        if graph.quiescent:
            names = ", ".join(graph.node_name(i) for i in sorted(graph.quiescent))
            print(f"quiescent nodes: {names}")
    if args.engine in ("bdd", "both"):
        symbolic = reach.build_rg_symbolic(system)
        symbolic_count = symbolic.count
        print(f"symbolic: {_plural(symbolic_count, 'reachable state')}")

    if args.engine == "both":
        problem = None
        if explicit_count != symbolic_count:
            problem = f"explicit found {explicit_count}, symbolic found {symbolic_count}"
        else:
            # equal sizes: the sets are equal when the symbolic one holds every explicit node
            missing = next((i for i, gstate in enumerate(graph.nodes)
                            if not symbolic.contains(gstate)), None)
            if missing is not None:
                problem = f"explicit state {graph.node_name(missing)} is not in the symbolic set"
        if problem:
            print(_style("engine mismatch", "31") + f": {problem}", file=sys.stderr)
            return EXIT_INTERNAL

    if args.dot or args.json:
        if graph is None:
            graph = reach.build_rg_explicit(system)
        if args.dot:
            if not _write(args.dot, reach.to_dot(graph)):
                return EXIT_INPUT_ERROR
            print(f"wrote {args.dot}")
        if args.json:
            if not _write(args.json, reach.json_text(graph)):
                return EXIT_INPUT_ERROR
            print(f"wrote {args.json}")
    return EXIT_OK


def cmd_check(args) -> int:
    system = _load_system(args.model)
    if system is None:
        return EXIT_INPUT_ERROR
    qtext = _read(args.queries)
    if qtext is None:
        return EXIT_INPUT_ERROR
    qresult = frontend.parse_queries(qtext, system=system, filename=args.queries)
    _print_diagnostics(qresult.diagnostics)
    if not qresult.ok:
        return EXIT_INPUT_ERROR

    graph = reach.build_rg_explicit(system)
    try:
        results = mc.check_suite(graph, qresult.queries)
    except mc.QueryError as exc:
        return _input_error(str(exc))

    failures = [name for name, verdict in results if not verdict.holds]
    if args.json:
        doc = {
            "model": system.name,
            "queries": [
                {"name": name, **verdict.as_json(graph)} for name, verdict in results
            ],
            "all_hold": not failures,
        }
        print(json.dumps(doc, indent=2))
    else:
        for name, verdict in results:
            if verdict.holds:
                word = _style("true", "32")
                suffix = " (vacuous)" if verdict.vacuous else ""
            else:
                word = _style("FALSE", "31")
                suffix = ""
            print(f"{name}: {word}{suffix}")
            if not verdict.holds and verdict.trace:
                for step in verdict.trace:
                    env = "-" if step.env is None else "{" + ", ".join(sorted(step.env)) + "}"
                    print(f"    at {graph.node_name(step.node)} env {env}")
        held = len(results) - len(failures)
        print(f"{held}/{len(results)} queries hold")
    return EXIT_OK if not failures else EXIT_QUERY_FAILED


def _parse_encoding(text: str):
    if text == "binary":
        return "binary", None
    if text == "onehot":
        return "onehot", None
    if text.startswith("width:"):
        try:
            return "width", int(text.split(":", 1)[1])
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(
        f"bad state encoding {text!r}: use binary, onehot, or width:N"
    )


def cmd_vhdl(args) -> int:
    system = _load_system(args.model)
    if system is None:
        return EXIT_INPUT_ERROR
    encoding, width = args.state_encoding
    # the options' own checks, worded for the command line
    if encoding == "width" and width < 1:
        return _input_error(f"--state-encoding width:{width}: the width must be at least 1")
    if args.delay_ns < 0:
        return _input_error(f"--delay-ns {args.delay_ns}: the delay must be nonnegative")
    try:
        opts = vhdlgen.CodegenOptions(
            state_encoding=encoding,
            explicit_width=width,
            delay_ns=args.delay_ns,
            clock=args.clock,
            entity_name=args.entity,
        )
        text = vhdlgen.generate(system, opts)
    except vhdlgen.VhdlGenError as exc:
        return _input_error(str(exc))
    audit = vhdlgen.structural_audit(text, system)
    if not audit.ok:
        for problem in audit.problems:
            print(f"{_style('audit failure', '31')}: {problem}", file=sys.stderr)
        return EXIT_INTERNAL
    if args.output:
        if not _write(args.output, text):
            return EXIT_INPUT_ERROR
        noun = "process" if audit.process_count == 1 else "processes"
        print(f"wrote {args.output} ({audit.process_count} {noun})")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_examples(args) -> int:
    if not args.emit:
        for name in assets.NAMES:
            print(name)
        return EXIT_OK
    target = Path(args.emit)
    try:
        target.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _input_error(f"cannot write {target}: {exc}")
    for name in assets.NAMES:
        path = target / name
        if not _write(path, assets.text(name)):
            return EXIT_INPUT_ERROR
        print(f"wrote {path}")
    return EXIT_OK


# -- entry point ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cosma",
        description="concurrent state machine toolkit: lint, reachability, "
        "temporal checks, VHDL generation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lint", help="parse and validate a model")
    p.add_argument("model")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser("rg", help="build the reachability graph")
    p.add_argument("model")
    p.add_argument("--engine", choices=("explicit", "bdd", "both"), default="both")
    p.add_argument("--dot", metavar="PATH", help="write a Graphviz rendering")
    p.add_argument("--json", metavar="PATH", help="write a JSON dump of nodes and edges")
    p.set_defaults(func=cmd_rg)

    p = sub.add_parser("check", help="verify temporal requirements")
    p.add_argument("model")
    p.add_argument("--queries", metavar="PATH", required=True)
    p.add_argument("--json", action="store_true", help="machine-readable verdicts on stdout")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("vhdl", help="generate VHDL")
    p.add_argument("model")
    p.add_argument("-o", "--output", metavar="PATH")
    p.add_argument(
        "--state-encoding",
        type=_parse_encoding,
        default=("binary", None),
        metavar="binary|onehot|width:N",
    )
    p.add_argument("--delay-ns", type=int, default=10, metavar="N")
    p.add_argument("--clock", action="store_true",
                   help="wait on a rising Clk edge instead of a fixed delay")
    p.add_argument("--entity", metavar="NAME", help="entity name (default: system name)")
    p.set_defaults(func=cmd_vhdl)

    p = sub.add_parser("examples", help="list or emit the bundled benchmark files")
    p.add_argument("--emit", metavar="DIR")
    p.set_defaults(func=cmd_examples)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 (invariant violations surface as code 3)
        # the type names an exception without a message, such as a bare assert
        what = f"{type(exc).__name__}: {exc}" if str(exc) else type(exc).__name__
        print(f"{_style('internal error', '31')}: {what}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
