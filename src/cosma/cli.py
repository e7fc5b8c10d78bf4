"""Command-line interface.

Subcommands: ``lint`` (parse + validate), ``rg`` (reachability graph),
``check`` (temporal requirements), ``vhdl`` (code generation), and
``examples`` (emit the bundled benchmark files).  Each call builds only the
named command's parser.

Exit codes: 0 success / all checks pass, 1 some query verdict is false,
2 parse or validation error (diagnostics on stderr), 3 internal invariant
violation (engine mismatch, audit failure).  ``COSMA_COLOR=1`` forces ANSI
colors on, ``COSMA_COLOR=0`` off; by default each stream is colored when it
is a terminal.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from cosma import assets, frontend, mc, reach, vhdlgen

EXIT_OK = 0
EXIT_QUERY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_INTERNAL = 3


def _style(text: str, code: str, stream=None) -> str:
    """``text`` in ANSI color ``code`` when ``stream`` (by default the
    current ``sys.stderr``) is a terminal, or when ``COSMA_COLOR`` says so."""
    flag = os.environ.get("COSMA_COLOR")
    if flag in ("0", "1"):
        on = flag == "1"
    else:
        on = (sys.stderr if stream is None else stream).isatty()
    return f"\x1b[{code}m{text}\x1b[0m" if on else text


_SEVERITY_STYLE = {"error": "31", "warning": "33"}


def _print_diagnostics(diagnostics) -> None:
    for diag in diagnostics:
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


def _load_system(path: str, errors_only: bool = True) -> frontend.ParseResult:
    """Parse and validate a model file and print its diagnostics.  The result's
    system is None on error, also when the file cannot be read.

    With ``errors_only``, as ``rg``, ``check`` and ``vhdl`` ask, the parse
    computes and prints the structural errors alone; the guard analysis runs
    only when something reads ``System.report`` later, as ``vhdl``'s
    overlap comments do.
    """
    text = _read(path)
    if text is None:
        return frontend.ParseResult(None)
    result = frontend.parse_system(text, filename=path, errors_only=errors_only)
    _print_diagnostics(result.diagnostics)
    return result


def _plural(count: int, word: str) -> str:
    return f"{count} {word}" + ("" if count == 1 else "s")


# -- subcommands ---------------------------------------------------------------


def cmd_lint(args) -> int:
    system = _load_system(args.model, errors_only=False).system
    if system is None:
        return EXIT_INPUT_ERROR
    print(
        f"{system.name}: {_plural(len(system.machines), 'machine')}, "
        f"{len(system.report.errors)} errors, {len(system.report.warnings)} warnings"
    )
    return EXIT_OK


def cmd_rg(args) -> int:
    system = _load_system(args.model).system
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
    system = _load_system(args.model).system
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
        doc = {"model": system.name,
               "queries": [{"name": name, **verdict.as_json(graph)} for name, verdict in results],
               "all_hold": not failures}
        print(json.dumps(doc, indent=2))
    else:
        for name, verdict in results:
            if verdict.holds:
                word = _style("true", "32", sys.stdout)
                suffix = " (vacuous)" if verdict.vacuous else ""
            else:
                word = _style("FALSE", "31", sys.stdout)
                suffix = ""
            print(f"{name}: {word}{suffix}")
            if not verdict.holds and verdict.trace:
                for step in verdict.trace:
                    env = "-" if step.env is None else "{" + ", ".join(sorted(step.env)) + "}"
                    print(f"    at {graph.node_name(step.node)} env {env}")
        held = len(results) - len(failures)
        print(f"{held}/{len(results)} queries hold")
    return EXIT_OK if not failures else EXIT_QUERY_FAILED


def _parse_encoding(text: str) -> str | int:
    """``binary``, ``onehot``, or the width N of ``width:N`` as an int."""
    if text in ("binary", "onehot"):
        return text
    if text.startswith("width:"):
        try:
            return int(text.removeprefix("width:"))
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(
        f"bad state encoding {text!r}: use binary, onehot, or width:N"
    )


def cmd_vhdl(args) -> int:
    parsed = _load_system(args.model)
    system = parsed.system
    if system is None:
        return EXIT_INPUT_ERROR
    encoding = args.state_encoding
    # the options' own checks, worded for the command line
    if isinstance(encoding, int) and encoding < 1:
        return _input_error(f"--state-encoding width:{encoding}: the width must be at least 1")
    if args.delay_ns < 0:
        return _input_error(f"--delay-ns {args.delay_ns}: the delay must be nonnegative")
    try:
        opts = vhdlgen.CodegenOptions(state_encoding=encoding, delay_ns=args.delay_ns,
                                      clock=args.clock, entity_name=args.entity)
        text = vhdlgen.generate(system, opts)
    except vhdlgen.VhdlGenError as exc:
        span = None if exc.place is None else parsed.place(*exc.place)
        _print_diagnostics([frontend.ParseDiagnostic("error", str(exc), span)])
        return EXIT_INPUT_ERROR
    problems = vhdlgen.structural_audit(text, system)
    for problem in problems:
        print(f"{_style('audit failure', '31')}: {problem}", file=sys.stderr)
    if problems:
        return EXIT_INTERNAL
    if args.output:
        if not _write(args.output, text):
            return EXIT_INPUT_ERROR
        # the audit passed, so there is one process per machine
        noun = "process" if len(system.machines) == 1 else "processes"
        print(f"wrote {args.output} ({len(system.machines)} {noun})")
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


def _rg_arguments(p) -> None:
    p.add_argument("model")
    p.add_argument("--engine", choices=("explicit", "bdd", "both"), default="both")
    p.add_argument("--dot", metavar="PATH", help="write a Graphviz rendering")
    p.add_argument("--json", metavar="PATH", help="write a JSON dump of nodes and edges")


def _check_arguments(p) -> None:
    p.add_argument("model")
    p.add_argument("--queries", metavar="PATH", required=True)
    p.add_argument("--json", action="store_true", help="machine-readable verdicts on stdout")


def _vhdl_arguments(p) -> None:
    p.add_argument("model")
    p.add_argument("-o", "--output", metavar="PATH")
    p.add_argument("--state-encoding", type=_parse_encoding, default="binary",
                   metavar="binary|onehot|width:N")
    p.add_argument("--delay-ns", type=int, default=10, metavar="N")
    p.add_argument("--clock", action="store_true",
                   help="wait on a rising Clk edge instead of a fixed delay")
    p.add_argument("--entity", metavar="NAME", help="entity name (default: system name)")


# name -> (help, handler, the function that adds the command's arguments)
_COMMANDS = {
    "lint": ("parse and validate a model", cmd_lint, lambda p: p.add_argument("model")),
    "rg": ("build the reachability graph", cmd_rg, _rg_arguments),
    "check": ("verify temporal requirements", cmd_check, _check_arguments),
    "vhdl": ("generate VHDL", cmd_vhdl, _vhdl_arguments),
    "examples": ("list or emit the bundled benchmark files", cmd_examples,
                 lambda p: p.add_argument("--emit", metavar="DIR")),
}


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The top parser and that of the command ``argv`` names exactly, or all five if none."""
    parser = argparse.ArgumentParser(prog="cosma", description="concurrent state machine toolkit: "
                                     "lint, reachability, temporal checks, VHDL generation")
    names = [argv[0]] if argv and argv[0] in _COMMANDS else list(_COMMANDS)
    # one command's metavar keeps the top usage line that "unrecognized arguments" prints
    metavar = "{" + ",".join(_COMMANDS) + "}" if len(names) == 1 else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_text, handler, add_arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv).parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 (invariant violations surface as code 3)
        # the type names an exception without a message, such as a bare assert
        what = f"{type(exc).__name__}: {exc}" if str(exc) else type(exc).__name__
        print(f"{_style('internal error', '31')}: {what}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
