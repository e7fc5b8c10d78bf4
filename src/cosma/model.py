"""System model: machines with guarded arcs and state-attributed outputs.

A machine is a Moore-style automaton: each state carries the set of symbols
it emits while current, and each arc carries a guard formula.  A system is
an ordered list of machines, and its symbols are the ones they emit and
their guards read; the machine order fixes the positions of the
global-state vector.

Step semantics: all machines move synchronously.  In one global step every
machine picks one arc enabled under the common valuation (the union of all
current states' outputs plus whatever environment symbols occur), or stays
put when none is enabled.  Because a state's own outputs are part of the
valuation used to leave it, a machine's output can feed back into its own
guards.  Outputs are levels, not pulses: a symbol holds exactly while its
producing state is current.
"""

from __future__ import annotations

import functools
import itertools
from typing import AbstractSet, Sequence

from cosma import formula as F


class State(F.Record):
    """A machine state; ``outputs`` are emitted while the state is current."""

    __slots__ = ("name", "outputs")

    def __init__(self, name: str, outputs: frozenset = frozenset()):
        self.name = name
        self.outputs = outputs


class Arc(F.Record):
    """Directed arc ``src -> dst`` enabled when ``guard`` is true.

    ``src == dst`` is a stay condition: the machine remains in the state.
    """

    __slots__ = ("src", "dst", "guard")

    def __init__(self, src: str, dst: str, guard: F.BoolExpr):
        self.src = src
        self.dst = dst
        self.guard = guard


GlobalState = tuple  # one state index per machine, in machine order


class Machine:
    """An ordered list of states, an initial state, and guarded arcs."""

    def __init__(self, name: str, states: Sequence[State], initial: str, arcs: Sequence[Arc]):
        self.name = name
        self.states = tuple(states)
        self.initial = initial
        self.arcs = tuple(arcs)
        self._index = {}
        for i, state in enumerate(self.states):
            self._index.setdefault(state.name, i)
        arcs_from = {i: [] for i in range(len(self.states))}
        for arc in self.arcs:
            i = self._index.get(arc.src)
            if i is not None:
                arcs_from[i].append(arc)
        self._arcs_from = {i: tuple(lst) for i, lst in arcs_from.items()}

    def state_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"machine {self.name!r} has no state {name!r}") from None

    @property
    def initial_index(self) -> int:
        return self.state_index(self.initial)

    def arcs_from(self, state_idx: int):
        """Outgoing arcs of a state, in declaration order."""
        return self._arcs_from.get(state_idx, ())

    def __repr__(self):
        return f"Machine({self.name!r}, {len(self.states)} states)"


class System:
    """A named, ordered collection of machines over the symbols they mention."""

    def __init__(self, name: str, machines: Sequence[Machine]):
        self.name = name
        self.machines = tuple(machines)

    def initial_state(self) -> GlobalState:
        return tuple(m.initial_index for m in self.machines)

    def product_size(self) -> int:
        size = 1
        for m in self.machines:
            size *= len(m.states)
        return size

    def produced_symbols(self) -> frozenset:
        return self._produced_symbols

    def guard_symbols(self) -> frozenset:
        return self._guard_symbols

    # machines, states and arcs are tuples that nothing reassigns, so each
    # of these is computed once per system
    @functools.cached_property
    def symbols(self) -> tuple:
        """Every symbol the machines mention: first those their guards read,
        by first mention (machine by machine, arc by arc, left to right),
        then the other outputs by name."""
        return self._guards_read + tuple(sorted(self._produced_symbols - self._guard_symbols))

    @functools.cached_property
    def _produced_symbols(self) -> frozenset:
        return frozenset().union(*(s.outputs for m in self.machines for s in m.states))

    @functools.cached_property
    def _guard_symbols(self) -> frozenset:
        return frozenset(self._guards_read)

    @functools.cached_property
    def _guards_read(self) -> tuple:
        first = {}  # a key keeps the place of its first insertion
        stack = [arc.guard for m in reversed(self.machines) for arc in reversed(m.arcs)]
        while stack:
            e = stack.pop()
            if isinstance(e, F.Symbol):
                first[e] = None
            elif isinstance(e, F.Not):
                stack.append(e.operand)
            elif isinstance(e, (F.And, F.Or)):
                stack.extend(reversed(e.operands))
        return tuple(first)

    @functools.cached_property
    def structure(self) -> LintReport:
        """``check_structure(self)``: the report's errors and its
        ``shared-output`` warnings, without the guard analysis.  A system
        without errors here is safe to analyze; ``validate`` builds on it."""
        return check_structure(self)

    @functools.cached_property
    def report(self) -> LintReport:
        """``validate(self)``: every finding, the guard analysis's included;
        read by those that print or use its warnings (``lint``, and ``vhdl``'s
        overlap comments)."""
        # looked up when called, so a wrapper put on model.validate (as
        # perfbench's tracer does) sees every validation
        return validate(self)

    def __repr__(self):
        return f"System({self.name!r}, {len(self.machines)} machines)"


def env_alphabet(system: System) -> frozenset:
    """Symbols consumed by guards but produced by no machine.

    Their valuation is unconstrained: at any step any combination of them
    may occur, including none.
    """
    return system.guard_symbols() - system.produced_symbols()


def declaration_order(system: System, symbols) -> list:
    """The given symbols in the order of ``system.symbols``.

    Symbols the system does not mention, which can only come from
    requirement files, follow at the end sorted by name.
    """
    wanted = frozenset(symbols)
    ordered = [s for s in system.symbols if s in wanted]
    return ordered + sorted(wanted.difference(ordered))


def output_valuation(system: System, gstate: GlobalState) -> frozenset:
    """Union of the outputs of every machine's current state."""
    out = set()
    for machine, idx in zip(system.machines, gstate):
        out |= machine.states[idx].outputs
    return frozenset(out)


def enabled_arcs(machine: Machine, state_idx: int, valuation: AbstractSet) -> list[Arc]:
    """Arcs out of the state whose guard is true under ``valuation``.

    Declaration order is kept; when several arcs are enabled the step
    semantics picks one of them nondeterministically.
    """
    return [arc for arc in machine.arcs_from(state_idx) if F.evaluate(arc.guard, valuation)]


def step_successors(system: System, gstate: GlobalState, env_true: AbstractSet) -> list[GlobalState]:
    """All global states one synchronous step can reach.

    ``env_true`` is the set of environment symbols occurring in this step;
    the common valuation adds the current outputs.  A machine with no
    enabled arc stays in its state (implicit self-loop).
    """
    valuation = output_valuation(system, gstate) | frozenset(env_true)
    per_machine = []
    for machine, idx in zip(system.machines, gstate):
        enabled = enabled_arcs(machine, idx, valuation)
        if enabled:
            targets = []
            for arc in enabled:
                t = machine.state_index(arc.dst)
                if t not in targets:
                    targets.append(t)
        else:
            targets = [idx]
        per_machine.append(targets)
    return [tuple(choice) for choice in itertools.product(*per_machine)]


class LintEntry(F.Record):
    """One finding, placed by position: ``machine`` indexes
    ``system.machines``, ``state`` that machine's ``states`` and ``arc`` its
    ``arcs``.  Each is None when the finding is not about one, as an
    environment note is about no machine."""

    __slots__ = ("severity", "code", "message", "machine", "state", "arc")

    def __init__(self, severity: str, code: str, message: str, machine: int | None = None,
                 state: int | None = None, arc: int | None = None):
        self.severity = severity  # "error" | "warning"
        self.code = code
        self.message = message
        self.machine = machine
        self.state = state
        self.arc = arc


class LintReport(F.Record):
    __slots__ = ("entries",)
    __hash__ = None  # entries are added

    def __init__(self, entries: list[LintEntry] | None = None):
        self.entries = [] if entries is None else entries

    @property
    def errors(self) -> list[LintEntry]:
        return [e for e in self.entries if e.severity == "error"]

    @property
    def warnings(self) -> list[LintEntry]:
        return [e for e in self.entries if e.severity == "warning"]

    @property
    def ok(self) -> bool:
        return not self.errors

    def add(self, severity, code, message, machine=None, state=None, arc=None):
        self.entries.append(LintEntry(severity, code, message, machine, state, arc))


def check_structure(system: System) -> LintReport:
    """The structural checks; pure, so equal systems give identical reports.

    Errors make the model unusable: duplicate names, a machine without
    states, a bad initial state, an arc endpoint that is not a state.  The
    only warning is a symbol produced by two machines.  Each entry gives
    the index of its machine; a repeated state also gives the repeat's
    index, and a bad arc the arc's.  Every entry is in the place it has in
    ``validate``'s report, and the errors are all of that report's errors.
    """
    report = LintReport()

    seen_machines = set()
    for m, machine in enumerate(system.machines):
        if machine.name in seen_machines:
            report.add("error", "duplicate-machine", f"duplicate machine name {machine.name!r}",
                       machine=m)
        seen_machines.add(machine.name)

    produced_by: dict = {}
    for m, machine in enumerate(system.machines):
        names = set()
        for idx, state in enumerate(machine.states):
            if state.name in names:
                report.add(
                    "error",
                    "duplicate-state",
                    f"duplicate state {state.name!r} in machine {machine.name!r}",
                    machine=m,
                    state=idx,
                )
            names.add(state.name)
            for sym in sorted(state.outputs):
                prev = produced_by.get(sym)
                if prev is not None and prev != machine.name:
                    report.add(
                        "warning",
                        "shared-output",
                        f"symbol {sym!r} is produced by machines {prev!r} and {machine.name!r}",
                        machine=m,
                    )
                produced_by[sym] = machine.name
        if not machine.states:
            report.add("error", "empty-machine", f"machine {machine.name!r} has no states",
                       machine=m)
            continue
        if machine.initial not in names:
            report.add(
                "error",
                "bad-initial",
                f"machine {machine.name!r}: initial state {machine.initial!r} does not exist",
                machine=m,
            )
        for a, arc in enumerate(machine.arcs):
            for endpoint, which in ((arc.src, "source"), (arc.dst, "target")):
                if endpoint not in names:
                    report.add(
                        "error",
                        "bad-arc",
                        f"machine {machine.name!r}: arc {which} {endpoint!r} is not a state",
                        machine=m,
                        arc=a,
                    )
    return report


def validate(system: System) -> LintReport:
    """Every finding on the system; pure, so equal systems give identical reports.

    It starts from ``system.structure``, the structural errors and warnings.
    When there are no errors, the guard analysis adds its warnings, which
    flag modeling smells: outgoing guards that do not cover all valuations
    (the machine may be forced to stay via the implicit self-loop), and
    overlapping guards (nondeterminism, often intended).  It checks coverage
    with one OR per state and overlap with one AND per pair of arcs, so it
    is quadratic in the arcs out of a state.  Notes on environment symbols
    come last.  A guard finding gives the indices of its machine and state.
    """
    report = LintReport(list(system.structure.entries))
    # guard coverage and overlap need satisfiability; skip when the
    # structure is already broken
    if report.errors:
        _env_notes(system, report)
        return report

    ctx = F.GuardContext(declaration_order(system, system.guard_symbols()))
    for m, machine in enumerate(system.machines):
        for idx, state in enumerate(machine.states):
            arcs = machine.arcs_from(idx)
            if not arcs:
                report.add(
                    "warning",
                    "coverage-gap",
                    f"machine {machine.name!r}, state {state.name!r}: no outgoing arcs; "
                    "every step keeps the machine here",
                    machine=m,
                    state=idx,
                )
                continue
            guards = [ctx.manager.from_expr(arc.guard) for arc in arcs]
            if not ctx.tautology(functools.reduce(ctx.manager.or_, guards)):
                report.add(
                    "warning",
                    "coverage-gap",
                    f"machine {machine.name!r}, state {state.name!r}: outgoing guards do not "
                    "cover all valuations; the machine stays when none is enabled",
                    machine=m,
                    state=idx,
                )
            for (a, ga), (b, gb) in itertools.combinations(zip(arcs, guards), 2):
                if ctx.satisfiable(ctx.manager.and_(ga, gb)):
                    report.add(
                        "warning",
                        "overlap",
                        f"machine {machine.name!r}, state {state.name!r}: guards "
                        f"{F.to_text(a.guard)!r} and {F.to_text(b.guard)!r} overlap "
                        "(nondeterministic choice)",
                        machine=m,
                        state=idx,
                    )

    _env_notes(system, report)
    return report


def _env_notes(system: System, report: LintReport) -> None:
    for sym in sorted(env_alphabet(system)):
        report.add(
            "warning",
            "env-symbol",
            f"symbol {sym!r} is never produced by any machine; "
            "treating it as an environment input",
        )
