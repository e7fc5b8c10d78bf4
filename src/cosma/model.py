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
    def report(self) -> LintReport:
        """``validate(self)``: every analysis of the system reads this one report."""
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
    __slots__ = ("severity", "code", "message", "machine", "state")

    def __init__(self, severity: str, code: str, message: str,
                 machine: str | None = None, state: str | None = None):
        self.severity = severity  # "error" | "warning"
        self.code = code
        self.message = message
        self.machine = machine
        self.state = state


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

    def add(self, severity, code, message, machine=None, state=None):
        self.entries.append(LintEntry(severity, code, message, machine, state))


def validate(system: System) -> LintReport:
    """Structural checks; pure, so equal systems give identical reports.

    Errors make the model unusable (dangling state names, duplicate names,
    bad initial).  Warnings flag modeling smells: a symbol produced by two
    machines, outgoing guards that do not cover all valuations (the machine
    may be forced to stay via the implicit self-loop), and overlapping
    guards (nondeterminism, often intended).
    """
    report = LintReport()

    seen_machines = set()
    for machine in system.machines:
        if machine.name in seen_machines:
            report.add("error", "duplicate-machine", f"duplicate machine name {machine.name!r}",
                       machine=machine.name)
        seen_machines.add(machine.name)

    produced_by: dict = {}
    for machine in system.machines:
        names = set()
        for state in machine.states:
            if state.name in names:
                report.add(
                    "error",
                    "duplicate-state",
                    f"duplicate state {state.name!r} in machine {machine.name!r}",
                    machine=machine.name,
                    state=state.name,
                )
            names.add(state.name)
            for sym in sorted(state.outputs):
                prev = produced_by.get(sym)
                if prev is not None and prev != machine.name:
                    report.add(
                        "warning",
                        "shared-output",
                        f"symbol {sym!r} is produced by machines {prev!r} and {machine.name!r}",
                        machine=machine.name,
                    )
                produced_by[sym] = machine.name
        if not machine.states:
            report.add("error", "empty-machine", f"machine {machine.name!r} has no states",
                       machine=machine.name)
            continue
        if machine.initial not in names:
            report.add(
                "error",
                "bad-initial",
                f"machine {machine.name!r}: initial state {machine.initial!r} does not exist",
                machine=machine.name,
            )
        for arc in machine.arcs:
            for endpoint, which in ((arc.src, "source"), (arc.dst, "target")):
                if endpoint not in names:
                    report.add(
                        "error",
                        "bad-arc",
                        f"machine {machine.name!r}: arc {which} {endpoint!r} is not a state",
                        machine=machine.name,
                        state=endpoint,
                    )

    # guard coverage and overlap need satisfiability; skip when the
    # structure is already broken
    if report.errors:
        _env_notes(system, report)
        return report

    ctx = F.GuardContext(declaration_order(system, system.guard_symbols()))
    for machine in system.machines:
        for idx, state in enumerate(machine.states):
            arcs = machine.arcs_from(idx)
            if not arcs:
                report.add(
                    "warning",
                    "coverage-gap",
                    f"machine {machine.name!r}, state {state.name!r}: no outgoing arcs; "
                    "every step keeps the machine here",
                    machine=machine.name,
                    state=state.name,
                )
                continue
            guards = [ctx.manager.from_expr(arc.guard) for arc in arcs]
            if not ctx.tautology(functools.reduce(ctx.manager.or_, guards)):
                report.add(
                    "warning",
                    "coverage-gap",
                    f"machine {machine.name!r}, state {state.name!r}: outgoing guards do not "
                    "cover all valuations; the machine stays when none is enabled",
                    machine=machine.name,
                    state=state.name,
                )
            for (a, ga), (b, gb) in itertools.combinations(zip(arcs, guards), 2):
                if ctx.satisfiable(ctx.manager.and_(ga, gb)):
                    report.add(
                        "warning",
                        "overlap",
                        f"machine {machine.name!r}, state {state.name!r}: guards "
                        f"{F.to_text(a.guard)!r} and {F.to_text(b.guard)!r} overlap "
                        "(nondeterministic choice)",
                        machine=machine.name,
                        state=state.name,
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
