"""Model families of the benchmark, with the answers known by construction.

Every family is written as cosma source text together with its requirement
file, its reachable-state and edge counts in closed form, the verdict of
every requirement, and the exit code each command must return.  The seed
only renames: every identifier gets a random three-letter prefix, so the
structure, the work and the byte counts of the outputs stay the same from
seed to seed while sort orders, hashes and the text of every output change.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

SYSTEM_KEYWORDS = frozenset({"system", "machine", "init", "state", "out", "when"})
QUERY_KEYWORDS = frozenset(
    {"always", "next", "eventually", "exists", "ctl", "not", "AX", "EX", "AF", "EF",
     "AG", "EG", "A", "E", "U"}
)
# words a prefixed identifier must not collide with: the VHDL reserved words
# and the identifiers the generated VHDL declares itself
_AVOID = frozenset(
    """abs access after alias all and architecture array assert attribute begin
    block body buffer bus case component configuration constant disconnect
    downto else elsif end entity exit file for function generate generic group
    guarded if impure in inertial inout is label library linkage literal loop
    map mod nand new next nor not null of on open or others out package port
    postponed procedure process pure range record register reject rem report
    return rol ror select severity shared signal sla sll sra srl subtype then
    to transport type unaffected units until use variable wait when while with
    xnor xor clk newstate current_state behavior bit bit_vector""".split()
)
_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_PREFIX_LETTERS = "bcdfghjklmnpqrstvwxz"


class Namer:
    """Seeded renaming: each base name gets its own fixed-length prefix."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self._names: dict[str, str] = {}

    def __call__(self, base: str) -> str:
        name = self._names.get(base)
        if name is None:
            while True:
                name = "".join(self._rng.choice(_PREFIX_LETTERS) for _ in range(3)) + base
                if name.lower() not in _AVOID:
                    break
            self._names[base] = name
        return name

    def rename_text(self, text: str, keywords: frozenset[str]) -> str:
        """Rename every identifier of ``text`` outside ``keywords``."""
        return _WORD.sub(lambda m: m.group(0) if m.group(0) in keywords else self(m.group(0)), text)


@dataclass
class Model:
    """One model file, its requirement file and everything known about them."""

    key: str
    text: str
    queries: str
    reachable: int | None  # closed form; None: only the breadth-first oracle knows
    edges: int | None
    verdicts: dict[str, bool]  # requirement name -> holds
    machine_states: list[int]  # states per machine, in declaration order
    tautology_guards: bool = False  # every edge guard is equivalent to 1
    bfs_oracle: bool = False  # recompute states and edges by stepping every valuation

    @property
    def check_exit(self) -> int:
        return 0 if all(self.verdicts.values()) else 1


def _strip_comments(text: str) -> str:
    return re.sub(r"//[^\n]*", "", text)


def _finish(namer: Namer, key: str, system_text: str, query_text: str, verdicts, **kw) -> Model:
    return Model(
        key=key,
        text=namer.rename_text(system_text, SYSTEM_KEYWORDS),
        queries=namer.rename_text(query_text, QUERY_KEYWORDS),
        verdicts={namer(name): holds for name, holds in verdicts.items()},
        **kw,
    )


# -- the paper's traffic-light controller --------------------------------------

TLC_CTL = """
ctl safe: AG ~(HG * FG);
ctl live: AG EF HG;
ctl fair: AG AF HG;
ctl reach: EF FG;
"""
_TLC_SUITE = [f"q{i}" for i in range(1, 11)]
MUTATED_ARC = "-> sFG when TimTS;"


def tlc_models(namer: Namer, tlc: str, tlc_car: str, suite: str) -> list[Model]:
    """``tlc.csm``, ``tlc_car.csm`` and the mutant without the ``sHY -> sFG`` arc.

    The paper's ten queries all hold on both models.  The mutant sticks in
    ``sHY`` forever, so q2 and q7 fail, farm green becomes unreachable and
    the other eight queries hold.  Time ticks are free
    environment inputs, so ``AG AF HG`` fails everywhere.  The 13 and 15
    reachable states are the known figures of the two models; states and
    edges of all three are also recomputed by the benchmark's own search.
    """
    queries = _strip_comments(suite) + TLC_CTL
    mutant = tlc.replace(MUTATED_ARC, "").replace("system tlc {", "system tlcmut {")
    if mutant == tlc:
        raise ValueError("the mutated arc is missing from tlc.csm")
    ctl_ok = {"safe": True, "live": True, "fair": False, "reach": True}
    mutant_ctl = {"safe": True, "live": False, "fair": False, "reach": False}
    controller_timers = [4, 3, 3]
    return [
        _finish(namer, "tlc", _strip_comments(tlc), queries,
                {**dict.fromkeys(_TLC_SUITE, True), **ctl_ok},
                reachable=13, edges=None, machine_states=controller_timers, bfs_oracle=True),
        _finish(namer, "tlc_car", _strip_comments(tlc_car), queries,
                {**dict.fromkeys(_TLC_SUITE, True), **ctl_ok},
                reachable=15, edges=None, machine_states=controller_timers + [2],
                bfs_oracle=True),
        _finish(namer, "tlc_mutant", _strip_comments(mutant), queries,
                {**{q: q not in ("q2", "q7") for q in _TLC_SUITE}, **mutant_ctl},
                reachable=None, edges=None, machine_states=controller_timers, bfs_oracle=True),
    ]


# -- deep: long paths, one environment input ------------------------------------


def cycle(namer: Namer, n: int) -> Model:
    """One machine of ``n`` states in a ring, advanced by the input ``go``.

    Reachable: n states; edges: n forward plus n self-loops.  ``Half`` sits
    halfway round, so the failing ``eventually`` query's trace walks half
    the ring before it loops.
    """
    half = n // 2
    outs = {0: "Home", half: "Half", half + 1: "After"}
    lines = ["system Cycle {", "  machine Cyc {", "    init c0;"]
    for i in range(n):
        out = f" out {outs[i]};" if i in outs else ""
        lines.append(f"    state c{i} {{{out} -> c{(i + 1) % n} when go; -> c{i} when ~go; }}")
    lines += ["  }", "}"]
    queries = """
ctl back: AG EF Home;
ctl fair: AG AF Home;
ctl apart: AG ~(Home * Half);
step: always (Half * go => next After);
stay: always (Half => next After);
ret: always (Half => eventually Home);
can: always (Half => exists eventually Home);
"""
    verdicts = {"back": True, "fair": False, "apart": True, "step": True, "stay": False,
                "ret": False, "can": True}
    return _finish(namer, f"cycle{n}", "\n".join(lines) + "\n", queries, verdicts,
                   reachable=n, edges=2 * n, machine_states=[n])


def ring(namer: Namer, m: int) -> Model:
    """A token passed round ``m`` two-state machines whenever ``pass`` occurs.

    Reachable: m states (one per token position); edges: m forward plus m
    self-loops.
    """
    k = m // 2
    lines = ["system Ring {"]
    for i in range(m):
        prev = f"T{(i - 1) % m}"
        init = "tok" if i == 0 else "idle"
        lines += [
            f"  machine R{i} {{",
            f"    init {init};",
            f"    state idle {{ -> tok when {prev} * pass; -> idle when ~({prev} * pass); }}",
            f"    state tok {{ out T{i}; -> idle when pass; -> tok when ~pass; }}",
            "  }",
        ]
    lines.append("}")
    queries = f"""
ctl mutex: AG ~(T0 * T1);
ctl back: AG EF T0;
ctl fair: AG AF T0;
step: always (T{k} * pass => next T{k + 1});
hold: always (T{k} => next T{k + 1});
ret: always (T{k} => eventually T0);
can: always (T{k} => exists eventually T0);
"""
    verdicts = {"mutex": True, "back": True, "fair": False, "step": True, "hold": False,
                "ret": False, "can": True}
    return _finish(namer, f"ring{m}", "\n".join(lines) + "\n", queries, verdicts,
                   reachable=m, edges=2 * m, machine_states=[2] * m)


# -- wide: many inputs, shallow graphs --------------------------------------------


def toggles(namer: Namer, n: int) -> Model:
    """``n`` independent toggles, each flipped by its own input.

    Reachable: 2^n states, every one a single step from every other, so
    4^n edges.
    """
    lines = ["system Toggles {"]
    for i in range(n):
        lines += [
            f"  machine Tg{i} {{",
            "    init off;",
            f"    state off {{ -> on when x{i}; -> off when ~x{i}; }}",
            f"    state on {{ out On{i}; -> off when x{i}; -> on when ~x{i}; }}",
            "  }",
        ]
    lines.append("}")
    queries = f"""
ctl both: AG EF (On0 * On{n - 1});
ctl fair: AG AF On0;
flip: always (On0 * x0 => next ~On0);
keep: always (On0 => next On0);
leave: always (On0 => eventually ~On0);
can: always (On0 => exists eventually ~On0);
"""
    verdicts = {"both": True, "fair": False, "flip": True, "keep": False, "leave": False,
                "can": True}
    return _finish(namer, f"toggles{n}", "\n".join(lines) + "\n", queries, verdicts,
                   reachable=2 ** n, edges=4 ** n, machine_states=[2] * n)


def parallel(namer: Namer, m: int) -> Model:
    """``m`` machines that each have two complementary arcs into one state.

    Reachable: 2 states, 2 edges.  The merged guard of the edge between them
    is a sum of 2^m products that is equivalent to ``1``.
    """
    lines = ["system Parallel {"]
    for i in range(m):
        lines += [
            f"  machine P{i} {{",
            "    init a;",
            f"    state a {{ -> b when y{i}; -> b when ~y{i}; }}",
            f"    state b {{ out B{i}; -> a when 1; }}",
            "  }",
        ]
    lines.append("}")
    queries = f"""
ctl alt: AG (B0 => AX ~B0);
ctl fair: AG AF B0;
ctl split: EF (B0 * ~B{m - 1});
go: always (~B0 => next B0);
rest: always (~B0 => next ~B0);
"""
    verdicts = {"alt": True, "fair": True, "split": False, "go": True, "rest": False}
    return _finish(namer, f"parallel{m}", "\n".join(lines) + "\n", queries, verdicts,
                   reachable=2, edges=2, machine_states=[2] * m, tautology_guards=True)


def kguard(namer: Namer, k: int) -> Model:
    """One machine that fires only when all ``k`` inputs occur at once.

    Reachable: 2 states, 3 edges.  The counterexample to ``calm`` needs the
    one valuation with every input true.
    """
    conj = " * ".join(f"z{i}" for i in range(k))
    text = f"""system Kguard {{
  machine G {{
    init g0;
    state g0 {{ -> g1 when {conj}; -> g0 when ~({conj}); }}
    state g1 {{ out Fire; -> g0 when 1; }}
  }}
}}
"""
    queries = """
ctl once: AG (Fire => AX ~Fire);
ctl fair: AG AF Fire;
calm: always (~Fire => next ~Fire);
arm: always (Fire => next ~Fire);
wait: always (~Fire => eventually Fire);
can: always (~Fire => exists eventually Fire);
"""
    verdicts = {"once": True, "fair": False, "calm": False, "arm": True, "wait": False,
                "can": True}
    return _finish(namer, f"kguard{k}", text, queries, verdicts,
                   reachable=2, edges=3, machine_states=[2])
