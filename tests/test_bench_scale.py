"""Every case of ``benchmarks/bench_scale.py`` gives its own answer, untimed.

Each case runs once at its sweep's smallest size, so a change that breaks
a benchmark case fails here and not only in the benchmark's own run.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
import bench_scale  # noqa: E402

CASES = bench_scale.table(1)


@pytest.mark.parametrize("case", CASES,
                         ids=[f"{c.family}{c.size or ''}-{c.layer}" for c in CASES])
def test_case_gives_its_answer(case):
    bench_scale.check(case)


def test_every_sweep_and_layer_has_a_case():
    layers = {(c.family, c.layer) for c in CASES}
    for family in bench_scale.FRONT_END_SWEEPS:
        assert {layer for f, layer in layers if f == family} >= {
            "lex", "parse", "structure", "validate"}
    assert {f for f, layer in layers if layer == "symbolic"} == {"tlc_car", "ring", "toggles"}
    assert {f for f, layer in layers if layer == "bdd"} == {"queens", "guards", "counter"}


def test_a_wrong_answer_fails():
    case = next(c for c in CASES if c.family == "queens")
    with pytest.raises(AssertionError):
        bench_scale.check(case._replace(answer=case.answer + 1))
