"""cosma's record classes: equality, hashing and ``repr`` come from their fields."""

import copy
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cosma
from cosma import formula as F
from cosma import frontend, mc, model, reach, robdd, vhdlgen

x, y = F.Symbol("x"), F.Symbol("y")
span = frontend.SourceSpan("m.csm", 3, 7, 2)
manager = robdd.BddManager([x])

# one instance of each record class, its repr, and the tuple of its fields
# that it hashes as; None where the record is mutable and so unhashable
CASES = [
    (F.TRUE, "ConstTrue()", ()),
    (F.FALSE, "ConstFalse()", ()),
    (F.Not(x), "Not(operand='x')", (x,)),
    (F.And(x, y), "And(operands=('x', 'y'))", ((x, y),)),
    (F.Or(x, F.Not(y)), "Or(operands=('x', Not(operand='y')))", ((x, F.Not(y)),)),
    (model.State("a", frozenset({x})), "State(name='a', outputs=frozenset({'x'}))",
     ("a", frozenset({x}))),
    (model.Arc("a", "b", F.TRUE), "Arc(src='a', dst='b', guard=ConstTrue())", ("a", "b", F.TRUE)),
    (model.LintEntry("warning", "w", "m"),
     "LintEntry(severity='warning', code='w', message='m', machine=None, state=None, arc=None)",
     ("warning", "w", "m", None, None, None)),
    (model.LintReport(), "LintReport(entries=[])", None),
    (span, "SourceSpan(file='m.csm', line=3, column=7, length=2)", ("m.csm", 3, 7, 2)),
    (frontend.ParseDiagnostic("error", "bad", span),
     "ParseDiagnostic(severity='error', message='bad', "
     "span=SourceSpan(file='m.csm', line=3, column=7, length=2))",
     ("error", "bad", span)),
    (frontend.ParseResult(None), "ParseResult(system=None, diagnostics=[], place=None)", None),
    (frontend.QueryParseResult(), "QueryParseResult(queries=[], diagnostics=[])", None),
    (mc.Query("q", x, "next", y),
     "Query(name='q', antecedent='x', mode='next', consequent='y', universal=True)",
     ("q", x, "next", y, True)),
    (mc.CtlEX(x), "CtlEX(sub='x')", (x,)),
    (mc.CtlEU(F.TRUE, x), "CtlEU(left=ConstTrue(), right='x')", (F.TRUE, x)),
    (mc.CtlEG(x), "CtlEG(sub='x')", (x,)),
    (mc.CtlQuery("c", mc.CtlEX(x)), "CtlQuery(name='c', formula=CtlEX(sub='x'))",
     ("c", mc.CtlEX(x))),
    (mc.TraceStep(0, frozenset()), "TraceStep(node=0, env=frozenset())", (0, frozenset())),
    (mc.Verdict(False, trace=[mc.TraceStep(1, None)]),
     "Verdict(holds=False, vacuous=False, trace=[TraceStep(node=1, env=None)])", None),
    (reach.ReachEdge(0, manager.TRUE, 1), "ReachEdge(src=0, guard=BddRef(1), dst=1)",
     (0, manager.TRUE, 1)),
    (vhdlgen.CodegenOptions(),
     "CodegenOptions(state_encoding='binary', delay_ns=10, entity_name=None, clock=False)",
     ("binary", 10, None, False)),
]
IDS = [type(record).__name__ for record, _, _ in CASES]


@pytest.mark.parametrize("record, text, fields", CASES, ids=IDS)
def test_repr_names_every_field(record, text, fields):
    assert repr(record) == text


@pytest.mark.parametrize("record, text, fields", CASES, ids=IDS)
def test_equal_by_fields_and_hashed_as_their_tuple(record, text, fields):
    twin = copy.copy(record)
    assert twin is not record and twin == record and not twin != record
    if fields is None:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin) == hash(fields)
        assert record != fields


@pytest.mark.parametrize("record, text, fields", CASES, ids=IDS)
def test_no_instance_dict(record, text, fields):
    assert not hasattr(record, "__dict__")


def test_every_record_class_is_covered():
    defined = {
        cls
        for module in (F, frontend, mc, model, reach, vhdlgen)
        for cls in vars(module).values()
        if isinstance(cls, type) and issubclass(cls, F.Record) and cls.__module__ == module.__name__
    }
    # bases, and the symbol, which is a str
    assert defined - {F.Record, F.BoolExpr, F._Chain, F.Symbol} == {type(r) for r, _, _ in CASES}


def test_records_of_other_types_differ():
    assert F.Not(x) != mc.CtlEX(x)
    assert mc.CtlEX(x) != mc.CtlEG(x)
    assert F.And(x, y) != F.Or(x, y)
    assert F.TRUE != F.FALSE and hash(F.TRUE) == hash(F.FALSE)
    assert model.State("a") != model.State("a", frozenset({x}))
    assert model.Arc("a", "b", F.TRUE) != model.Arc("a", "b", F.FALSE)


@pytest.mark.parametrize("options", [
    {"state_encoding": "gray"},
    {"state_encoding": "width"},
    {"state_encoding": 0},
    {"state_encoding": True},  # a bool is no width
    {"delay_ns": -1},
])
def test_bad_codegen_options_are_rejected(options):
    with pytest.raises(vhdlgen.VhdlGenError):
        vhdlgen.CodegenOptions(**options)


def test_cli_import_loads_neither_dataclasses_nor_resources():
    # -S: no site module, so nothing but cosma decides what gets imported
    src = Path(cosma.__file__).resolve().parent.parent
    code = ("import sys, cosma.cli; "
            "print(sorted({'dataclasses', 'importlib.resources'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"
