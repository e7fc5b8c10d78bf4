"""Concurrent state machine toolkit.

Specify systems of asynchronous, communicating Moore-style machines in a
small textual language, compute the graph of reachable global states
(explicit-state or symbolically with ROBDDs), verify temporal requirements
over it, and generate VHDL from the machine descriptions.
"""

from cosma import robdd
from cosma import formula
from cosma import model
from cosma import frontend
from cosma import reach
from cosma import mc
from cosma import vhdlgen

from cosma.formula import BoolExpr, Symbol
from cosma.frontend import parse_queries, parse_system
from cosma.mc import CtlQuery, Query, Verdict, check_ctl, check_query, check_suite
from cosma.model import Arc, Machine, State, System, env_alphabet, output_valuation, validate
from cosma.reach import ReachGraph, build_rg_explicit, build_rg_symbolic, to_dot
from cosma.robdd import BddManager, BddRef
from cosma.vhdlgen import CodegenOptions, generate, structural_audit

__version__ = "0.1.0"

__all__ = [
    "Arc",
    "BddManager",
    "BddRef",
    "BoolExpr",
    "CodegenOptions",
    "CtlQuery",
    "Machine",
    "Query",
    "ReachGraph",
    "State",
    "Symbol",
    "System",
    "Verdict",
    "build_rg_explicit",
    "build_rg_symbolic",
    "check_ctl",
    "check_query",
    "check_suite",
    "env_alphabet",
    "formula",
    "frontend",
    "generate",
    "mc",
    "model",
    "output_valuation",
    "parse_queries",
    "parse_system",
    "reach",
    "robdd",
    "structural_audit",
    "to_dot",
    "validate",
    "vhdlgen",
]
