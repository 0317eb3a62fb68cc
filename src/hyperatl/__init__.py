"""Model checker for strategic hyperproperties of bit-vector programs.

Pipeline: parse a program into an explicit game structure, translate the
quantifier-free body into a deterministic parity automaton, build the
self-composition parity game for one bracketed quantifier block, and solve
it; the specification holds iff player 0 wins from the initial vertex.
"""

from .formula import (
    FormulaError,
    HyperFormula,
    collect_atoms,
    format_hyper,
    format_ltl,
    parse_formula,
    parse_ltl,
    to_nnf,
    validate_fragment,
)
from .imp import ProgramError, StateCapError, build_cgs, parse_program
from .structures import MSCGS, shift_transform, stutter_transform, validate
from .ltl2dpa import ltl_to_dpa
from .arena import build_game
from .solver import ParityGame, WinningRegions, verify_strategy, zielonka
from .cli import CheckConfig, Report, run, run_suite

__all__ = [
    "FormulaError",
    "HyperFormula",
    "collect_atoms",
    "format_hyper",
    "format_ltl",
    "parse_formula",
    "parse_ltl",
    "to_nnf",
    "validate_fragment",
    "ProgramError",
    "StateCapError",
    "build_cgs",
    "parse_program",
    "MSCGS",
    "shift_transform",
    "stutter_transform",
    "validate",
    "ltl_to_dpa",
    "build_game",
    "ParityGame",
    "WinningRegions",
    "verify_strategy",
    "zielonka",
    "CheckConfig",
    "Report",
    "run",
    "run_suite",
]

__version__ = "0.1.0"
