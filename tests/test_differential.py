"""End-to-end differential oracle: ``cli.run`` against a reference path.

Random programs over ``o``, ``l``, ``h`` and ``r`` are each checked against
one builtin property, taken in turn, twice.  ``cli.run`` takes the checker's route: program
points, the structure quotient, the formula trees of ``props``, the
obligation product built on demand, the copy swap and the packed arena.
The reference path shares none of those reductions: the structures as
built, unquotiented; the formula from the text builders of ``oracles``; the
automaton determinized by Safra's construction and tidied; the exact game
of ``reference_arena``; and Zielonka's algorithm.  The two verdicts must
agree.

Each program declares the variables its property reads and one more,
``z``, that it does not, each 1 to 3 bits wide, so that its assignments
and reads often reach them and ``cli.run`` builds it with dead bits: every
bit of ``z`` and every bit past ``[0]`` that no guard or live assignment
reads.  ``cli.run`` builds each program for the propositions of its
formula's atoms only and the reference builds every bit, so a builtin
whose observed propositions missed one of its reads shows here as a
wrong verdict.  The exact game of two or three raw copies grows with the
product of their sizes, so a program is drawn again until its full
structure has at most 20 states, or 7 for the properties over stuttered
copies (``od-async``, ``ni-async`` and ``ahltl:2`` with ``AHLTL_BODY``),
whose states are doubled.
"""

import random
from collections import Counter
from functools import lru_cache

import oracles
import reference_arena
from conftest import random_program
from hyperatl.cli import CheckConfig, SystemSpec, run
from hyperatl.formula import parse_ltl, to_nnf, validate_fragment
from hyperatl.imp import build_cgs, parse_program
from hyperatl.ltl2dpa import apa_to_nba, ltl_to_apa, nba_to_dpa
from hyperatl.solver import zielonka
from hyperatl.structures import shift_transform, stutter_transform

# each builtin with the variables it reads
BUILTINS = {
    "od": "o", "ni": "ol", "simsec": "ol", "sgni:1": "olh", "sgni:2": "olh",
    "od-async": "o", "ni-async": "olr", "ahltl:2": "o",
}
STUTTERED = ("od-async", "ni-async", "ahltl")
AHLTL_BODY = "G (o[0]{p1} <-> o[0]{p2})"
O, L, H = ["o[0]"], ["l[0]"], ["h[0]"]
SEED = 2026


def reference_formula(prop: str, g):
    """The formula of ``prop`` from its text builder, and the raw systems it binds."""
    name, _, param = prop.partition(":")
    if name in STUTTERED:
        systems = {"G": g, "G_stut": stutter_transform(g)}
        if name == "od-async":
            return oracles.text_od_async(O, "G_stut"), systems
        if name == "ahltl":
            return oracles.text_ahltl(int(param), parse_ltl(AHLTL_BODY), "G_stut"), systems
        return oracles.text_ni_async(O, L, "r[0]", "G_stut"), systems
    if name in ("simsec", "sgni"):
        k = int(param or 1)
        systems = {"G": g, f"G_shift{k}": shift_transform(g, k)}
        if name == "simsec":
            return oracles.text_simsec(O, L, "G", "G_shift1"), systems
        return oracles.text_sgni(O, L, H, k, "G", f"G_shift{k}"), systems
    return (oracles.text_od(O) if name == "od" else oracles.text_ni(O, L)), {"G": g}


@lru_cache(maxsize=None)
def reference_automaton(body, atoms):
    return oracles.tidy(nba_to_dpa(apa_to_nba(ltl_to_apa(to_nnf(body), atoms))))


def random_case(rng, prop: str):
    """A random program for ``prop`` and its raw structure, within the size bound."""
    while True:
        text = random_program(rng, depth=rng.randint(1, 2), names=BUILTINS[prop] + "z", max_width=3)
        declared, program = parse_program(text)
        g = build_cgs(program, declared)
        if g.n_states <= (7 if prop.partition(":")[0] in STUTTERED else 20):
            return text, g


def reference_verdict(prop: str, g) -> str:
    formula, systems = reference_formula(prop, g)
    info = validate_fragment(formula, systems)
    dpa = reference_automaton(formula.body, info.atoms)
    quants = [(rq.coalition, systems[rq.system]) for rq in info.quantifiers]
    exact = reference_arena.build_game(
        quants, dpa, info.atoms, info.atom_copy, collapse=False, prune_decided=False
    )
    won = exact.game.initial in zielonka(exact.game)[0].w0
    return "satisfied" if won != formula.negated else "violated"


def test_random_programs_get_the_reference_verdict(tmp_path):
    rng = random.Random(SEED)
    verdicts = {prop: Counter() for prop in BUILTINS}
    reduced = 0  # programs that cli.run builds with fewer states than the reference
    body = tmp_path / "body.hatl"
    body.write_text(AHLTL_BODY)
    # 60 programs per builtin; ahltl:2 last, so that the others' draws do not depend on it
    order = [prop for prop in BUILTINS if prop != "ahltl:2"] * 60 + ["ahltl:2"] * 60
    for i, prop in enumerate(order):
        text, g = random_case(rng, prop)
        path = tmp_path / f"p{i}.imp"
        path.write_text(text)
        formula_file = str(body) if prop.startswith("ahltl") else None
        report = run(CheckConfig(systems=[SystemSpec("G", str(path))], prop=prop, formula_file=formula_file))
        assert report.verdict == reference_verdict(prop, g), (prop, text)
        verdicts[prop][report.verdict] += 1
        reduced += report.sizes["system.G.states"] < g.n_states
    one_verdict = {prop: dict(c) for prop, c in verdicts.items() if len(c) < 2}
    assert not one_verdict, one_verdict
    assert reduced >= 100, reduced
