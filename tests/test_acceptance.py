"""Acceptance gate: every criterion runs at its stated tolerance and budget.

Run with ``pytest -s tests/test_acceptance.py`` to see one line per
criterion.  Verdict criteria have zero tolerance; time budgets are asserted
with the wall clock of this process.
"""

import random
import time

import reference_arena
from conftest import random_dpa, random_game, random_lasso, random_ltl, random_structure
from oracles import brute_force_solve, dpa_accepts_lasso, eval_lasso
from hyperatl import arena, cli, solver
from hyperatl.ltl2dpa import ltl_to_dpa
from hyperatl.structures import (
    SCHED,
    STUT_PROP,
    shift_transform,
    stutter_transform,
)
from hyperatl.imp import build_cgs, parse_program

ATOMS = (("a", "p"), ("b", "p"), ("c", "p"))


def report(criterion: str, ok: bool, detail: str = "") -> None:
    marker = "PASS" if ok else "FAIL"
    print(f"[{criterion}] {marker} {detail}".rstrip())
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_table5a_reproduction():
    start = time.perf_counter()
    rows, ok = cli.run_suite("table5a")
    elapsed = time.perf_counter() - start
    mismatches = [r.name for r in rows if not r.ok]
    report(
        "criterion-1 table5a",
        ok and len(rows) == 16 and elapsed <= 60.0,
        f"16 verdicts, mismatches={mismatches}, {elapsed:.1f}s (budget 60s)",
    )


def test_criterion_2_table5b_reproduction():
    start = time.perf_counter()
    rows, ok = cli.run_suite("table5b")
    elapsed = time.perf_counter() - start
    mismatches = [r.name for r in rows if not r.ok]
    report(
        "criterion-2 table5b",
        ok and len(rows) == 12 and elapsed <= 120.0,
        f"12 verdicts, mismatches={mismatches}, {elapsed:.1f}s (budget 120s)",
    )


def test_criterion_3_motivating_example():
    prog = str(cli.bundled_asset("fig1b.imp"))
    stuttered = [cli.SystemSpec("G", prog, (("stutter",),))]
    synchronous = cli.run(cli.CheckConfig(systems=stuttered, prop="od")).verdict
    asynchronous = cli.run(cli.CheckConfig(systems=stuttered, prop="od-async")).verdict
    report(
        "criterion-3 motivating example",
        synchronous == "violated" and asynchronous == "satisfied",
        f"synchronous od={synchronous}, od-async={asynchronous}",
    )


def test_criterion_4_translation_oracle_equivalence():
    rng = random.Random(20240)
    start = time.perf_counter()
    mismatches = 0
    checked = 0
    for _ in range(1000):
        n_atoms = rng.randint(1, 3)
        atoms = ATOMS[:n_atoms]
        f = random_ltl(rng, rng.randint(1, 6), atoms=atoms)
        dpa = ltl_to_dpa(f, atoms)
        for _ in range(5):
            prefix, loop = random_lasso(rng, atoms, max_prefix=4, max_loop=4)
            checked += 1
            if dpa_accepts_lasso(dpa, prefix, loop) != eval_lasso(f, prefix, loop):
                mismatches += 1
    elapsed = time.perf_counter() - start
    report(
        "criterion-4 translation oracle",
        mismatches == 0 and checked >= 5000 and elapsed <= 120.0,
        f"{checked} lasso checks, {mismatches} mismatches, {elapsed:.1f}s (budget 120s)",
    )


def test_criterion_5_solver_oracle_equivalence():
    rng = random.Random(555)
    start = time.perf_counter()
    region_mismatches = 0
    strategy_failures = 0
    for _ in range(200):
        game = random_game(rng, max_vertices=8, max_degree=3, max_priority=4)
        regions, s0, s1 = solver.zielonka(game)
        if regions != brute_force_solve(game):
            region_mismatches += 1
        if not solver.verify_strategy(game, regions, s0, s1):
            strategy_failures += 1
    elapsed = time.perf_counter() - start
    report(
        "criterion-5 solver oracle",
        region_mismatches == 0 and strategy_failures == 0 and elapsed <= 30.0,
        f"200 games, region mismatches={region_mismatches}, "
        f"strategy failures={strategy_failures}, {elapsed:.1f}s (budget 30s)",
    )


def test_criterion_6_construction_cross_check():
    rng = random.Random(4242)
    start = time.perf_counter()
    disagreements = 0
    for _ in range(50):
        k = rng.randint(1, 2)
        quants = []
        for _ in range(k):
            g = random_structure(rng, max_states=6)
            coalition = frozenset(a for a in g.agents if rng.random() < 0.5)
            quants.append((coalition, g))
        atoms = tuple((p, f"p{i + 1}") for i in range(k) for p in ("x", "y"))
        atom_copy = {(p, f"p{i + 1}"): i for i in range(k) for p in ("x", "y")}
        dpa = random_dpa(rng, atoms, max_states=5)
        collapsed = arena.build_game(quants, dpa, atoms, atom_copy)
        full = reference_arena.build_game(
            quants, dpa, atoms, atom_copy, collapse=False, prune_decided=False
        )
        won_collapsed = collapsed.game.initial in solver.zielonka(collapsed.game)[0].w0
        won_full = full.game.initial in solver.zielonka(full.game)[0].w0
        if won_collapsed != won_full:
            disagreements += 1
    elapsed = time.perf_counter() - start
    report(
        "criterion-6 collapse cross-check",
        disagreements == 0 and elapsed <= 60.0,
        f"50 configurations, disagreements={disagreements}, {elapsed:.1f}s (budget 60s)",
    )


def test_criterion_7_transform_invariants():
    start = time.perf_counter()
    widths, prog = parse_program(cli.bundled_asset("p1.imp").read_text())
    g = build_cgs(prog, widths)
    ok = True
    details = []

    gs = stutter_transform(g)
    if gs.n_states != 2 * g.n_states:
        ok, details = False, details + ["state count not doubled"]
    frozen = [s for s in range(gs.n_states) if STUT_PROP in gs.labels[s]]
    if len(frozen) != g.n_states:
        ok, details = False, details + ["wrong number of frozen copies"]
    if gs.stages[SCHED] != max(g.stages.values()) + 1:
        ok, details = False, details + ["scheduler not at the last stage"]

    for k in (1, 2, 5):
        gk = shift_transform(g, k)
        if gk.n_states != g.n_states + k:
            ok, details = False, details + [f"shift {k} added wrong state count"]

    elapsed = time.perf_counter() - start
    report(
        "criterion-7 transform invariants",
        ok and elapsed <= 5.0,
        f"{'; '.join(details) or 'doubling, stut labels, stage, shift counts'}"
        f", {elapsed:.1f}s (budget 5s)",
    )


def test_criterion_8_theory_scope_note():
    # the general model-checking algorithm for arbitrary quantifier
    # alternation and the lower-bound constructions are theory without an
    # artifact; the translation and solver oracles above stand in for them
    covered_by = ["criterion-4", "criterion-5", "criterion-6"]
    report(
        "criterion-8 theory scope",
        True,
        f"no end-to-end run; covered by {', '.join(covered_by)}",
    )
