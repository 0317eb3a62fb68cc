import random
import re

import pytest

import reference_arena
from conftest import random_block, random_obligation_body, random_structure, swap_paths
from oracles import brute_force_solve, tidy
from hyperatl import arena, cli
from hyperatl import formula as F
from hyperatl.arena import ArenaError, VertexCapError, build_game
from hyperatl.cli import bundled_asset
from hyperatl.formula import parse_formula, to_nnf, validate_fragment
from hyperatl.imp import build_cgs, parse_program
from hyperatl.ltl2dpa import DPA, apa_to_nba, ltl_to_apa, ltl_to_dpa, nba_to_dpa
from hyperatl.solver import ParityGame, zielonka
from hyperatl.structures import MSCGS, stutter_transform


def one_state_structure(coalition_agent="a", labels=frozenset(), props=frozenset({"a"})):
    return MSCGS(
        name="one",
        agents=(coalition_agent,),
        stages={coalition_agent: 0},
        props=props,
        labels=[labels],
        decisions=[((coalition_agent, 1),)],
        table=[(0,)],
        initial=0,
        state_names=["s0"],
    )


ATOM = ("a", "p")


def universal_dpa(atoms, color=0):
    return DPA(tuple(atoms), 0, [color], [[0] * (1 << len(atoms))])


def undecided_dpa(color):
    """State 0 has ``color`` and stays on letter 0; letter 1 leads for ever
    to the opposite colour, so state 0 is neither empty nor universal."""
    return DPA((ATOM,), 0, [color, 1 - color], [[0, 1], [1, 1]])


def two_agent_structure():
    """Two unlabelled states that alternate; agents ``a`` and ``b`` (both
    stage 0) have one move each in both."""
    return MSCGS(
        name="two",
        agents=("a", "b"),
        stages={"a": 0, "b": 0},
        props=frozenset({"a"}),
        labels=[frozenset()] * 2,
        decisions=[(("a", 1), ("b", 1))] * 2,
        table=[(1,), (0,)],
        initial=0,
        state_names=["s0", "s1"],
    )


def test_two_vertex_cycle_all_even():
    # no choice in either state: coalition {a}'s phase is passed, and each
    # round keeps only b's phase, which fires the joint step and steps the
    # automaton
    g = two_agent_structure()
    built = build_game([(frozenset({"a"}), g)], undecided_dpa(0), (ATOM,), {ATOM: 0})
    assert built.game.n_vertices == 2
    assert built.game.succ == ((1,), (0,))
    assert built.game.priority == [0, 0]
    assert built.game.owner == [1, 1]
    assert built.n_automaton_vertices == 2
    regions, _, _ = zielonka(built.game)
    assert built.game.initial in regions.w0
    assert brute_force_solve(built.game).w0 == regions.w0


def test_two_vertex_cycle_odd_lost():
    g = two_agent_structure()
    built = build_game([(frozenset({"a"}), g)], undecided_dpa(1), (ATOM,), {ATOM: 0})
    assert built.game.n_vertices == 2
    regions, _, _ = zielonka(built.game)
    assert built.game.initial in regions.w1


def letter(js, atoms, atom_copy, structures):
    """Assignment (as a bitmask in atom order) read off a joint state through
    the builder's per-copy letter masks."""
    value = 0
    for copy, g in enumerate(structures):
        bits = [(atom[0], bit) for bit, atom in enumerate(atoms) if atom_copy[atom] == copy]
        info = arena._CopyInfo(frozenset(), g, bits, [(0, True), (0, False)])
        value |= info.letter_mask[js[copy]]
    return value


def test_letter_reads_labels_per_copy():
    g1 = one_state_structure(labels=frozenset({"o[0]"}), props=frozenset({"o[0]"}))
    g2 = one_state_structure(labels=frozenset(), props=frozenset({"o[0]"}))
    atoms = (("o[0]", "p1"), ("o[0]", "p2"))
    atom_copy = {atoms[0]: 0, atoms[1]: 1}
    value = letter((0, 0), atoms, atom_copy, [g1, g2])
    assert value == 0b01  # set on the first copy only


def test_letter_rejects_unknown_proposition():
    g = one_state_structure()
    atoms = (("stut", "p1"),)
    with pytest.raises(ArenaError, match="stut"):
        build_game([(frozenset({"a"}), g)], universal_dpa(atoms), atoms, {atoms[0]: 0})


@pytest.mark.parametrize(
    "coalitions, copy, message",
    [
        (["b"], 0, "coalition agents ['b'] not present in 'one'"),
        ([], None, "at least one quantifier is required"),
        (["a"], 1, "atom ('o[0]', 'p1') mapped to copy 1 out of range"),
    ],
    ids=["unknown-agent", "empty-block", "copy-out-of-range"],
)
def test_malformed_block_is_refused(coalitions, copy, message):
    g = one_state_structure(props=frozenset({"o[0]"}))
    atoms = () if copy is None else (("o[0]", "p1"),)
    quants = [(frozenset({agent}), g) for agent in coalitions]
    with pytest.raises(ArenaError, match=re.escape(message)):
        build_game(quants, universal_dpa(atoms), atoms, {atom: copy for atom in atoms})


def test_letter_mixed_assignment():
    g1 = one_state_structure(labels=frozenset(), props=frozenset({"o[0]"}))
    g2 = one_state_structure(labels=frozenset({"o[0]"}), props=frozenset({"o[0]"}))
    atoms = (("o[0]", "p1"), ("o[0]", "p2"))
    value = letter((0, 0), atoms, {atoms[0]: 0, atoms[1]: 1}, [g1, g2])
    assert value == 0b10


def load(name):
    widths, prog = parse_program(bundled_asset(name).read_text())
    return build_cgs(prog, widths)


def build_exact(quants, dpa, atoms, atom_copy):
    """The reference game with every stage kept and no decided-state sinks."""
    return reference_arena.build_game(
        quants, dpa, atoms, atom_copy, collapse=False, prune_decided=False
    )


def same_winner(built, exact):
    w1 = zielonka(built.game)[0]
    w2 = zielonka(exact.game)[0]
    return (built.game.initial in w1.w0) == (exact.game.initial in w2.w0)


def od_block(g):
    f = parse_formula("[ forall p1 . forall p2 . ] G (o[0]{p1} <-> o[0]{p2})")
    info = validate_fragment(f, {"G": g})
    dpa = ltl_to_dpa(to_nnf(f.body), info.atoms)
    quants = [(rq.coalition, g) for rq in info.quantifiers]
    return quants, dpa, info.atoms, info.atom_copy


def test_od_p1_collapsed_and_uncollapsed_agree():
    block = od_block(load("p1.imp"))
    collapsed = build_game(*block)
    full = build_exact(*block)
    assert collapsed.game.n_vertices < full.game.n_vertices
    assert same_winner(collapsed, full)
    # counts are stable across rebuilds
    again = build_game(*block)
    assert again.game.n_vertices == collapsed.game.n_vertices
    assert again.game.n_edges == collapsed.game.n_edges


def round_boundaries(block, built):
    """Per vertex: does an automaton step enter it?  A round begins at the
    first phase at which some copy has more than one move, read off the
    structures' decision slots, or at its firing (last) phase if no copy
    has; the decided sinks stand for all later steps."""
    quants = block[0]
    layout = built.layout
    nph = len(layout.pairs)

    def moves(stage, team, js):
        n = 1
        for (coalition, g), s in zip(quants, js):
            for agent, arity in g.decisions[s]:
                if g.stages[agent] == stage and (agent in coalition) == team:
                    n *= arity
        return n

    out = []
    for key in built.keys:
        if key < 0:
            out.append(True)
            continue
        hi, rest = divmod(key, layout.size)
        js = [rest // st % sz // w for st, sz, w in layout.dims]
        first = next((i for i, pair in enumerate(layout.pairs) if moves(*pair, js) > 1), nph - 1)
        out.append(hi % nph == first)
    return out


def sched_block():
    """A block whose rounds have several phases: the scheduler's, then the others'."""
    g = stutter_transform(load("p1.imp"))
    f = parse_formula("[ <<sched>> p1 . <<sched>> p2 . ] G (o[0]{p1} <-> o[0]{p2})")
    info = validate_fragment(f, {"G": g})
    dpa = ltl_to_dpa(to_nnf(f.body), info.atoms)
    return [(rq.coalition, g) for rq in info.quantifiers], dpa, info.atoms, info.atom_copy


def test_phases_end_at_the_last_pair_where_an_agent_acts():
    """The scheduler acts at ``(1, True)`` and no agent at ``(1, False)``, so
    the phases end at the scheduler's pair; each vertex's owner is the team
    of its phase's pair."""
    built = build_game(*sched_block())
    layout = built.layout
    assert layout.pairs == [(0, True), (0, False), (1, True)]
    for v, key in enumerate(built.keys):
        if key >= 0:
            _, team = layout.pairs[key // layout.size % len(layout.pairs)]
            assert built.game.owner[v] == int(not team)


def test_priorities_constant_between_automaton_steps():
    """An edge into a vertex that begins no round stays in its source's round:
    same automaton state, same joint state, a later phase, same priority."""
    block = sched_block()
    built = build_game(*block)
    game, layout = built.game, built.layout
    boundary = round_boundaries(block, built)
    assert not all(boundary)
    assert built.n_automaton_vertices == boundary.count(True) - built.n_sink_vertices

    def round_and_phase(v):
        hi, rest = divmod(built.keys[v], layout.size)
        q, phase = divmod(hi, len(layout.pairs))
        return (q, [rest // st % sz // w for st, sz, w in layout.dims]), phase

    for v in range(game.n_vertices):
        for t in game.succ[v]:
            if not boundary[t]:
                (round_v, phase_v), (round_t, phase_t) = map(round_and_phase, (v, t))
                assert round_t == round_v and phase_t > phase_v
                assert game.priority[t] == game.priority[v]


def test_stage_monotone_and_every_cycle_hits_automaton_step():
    """Every cycle contains a firing edge: one into a vertex that begins a round."""
    block = sched_block()
    built = build_game(*block)
    game = built.game
    boundary = round_boundaries(block, built)
    assert not all(boundary)
    # between automaton steps the protocol may never revisit a vertex
    for v in range(game.n_vertices):
        if boundary[v]:
            continue
        seen = set()
        stack = [v]
        while stack:
            u = stack.pop()
            for t in game.succ[u]:
                if boundary[t]:
                    continue
                assert t != v, "cycle without a firing edge"
                if t not in seen:
                    seen.add(t)
                    stack.append(t)


def test_decided_pruning_preserves_winner():
    for name in ("p1.imp", "p3.imp"):
        block = od_block(load(name))
        exact = build_exact(*block)
        pruned = build_game(*block)
        assert pruned.game.n_vertices <= exact.game.n_vertices
        assert same_winner(pruned, exact)


def test_randomized_collapse_cross_check():
    """The kernel's game has the exact game's winner on random blocks of
    1-3 copies.  Stepping the automaton on the source state's letter, or not
    stepping the initial vertex on the initial labels, changes some winners."""
    rng = random.Random(2107)
    wins = 0
    for _ in range(400):
        block = random_block(rng)
        collapsed = build_game(*block)
        assert same_winner(collapsed, build_exact(*block))
        wins += collapsed.game.initial in zielonka(collapsed.game)[0].w0
    assert 80 <= wins <= 320, wins


TWO_COPY_ATOMS = (("x", "p1"), ("y", "p1"), ("x", "p2"), ("y", "p2"))


def test_lazy_product_games_match_the_determinized_chain():
    """The game over the on-the-fly product has the winner of the exact game
    over the determinized automaton, on random obligation ∧ G F bodies."""
    rng = random.Random(2029)
    atom_copy = {atom: int(atom[1] == "p2") for atom in TWO_COPY_ATOMS}
    wins = swapped = 0
    for _ in range(400):
        g = random_structure(rng, max_states=3)
        coalition = frozenset(a for a in g.agents if rng.random() < 0.5)
        if rng.random() < 0.5:
            # one structure, one coalition, a symmetric body: the copy swap
            # applies; halves of the usual size keep Safra small
            quants = [(coalition, g)] * 2
            body = random_obligation_body(rng, TWO_COPY_ATOMS, 2, 3, 1)
            body = F.And(body, swap_paths(body))
        else:
            body = random_obligation_body(rng, TWO_COPY_ATOMS)
            h = random_structure(rng, max_states=3)
            quants = [(coalition, g), (frozenset(a for a in h.agents if rng.random() < 0.5), h)]
        nnf = to_nnf(body)
        lazy = build_game(quants, ltl_to_dpa(nnf, TWO_COPY_ATOMS), TWO_COPY_ATOMS, atom_copy)
        chain = tidy(nba_to_dpa(apa_to_nba(ltl_to_apa(nnf, TWO_COPY_ATOMS))))
        exact = build_exact(quants, chain, TWO_COPY_ATOMS, atom_copy)
        assert same_winner(lazy, exact), body
        wins += lazy.game.initial in zielonka(lazy.game)[0].w0
        swapped += lazy.swap_quotient
    assert 80 <= wins <= 320 and swapped >= 150, (wins, swapped)


def test_vertex_cap():
    g = load("p2.imp")
    with pytest.raises(VertexCapError):
        f = parse_formula("[ forall p1 . forall p2 . ] G (o[0]{p1} <-> o[0]{p2})")
        info = validate_fragment(f, {"G": g})
        dpa = ltl_to_dpa(to_nnf(f.body), info.atoms)
        build_game(
            [(rq.coalition, g) for rq in info.quantifiers],
            dpa,
            info.atoms,
            info.atom_copy,
            cap=10,
        )


def test_export_dot_deterministic():
    g = one_state_structure()
    built = build_game([(frozenset({"a"}), g)], undecided_dpa(0), (ATOM,), {ATOM: 0})
    assert built.game.n_vertices == 1
    assert arena.export_dot(built) == arena.export_dot(built)
    assert "diamond" not in arena.export_dot(built)  # all vertices player 0 here


# per bundled row: verdict, game.vertices, game.edges, game.swap_quotient
BUNDLED_GAMES = {
    "table5a": {
        "p1-od": ("satisfied", 9, 9, 1),
        "p1-ni": ("satisfied", 9, 9, 1),
        "p1-simsec": ("satisfied", 10, 10, 0),
        "p1-sgni": ("satisfied", 64, 107, 0),
        "p2-od": ("violated", 37, 49, 1),
        "p2-ni": ("satisfied", 25, 34, 1),
        "p2-simsec": ("satisfied", 29, 38, 0),
        "p2-sgni": ("satisfied", 693, 1404, 0),
        "p3-od": ("violated", 14, 20, 1),
        "p3-ni": ("violated", 32, 47, 1),
        "p3-simsec": ("satisfied", 42, 60, 0),
        "p3-sgni": ("satisfied", 421, 1096, 0),
        "p4-od": ("violated", 23, 47, 1),
        "p4-ni": ("violated", 58, 121, 1),
        "p4-simsec": ("violated", 106, 172, 0),
        "p4-sgni": ("satisfied", 707, 1923, 0),
    },
    "table5b": {
        "q1w1-od": ("violated", 16, 22, 1),
        "q1w1-od-async": ("satisfied", 295, 1081, 1),
        "q1w1-ni-async": ("satisfied", 1056, 3864, 1),
        "q1w2-od": ("violated", 16, 22, 1),
        "q1w2-od-async": ("satisfied", 295, 1081, 1),
        "q1w2-ni-async": ("satisfied", 1056, 3864, 1),
        "q1w3-od": ("violated", 16, 22, 1),
        "q1w3-od-async": ("satisfied", 295, 1081, 1),
        "q1w3-ni-async": ("satisfied", 1056, 3864, 1),
        "q2-od": ("violated", 28, 34, 1),
        "q2-od-async": ("violated", 1145, 4289, 1),
        "q2-ni-async": ("satisfied", 901, 3553, 1),
    },
}


def test_a_bundled_rows_game_is_built_from_tuple_rows(monkeypatch):
    """``p2-od`` has a sink; the game keeps the very rows the arena built, each a tuple."""
    given = []

    def game_of(succ, **fields):
        given.append(succ)
        return ParityGame(succ, **fields)

    built = []

    def build_game(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    build = arena.build_game
    monkeypatch.setattr(arena, "ParityGame", game_of)
    monkeypatch.setattr(arena, "build_game", build_game)
    spec = cli.SystemSpec("G", str(bundled_asset("p2.imp")))
    assert cli.run(cli.CheckConfig(systems=[spec], prop="od")).verdict == "violated"
    (rows,), (arena_game,) = given, built
    assert arena_game.n_sink_vertices == 1 and arena_game.game.n_vertices == 37
    assert all(type(row) is tuple for row in rows)
    assert all(a is b for a, b in zip(arena_game.game.succ, rows, strict=True))


@pytest.mark.parametrize("manifest", sorted(BUNDLED_GAMES))
def test_bundled_rows_keep_their_verdicts_and_games(manifest):
    rows, ok = cli.run_suite(manifest)
    got = {
        r.name: (r.verdict, *(r.sizes[f"game.{k}"] for k in ("vertices", "edges", "swap_quotient")))
        for r in rows
    }
    assert ok and got == BUNDLED_GAMES[manifest]
