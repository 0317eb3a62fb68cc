"""The structure quotient against the games of the unquotiented structures.

``structures.quotient`` merges the states of a bound structure that the
formula cannot tell apart, and the moves that lead to the same classes for
every co-move.  The arena over the quotient must be a functional
bisimulation image of the arena over the loaded structures: every raw
vertex is bisimilar to a quotient vertex, with the same owner, priority and
winner, and the initial vertices are bisimilar.  The raw games here are
built from the structures as loaded, by ``arena.build_game`` or, on random
blocks, by ``tests/reference_arena.py``.
"""

import json
import random

import reference_arena
from conftest import random_dpa, random_ltl, random_program, random_structure
from oracles import merge_moves_by_scan, quotient_by_rounds
from test_arena_kernel import check_against_reference
from hyperatl import arena, cli, structures
from hyperatl.arena import build_game
from hyperatl.imp import StateCapError, build_cgs, parse_program
from hyperatl.ltl2dpa import ltl_to_dpa
from hyperatl.solver import zielonka
from hyperatl.structures import MSCGS, quotient, shift_transform, stutter_transform


def block_reads(quants, atom_copy) -> dict[int, set]:
    """Per structure object of the block, by ``id``: the propositions of every atom its copies read."""
    reads = {id(g): set() for _, g in quants}
    for (prop, _), copy in atom_copy.items():
        reads[id(quants[copy][1])].add(prop)
    return reads


def quotient_block(quants, atoms, atom_copy):
    """The block as ``cli.run`` passes it to the arena: one quotient per
    structure object, by the propositions of every atom its copies read."""
    reads = block_reads(quants, atom_copy)
    bound = {id(g): quotient(g, reads[id(g)]) for _, g in quants}
    return [(coalition, bound[id(g)]) for coalition, g in quants]


def joined_slot_classes(g: MSCGS, block) -> int:
    """The classes of ``block`` that hold states of ``g`` with different slots."""
    slots: dict[int, set] = {}
    for s, b in enumerate(block):
        slots.setdefault(b, set()).add(g.decisions[s])
    return sum(len(kinds) > 1 for kinds in slots.values())


def widened(rng, g: MSCGS) -> MSCGS:
    """``g`` with each state split in two by an unread proposition ``z``.

    Each successor entry picks one of the two halves at random, as an input
    bit that the formula never reads would.
    """
    n = g.n_states
    return MSCGS(
        name=g.name,
        agents=g.agents,
        stages=g.stages,
        props=g.props | {"z"},
        labels=[g.labels[s] | ({"z"} if half else set()) for s in range(n) for half in (0, 1)],
        decisions=[g.decisions[s] for s in range(n) for _ in (0, 1)],
        table=[tuple(2 * t + rng.randint(0, 1) for t in g.table[s]) for s in range(n) for _ in (0, 1)],
        initial=2 * g.initial,
        state_names=[f"{g.state_names[s]}{'z' * half}" for s in range(n) for half in (0, 1)],
    )


def random_block(rng):
    """1-3 copies over 1-3 structure objects, half of them widened, each atom read with probability 0.6."""
    k = rng.randint(1, 3)
    pool = [random_structure(rng, max_states=6 if k < 3 else 3) for _ in range(rng.randint(1, k))]
    pool = [widened(rng, g) if rng.random() < 0.5 else g for g in pool]
    quants = []
    for _ in range(k):
        g = rng.choice(pool)
        quants.append((frozenset(a for a in g.agents if rng.random() < 0.5), g))
    atoms = tuple(
        (p, f"p{i + 1}") for i in range(k) for p in ("x", "y") if rng.random() < 0.6
    )
    atom_copy = {atom: int(atom[1][1:]) - 1 for atom in atoms}
    if atoms and rng.random() < 0.5:
        dpa = ltl_to_dpa(random_ltl(rng, rng.randint(1, 4), atoms), atoms)
    else:
        dpa = random_dpa(rng, atoms, max_states=4)
    return quants, dpa, atoms, atom_copy


def initial_winner(built):
    return built.game.initial in zielonka(built.game)[0].w0


def test_random_blocks_keep_their_winner():
    """Among the blocks are those whose quotient joins states with different
    slots, which only merging their moves can make alike."""
    rng = random.Random(1206)
    shared = smaller = joined = 0
    for _ in range(3000):
        quants, dpa, atoms, atom_copy = random_block(rng)
        raw = build_game(quants, dpa, atoms, atom_copy)
        reduced = build_game(quotient_block(quants, atoms, atom_copy), dpa, atoms, atom_copy)
        assert initial_winner(raw) == initial_winner(reduced)
        shared += len({id(g) for _, g in quants}) < len(quants)
        smaller += reduced.game.n_vertices < raw.game.n_vertices
        reads = block_reads(quants, atom_copy)
        joined += any(
            joined_slot_classes(g, quotient_by_rounds(g, reads[id(g)])[1]) for _, g in quants
        )
    assert shared >= 1000 and smaller >= 400 and joined >= 400, (shared, smaller, joined)


def reowned(rng, g: MSCGS) -> MSCGS:
    """``g`` with a twin of each state: its label and row, each slot handed to the next agent.

    Agent ``a_i``'s slot goes to ``a_{i+1}``, cyclically, and each successor
    entry leads to the state it names or to that state's twin at random.
    So a state and its twin have equal rows of classes wherever the twins
    are joined, but other owners wherever a slot has a choice.
    """
    n = g.n_states
    after = {a: g.agents[(i + 1) % len(g.agents)] for i, a in enumerate(g.agents)}
    return MSCGS(
        name=g.name,
        agents=g.agents,
        stages=g.stages,
        props=g.props,
        labels=g.labels * 2,
        decisions=g.decisions + [tuple((after[a], k) for a, k in slots) for slots in g.decisions],
        table=[tuple(t + n * rng.randint(0, 1) for t in row) for row in g.table * 2],
        initial=0,
        state_names=g.state_names + [f"{name}'" for name in g.state_names],
    )


def equal_rows_other_owners(g: MSCGS, block) -> int:
    """Pairs of a state and its twin in two classes whose merged rows of classes are equal."""
    n = g.n_states // 2
    merge = structures._merge_moves
    rows = [merge(g.decisions[s], [block[t] for t in g.table[s]])[1] for s in range(2 * n)]
    return sum(block[s] != block[s + n] and rows[s] == rows[s + n] for s in range(n))


def test_twins_with_other_owners_keep_their_winner():
    """A state and its twin differ only in who chooses, which a quotient
    must keep apart: over the quotient, the winner of the initial vertex
    is the winner over the loaded structure."""
    rng = random.Random(1208)
    pairs = 0
    for _ in range(600):
        g = random_structure(rng, max_states=3, shuffle_slots=True)
        while len(g.agents) < 2:
            g = random_structure(rng, max_states=3, shuffle_slots=True)
        g = reowned(rng, g)
        k = rng.randint(1, 2)
        quants = [(frozenset(a for a in g.agents if rng.random() < 0.5), g) for _ in range(k)]
        atoms = tuple((p, f"p{i + 1}") for i in range(k) for p in ("x", "y") if rng.random() < 0.6)
        atom_copy = {atom: int(atom[1][1:]) - 1 for atom in atoms}
        dpa = random_dpa(rng, atoms, max_states=4)
        raw = build_game(quants, dpa, atoms, atom_copy)
        reduced = build_game(quotient_block(quants, atoms, atom_copy), dpa, atoms, atom_copy)
        assert initial_winner(raw) == initial_winner(reduced)
        reads = block_reads(quants, atom_copy)[id(g)]
        pairs += equal_rows_other_owners(g, quotient_by_rounds(g, reads)[1])
    assert pairs >= 300, pairs


def bisimulation(a, b) -> list[int]:
    """Coarsest bisimulation on the disjoint union of games ``a`` and ``b``.

    Two vertices are related iff they have the same owner and priority and
    their successors reach the same classes (as sets: a repeated move adds
    no choice).  ``a``'s vertices come first.
    """
    shift = a.n_vertices
    succ = a.succ + tuple(tuple(t + shift for t in row) for row in b.succ)
    kinds = {}
    block = [kinds.setdefault(k, len(kinds)) for k in zip(a.owner + b.owner, a.priority + b.priority)]
    while True:
        signatures = {}
        new = [
            signatures.setdefault((block[v], frozenset(block[t] for t in row)), len(signatures))
            for v, row in enumerate(succ)
        ]
        if new == block:
            return block
        block = new


def assert_homomorphic_image(raw, reduced):
    """Every raw vertex has a bisimilar quotient vertex with its owner, priority and winner."""
    g, q = raw.game, reduced.game
    block = bisimulation(g, q)
    image = {block[g.n_vertices + u]: u for u in range(q.n_vertices)}
    assert block[g.initial] == block[g.n_vertices + q.initial]
    won, won_q = zielonka(g)[0], zielonka(q)[0]
    for v in range(g.n_vertices):
        u = image[block[v]]
        assert (g.owner[v], g.priority[v]) == (q.owner[u], q.priority[u])
        assert won.winner(v) == won_q.winner(u)


def test_random_blocks_map_onto_their_quotient_game():
    """The check runs on the reference games, which keep every vertex: the
    quotient can leave one move where the raw structure has several, so
    the kernel passes through vertices in the quotient's game that it keeps
    in the raw one.  The kernel builds both blocks' games as the contracted
    reference does."""
    rng = random.Random(1207)
    for _ in range(300):
        quants, dpa, atoms, atom_copy = random_block(rng)
        reduced_quants = quotient_block(quants, atoms, atom_copy)
        blocks = [(q, dpa, atoms, atom_copy) for q in (quants, reduced_quants)]
        raw, reduced = (
            reference_arena.build_game(*block, collapse=True, prune_decided=True)
            for block in blocks
        )
        assert_homomorphic_image(raw, reduced)
        for block in blocks:
            check_against_reference(block)


def test_bundled_rows_map_onto_their_quotient_game(monkeypatch):
    """The q1w1 and q2 rows of Table 5b, with the loaded structures put back."""
    raw_of = {}
    blocks = []
    original_quotient, original_build = structures.quotient, arena.build_game

    def quotient_spy(g, props):
        q = original_quotient(g, props)
        raw_of[id(q)] = g
        return q

    def build_spy(*args, **kwargs):
        blocks.append(args)
        return original_build(*args, **kwargs)

    monkeypatch.setattr(structures, "quotient", quotient_spy)
    monkeypatch.setattr(arena, "build_game", build_spy)
    path = cli.bundled_asset("table5b.json")
    names = []
    for entry in json.loads(path.read_text())["entries"]:
        if not entry["name"].startswith(("q1w1-", "q2-")):
            continue
        config = cli.CheckConfig(
            systems=[cli.SystemSpec("G", str(path.parent / entry["program"]))],
            prop=entry["prop"],
            widths=entry.get("widths", {}),
        )
        cli.run(config)
        names.append(entry["name"])
        quants, dpa, atoms, atom_copy = blocks.pop()
        raw_quants = [(coalition, raw_of[id(q)]) for coalition, q in quants]
        raw = original_build(raw_quants, dpa, atoms, atom_copy)
        reduced = original_build(quants, dpa, atoms, atom_copy)
        assert reduced.game.n_vertices < raw.game.n_vertices, entry["name"]
        assert_homomorphic_image(raw, reduced)
    assert len(names) == 6


def structure(labels, decisions, table):
    return MSCGS(
        name="S",
        agents=("a", "b"),
        stages={"a": 0, "b": 1},
        props=frozenset({"x", "y"}),
        labels=[frozenset(lab) for lab in labels],
        decisions=decisions,
        table=table,
        initial=0,
        state_names=[f"s{i}" for i in range(len(labels))],
    )


def test_states_merge_only_on_read_labels_and_equal_slots():
    one = (("a", 1),)
    g = structure(
        labels=[{"x"}, {"x", "y"}, {"x"}, set()],
        decisions=[(("a", 2),), one, one, (("b", 1),)],
        table=[(1, 2), (3,), (3,), (3,)],
    )
    q = quotient(g, {"x"})
    # s1 and s2 agree on x; y is not read
    assert q.n_states == 3 and q.state_names == ["s0", "s1", "s3"]
    assert q.props == frozenset({"x"}) and q.labels == [{"x"}, {"x"}, set()]
    # both moves of s0 now lead to one class, so they merge
    assert q.decisions[0] == (("a", 1),) and q.table[0] == (1,)
    assert quotient(g, {"x", "y"}).n_states == 4


def test_moves_merge_only_when_equal_for_every_co_move():
    slots = (("a", 3), ("b", 2))
    # rows by a's move: (1, 2), (1, 2), (1, 1); a's moves 0 and 1 agree
    # for both moves of b, move 2 differs when b plays 1
    g = structure(
        labels=[set(), {"x"}, {"y"}],
        decisions=[slots, (("a", 1),), (("a", 1),)],
        table=[(1, 2, 1, 2, 1, 1), (1,), (2,)],
    )
    q = quotient(g, {"x", "y"})
    assert q.n_states == 3
    assert q.decisions[0] == (("a", 2), ("b", 2))
    assert q.table[0] == (1, 2, 1, 1)
    # with nothing read, every move of s0 leads to the class of s1 and s2
    q = quotient(g, set())
    assert q.n_states == 2
    assert q.decisions[0] == (("a", 1), ("b", 1)) and q.table[0] == (1,)


def test_states_with_different_slots_join_when_their_moves_merge():
    """With nothing read, one class holding both states is stable: s0's two
    moves then lead to one class and merge, which leaves s0 the slots and
    row of s1.  Splitting the states by their slots first stops at 2 classes."""
    g = MSCGS(
        name="S",
        agents=("a0",),
        stages={"a0": 0},
        props=frozenset({"x"}),
        labels=[frozenset({"x"}), frozenset()],
        decisions=[(("a0", 2),), (("a0", 1),)],
        table=[(1, 0), (0,)],
        initial=0,
        state_names=["s0", "s1"],
    )
    q = quotient(g, set())
    assert q.n_states == 1 and q.state_names == ["s0"] and q.initial == 0
    assert q.decisions == [(("a0", 1),)] and q.table == [(0,)]
    # reading x tells the states apart, and then s0's moves stay apart too
    assert quotient(g, {"x"}) == g


def test_quotient_matches_merged_signature_rounds_on_random_structures():
    """Three agents of up to three moves each, their slots in stage order or
    shuffled; the quotient equals the greatest fixpoint of the rounds exactly."""
    rng = random.Random(4242)
    joined = 0
    for i in range(1500):
        g = random_structure(rng, max_agents=3, max_arity=3, shuffle_slots=i % 2 == 1)
        props = {p for p in ("x", "y") if rng.random() < 0.5}
        want, block = quotient_by_rounds(g, props)
        assert quotient(g, props) == want, (g, props)
        joined += joined_slot_classes(g, block)
    assert joined >= 150, joined


def test_quotient_matches_merged_signature_rounds_on_random_programs():
    """Each program as built, stuttered and shifted, seen through a random set of its bits."""
    rng = random.Random(4243)
    built = joined = 0
    while built < 200:
        widths, prog = parse_program(random_program(rng, names="xyz"[: rng.randint(1, 3)]))
        try:
            g = build_cgs(prog, widths, cap=2000)
        except StateCapError:
            continue
        built += 1
        bits = [f"{x}[{i}]" for x, w in widths.items() for i in range(w)]
        props = set(rng.sample(bits, rng.randint(0, len(bits))))
        for h in (g, stutter_transform(g), shift_transform(g, rng.randint(1, 3))):
            want, block = quotient_by_rounds(h, props)
            assert quotient(h, props) == want, (h.name, props)
            joined += joined_slot_classes(h, block)
    assert joined >= 40, joined


def test_move_merge_matches_the_scan_per_move():
    """The one-pass grouping of each slot's slices keeps the moves and the
    row that scanning the row once per move keeps."""
    rng = random.Random(2411)
    merged = 0
    for _ in range(500):
        slots = tuple((f"a{i}", rng.randint(1, 4)) for i in range(rng.randint(0, 3)))
        n = 1
        for _, arity in slots:
            n *= arity
        row = [rng.randrange(rng.randint(1, 3)) for _ in range(n)]
        got = structures._merge_moves(slots, row)
        assert got == merge_moves_by_scan(slots, row), (slots, row)
        merged += got[0] != slots
    assert merged >= 100, merged


def test_table5b_runs_in_full_on_the_quotient():
    rows, ok = cli.run_suite("table5b")
    assert ok and len(rows) == 12
    sizes = {r.name: r.sizes for r in rows}
    assert sizes["q1w3-ni-async"]["game.vertices"] == 1056
    assert sizes["q1w3-od-async"]["game.vertices"] == 295
    # h[1..] is never read and h is not in the formula, so q1 is built
    # with 15 states and its stuttered twin has 22 classes at every input width
    for width in (1, 2, 3):
        for prop in ("od-async", "ni-async"):
            row = sizes[f"q1w{width}-{prop}"]
            assert row["system.G_stut.states"] == 30
            assert row["system.G_stut.classes"] == 22
    # the asynchronous bodies' automata keep the copy swap
    for name, row in sizes.items():
        if name.endswith("-async"):
            assert row["game.swap_quotient"] == 1, name
            assert row["dpa.safra_steps"] == 0, name
