"""The packed-integer arena kernel against the tuple-keyed reference builder.

The kernel steps the automaton on the edge that fires the joint step and
passes through forced vertices (one move per copy), so the reference's
game in the matching mode (empty stages skipped, decided states pruned)
is first contracted by :func:`contract`, which removes its automaton-step
vertices and the forced vertices the kernel passes.  Where the copy swap is
no automorphism, the kernel's one mode must reproduce that contracted game
vertex for vertex: equal successor rows (in order), owners, priorities,
initial vertex, round-start count and labels, hence byte-equal DOT output.  Where it is
one, the kernel's game must be the orbit quotient of the contracted game:
every contracted vertex is a kept key or the swap image of one, and each
kept vertex has the owner, priority, label, successor orbits (in order)
and winner of both contracted vertices it stands for.
"""

import dataclasses
import functools
import json
import random
import re

import pytest

import reference_arena
from conftest import random_block, random_ltl, random_structure, swap_paths
from hyperatl import arena, cli
from hyperatl import formula as F
from hyperatl.arena import VertexCapError, build_game
from hyperatl.ltl2dpa import DPA, LOSE, WIN, ltl_to_dpa
from hyperatl.solver import ParityGame, zielonka
from hyperatl.structures import MSCGS

# the reference's (collapse, prune_decided) mode that the kernel reproduces
MODES = [(True, True)]

SINK_KEYS = {LOSE: ("LOSE",), WIN: ("WIN",)}


@dataclasses.dataclass
class Contracted(reference_arena.BuiltArena):
    starts: list = dataclasses.field(default_factory=list, repr=False)  # per vertex


def contract(reference, dpa):
    """The reference's game with automaton steps and forced vertices passed through.

    Each edge into an automaton-step vertex ``A q (js)`` is redirected to
    that vertex's successor, or to the losing or winning sink once the
    state ``q'`` that ``q`` steps to on the labels of ``js`` is decided.  In
    a block where no agent acts that successor is again an automaton step,
    so the vertex stays, as ``A q' (js)`` with the colour of ``q'``, owned
    by player 0 and labelled ``M q' (js) l=0 T`` like the kernel's one
    phase ``(0, True)``.  A
    vertex that fires is one whose successors were automaton steps (or
    sinks), or such an ``A`` vertex; its successors begin rounds.  Then
    every edge passes through each vertex with one successor that does not
    fire, and through one that fires too when the edge's source lies in its
    round (the source does not fire).  The result is renumbered
    breadth-first from the initial vertex; ``starts`` marks the vertices
    that begin a round: the initial one, and those an edge enters after it
    passed a firing vertex or left one.
    """
    r, keys = reference.game, reference.keys

    def image(v):
        key = keys[v]
        if key[0] != "A":
            return key
        _, q, js = key
        letter = 0
        for s, copy in zip(js, reference.copies):
            letter |= copy.letter_mask[s]
        stepped = dpa.trans[q][letter]
        if dpa.sink[stepped] is not None:
            return SINK_KEYS[dpa.sink[stepped]]
        (t,) = r.succ[v]
        return keys[t] if keys[t][0] == "M" else ("A", stepped, js)

    # per contracted key: owner, priority, successor keys and label
    kept = {key: (0, int(key == ("LOSE",)), [key], key[0]) for key in SINK_KEYS.values()}
    fires = set()
    for v, key in enumerate(keys):
        if key[0] == "M":
            row = [image(t) for t in r.succ[v]]
            kept[key] = (r.owner[v], r.priority[v], row, reference.descriptions[v])
            if all(keys[t][0] != "M" for t in r.succ[v]):
                fires.add(key)
        elif key[0] == "A":
            start = image(v)
            if start[0] == "A":
                _, q, js = start
                label = "M q%d (%s) l=0 T" % (q, ",".join(map(str, js)))
                kept[start] = (0, dpa.colors[q], [image(t) for t in r.succ[v]], label)
                fires.add(start)

    starts = set()

    def resolve(key, in_round):
        """Where an edge into ``key`` goes; its source lies in the round iff ``in_round``."""
        while key[0] in ("M", "A") and len(kept[key][2]) == 1:
            if key in fires:
                if not in_round:
                    break
                in_round = False
            key = kept[key][2][0]
        if not in_round:
            starts.add(key)
        return key

    order = [resolve(image(r.initial), False)]
    index = {order[0]: 0}
    succ, owner, priority, labels = [], [], [], []
    for key in order:
        o, p, row, label = kept[key]
        owner.append(o)
        priority.append(p)
        labels.append(label)
        row = [resolve(t, key not in fires) for t in row]
        for t in row:
            if t not in index:
                index[t] = len(order)
                order.append(t)
        succ.append([index[t] for t in row])
    is_start = [key in starts and key[0] in ("M", "A") for key in order]
    return Contracted(
        game=ParityGame(succ=succ, owner=owner, priority=priority, initial=0),
        descriptions=labels,
        n_automaton_vertices=sum(is_start),
        keys=order,
        copies=reference.copies,
        starts=is_start,
    )


def contracted_reference(quants, dpa, atoms, atom_copy, **kwargs):
    """The reference's game in the kernel's mode, contracted."""
    reference = reference_arena.build_game(quants, dpa, atoms, atom_copy, **kwargs)
    return contract(reference, dpa)


def assert_same_arena(kernel, reference):
    assert not kernel.swap_quotient
    g, r = kernel.game, reference.game
    assert g.initial == r.initial
    assert g.owner == r.owner
    assert g.priority == r.priority
    assert g.succ == r.succ
    assert kernel.n_automaton_vertices == reference.n_automaton_vertices
    assert kernel.n_sink_vertices == sum(d in ("LOSE", "WIN") for d in reference.descriptions)
    assert kernel.descriptions == reference.descriptions
    assert arena.export_dot(kernel) == arena.export_dot(reference)


def packed_key(layout, reference, ref_key):
    """The kernel's packed key, under ``layout``, of a reference vertex key."""
    if ref_key[0] in ("LOSE", "WIN"):
        return arena._LOSE if ref_key[0] == "LOSE" else arena._WIN
    if ref_key[0] == "A":
        # a block where no agent acts: its one phase is (0, True)
        _, q, js = ref_key
        sigma, pair = [()] * len(js), (0, True)
    else:
        _, q, js, sigma, stage, team = ref_key
        pair = (stage, team)
    key = (q * len(layout.pairs) + layout.pairs.index(pair)) * layout.size
    for s, moves, (stride, _, width), copy in zip(js, sigma, layout.dims, reference.copies):
        partial = 0
        for i, move in zip(copy.move_order, moves):
            partial = partial * copy.arity(s, copy.structure.agents[i]) + move
        key += (s * width + partial) * stride
    return key


def assert_orbit_quotient(kernel, reference):
    g, r = kernel.game, reference.game
    layout = kernel.layout
    packed = [packed_key(layout, reference, key) for key in reference.keys]
    ref_vertex = {key: v for v, key in enumerate(packed)}
    assert len(ref_vertex) == r.n_vertices
    orbit = {}
    for v, key in enumerate(kernel.keys):
        orbit[key] = orbit[layout.swap(key)] = v
    assert orbit.keys() == ref_vertex.keys()
    assert ref_vertex[kernel.keys[g.initial]] == r.initial
    won, ref_won = zielonka(g)[0], zielonka(r)[0]
    for v, key in enumerate(kernel.keys):
        for image in (key, layout.swap(key)):
            u = ref_vertex[image]
            assert (g.owner[v], g.priority[v]) == (r.owner[u], r.priority[u])
            assert won.winner(v) == ref_won.winner(u)
        u = ref_vertex[key]
        assert kernel.descriptions[v] == reference.descriptions[u]
        assert g.succ[v] == tuple(orbit[packed[t]] for t in r.succ[u])
    starts = [k for k in kernel.keys if reference.starts[ref_vertex[k]]]
    assert kernel.n_automaton_vertices == len(starts)
    assert reference.n_automaton_vertices == sum(2 - (k == layout.swap(k)) for k in starts)
    assert kernel.n_sink_vertices == sum(k < 0 for k in kernel.keys)


# three agents, slots of up to three moves, listed in any order
WIDE_DRAWS = dict(max_agents=3, max_arity=3, shuffle_slots=True)


@pytest.mark.parametrize("collapse,prune_decided", MODES)
def test_random_blocks_match_reference(collapse, prune_decided):
    kw = dict(collapse=collapse, prune_decided=prune_decided)
    for draws in ({}, WIDE_DRAWS):
        rng = random.Random(2107)
        for _ in range(200):
            args = random_block(rng, **draws)
            assert_same_arena(build_game(*args), contracted_reference(*args, **kw))


def captured_blocks(monkeypatch, tmp_path, rows):
    """Run each manifest row through ``cli.run`` with a game dump; returns, per
    row, the arguments ``cli.run`` passed to ``build_game`` and the dump."""
    calls = []
    original = arena.build_game

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(arena, "build_game", spy)
    out = []
    for manifest, names in rows:
        path = cli.bundled_asset(f"{manifest}.json")
        for entry in json.loads(path.read_text())["entries"]:
            if not names(entry["name"]):
                continue
            dump = tmp_path / f"{entry['name']}.dot"
            config = cli.CheckConfig(
                systems=[cli.SystemSpec("G", str(path.parent / entry["program"]))],
                prop=entry["prop"],
                widths=entry.get("widths", {}),
                dump_game=str(dump),
            )
            cli.run(config)
            out.append((entry["name"], calls.pop(), dump.read_text()))
    return out


def test_bundled_rows_match_reference(monkeypatch, tmp_path):
    rows = [
        ("table5a", lambda name: True),
        ("table5b", lambda name: name.startswith(("q1w1-", "q2-"))),
    ]
    blocks = captured_blocks(monkeypatch, tmp_path, rows)
    assert len(blocks) == 16 + 6
    for name, (args, kwargs), dumped in blocks:
        reference = contracted_reference(*args, **kwargs, collapse=True, prune_decided=True)
        kernel = arena.build_game(*args, **kwargs)
        # simsec and sgni bind different systems; od, ni and ni-async are symmetric
        assert kernel.swap_quotient == (not name.endswith(("-simsec", "-sgni"))), name
        if kernel.swap_quotient:
            assert_orbit_quotient(kernel, reference)
            shown = kernel
        else:
            assert_same_arena(kernel, reference)
            shown = reference
        # --dump-game output: that game under the winner's strategy
        regions, s0, s1 = zielonka(shown.game)
        strategy = s0 if shown.game.initial in regions.w0 else s1
        assert dumped == arena.export_dot(shown, strategy=strategy), name


@pytest.mark.parametrize("collapse,prune_decided", MODES)
def test_vertex_cap_fires_at_the_same_count(collapse, prune_decided):
    """The kernel's cap fires at the contracted game's size, the reference's at its own."""
    rng = random.Random(5)
    for _ in range(20):
        args = random_block(rng)
        kw = dict(collapse=collapse, prune_decided=prune_decided)
        reference = functools.partial(reference_arena.build_game, **kw)
        for builder, n in (
            (build_game, contracted_reference(*args, **kw).game.n_vertices),
            (reference, reference(*args).game.n_vertices),
        ):
            assert builder(*args, cap=n).game.n_vertices == n
            with pytest.raises(VertexCapError, match=f"cap of {n - 1} "):
                builder(*args, cap=n - 1)


# two copies of one structure, atoms x and y of each
TWO_COPY_ATOMS = (("x", "p1"), ("y", "p1"), ("x", "p2"), ("y", "p2"))
TWO_COPY_INDEX = {atom: int(atom[1] == "p2") for atom in TWO_COPY_ATOMS}


def two_copy_block(g, coalitions, body, atoms=TWO_COPY_ATOMS):
    quants = [(coalition, g) for coalition in coalitions]
    atom_copy = {atom: TWO_COPY_INDEX[atom] for atom in atoms}
    return quants, ltl_to_dpa(body, atoms), atoms, atom_copy


def check_against_reference(block):
    """Compare the kernel's game with the contracted reference's; returns both."""
    kernel = build_game(*block)
    reference = contracted_reference(*block, collapse=True, prune_decided=True)
    if not kernel.swap_quotient:
        assert_same_arena(kernel, reference)
        return kernel, reference
    assert_orbit_quotient(kernel, reference)
    # the cap counts orbits
    n = kernel.game.n_vertices
    assert build_game(*block, cap=n).game.n_vertices == n
    with pytest.raises(VertexCapError, match=f"cap of {n - 1} "):
        build_game(*block, cap=n - 1)
    return kernel, reference


def quotients(block):
    return check_against_reference(block)[0].swap_quotient


def without_agents(g):
    """``g`` with every state's first successor as its only one: no agent acts."""
    return MSCGS(
        g.name,
        agents=(),
        stages={},
        props=g.props,
        labels=g.labels,
        decisions=[()] * g.n_states,
        table=[row[:1] for row in g.table],
        initial=g.initial,
        state_names=g.state_names,
    )


def test_a_block_where_no_agent_acts_has_one_phase():
    """Its one phase is ``(0, True)``, not both pairs of stage 0; so player 0
    owns every vertex."""
    rng = random.Random(2109)
    for _ in range(30):
        quants, dpa, atoms, atom_copy = random_block(rng)
        block = ([(frozenset(), without_agents(g)) for _, g in quants], dpa, atoms, atom_copy)
        built = build_game(*block)
        assert built.layout.pairs == [(0, True)]
        assert not any(built.game.owner)


def test_blocks_where_no_agent_acts_match_reference():
    """With no agent in any copy a round is one vertex ``M q (js) l=0 T``,
    whose state ``q`` has read the labels of ``js``; winners are the exact
    game's."""
    rng = random.Random(2108)
    rounds = wins = 0
    for _ in range(100):
        quants, dpa, atoms, atom_copy = random_block(rng)
        block = ([(frozenset(), without_agents(g)) for _, g in quants], dpa, atoms, atom_copy)
        kernel, _ = check_against_reference(block)
        round_label = re.compile(r"M q\d+ \([\d,]+\) l=0 T")
        assert all(round_label.fullmatch(d) or d in ("LOSE", "WIN") for d in kernel.descriptions)
        assert kernel.n_automaton_vertices == kernel.game.n_vertices - kernel.n_sink_vertices
        exact = reference_arena.build_game(*block, collapse=False, prune_decided=False)
        won, exact_won = zielonka(kernel.game)[0], zielonka(exact.game)[0]
        assert won.winner(kernel.game.initial) == exact_won.winner(exact.game.initial)
        rounds += kernel.n_automaton_vertices > 1
        wins += won.winner(kernel.game.initial) == 0
    assert rounds >= 30 and 20 <= wins <= 80, (rounds, wins)


def test_symmetric_bodies_build_the_orbit_quotient():
    rng = random.Random(808)
    quotiented = smaller = 0
    for _ in range(100):
        g = random_structure(rng, max_states=5)
        coalition = frozenset(a for a in g.agents if rng.random() < 0.5)
        f = random_ltl(rng, rng.randint(1, 5), TWO_COPY_ATOMS)
        block = two_copy_block(g, [coalition, coalition], F.And(f, swap_paths(f)))
        kernel, reference = check_against_reference(block)
        quotiented += kernel.swap_quotient
        smaller += kernel.game.n_vertices < reference.game.n_vertices
    assert quotiented >= 83 and smaller >= 10


def test_asymmetric_blocks_keep_every_vertex():
    rng = random.Random(809)
    kept = 0
    for _ in range(60):
        g = random_structure(rng, max_states=5)
        coalition = frozenset(a for a in g.agents if rng.random() < 0.5)
        # a body read on one side only: symmetric only by accident
        f = random_ltl(rng, rng.randint(1, 5), TWO_COPY_ATOMS)
        kept += not quotients(two_copy_block(g, [coalition, coalition], f))
        # a symmetric body under unequal coalitions
        block = two_copy_block(g, [frozenset(), frozenset(g.agents)], F.And(f, swap_paths(f)))
        assert not quotients(block)
    assert kept >= 30


SYMMETRIC_BODY = F.parse_ltl("G (x{p1} <-> x{p2}) & F y{p1} & F y{p2}")


def test_swap_needs_every_atom_in_both_copies():
    g = random_structure(random.Random(3), max_states=4)
    body = F.parse_ltl("G (x{p1} <-> x{p2})")
    assert quotients(two_copy_block(g, [frozenset()] * 2, body))
    one_sided = (("x", "p1"), ("x", "p2"), ("y", "p1"))
    assert not quotients(two_copy_block(g, [frozenset()] * 2, body, one_sided))


def test_swap_needs_equal_coalitions_and_one_structure():
    g = random_structure(random.Random(4), max_states=4)
    twin = random_structure(random.Random(4), max_states=4)
    a = frozenset(g.agents[:1])
    assert quotients(two_copy_block(g, [a, a], SYMMETRIC_BODY))
    assert not quotients(two_copy_block(g, [a, frozenset()], SYMMETRIC_BODY))
    block = two_copy_block(g, [a, a], SYMMETRIC_BODY)
    block[0][1] = (a, twin)
    assert not quotients(block)


def test_swap_needs_colours_to_match():
    # x on one side only leads to accepting state 1 or rejecting state 2:
    # swapping the letters maps the transitions, but not the colours
    atoms = (("x", "p1"), ("x", "p2"))
    dpa = DPA(atoms, 0, [0, 0, 1], [[0, 1, 2, 0], [1] * 4, [2] * 4])
    g = random_structure(random.Random(6), max_states=4)
    assert not quotients(([(frozenset(), g)] * 2, dpa, atoms, {atoms[0]: 0, atoms[1]: 1}))


def test_swap_needs_a_symmetric_body():
    g = random_structure(random.Random(5), max_states=4)
    assert not quotients(two_copy_block(g, [frozenset()] * 2, F.parse_ltl("G x{p1} & F y{p2}")))
