"""The packed-integer arena kernel against the tuple-keyed reference builder.

The kernel's one mode must reproduce the reference's game in the matching
mode (empty stages skipped, decided states pruned) vertex for vertex: equal
successor rows (in order), owners, priorities, initial vertex,
automaton-vertex count and labels, hence byte-equal DOT output.
"""

import functools
import json
import random

import pytest

import reference_arena
from conftest import random_dpa, random_structure
from hyperatl import arena, cli
from hyperatl.arena import VertexCapError, build_game
from hyperatl.solver import zielonka

# the reference's (collapse, prune_decided) mode that the kernel reproduces
MODES = [(True, True)]


def assert_same_arena(kernel, reference):
    g, r = kernel.game, reference.game
    assert g.initial == r.initial
    assert g.owner == r.owner
    assert g.priority == r.priority
    assert g.succ == r.succ
    assert kernel.n_automaton_vertices == reference.n_automaton_vertices
    assert kernel.n_sink_vertices == sum(d in ("LOSE", "WIN") for d in reference.descriptions)
    assert kernel.descriptions == reference.descriptions
    assert arena.export_dot(kernel) == arena.export_dot(reference)


def random_block(rng):
    k = rng.randint(1, 3)
    quants = []
    for _ in range(k):
        g = random_structure(rng, max_states=6 if k < 3 else 4)
        coalition = frozenset(a for a in g.agents if rng.random() < 0.5)
        quants.append((coalition, g))
    atoms = tuple((p, f"p{i + 1}") for i in range(k) for p in ("x", "y"))
    atom_copy = {(p, f"p{i + 1}"): i for i in range(k) for p in ("x", "y")}
    return quants, random_dpa(rng, atoms, max_states=5), atoms, atom_copy


@pytest.mark.parametrize("collapse,prune_decided", MODES)
def test_random_blocks_match_reference(collapse, prune_decided):
    rng = random.Random(2107)
    for _ in range(200):
        args = random_block(rng)
        kw = dict(collapse=collapse, prune_decided=prune_decided)
        assert_same_arena(build_game(*args), reference_arena.build_game(*args, **kw))


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
        reference = reference_arena.build_game(*args, **kwargs, collapse=True, prune_decided=True)
        assert_same_arena(arena.build_game(*args, **kwargs), reference)
        # --dump-game output: the same game under the winner's strategy
        regions, s0, s1 = zielonka(reference.game)
        strategy = s0 if reference.game.initial in regions.w0 else s1
        assert dumped == arena.export_dot(reference, strategy=strategy), name


@pytest.mark.parametrize("collapse,prune_decided", MODES)
def test_vertex_cap_fires_at_the_same_count(collapse, prune_decided):
    rng = random.Random(5)
    for _ in range(20):
        args = random_block(rng)
        kw = dict(collapse=collapse, prune_decided=prune_decided)
        n = reference_arena.build_game(*args, **kw).game.n_vertices
        for builder in (build_game, functools.partial(reference_arena.build_game, **kw)):
            assert builder(*args, cap=n).game.n_vertices == n
            with pytest.raises(VertexCapError, match=f"cap of {n - 1} "):
                builder(*args, cap=n - 1)
