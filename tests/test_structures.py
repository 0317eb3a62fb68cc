import random

import pytest

from conftest import random_structure
from hyperatl.cli import bundled_asset
from hyperatl.imp import build_cgs, parse_program
from hyperatl.structures import (
    MSCGS,
    SCHED,
    STUT_PROP,
    TransformError,
    export_dot,
    shift_transform,
    stutter_transform,
    validate,
)


def self_loop(labels=frozenset(), props=frozenset()):
    return MSCGS(
        name="loop",
        agents=("a",),
        stages={"a": 0},
        props=props,
        labels=[labels],
        decisions=[(("a", 1),)],
        table=[(0,)],
        initial=0,
        state_names=["s0"],
    )


def load(name):
    widths, prog = parse_program(bundled_asset(name).read_text())
    return build_cgs(prog, widths)


def test_validate_constructor_output_clean():
    assert validate(load("p1.imp")) == []


def test_validate_flags_missing_successor():
    g = self_loop()
    g.table[0] = ()
    diag = validate(g)
    assert len(diag) == 1 and "non-total" in diag[0][1]


def test_validate_flags_partial_stage_map():
    g = self_loop()
    g = MSCGS(g.name, g.agents, {}, g.props, g.labels, g.decisions, g.table, g.initial, g.state_names)
    diag = validate(g)
    assert len(diag) == 1 and "stage map" in diag[0][1]


def test_validate_flags_agent_with_two_slots():
    g = self_loop()
    g.decisions[0] = (("a", 2), ("a", 1))
    g.table[0] = (0, 0)
    assert validate(g) == [("error", "two decision slots for agent 'a'", 0)]


def two_states():
    """Two states: ``a`` chooses between both at ``s0``, and ``s1`` loops."""
    return MSCGS(
        name="two",
        agents=("a",),
        stages={"a": 0},
        props=frozenset({"x"}),
        labels=[frozenset(), frozenset({"x"})],
        decisions=[(("a", 2),), (("a", 1),)],
        table=[(0, 1), (1,)],
        initial=0,
        state_names=["s0", "s1"],
    )


def with_fields(g, **fields):
    values = {name: getattr(g, name) for name in MSCGS.__match_args__}
    return MSCGS(**{**values, **fields})


@pytest.mark.parametrize(
    "fields, diagnostic",
    [
        ({"initial": 2}, ("error", "initial state 2 out of range", None)),
        ({"decisions": [(("b", 2),), (("a", 1),)]}, ("error", "decision slot for unknown agent 'b'", 0)),
        ({"decisions": [(("a", 2),), (("a", 0),)]}, ("error", "decision slot with arity < 1", 1)),
        ({"table": [(0, 1, 1), (1,)]}, ("error", "successor table has 3 entries, expected 2", 0)),
        ({"table": [(0, 2), (1,)]}, ("error", "successor 2 out of range", 0)),
        (
            {"labels": [frozenset({"y"}), frozenset({"x"})]},
            ("error", "labels not in the proposition set: ['y']", 0),
        ),
    ],
    ids=["initial", "unknown-agent", "arity", "table-size", "successor", "labels"],
)
def test_validate_flags_each_malformed_part(fields, diagnostic):
    assert validate(two_states()) == []
    assert validate(with_fields(two_states(), **fields)) == [diagnostic]


def test_stutter_one_state_loop():
    g = self_loop(labels=frozenset({"x"}), props=frozenset({"x"}))
    gs = stutter_transform(g)
    assert gs.n_states == 2
    assert gs.labels[0] == frozenset({"x"})
    assert gs.labels[1] == frozenset({"x", STUT_PROP})
    assert gs.stages[SCHED] == 1
    assert gs.agents == ("a", SCHED)
    assert validate(gs) == []


def test_stutter_doubles_states():
    g = load("p1.imp")
    gs = stutter_transform(g)
    assert gs.n_states == 2 * g.n_states
    assert validate(gs) == []


def test_stutter_rejects_existing_scheduler():
    g = self_loop()
    gs = stutter_transform(g)
    with pytest.raises(TransformError, match="already present"):
        stutter_transform(gs)


def test_stutter_freeze_and_release_clauses():
    # every joint choice either freezes in place (marked) or fires the
    # underlying transition; checked by exhaustive two-step enumeration
    g = load("p1.imp")
    gs = stutter_transform(g)
    back = {}  # stuttered id -> (base id, frozen?)
    # the transform's state order is discovery order; rebuild it
    order = [(g.initial, 0)]
    index = {(g.initial, 0): 0}
    for s, b in order:
        row = []
        for t in g.table[s]:
            for key in ((t, 0), (s, 1)):
                if key not in index:
                    index[key] = len(order)
                    order.append(key)
    for key, i in index.items():
        back[i] = key
    assert len(back) == gs.n_states
    for i, (s, b) in back.items():
        assert (STUT_PROP in gs.labels[i]) == (b == 1)
        assert gs.labels[i] - {STUT_PROP} == g.labels[s]
        # sched move 0 lets the base transition fire, move 1 freezes
        for idx, target in enumerate(gs.table[i]):
            base_choice, sched_bit = divmod(idx, 2)
            if sched_bit == 0:
                assert back[target] == (g.table[s][base_choice], 0)
            else:
                assert back[target] == (s, 1)
        # freeze then release reproduces the original successor set
        frozen = gs.table[i][1]
        released = {back[t][0] for t in gs.table[frozen][0::2]}
        assert released == set(g.table[s])


def test_shift_adds_exactly_k_states():
    g = self_loop()
    for k in (1, 3):
        gk = shift_transform(g, k)
        assert gk.n_states == g.n_states + k
        assert validate(gk) == []
        assert gk.labels[0] == frozenset()
    with pytest.raises(TransformError):
        shift_transform(g, 0)


def test_shift_single_chain_to_old_initial():
    g = self_loop()
    gk = shift_transform(g, 3)
    assert gk.table[0] == (1,)
    assert gk.table[1] == (2,)
    assert gk.table[2] == (3,)  # old initial, offset by k
    assert gk.table[3] == (3,)


def trace_labels(g, length):
    """All label sequences of the given length from the initial state."""
    out = set()

    def walk(s, acc):
        if len(acc) == length:
            out.add(tuple(acc))
            return
        for t in set(g.table[s]):
            walk(t, acc + [g.labels[t]])

    walk(g.initial, [g.labels[g.initial]])
    return out


def test_shift_traces_project_to_original():
    rng = random.Random(9)
    for _ in range(20):
        g = random_structure(rng, max_states=3)
        for k in (1, 2):
            gk = shift_transform(g, k)
            depth = 4
            orig = trace_labels(g, depth)
            shifted = trace_labels(gk, depth + k)
            projected = {t[k:] for t in shifted}
            assert projected == orig


def test_dot_deterministic_and_complete():
    g = self_loop()
    dot = export_dot(g)
    assert dot == export_dot(g)
    assert dot.count("->") == 1
    assert "{}" in dot
    g2 = load("p3.imp")
    assert export_dot(g2) == export_dot(g2)
