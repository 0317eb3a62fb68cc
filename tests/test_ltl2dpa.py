import itertools
import random
import re
import time

import pytest

from conftest import (
    ATOM_POOL,
    random_dpa,
    random_lasso,
    random_ltl,
    random_obligation_body,
    random_safety_formula,
    random_structure,
)
from oracles import (
    assignment_to_letter,
    brute_force_solve,
    dpa_accepts_lasso,
    eval_lasso,
    letter_to_assignment,
    nba_to_dpa_per_letter,
    safety_automaton_via_nba,
    safra_step_on_nested_trees,
    tidy,
)
from hyperatl import formula as F
from hyperatl import ltl2dpa, props
from hyperatl.arena import _copy_swap
from hyperatl.formula import parse_ltl, to_nnf
from hyperatl.graph import explore
from hyperatl.ltl2dpa import (
    DPA,
    NBA,
    AutomatonCapError,
    _is_deterministic,
    _letter_classes,
    _mask,
    _minimal,
    _obligation_parts,
    _quotient,
    _safra_step,
    apa_to_nba,
    compress_colors,
    decided_states,
    deterministic_nba_to_dpa,
    export_dot,
    ltl_to_apa,
    ltl_to_dpa,
    nba_to_dpa,
)
from hyperatl.solver import ParityGame

A = ("a", "p")
B = ("b", "p")


def letters(atoms):
    return [dict(zip(atoms, bits)) for bits in itertools.product((False, True), repeat=len(atoms))]


def all_lassos(atoms, max_total):
    """Every prefix/loop split with total length up to the bound."""
    alphabet = letters(atoms)
    for total in range(1, max_total + 1):
        for loop_len in range(1, total + 1):
            pre_len = total - loop_len
            for pre in itertools.product(alphabet, repeat=pre_len):
                for loop in itertools.product(alphabet, repeat=loop_len):
                    yield list(pre), list(loop)


# -- structural checks on the alternating automaton ---------------------------
#
# A transition is the antichain of minimal successor sets, each a bitmask
# over the states: () is false and (0,) is true.


def letter_of(atoms, *true_atoms):
    return assignment_to_letter({a: True for a in true_atoms}, atoms)


def test_apa_literal_single_state():
    apa = ltl_to_apa(F.Atom(*A), (A,))
    assert apa.n_states == 1
    assert apa.colors == [0]
    assert apa.trans[0][0] == ()
    assert apa.trans[0][1] == (0,)


def test_apa_until_shape_and_colors():
    apa = ltl_to_apa(parse_ltl("a{p} U b{p}"), (A, B))
    root = apa.initial
    assert apa.colors[root] == 1
    row = apa.trans[root]
    # reading {a} keeps the obligation, {b} discharges it, {} violates it
    assert row[letter_of((A, B), A)] == (1 << root,)
    assert row[letter_of((A, B), B)] == (0,)
    assert row[letter_of((A, B))] == ()


def test_apa_release_root_color_zero():
    apa = ltl_to_apa(parse_ltl("a{p} R b{p}"), (A, B))
    root = apa.initial
    assert apa.colors[root] == 0
    row = apa.trans[root]
    # {b} keeps the obligation, {a, b} releases it, {a} violates it
    assert row[letter_of((A, B), B)] == (1 << root,)
    assert row[letter_of((A, B), A, B)] == (0,)
    assert row[letter_of((A, B), A)] == ()


def test_apa_next_delays_one_step():
    apa = ltl_to_apa(parse_ltl("X a{p}"), (A,))
    sub = apa.trans[apa.initial][0]
    assert sub == apa.trans[apa.initial][1]  # letter-independent
    (succ,) = sub
    assert succ.bit_count() == 1
    child = succ.bit_length() - 1
    assert child != apa.initial
    assert apa.trans[child] == [(), (0,)]


def assert_canonical_antichain(sets, n_states):
    """No member contains another (so none repeats), members come by (size, value)."""
    assert all(isinstance(s, int) and 0 <= s < 1 << n_states for s in sets)
    assert not any(s & t == s for s, t in itertools.permutations(sets, 2))
    keys = [(s.bit_count(), s) for s in sets]
    assert keys == sorted(keys)


def test_apa_rows_are_canonical_antichains():
    rng = random.Random(8)
    for _ in range(300):
        apa = ltl_to_apa(random_ltl(rng, rng.randint(1, 8)), ATOM_POOL)
        for row in apa.trans:
            assert len(row) == apa.n_letters
            for sets in row:
                assert_canonical_antichain(sets, apa.n_states)


def test_minimal_is_the_antichain_of_minimal_sets():
    """``_minimal`` keeps exactly the sets with no proper subset in the family."""
    rng = random.Random(9)
    for _ in range(500):
        n = rng.randint(0, 6)
        family = [rng.getrandbits(n) for _ in range(rng.randint(0, 12))]
        got = _minimal(family)
        assert_canonical_antichain(got, n)
        assert set(got) == {s for s in family if not any(t & s == t != s for t in family)}
        # every input set contains some kept set
        assert all(any(t & s == t for t in got) for s in family)


def test_apa_rejects_non_nnf():
    with pytest.raises(ValueError, match="negation normal form"):
        ltl_to_apa(F.Not(F.Globally(F.Atom(*A))), (A,))


def test_apa_state_count_bounded_by_subformulas():
    rng = random.Random(1)
    for _ in range(100):
        f = random_ltl(rng, rng.randint(1, 6))
        apa = ltl_to_apa(f, ATOM_POOL)

        def count(g):
            match g:
                case F.Atom(_, _) | F.TrueF() | F.FalseF():
                    return 1
                case F.Not(h) | F.Next(h) | F.Globally(h) | F.Eventually(h):
                    return 1 + count(h)
                case F.And(l, r) | F.Or(l, r) | F.Until(l, r) | F.Release(l, r):
                    return 1 + count(l) + count(r)

        assert apa.n_states <= 1 + count(f)


# -- breakpoint construction, judged by an independent lasso check ------------


def nba_accepts_lasso(nba, prefix, loop):
    """Independent acceptance check on the product of automaton and lasso."""
    current = {nba.initial}
    for a in prefix:
        letter = assignment_to_letter(a, nba.atoms)
        current = {t for q in current for t in nba.trans[q][letter]}
    loop_letters = [assignment_to_letter(a, nba.atoms) for a in loop]
    n = len(loop_letters)
    nodes = {(q, i) for q in range(nba.n_states) for i in range(n)}
    succ = {
        (q, i): {(t, (i + 1) % n) for t in nba.trans[q][loop_letters[i]]}
        for (q, i) in nodes
    }
    reachable = set()
    stack = [(q, 0) for q in current]
    while stack:
        node = stack.pop()
        if node in reachable:
            continue
        reachable.add(node)
        stack.extend(succ[node])
    # accepting iff some reachable accepting node lies on a cycle
    for start in reachable:
        if start[0] not in nba.accepting:
            continue
        seen = set()
        frontier = list(succ[start])
        while frontier:
            node = frontier.pop()
            if node == start:
                return True
            if node in seen:
                continue
            seen.add(node)
            frontier.extend(succ[node])
    return False


def test_nba_of_true_accepts_everything():
    apa = ltl_to_apa(F.TrueF(), (A,))
    nba = apa_to_nba(apa)
    for pre, loop in all_lassos((A,), 4):
        assert nba_accepts_lasso(nba, pre, loop)


@pytest.mark.parametrize("text", ["G a{p}", "a{p} U b{p}"])
def test_nba_matches_oracle_exhaustively(text):
    f = parse_ltl(text)
    atoms = F.collect_atoms(f)
    nba = apa_to_nba(ltl_to_apa(to_nnf(f), atoms))
    bound = 6 if len(atoms) == 1 else 4
    for pre, loop in all_lassos(atoms, bound):
        assert nba_accepts_lasso(nba, pre, loop) == eval_lasso(f, pre, loop)


def test_apa_to_nba_rejects_wide_colors():
    apa = ltl_to_apa(F.Atom(*A), (A,))
    apa.colors[0] = 2
    with pytest.raises(ValueError, match="colors"):
        apa_to_nba(apa)


# -- determinization -----------------------------------------------------------


def chain_to_dpa(text):
    f = to_nnf(parse_ltl(text))
    atoms = F.collect_atoms(f)
    return f, atoms, nba_to_dpa(apa_to_nba(ltl_to_apa(f, atoms)))


def test_dpa_f_exhaustive():
    f, atoms, dpa = chain_to_dpa("F b{p}")
    for pre, loop in all_lassos(atoms, 6):
        assert dpa_accepts_lasso(dpa, pre, loop) == eval_lasso(f, pre, loop)


def test_dpa_gf_needs_two_colors():
    f, atoms, dpa = chain_to_dpa("G F a{p}")
    assert dpa.n_colors >= 2
    hi = {atoms[0]: True}
    lo = {atoms[0]: False}
    assert dpa_accepts_lasso(dpa, [], [hi, lo])
    assert not dpa_accepts_lasso(dpa, [hi, hi], [lo])


def test_dpa_of_deterministic_input_stays_small():
    # a safety body whose breakpoint automaton is already deterministic
    f, atoms, dpa = chain_to_dpa("G (a{p} <-> X b{p})")
    nba = apa_to_nba(ltl_to_apa(f, atoms))
    assert dpa.n_states <= nba.n_states ** 2 + 2
    for pre, loop in all_lassos(atoms, 4):
        assert dpa_accepts_lasso(dpa, pre, loop) == eval_lasso(f, pre, loop)


def test_dpa_totality():
    rng = random.Random(4)
    for _ in range(50):
        f = random_ltl(rng, rng.randint(1, 6))
        dpa = ltl_to_dpa(f, ATOM_POOL).complete()
        for q in range(dpa.n_states):
            assert len(dpa.trans[q]) == dpa.n_letters
            assert all(0 <= t < dpa.n_states for t in dpa.trans[q])


def flat_tree(node, depth=0):
    """A nested tree ``(name, label frozenset, children)`` as the step's preorder tuple."""
    name, label, children = node
    flat = ((name, depth, _mask(label)),)
    for child in children:
        flat += flat_tree(child, depth + 1)
    return flat


def test_flat_step_matches_the_nested_step_on_random_nbas():
    """The bitmask step gives the tree, removed, marked and fresh names of the nested one.

    Each hand-built NBA is searched from its initial tree by the nested
    step, at most 300 trees per NBA, and both steps run on every tree and
    letter met.
    """
    rng = random.Random(83)
    seen_events = {"dead": 0, "removed": 0, "marked": 0, "fresh": 0}
    for _ in range(150):
        n = rng.randint(3, 8)
        atoms = (A, B)[: rng.randint(1, 2)]
        n_letters = 1 << len(atoms)
        trans = [
            [tuple(sorted(rng.sample(range(n), rng.randint(0, 3)))) for _ in range(n_letters)]
            for _ in range(n)
        ]
        accepting = frozenset(q for q in range(n) if rng.random() < 0.4)
        nba = NBA(atoms, 0, accepting, trans)
        moves = [[_mask(row[letter]) for row in trans] for letter in range(n_letters)]
        init = (0, frozenset((0,)), ())
        trees, index = [init], {init}
        for tree in trees:
            for letter in range(n_letters):
                want = safra_step_on_nested_trees(tree, letter, nba)
                got = _safra_step(flat_tree(tree), moves[letter], _mask(accepting))
                tree2 = want[0]
                assert got == (None if tree2 is None else flat_tree(tree2), *want[1:])
                seen_events["dead"] += tree2 is None
                seen_events["removed"] += bool(want[1]) and tree2 is not None
                seen_events["marked"] += bool(want[2])
                seen_events["fresh"] += bool(want[3])
                if tree2 is not None and tree2 not in index and len(trees) < 300:
                    index.add(tree2)
                    trees.append(tree2)
    assert min(seen_events.values()) > 100, seen_events


def test_determinization_respects_the_state_cap():
    """A body outside the obligation ∧ G F class whose determinization outgrows the cap."""
    f = parse_ltl("F ((e{p} | !b{p}) R ((F (!f{p} | (true U !c{p}))) R !e{p}))")
    assert _obligation_parts(to_nnf(f), F.collect_atoms(to_nnf(f))) is None
    with pytest.raises(AutomatonCapError, match="cap of 1000 exceeded in determinization"):
        ltl_to_dpa(f, cap=1000)


# -- full chain ----------------------------------------------------------------


def test_chain_true_is_single_universal_state():
    dpa = ltl_to_dpa(F.TrueF(), (A,))
    assert dpa.n_states == 1
    assert dpa.colors == [0]


def test_chain_od_body_exhaustive():
    f = parse_ltl("G (o[0]{p1} <-> o[0]{p2})")
    atoms = F.collect_atoms(f)
    dpa = ltl_to_dpa(f, atoms)
    assert len(atoms) == 2
    for pre, loop in all_lassos(atoms, 5):
        assert dpa_accepts_lasso(dpa, pre, loop) == eval_lasso(f, pre, loop)


def test_chain_async_od_body_random():
    f = parse_ltl(
        "(G F ! stut{p1}) & (G F ! stut{p2}) & G (o[0]{p1} <-> o[0]{p2})"
    )
    atoms = F.collect_atoms(f)
    dpa = ltl_to_dpa(f, atoms)
    rng = random.Random(17)
    for _ in range(500):
        pre, loop = random_lasso(rng, atoms, max_prefix=8, max_loop=8)
        assert dpa_accepts_lasso(dpa, pre, loop) == eval_lasso(f, pre, loop)


def test_color_compression_preserves_verdicts():
    rng = random.Random(23)
    for _ in range(60):
        f = random_ltl(rng, rng.randint(1, 6))
        atoms = ATOM_POOL
        nnf = to_nnf(f)
        raw = nba_to_dpa(apa_to_nba(ltl_to_apa(nnf, atoms)))
        packed = compress_colors(raw)
        assert packed.n_colors <= raw.n_colors
        for _ in range(10):
            pre, loop = random_lasso(rng, atoms)
            assert dpa_accepts_lasso(raw, pre, loop) == dpa_accepts_lasso(packed, pre, loop)


def test_oracle_equivalence_sample():
    rng = random.Random(99)
    branches = set()
    for _ in range(150):
        f = random_ltl(rng, rng.randint(1, 6))
        dpa = ltl_to_dpa(f, ATOM_POOL)
        branches.add(dpa.safra_steps > 0)
        for _ in range(5):
            pre, loop = random_lasso(rng, ATOM_POOL)
            assert dpa_accepts_lasso(dpa, pre, loop) == eval_lasso(f, pre, loop)
    # the sample exercises both the shortcut and determinization
    assert branches == {False, True}


# -- deterministic breakpoint automata skip determinization ---------------------

BUILTIN_BODIES = {
    "od": props.expand_od().body,
    "ni": props.expand_ni().body,
    "simsec": props.expand_simsec("G", "G_shift1").body,
    "sgni:3": props.expand_sgni(3, "G", "G_shift3").body,
    "od-async": props.expand_od_async("G_stut").body,
    "ni-async": props.expand_ni_async("r[0]", "G_stut").body,
    # outside the obligation ∧ G F class, with a nondeterministic NBA
    "fg": parse_ltl("F G a{p}"),
    # outside the class, with a deterministic NBA
    "response": parse_ltl("G (a{p} -> F b{p})"),
}

# APA, NBA and DPA states, DPA colours, whether the chain determinized, and
# its tree steps; the product route sums the APA states and the states of the
# safety automata (dead state included) over its leaves in place of NBA states
BUILTIN_SIZES = {
    "od": (8, 2, 2, 2, False, 0),
    "ni": (16, 4, 3, 2, False, 0),
    "simsec": (20, 8, 8, 2, False, 0),
    "sgni:3": (43, 586, 586, 2, False, 0),
    "od-async": (8, 2, 5, 2, False, 0),
    "ni-async": (24, 6, 12, 2, False, 0),
    "fg": (3, 2, 5, 3, True, 10),
    "response": (5, 2, 2, 2, False, 0),
}

# the bodies whose whole breakpoint automaton is deterministic; only
# ``response`` gets to it through ltl_to_dpa, the others take the product
SHORTCUT_BODIES = ["od", "od-async", "sgni:3", "response"]


def guided_lasso(rng, dpa, atoms, dead):
    """Random lasso along a run of ``dpa`` that may avoid empty states.

    ``dead`` is the first list of ``decided_states(dpa)``.  The walk stops
    when the run revisits a state, and the loop is the part read since that
    state's first visit; how often a step may enter an empty state is drawn
    per lasso, so both verdicts are common.
    """
    slip = rng.choice((0.0, 0.02, 0.2, 1.0))
    first_visit: dict = {}
    word = []
    state = dpa.initial
    while state not in first_visit:
        first_visit[state] = len(word)
        alive = [v for v in range(dpa.n_letters) if not dead[dpa.trans[state][v]]]
        pool = alive if alive and rng.random() >= slip else range(dpa.n_letters)
        letter = rng.choice(pool)
        word.append(letter_to_assignment(letter, atoms))
        state = dpa.trans[state][letter]
    split = first_visit[state]
    return word[:split], word[split:]


@pytest.mark.parametrize("name", SHORTCUT_BODIES)
def test_shortcut_agrees_with_determinization_and_oracle(name):
    """``ltl_to_dpa``, the shortcut and Safra all agree with the lasso oracle."""
    f = BUILTIN_BODIES[name]
    nnf = to_nnf(f)
    atoms = F.collect_atoms(nnf)
    nba = apa_to_nba(ltl_to_apa(nnf, atoms))
    assert _is_deterministic(nba)
    shortcut = tidy(deterministic_nba_to_dpa(nba))
    determinized = nba_to_dpa(nba)
    dpa = ltl_to_dpa(f, atoms).complete()
    rng = random.Random(31)
    verdicts = []
    for guide in (dpa, shortcut):
        dead, _ = decided_states(guide)
        for _ in range(250):
            pre, loop = guided_lasso(rng, guide, atoms, dead)
            expected = eval_lasso(f, pre, loop)
            for automaton in (dpa, shortcut, determinized):
                assert dpa_accepts_lasso(automaton, pre, loop) == expected
            verdicts.append(expected)
    assert 50 <= sum(verdicts) <= 450


def test_response_body_skips_determinization():
    """``G (a -> F b)`` is no obligation ∧ G F; its breakpoint automaton is read as the DPA."""
    nnf = to_nnf(BUILTIN_BODIES["response"])
    atoms = F.collect_atoms(nnf)
    assert _obligation_parts(nnf, atoms) is None
    # Safra on the same breakpoint automaton tidies to 4 states, twice BUILTIN_SIZES' 2
    assert tidy(nba_to_dpa(apa_to_nba(ltl_to_apa(nnf, atoms)))).n_states == 4


# -- obligation ∧ G F bodies: the product route ------------------------------

FOUR_ATOMS = ATOM_POOL + (("d", "p"),)
WIDE_POOL = tuple((name, "p") for name in "abcdef")  # 64 letters


def test_obligation_product_agrees_with_oracle_and_determinization():
    rng = random.Random(61)
    verdicts = []
    for _ in range(400):
        atoms = rng.choice((ATOM_POOL, FOUR_ATOMS))
        f = random_obligation_body(rng, atoms)
        nnf = to_nnf(f)
        assert _obligation_parts(nnf, atoms) is not None, f
        dpa = ltl_to_dpa(f, atoms).complete()
        assert dpa.safra_steps == 0
        determinized = nba_to_dpa(apa_to_nba(ltl_to_apa(nnf, atoms)))
        for guide in (dpa, determinized):
            dead, _ = decided_states(guide)
            for _ in range(5):
                pre, loop = guided_lasso(rng, guide, atoms, dead)
                expected = eval_lasso(f, pre, loop)
                assert dpa_accepts_lasso(dpa, pre, loop) == expected, f
                assert dpa_accepts_lasso(determinized, pre, loop) == expected, f
                verdicts.append(expected)
    assert len(verdicts) // 5 <= sum(verdicts) <= len(verdicts) * 4 // 5


@pytest.mark.parametrize("name", ["od-async", "ni-async"])
def test_product_keeps_the_copy_swap(name):
    """Degeneralizing by a set leaves the DPA symmetric under swapping the copies."""
    nnf = to_nnf(BUILTIN_BODIES[name])
    atoms = F.collect_atoms(nnf)
    assert _obligation_parts(nnf, atoms) is not None
    g = random_structure(random.Random(0))
    quants = [(frozenset({"sched"}), g)] * 2
    atom_copy = {atom: int(atom[1] == "p2") for atom in atoms}
    assert _copy_swap(quants, ltl_to_dpa(nnf, atoms), atoms, atom_copy) is not None


def numbered(f, atoms, complete):
    """A product of ``f``, completed or read in state order letter by letter, with its numbering.

    Read letter by letter, every letter of state 0, then of state 1, and so
    on, it must number the states of the product and of each leaf as
    ``complete()`` does.  The leaves' keys are compared too: a leaf
    numbered in another order gives the product the same table.
    """
    dpa = ltl_to_dpa(f, atoms)
    if complete:
        trans = dpa.complete().trans
    else:
        trans = []
        while len(trans) < dpa.n_states:
            row = dpa.row(len(trans))
            trans.append([row[v] for v in range(dpa.n_letters)])
    leaf_keys = [leaf.keys for leaf in dpa.leaves]
    return trans, dpa.colors, dpa.sink, dpa.nba_states, dpa.keys, leaf_keys


PRODUCT_BODIES = {
    **{name: BUILTIN_BODIES[name] for name in ("od", "ni", "simsec", "sgni:3", "od-async", "ni-async")},
    "sgni:1": props.expand_sgni(1, "G", "G_shift1").body,
    "sgni:2": props.expand_sgni(2, "G", "G_shift2").body,
    # the two-copy chain: low inputs equal => outputs equal, reads aligned
    "ahltl:2": props.expand_ahltl(
        2,
        parse_ltl(
            "(G (l[0]{p1} <-> l[0]{p2}) -> G (o[0]{p1} <-> o[0]{p2})) & G (r[0]{p1} <-> r[0]{p2})"
        ),
        "G_stut",
    ).body,
}


@pytest.mark.parametrize("name", PRODUCT_BODIES)
def test_product_read_in_state_order_is_numbered_like_the_completed_one(name):
    f = PRODUCT_BODIES[name]
    atoms = F.collect_atoms(to_nnf(f))
    assert numbered(f, atoms, complete=False) == numbered(f, atoms, complete=True)


@pytest.mark.parametrize("seed", [71, 72, 73])
def test_product_read_letter_by_letter_walks_like_the_completed_one(seed):
    """``row(q)[v]`` steps one letter; runs agree with the full rows state for state.

    Each state of the product read letter by letter stands for one state of
    the completed product, numbered in another order: the same colour and
    sink, paired with it on every walk.  The walks number fewer states than
    completion on many bodies.  Read in state order, every letter of every
    state, it numbers exactly as completion does.
    """
    rng = random.Random(seed)
    fair = fewer = 0
    for _ in range(120):
        atoms = rng.choice((ATOM_POOL, FOUR_ATOMS))
        f = random_obligation_body(rng, atoms)
        assert numbered(f, atoms, complete=False) == numbered(f, atoms, complete=True), f
        lazy, full = ltl_to_dpa(f, atoms), ltl_to_dpa(f, atoms).complete()
        fair += lazy.full > 0
        pairs = {}
        for _ in range(6):
            p, q = lazy.initial, full.initial
            for _ in range(10):
                assert pairs.setdefault(p, q) == q, f
                assert (lazy.colors[p], lazy.sink[p]) == (full.colors[q], full.sink[q]), f
                v = rng.randrange(full.n_letters)
                p, q = lazy.row(p)[v], full.trans[q][v]
        assert lazy.n_states <= full.n_states
        fewer += lazy.n_states < full.n_states
    assert fair >= 40 and fewer >= 30


def product_tables(f, atoms):
    """A completed product's table, colours and sinks, and the sizes it counts."""
    dpa = ltl_to_dpa(f, atoms).complete()
    return dpa.trans, dpa.colors, dpa.sink, dpa.apa_states, dpa.nba_states


def test_leaves_over_their_own_atoms_build_the_all_atoms_product(monkeypatch):
    """Each leaf and ``G F`` truth over the atoms it reads gives the product built over all atoms.

    The reference builds every leaf's APA and every truth over all atoms,
    so its gather, computed letter by letter, is the identity.  Over six
    atoms, many leaves read atoms that are not adjacent, met in another
    order than the atoms' own.
    """

    def gather_by_letter(atoms, support):
        return [
            sum(1 << j for j, a in enumerate(support) if v >> atoms.index(a) & 1)
            for v in range(1 << len(atoms))
        ]

    rng = random.Random(79)
    bodies = []
    gaps = reordered = 0
    for _ in range(150):
        f = random_obligation_body(rng, WIDE_POOL)
        bodies.append((f, product_tables(f, WIDE_POOL)))
        for leaf, _negated in _obligation_parts(to_nnf(f), WIDE_POOL)[0]:
            support = ltl2dpa._support(leaf, WIDE_POOL)
            positions = [WIDE_POOL.index(a) for a in support]
            gaps += len(support) > 1 and positions[-1] - positions[0] >= len(support)
            reordered += F.collect_atoms(leaf) != support
    assert gaps >= 50 and reordered >= 50, (gaps, reordered)
    monkeypatch.setattr(ltl2dpa, "_support", lambda f, atoms: tuple(atoms))
    monkeypatch.setattr(ltl2dpa, "_gather", gather_by_letter)
    for f, got in bodies:
        assert got == product_tables(f, WIDE_POOL), f


@pytest.mark.parametrize("name", ["ni-async", "ahltl:3"])
def test_leaf_rows_span_only_the_atoms_the_leaf_reads(name):
    f = AHLTL_12 if name == "ahltl:3" else BUILTIN_BODIES[name]
    nnf = to_nnf(f)
    atoms = F.collect_atoms(nnf)
    dpa = ltl_to_dpa(nnf, atoms)
    for (leaf, _negated), built in zip(_obligation_parts(nnf, atoms)[0], dpa.leaves):
        n = len(F.collect_atoms(leaf))
        assert n < len(atoms)
        assert {len(row) for row in built.trans} == {2**n}
        assert len(built.gather) == dpa.n_letters


def chain_body(n):
    """The body of the ``ahltl:n`` scale rows: low inputs equal => outputs equal, reads aligned."""

    def equal(p):
        return " & ".join(f"({p}[0]{{p{i}}} <-> {p}[0]{{p{i + 1}}})" for i in range(1, n))

    return ahltl_body(f"(G ({equal('l')}) -> G ({equal('o')})) & G ({equal('r')})", n)


def test_no_two_local_letters_of_a_leaf_share_a_class():
    """A safety leaf steps every local letter on its own, with no letter
    partition: each atom it reads has a literal state whose row splits on
    that atom, so the partition by columns would be the identity.  Over
    the obligation bodies of the builtins and the chain bodies of
    ``ahltl:2`` to ``ahltl:5``, and over random obligation bodies."""
    named = [f for name, f in BUILTIN_BODIES.items() if name not in ("fg", "response")]
    named += [props.expand_sgni(k, "G", f"G_shift{k}").body for k in (1, 2)]
    named += [chain_body(n) for n in (2, 3, 4, 5)]
    rng = random.Random(83)
    randoms = [random_obligation_body(rng, WIDE_POOL) for _ in range(300)]
    counts = {}
    for kind, bodies in (("named", named), ("random", randoms)):
        counts[kind] = []
        for f in bodies:
            nnf = to_nnf(f)
            atoms = F.collect_atoms(nnf) if kind == "named" else WIDE_POOL
            for leaf, _negated in _obligation_parts(nnf, atoms)[0]:
                support = ltl2dpa._support(leaf, atoms)
                cls, reps = _letter_classes(ltl_to_apa(leaf, support).trans)
                assert reps == list(range(1 << len(support))) and cls == reps, leaf
                counts[kind].append(len(reps))
    # leaves read up to 6 atoms
    assert len(counts["named"]) == 24 and max(counts["named"]) == 64, counts["named"]
    assert len(counts["random"]) >= 450 and max(counts["random"]) == 64, counts["random"]


def test_product_respects_the_state_cap():
    f = BUILTIN_BODIES["ni-async"]
    assert ltl_to_dpa(f, cap=100).complete().n_states == 12
    with pytest.raises(AutomatonCapError, match="cap of 5 exceeded in the obligation product"):
        ltl_to_dpa(f, cap=5).complete()


def test_product_route_builds_no_breakpoint_automaton(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the product route called apa_to_nba")

    monkeypatch.setattr(ltl2dpa, "apa_to_nba", refuse)
    for name, f in BUILTIN_BODIES.items():
        if name not in ("fg", "response"):
            ltl_to_dpa(f)
    rng = random.Random(67)
    for _ in range(50):
        ltl_to_dpa(random_obligation_body(rng), ATOM_POOL)


def test_safety_automaton_respects_the_state_cap():
    f = BUILTIN_BODIES["sgni:3"]
    assert ltl_to_dpa(f, cap=586).complete().n_states == 586
    with pytest.raises(AutomatonCapError, match="cap of 585 exceeded in the safety automaton"):
        ltl_to_dpa(f, cap=585).complete()


def bfs_renumbered(dpa):
    """Initial state, colours and rows of ``dpa``, its states numbered breadth-first."""
    order, rows = explore(dpa.initial, lambda q, number: [number(t) for t in dpa.trans[q]])
    return 0, [dpa.colors[q] for q in order], rows


@pytest.mark.parametrize(
    "seed, count, pool", [(71, 300, ATOM_POOL), (73, 200, WIDE_POOL)], ids=["3-atoms", "6-atoms"]
)
def test_safety_automaton_matches_the_breakpoint_route(seed, count, pool):
    """The subset construction on antichains tidies to the powerset of the breakpoint automaton.

    A safety body is a product of one leaf with no ``G F`` conjunct, whose
    colour is 0 iff the leaf is alive.
    """
    rng = random.Random(seed)
    several = dying = 0
    for _ in range(count):
        f = random_safety_formula(rng, rng.randint(3, 10), pool)
        (leaf, negated), *others = _obligation_parts(f, pool)[0]
        assert not negated and not others
        apa = ltl_to_apa(leaf, pool)
        direct = ltl_to_dpa(f, pool).complete()
        reference = safety_automaton_via_nba(apa)
        assert bfs_renumbered(tidy(direct)) == bfs_renumbered(tidy(reference)), f
        several += any(len(models) > 1 for row in apa.trans for models in row)
        dying += 1 in direct.colors
    # many leaves have entries with several models, and most can die
    assert several >= count // 5 and dying > count // 2, (several, dying)


def test_translation_sizes_of_builtin_bodies():
    for name, f in BUILTIN_BODIES.items():
        dpa = ltl_to_dpa(f).complete()
        got = (
            dpa.apa_states,
            dpa.nba_states,
            dpa.n_states,
            dpa.n_colors,
            dpa.safra_steps > 0,
            dpa.safra_steps,
        )
        assert got == BUILTIN_SIZES[name], name


# -- determinization per letter class ------------------------------------------

def ahltl_body(text, n=3):
    return props.expand_ahltl(n, parse_ltl(text), "G_stut").body


# 3 copies with stutter atoms: 8 and 12 atoms
AHLTL_8 = ahltl_body(
    "(G (l[0]{p1} <-> l[0]{p2})) -> G ((o[0]{p1} <-> o[0]{p2}) & (o[0]{p2} <-> o[0]{p3}))"
)
AHLTL_12 = ahltl_body(
    "(G ((l[0]{p1} <-> l[0]{p2}) & (l[0]{p2} <-> l[0]{p3}))"
    " -> G ((o[0]{p1} <-> o[0]{p2}) & (o[0]{p2} <-> o[0]{p3})))"
    " & G ((r[0]{p1} <-> r[0]{p2}) & (r[0]{p2} <-> r[0]{p3}))"
)


def tables(dpa):
    return dpa.initial, dpa.colors, dpa.trans


def assert_matches_per_letter(f, atoms):
    """Raw and tidied DPAs equal those of one tree step per state and letter.

    Determinization and the tidy step run per letter class, and the tidy
    step reads full rows on the comparison side, as before letter classes.
    A body outside the obligation ∧ G F class must come out of
    ``ltl_to_dpa`` as that tidied DPA.
    """
    nba = apa_to_nba(ltl_to_apa(to_nnf(f), atoms))
    per_letter = nba_to_dpa_per_letter(nba)
    classes = _letter_classes(nba.trans)
    assert tables(nba_to_dpa(nba, classes=classes)) == tables(per_letter)
    raw = deterministic_nba_to_dpa(nba) if _is_deterministic(nba) else per_letter
    tidied = tidy(raw)
    assert tables(tidy(raw, classes[1])) == tables(tidied)
    if _obligation_parts(to_nnf(f), atoms) is None:
        assert tables(ltl_to_dpa(f, atoms)) == tables(tidied)
    return len(classes[1]), nba.n_letters


@pytest.mark.parametrize(
    "seed, count, pool", [(41, 400, ATOM_POOL), (43, 200, WIDE_POOL)], ids=["3-atoms", "6-atoms"]
)
def test_grouped_determinization_matches_per_letter_on_random_bodies(seed, count, pool):
    rng = random.Random(seed)
    merged = 0
    for _ in range(count):
        f = random_ltl(rng, rng.randint(1, 8), pool)
        n_classes, n_letters = assert_matches_per_letter(f, pool)
        merged += n_classes < n_letters
    # most bodies read few atoms, so their letters share classes
    assert merged > count // 2


@pytest.mark.parametrize("name", [*BUILTIN_BODIES, "ahltl:3"])
def test_grouped_determinization_matches_per_letter_on_named_bodies(name):
    f = AHLTL_8 if name == "ahltl:3" else BUILTIN_BODIES[name]
    atoms = F.collect_atoms(to_nnf(f))
    assert_matches_per_letter(f, atoms)


def test_wide_body_determinizes_per_letter_class():
    atoms = F.collect_atoms(to_nnf(AHLTL_12))
    assert len(atoms) == 12
    start = time.perf_counter()
    nba = apa_to_nba(ltl_to_apa(to_nnf(AHLTL_12), atoms))
    classes = _letter_classes(nba.trans)
    raw = nba_to_dpa(nba, classes=classes)
    dpa = tidy(raw, classes[1])
    elapsed = time.perf_counter() - start
    # one step per letter and state would be 1,331,200
    assert raw.safra_steps == 6133
    assert elapsed < 5.0, f"translation took {elapsed:.1f} s"
    # the body is in the obligation ∧ G F class, so ltl_to_dpa takes the product
    product = ltl_to_dpa(AHLTL_12, atoms).complete()
    rng = random.Random(37)
    verdicts = []
    for guide in (dpa, product):
        dead, _ = decided_states(guide)
        for _ in range(100):
            pre, loop = guided_lasso(rng, guide, atoms, dead)
            expected = eval_lasso(AHLTL_12, pre, loop)
            assert dpa_accepts_lasso(dpa, pre, loop) == expected
            assert dpa_accepts_lasso(product, pre, loop) == expected
            verdicts.append(expected)
    assert 0 < sum(verdicts) < 200
    start = time.perf_counter()
    dot = export_dot(dpa)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"DOT export took {elapsed:.1f} s"
    assert_labels_partition(dpa, dot)


def test_shortcut_without_accepting_state_rejects_everything():
    # a two-state cycle over a{p} that never accepts
    nba = NBA((A,), 0, frozenset(), [[(1,), (1,)], [(0,), (0,)]])
    dpa = deterministic_nba_to_dpa(nba)
    assert set(dpa.colors) == {1}
    for pre, loop in all_lassos((A,), 3):
        assert not dpa_accepts_lasso(dpa, pre, loop)


def test_shortcut_initial_state_with_only_empty_rows():
    nba = NBA((A,), 0, frozenset({0}), [[(), ()]])
    dpa = deterministic_nba_to_dpa(nba)
    assert dpa.n_states == 2
    sink = dpa.trans[dpa.initial][0]
    assert sink != dpa.initial
    assert dpa.trans[dpa.initial] == [sink, sink]
    assert dpa.trans[sink] == [sink, sink]
    assert dpa.colors[dpa.initial] == 0 and dpa.colors[sink] == 1
    for pre, loop in all_lassos((A,), 3):
        assert not dpa_accepts_lasso(dpa, pre, loop)


def test_shortcut_adds_no_sink_without_empty_rows():
    # G F a{p}: state 1 is entered on every a{p}
    nba = NBA((A,), 0, frozenset({1}), [[(0,), (1,)], [(0,), (1,)]])
    dpa = deterministic_nba_to_dpa(nba)
    assert dpa.n_states == nba.n_states
    f = parse_ltl("G F a{p}")
    for pre, loop in all_lassos((A,), 5):
        assert dpa_accepts_lasso(dpa, pre, loop) == eval_lasso(f, pre, loop)
        assert nba_accepts_lasso(nba, pre, loop) == eval_lasso(f, pre, loop)


def test_shortcut_merges_bisimilar_states():
    # states 0 and 1 share colour and successors; 2 accepts everything.
    # The shortcut keeps both; the quotient of ltl_to_dpa's tidy step merges them.
    nba = NBA((A,), 0, frozenset({2}), [[(1,), (2,)], [(1,), (2,)], [(2,), (2,)]])
    raw = deterministic_nba_to_dpa(nba)
    assert raw.n_states == 3
    dpa = _quotient(raw)
    assert dpa.n_states == 2
    f = parse_ltl("F a{p}")
    for pre, loop in all_lassos((A,), 4):
        expected = eval_lasso(f, pre, loop)
        assert dpa_accepts_lasso(raw, pre, loop) == expected
        assert dpa_accepts_lasso(dpa, pre, loop) == expected


# -- lasso oracle basics --------------------------------------------------------


def test_eval_lasso_examples():
    a = F.Atom(*A)
    b = F.Atom(*B)
    assert eval_lasso(F.Globally(a), [], [{A: True}])
    assert not eval_lasso(F.Eventually(a), [{A: False}], [{A: False}])
    assert eval_lasso(
        F.Until(a, b),
        [{A: True, B: False}, {A: True, B: False}],
        [{A: False, B: True}],
    )


def test_eval_lasso_rejects_empty_loop():
    with pytest.raises(ValueError):
        eval_lasso(F.TrueF(), [], [])


def test_dpa_accepts_lasso_on_constant_automata():
    universal = ltl_to_dpa(F.TrueF(), (A,))
    empty = ltl_to_dpa(F.FalseF(), (A,))
    for pre, loop in all_lassos((A,), 3):
        assert dpa_accepts_lasso(universal, pre, loop)
        assert not dpa_accepts_lasso(empty, pre, loop)


# -- residual language classification -------------------------------------------


def test_empty_and_universal_state_analysis():
    f = parse_ltl("G (o[0]{p1} <-> o[0]{p2})")
    atoms = F.collect_atoms(f)
    dpa = ltl_to_dpa(f, atoms).complete()
    dead, alive = decided_states(dpa)
    assert any(dead), "a violated safety body must have a rejecting sink"
    assert not alive[dpa.initial]
    assert not dead[dpa.initial]
    universal = ltl_to_dpa(F.TrueF(), (A,))
    assert decided_states(universal) == ([False], [True])


def test_decided_states_match_one_player_games():
    """Empty iff player 0 owning every vertex loses; universal iff player 1 owning every vertex does."""
    rng = random.Random(53)
    found = [0, 0]
    for _ in range(300):
        dpa = random_dpa(rng, ATOM_POOL[: rng.randint(0, 2)], max_states=5, max_color=4)
        succ = [sorted(set(row)) for row in dpa.trans]
        states = range(dpa.n_states)
        empty, universal = decided_states(dpa)
        w0 = brute_force_solve(ParityGame(succ, [0] * dpa.n_states, dpa.colors)).w0
        assert empty == [q not in w0 for q in states]
        w0 = brute_force_solve(ParityGame(succ, [1] * dpa.n_states, dpa.colors)).w0
        assert universal == [q in w0 for q in states]
        found[0] += any(empty)
        found[1] += any(universal)
    assert min(found) > 30


def assert_labels_partition(dpa: DPA, dot: str) -> None:
    """The cubes of each edge label of ``dot`` cover the edge's letters, each once."""
    expected: dict = {}
    for q, row in enumerate(dpa.trans):
        for letter, t in enumerate(row):
            expected.setdefault((q, t), []).append(letter)
    got = {}
    for q, t, label in re.findall(r'q(\d+) -> q(\d+) \[label="([^"]*)"\]', dot):
        covered = []
        for cube in label.split(" | "):
            assert len(cube) == len(dpa.atoms)
            stars = [i for i, c in enumerate(cube) if c == "*"]
            base = sum(1 << i for i, c in enumerate(cube) if c == "1")
            for bits in itertools.product((0, 1), repeat=len(stars)):
                covered.append(base + sum(b << i for b, i in zip(bits, stars)))
        got[(int(q), int(t))] = sorted(covered)
    assert got == expected


def test_dpa_edge_labels_partition_the_letters():
    rng = random.Random(59)
    pool = [(f"x{i}", "p") for i in range(6)]
    for _ in range(200):
        dpa = random_dpa(rng, pool[: rng.randint(1, 6)], max_states=4)
        assert_labels_partition(dpa, export_dot(dpa))


def test_dpa_dot_deterministic():
    dpa = ltl_to_dpa(parse_ltl("F a{p}"), (A,))
    assert export_dot(dpa) == export_dot(dpa)
    assert "doublecircle" in export_dot(dpa)
