"""Reference oracles that share no code with the checker they judge.

``eval_lasso`` evaluates a formula bottom-up over an ultimately periodic
word, ``dpa_accepts_lasso`` runs a deterministic parity automaton on one,
and ``brute_force_solve`` solves a small parity game by enumerating
positional strategy pairs, and ``tokenize_by_character`` scans a text one
character at a time.  Two are exceptions.  ``nba_to_dpa_per_letter``
repeats the checker's colour rule on its search, but determinizes with
``safra_step_on_nested_trees``, the tree step as first written (recursive
trees of ``frozenset`` labels), once per letter and state, so it judges
the checker's flat bitmask step and its grouping of letters into classes
together.  ``safety_automaton_via_nba`` builds a safety leaf's
deterministic automaton the long way, through the checker's breakpoint
automaton, so it judges the direct subset construction on antichains.
``merge_moves_by_scan`` is the structure quotient's move merge as first
written, scanning the whole successor row once per move of each slot, and
``quotient_by_rounds`` is the structure quotient as a greatest fixpoint:
rounds of merged signatures over every state until the partition is stable.

The ``text_*`` builders assemble each builtin property as formula text over
lists of output, low and high propositions and parse it; ``props`` builds
the same formulas as trees over fixed propositions.
"""

from __future__ import annotations

import itertools
from typing import Mapping, Sequence

from hyperatl import formula as F
from hyperatl.formula import format_ltl, parse_formula
from hyperatl.graph import explore
from hyperatl.lexer import ParseError, Token
from hyperatl.ltl2dpa import (
    _DEAD,
    APA,
    DPA,
    NBA,
    AutomatonCapError,
    _neutralize_transient,
    _quotient,
    apa_to_nba,
    compress_colors,
    deterministic_nba_to_dpa,
)
from hyperatl.solver import ParityGame, WinningRegions
from hyperatl.structures import MSCGS

Assignment = Mapping[tuple[str, str], bool]


def assignment_to_letter(assignment: Assignment, atoms: Sequence[tuple[str, str]]) -> int:
    letter = 0
    for i, atom in enumerate(atoms):
        if assignment.get(atom, False):
            letter |= 1 << i
    return letter


def letter_to_assignment(letter: int, atoms: Sequence[tuple[str, str]]) -> dict:
    return {atom: bool(letter >> i & 1) for i, atom in enumerate(atoms)}


def tokenize_by_character(text: str, punct: Sequence[str], comments: bool) -> list[Token]:
    """``text`` split by one test per character; ``punct`` is tried in order.

    A number is a run of ``str.isdigit`` characters, so it may hold digits
    (``²``) that ``int`` cannot read.
    """
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if comments and c == "#":  # comment to end of line
            j = text.find("\n", i)
            i = n if j < 0 else j + 1
            continue
        p = next((p for p in punct if text.startswith(p, i)), None)
        if p is not None:
            tokens.append(("punct", p, i))
            i += len(p)
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("nat", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i, text)
    tokens.append(("eof", "", n))
    return tokens


def eval_lasso(f: F.Ltl, prefix: Sequence[Assignment], loop: Sequence[Assignment]) -> bool:
    """Truth of ``f`` at position 0 of ``prefix · loop^ω``.

    Evaluated bottom-up per position with explicit fixpoint iteration over
    the loop; accepts any formula, including ones outside normal form.
    """
    if not loop:
        raise ValueError("loop must be nonempty")
    word = list(prefix) + list(loop)
    n = len(word)
    loop_start = len(prefix)

    def nxt(i: int) -> int:
        return i + 1 if i + 1 < n else loop_start

    memo: dict = {}

    def values(g: F.Ltl) -> tuple[bool, ...]:
        if g in memo:
            return memo[g]
        match g:
            case F.Atom(prop, var):
                res = tuple(bool(word[i].get((prop, var), False)) for i in range(n))
            case F.TrueF():
                res = (True,) * n
            case F.FalseF():
                res = (False,) * n
            case F.Not(h):
                res = tuple(not v for v in values(h))
            case F.And(l, r):
                res = tuple(a and b for a, b in zip(values(l), values(r)))
            case F.Or(l, r):
                res = tuple(a or b for a, b in zip(values(l), values(r)))
            case F.Implies(l, r):
                res = tuple((not a) or b for a, b in zip(values(l), values(r)))
            case F.Iff(l, r):
                res = tuple(a == b for a, b in zip(values(l), values(r)))
            case F.Next(h):
                vh = values(h)
                res = tuple(vh[nxt(i)] for i in range(n))
            case F.Until(l, r):
                vl, vr = values(l), values(r)
                cur = list(vr)
                for _ in range(n + 1):
                    nxt_cur = [vr[i] or (vl[i] and cur[nxt(i)]) for i in range(n)]
                    if nxt_cur == cur:
                        break
                    cur = nxt_cur
                res = tuple(cur)
            case F.Release(l, r):
                vl, vr = values(l), values(r)
                cur = [True] * n
                for _ in range(n + 1):
                    nxt_cur = [vr[i] and (vl[i] or cur[nxt(i)]) for i in range(n)]
                    if nxt_cur == cur:
                        break
                    cur = nxt_cur
                res = tuple(cur)
            case F.Eventually(h):
                vh = values(h)
                cur = list(vh)
                for _ in range(n + 1):
                    nxt_cur = [vh[i] or cur[nxt(i)] for i in range(n)]
                    if nxt_cur == cur:
                        break
                    cur = nxt_cur
                res = tuple(cur)
            case F.Globally(h):
                vh = values(h)
                cur = [True] * n
                for _ in range(n + 1):
                    nxt_cur = [vh[i] and cur[nxt(i)] for i in range(n)]
                    if nxt_cur == cur:
                        break
                    cur = nxt_cur
                res = tuple(cur)
            case _:
                raise TypeError(f"not an LTL node: {g!r}")
        memo[g] = res
        return res

    return values(f)[0]


def dpa_accepts_lasso(
    dpa: DPA, prefix: Sequence[Assignment], loop: Sequence[Assignment]
) -> bool:
    """Run the unique path and test the minimal colour on the recurrent cycle.

    Rows are read through ``dpa.row``, so an automaton built on the fly is
    stepped along the lasso only.
    """
    if not loop:
        raise ValueError("loop must be nonempty")
    state = dpa.initial
    for a in prefix:
        state = dpa.row(state)[assignment_to_letter(a, dpa.atoms)]
    loop_letters = [assignment_to_letter(a, dpa.atoms) for a in loop]
    seen: dict = {}
    trail: list[int] = []
    pos = 0
    while (pos, state) not in seen:
        seen[(pos, state)] = len(trail)
        trail.append(state)
        state = dpa.row(state)[loop_letters[pos]]
        pos = (pos + 1) % len(loop_letters)
    cycle = trail[seen[(pos, state)]:]
    return min(dpa.colors[q] for q in cycle) % 2 == 0


def tidy(raw: DPA, reps=None) -> DPA:
    """The tidy step of ``ltl_to_dpa``'s chain routes, over full rows without ``reps``."""
    return compress_colors(_quotient(_neutralize_transient(_quotient(raw, reps)), reps))


# The determinization step as first written: a node tree is a recursive
# tuple (name, label frozenset, children tuple), sibling order is seniority
# (older first), and each step decodes the tree into dicts, walks it by
# recursion and encodes it back.


def _tree_decode(root):
    label: dict[int, set[int]] = {}
    children: dict[int, list[int]] = {}
    preorder: list[int] = []

    def walk(node):
        name, lab, kids = node
        preorder.append(name)
        label[name] = set(lab)
        children[name] = [k[0] for k in kids]
        for kid in kids:
            walk(kid)

    walk(root)
    return preorder, label, children


def _tree_encode(name, label, children):
    return (
        name,
        frozenset(label[name]),
        tuple(_tree_encode(c, label, children) for c in children[name]),
    )


def safra_step_on_nested_trees(root, letter, nba):
    """One deterministic macro step; returns (tree', removed, marked, fresh)."""
    preorder, label, children = _tree_decode(root)
    root_name = root[0]
    used = set(preorder)
    removed: set[int] = set()
    marked: set[int] = set()
    fresh: list[int] = []
    next_name = 0

    def alloc() -> int:
        nonlocal next_name
        while next_name in used:
            next_name += 1
        used.add(next_name)
        return next_name

    # branch out a youngest child for every node currently seeing acceptance
    for v in preorder:
        hit = label[v] & nba.accepting
        if hit:
            c = alloc()
            label[c] = set(hit)
            children[c] = []
            children[v].append(c)
            fresh.append(c)

    # move every node label forward
    for v in list(label):
        nxt: set[int] = set()
        for q in label[v]:
            nxt.update(nba.trans[q][letter])
        label[v] = nxt

    # a state is kept only in the oldest sibling tracking it
    def dedupe(v, allowed):
        label[v] &= allowed
        claimed: set[int] = set()
        for c in children[v]:
            dedupe(c, label[v] - claimed)
            claimed |= label[c]

    dedupe(root_name, label[root_name])

    def bury(v):
        removed.add(v)
        for c in children[v]:
            bury(c)

    if not label[root_name]:
        bury(root_name)
        return None, removed, marked, []

    # drop emptied nodes (their subtrees are empty too)
    def sweep(v):
        kept = []
        for c in children[v]:
            if label[c]:
                sweep(c)
                kept.append(c)
            else:
                bury(c)
        children[v] = kept

    sweep(root_name)

    # breakpoint: all tracked runs revisited acceptance since the children spawned
    def merge(v):
        if not children[v]:
            return
        union: set[int] = set()
        for c in children[v]:
            union |= label[c]
        if union == label[v]:
            for c in children[v]:
                bury(c)
            children[v] = []
            marked.add(v)
        else:
            for c in children[v]:
                merge(c)

    merge(root_name)
    alive_fresh = [c for c in fresh if c not in removed]
    return _tree_encode(root_name, label, children), removed, marked, alive_fresh


def nba_to_dpa_per_letter(nba: NBA, cap: int = 10**6) -> DPA:
    """``nba_to_dpa`` with the nested tree step, once per state and letter, no grouping."""
    neutral = 2 * (nba.n_states + 2) + 3
    init_tree = (0, frozenset((nba.initial,)), ())
    init_key = (init_tree, (0,), neutral)

    def row_of(key, number) -> list[int]:
        tree, record, _color = key
        if tree is None:
            return [number(_DEAD)] * nba.n_letters
        row = []
        for letter in range(nba.n_letters):
            tree2, removed, marked, fresh = safra_step_on_nested_trees(tree, letter, nba)
            if tree2 is None:
                row.append(number(_DEAD))
                continue
            pos = {nm: i for i, nm in enumerate(record)}
            removal_pos = [pos[nm] for nm in removed if nm in pos]
            mark_pos = [pos[nm] for nm in marked]
            if removal_pos and (not mark_pos or min(removal_pos) <= min(mark_pos)):
                color = 2 * min(removal_pos) + 1
            elif mark_pos:
                color = 2 * min(mark_pos) + 2
            else:
                color = neutral
            record2 = tuple(nm for nm in record if nm not in removed) + tuple(fresh)
            row.append(number((tree2, record2, color)))
        return row

    error = AutomatonCapError(f"state cap of {cap} exceeded in determinization")
    order, trans = explore(init_key, row_of, cap, error)
    colors = [key[2] for key in order]
    return DPA(nba.atoms, 0, colors, trans)


def safety_automaton_via_nba(apa: APA) -> DPA:
    """Colour 0 iff some run of ``apa``'s breakpoint automaton is alive.

    Every state of a safety APA has colour 0, so every state of its
    breakpoint automaton accepts.  The breakpoint automaton is read as the
    DPA when it is deterministic (with a rejecting sink for empty rows),
    and otherwise its powerset is built letter by letter, with the empty
    set as the only state of colour 1.
    """
    assert not any(apa.colors), "a safety APA has colour 0 everywhere"
    nba = apa_to_nba(apa)
    if all(len(succs) <= 1 for row in nba.trans for succs in row):
        return deterministic_nba_to_dpa(nba)

    def row_of(key, number) -> list[int]:
        return [
            number(frozenset(t for q in key for t in nba.trans[q][v]))
            for v in range(nba.n_letters)
        ]

    order, trans = explore(frozenset((nba.initial,)), row_of)
    return DPA(nba.atoms, 0, [0 if key else 1 for key in order], trans)


def brute_force_solve(game: ParityGame, bound: int = 1 << 20) -> WinningRegions:
    """Reference solver by exhaustive positional strategy enumeration.

    A vertex is won by player 0 iff some positional choice of player-0 edges
    beats every positional response, judged on the unique resulting lasso.
    Positional determinacy makes this exact.
    """
    game.check()
    n = game.n_vertices
    combos = 1
    for v in range(n):
        combos *= len(game.succ[v])
        if combos > bound:
            raise ValueError(f"strategy enumeration bound {bound} exceeded")
    vertices0 = [v for v in range(n) if game.owner[v] == 0]
    vertices1 = [v for v in range(n) if game.owner[v] == 1]

    def choices(vertices: list[int]):
        if not vertices:
            yield {}
            return
        ranges = [range(len(game.succ[v])) for v in vertices]
        for combo in itertools.product(*ranges):
            yield {v: game.succ[v][i] for v, i in zip(vertices, combo)}

    def play_winners(nxt: list[int]) -> list[int]:
        winners = [-1] * n
        for start in range(n):
            if winners[start] != -1:
                continue
            trail = []
            seen_at = {}
            v = start
            while winners[v] == -1 and v not in seen_at:
                seen_at[v] = len(trail)
                trail.append(v)
                v = nxt[v]
            if winners[v] != -1:
                verdict = winners[v]
            else:
                cycle = trail[seen_at[v]:]
                verdict = 0 if min(game.priority[u] for u in cycle) % 2 == 0 else 1
            for u in trail:
                winners[u] = verdict
        return winners

    wins0 = [False] * n
    for f0 in choices(vertices0):
        beaten = [True] * n
        for f1 in choices(vertices1):
            nxt = [0] * n
            for v in range(n):
                nxt[v] = f0[v] if game.owner[v] == 0 else f1[v]
            winners = play_winners(nxt)
            for v in range(n):
                if winners[v] == 1:
                    beaten[v] = False
        for v in range(n):
            if beaten[v]:
                wins0[v] = True
    return WinningRegions(bytes(0 if wins0[v] else 1 for v in range(n)))


# -- builtin properties through formula text ----------------------------------


def _conj(parts: Sequence[str]) -> str:
    if not parts:
        return "true"
    return " & ".join(parts) if len(parts) == 1 else "(" + " & ".join(parts) + ")"


def _match(props: Sequence[str], left: str, right: str, right_prefix: str = "") -> str:
    return _conj([f"({p}{{{left}}} <-> {right_prefix}{p}{{{right}}})" for p in props])


def _fair(var: str) -> str:
    return f"(G F ! stut{{{var}}})"


def text_od(O: Sequence[str]) -> F.HyperFormula:
    return parse_formula(f"[ forall p1 . forall p2 . ] G {_match(O, 'p1', 'p2')}")


def text_ni(O: Sequence[str], L: Sequence[str]) -> F.HyperFormula:
    premise = f"G {_match(L, 'p1', 'p2')}" if L else "true"
    return parse_formula(f"[ forall p1 . forall p2 . ] ({premise}) -> G {_match(O, 'p1', 'p2')}")


def text_simsec(O: Sequence[str], L: Sequence[str], sys: str, sys_shift: str) -> F.HyperFormula:
    premise = f"G {_match(L, 'p1', 'p2', 'X ')}" if L else "true"
    return parse_formula(
        f"[ forall p1 @ {sys} . <<xi_N>> p2 @ {sys_shift} . ] "
        f"({premise}) -> G {_match(O, 'p1', 'p2', 'X ')}"
    )


def text_sgni(
    O: Sequence[str], L: Sequence[str], H: Sequence[str], k: int, sys: str, sys_shift_k: str
) -> F.HyperFormula:
    x = f"X[{k}] " if k > 1 else "X "
    high = f"G {_match(H, 'p1', 'p3', x)}" if H else "true"
    low_out = _conj(
        [f"({p}{{p2}} <-> {x}{p}{{p3}})" for p in O]
        + [f"({p}{{p2}} <-> {x}{p}{{p3}})" for p in L]
    )
    return parse_formula(
        f"[ forall p1 @ {sys} . forall p2 @ {sys} . exists p3 @ {sys_shift_k} . ] "
        f"({high}) & G {low_out}"
    )


def text_od_async(O: Sequence[str], sys_stut: str) -> F.HyperFormula:
    return parse_formula(
        f"[ <<sched>> p1 @ {sys_stut} . <<sched>> p2 @ {sys_stut} . ] "
        f"{_fair('p1')} & {_fair('p2')} & G {_match(O, 'p1', 'p2')}"
    )


def text_ni_async(O: Sequence[str], L: Sequence[str], r: str, sys_stut: str) -> F.HyperFormula:
    premise = f"G {_match(L, 'p1', 'p2')}" if L else "true"
    implication = f"(({premise}) -> G {_match(O, 'p1', 'p2')})"
    return parse_formula(
        f"[ <<sched>> p1 @ {sys_stut} . <<sched>> p2 @ {sys_stut} . ] "
        f"{implication} & {_fair('p1')} & {_fair('p2')} & G {_match([r], 'p1', 'p2')}"
    )


def text_ahltl(n: int, body: F.Ltl, sys_stut: str) -> F.HyperFormula:
    block = " ".join(f"<<sched>> p{i + 1} @ {sys_stut} ." for i in range(n))
    fair = " & ".join(_fair(f"p{i + 1}") for i in range(n))
    return parse_formula(f"[ {block} ] ({format_ltl(body)}) & {fair}")


def merge_moves_by_scan(slots, row: list[int]) -> tuple[tuple, tuple[int, ...]]:
    """Keep, per slot, the first move of each distinct slice of ``row``: the
    slice of move ``m`` is read by one scan of the row per move."""
    strides = []
    stride = len(row)
    for _, arity in slots:
        stride //= arity
        strides.append(stride)
    kept = []
    for (_, arity), stride in zip(slots, strides):
        first: dict[tuple, int] = {}
        for m in range(arity):
            piece = tuple(t for i, t in enumerate(row) if i // stride % arity == m)
            first.setdefault(piece, m)
        kept.append(list(first.values()))
    new_row = tuple(
        row[sum(m * st for m, st in zip(moves, strides))] for moves in itertools.product(*kept)
    )
    return tuple((agent, len(k)) for (agent, _), k in zip(slots, kept)), new_row


def quotient_by_rounds(g: MSCGS, props) -> tuple[MSCGS, list[int]]:
    """The quotient of ``g`` seen through ``props``, by signature rounds, and each state's class.

    The first partition is by labels restricted to ``props``.  Each round
    numbers every state by its block and by its slots and row of blocks with
    alike moves merged (:func:`merge_moves_by_scan`), until a round splits no
    block.  Each class keeps its first state's name and merged slots and row.
    """
    keep = frozenset(props) & g.props
    labels = [lab & keep for lab in g.labels]
    kinds: dict = {}
    block = [kinds.setdefault(lab, len(kinds)) for lab in labels]
    while True:
        merged = [
            merge_moves_by_scan(g.decisions[s], [block[t] for t in g.table[s]])
            for s in range(g.n_states)
        ]
        signatures: dict = {}
        new = [signatures.setdefault((block[s], merged[s]), len(signatures)) for s in range(g.n_states)]
        if new == block:
            break
        block = new
    first: dict[int, int] = {}
    for s, b in enumerate(block):
        first.setdefault(b, s)
    reps = list(first.values())
    return MSCGS(
        name=g.name,
        agents=g.agents,
        stages=dict(g.stages),
        props=keep,
        labels=[labels[s] for s in reps],
        decisions=[merged[s][0] for s in reps],
        table=[merged[s][1] for s in reps],
        initial=block[g.initial],
        state_names=[g.state_names[s] for s in reps],
    ), block
