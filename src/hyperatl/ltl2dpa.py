"""Translation of quantifier-free bodies into deterministic parity automata.

The alphabet is the set of truth assignments to the body's indexed atoms,
encoded as bitmasks over a fixed atom order (bit ``i`` gives the truth of
``atoms[i]``).  The chain is alternating → nondeterministic (breakpoint
construction) → deterministic (node-tree construction with an index
appearance record, skipped when the breakpoint automaton is already
deterministic), with min-even parity acceptance throughout: a run is
accepting iff the minimal colour seen infinitely often is even.

A body that is an obligation (an ∧/∨ combination of safety and co-safety
formulas) conjoined with ``G F`` literals skips the chain for the whole
body: each maximal safety or co-safety subformula gets a deterministic
automaton by one subset construction on its alternating automaton over the
atoms it reads, over antichains of state sets and one local letter at a
time, and their product, with the ``G F`` conjuncts degeneralized by a
set, is a DPA with colours {0, 1}.  The product and its leaves are built
on demand, one transition when the arena first reads it, and kept
canonical by local rules (decided sinks, don't-care leaves, the round bit
only where it sets the colour) instead of a quotient.  The chain's DPAs
are built whole and tidied: quotients and colour compression.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Iterable, Optional, Sequence

from . import formula as F
from .graph import cycle_parities, dot_string, explore, letter_map, predecessors, refine


class AutomatonCapError(Exception):
    """Raised when a construction exceeds its configured state cap."""


# ---------------------------------------------------------------------------
# Alternating parity automata (colors 0/1) built structurally from NNF input.
#
# A transition is kept in minimal-model form: the antichain of minimal state
# sets whose joint acceptance satisfies it, each set a bitmask over the
# states (bit ``q`` for state ``q``), so ``()`` is false and ``(0,)`` is true.

_FALSE: tuple = ()
_TRUE = (0,)


class _Automaton:
    """States ``0..n-1`` over bitmask letters; ``trans[q][letter]`` is a transition."""

    def __init__(self, atoms, initial, trans):
        self.atoms = tuple(atoms)
        self.n_letters = 1 << len(self.atoms)
        self.initial = initial
        self.trans = trans

    @property
    def n_states(self) -> int:
        return len(self.trans)


class APA(_Automaton):
    def __init__(self, atoms, initial, colors, trans):
        super().__init__(atoms, initial, trans)  # antichains of successor bitmasks
        self.colors = colors  # per state, 0 or 1


def ltl_to_apa(f: F.Ltl, atoms: Sequence[tuple[str, str]]) -> APA:
    """One automaton state per subformula; fixpoint states loop on themselves.

    Availability-style operators get colour 1 (their loop must be left),
    invariance-style operators colour 0; all other states colour 0.  A node
    outside negation normal form is refused when the walk meets it.
    """
    atom_index = {a: i for i, a in enumerate(atoms)}
    n_letters = 1 << len(atoms)
    colors: list[int] = []
    trans: list[list] = []

    def build(g: F.Ltl) -> int:
        """Add the states of ``g``'s subformulas, then its own; return its number."""
        match g:
            case F.Atom(prop, var) | F.Not(F.Atom(prop, var)):
                run = 1 << atom_index[(prop, var)]
                off, on = (_FALSE, _TRUE) if isinstance(g, F.Atom) else (_TRUE, _FALSE)
                row = ([off] * run + [on] * run) * (n_letters // (2 * run))
            case F.TrueF():
                row = [_TRUE] * n_letters
            case F.FalseF():
                row = [_FALSE] * n_letters
            case F.And(l, r):
                row = _rowwise(_and, trans[build(l)], trans[build(r)])
            case F.Or(l, r):
                row = _rowwise(_or, trans[build(l)], trans[build(r)])
            case F.Next(h):
                row = [_goto(build(h))] * n_letters
            case F.Until(l, r):
                rl, rr = trans[build(l)], trans[build(r)]
                stay = _goto(len(trans))
                row = _rowwise(lambda a, b: _or(b, _and(a, stay)), rl, rr)
            case F.Release(l, r):
                rl, rr = trans[build(l)], trans[build(r)]
                stay = _goto(len(trans))
                row = _rowwise(lambda a, b: _and(b, _or(a, stay)), rl, rr)
            case F.Eventually(h):
                rh = trans[build(h)]
                stay = _goto(len(trans))
                row = _rowwise(lambda a: _or(a, stay), rh)
            case F.Globally(h):
                rh = trans[build(h)]
                stay = _goto(len(trans))
                row = _rowwise(lambda a: _and(a, stay), rh)
            case _:
                raise ValueError(f"input must be in negation normal form, got {g!r}")
        colors.append(1 if isinstance(g, (F.Until, F.Eventually)) else 0)
        trans.append(row)
        return len(trans) - 1

    initial = build(f)
    return APA(atoms, initial, colors, trans)


def _rowwise(op, *rows: list) -> list:
    """``op`` on each letter's entries of ``rows``, computed once per distinct tuple of them."""
    done: dict = {}
    return [e if (e := done.get(k)) is not None else done.setdefault(k, op(*k)) for k in zip(*rows)]


def _minimal(sets: Iterable[int]) -> tuple[int, ...]:
    """The antichain of bitmask sets, ordered by size and then by value."""
    out: list[int] = []
    for s in sorted(set(sets), key=lambda s: (s.bit_count(), s)):
        if all(t & s != t for t in out):
            out.append(s)
    return tuple(out)


def _goto(q: int) -> tuple[int, ...]:
    return (1 << q,)


# Operands are canonical antichains, so a constant operand gives the other
# operand (or the constant) as it is.


def _or(a: tuple, b: tuple) -> tuple[int, ...]:
    if not a or b == _TRUE:
        return b
    if not b or a == _TRUE:
        return a
    return _minimal(a + b)


def _and(a: tuple, b: tuple) -> tuple[int, ...]:
    if not a or b == _TRUE:
        return a
    if not b or a == _TRUE:
        return b
    return _minimal(x | y for x in a for y in b)


# ---------------------------------------------------------------------------
# Nondeterministic parity automaton (Büchi encoded as colors 0/1)


class NBA(_Automaton):
    def __init__(self, atoms, initial, accepting, trans):
        super().__init__(atoms, initial, trans)  # tuples of successor states
        self.accepting = accepting  # frozenset of states with colour 0


def apa_to_nba(apa: APA, cap: int = 10**6) -> NBA:
    """Breakpoint construction over (all branches, branches owing a visit).

    With colours in {0,1}, min-even acceptance says every infinite branch
    must see a colour-0 state infinitely often; the second component tracks
    the branches that have not done so since the last breakpoint.
    """
    if any(c not in (0, 1) for c in apa.colors):
        raise ValueError("unsupported input: breakpoint construction needs colors in {0,1}")
    fstates = sum(1 << q for q in range(apa.n_states) if apa.colors[q] == 0)
    models = apa.trans  # minimal successor sets per state and letter
    start = 1 << apa.initial
    init = (start, start & ~fstates)

    def row_of(key, number) -> list[tuple[int, ...]]:
        big, owing = key
        row: list[tuple[int, ...]] = []
        # every tracked state picks its own minimal successor set; taking the
        # union per combination keeps each branch's choice visible to the
        # breakpoint component (a globally minimal set could hide the escape
        # one owing branch needs)
        states = [q for q in range(apa.n_states) if big >> q & 1]
        owing_at = [i for i, q in enumerate(states) if owing >> q & 1]
        for letter in range(apa.n_letters):
            choices = []
            for q in states:
                got = models[q][letter]
                if not got:
                    # a tracked state with no model leaves the letter no successor
                    row.append(())
                    break
                choices.append(got)
            else:
                succs = set()
                for combo in itertools.product(*choices):
                    nxt_big = functools.reduce(operator.or_, combo, 0)
                    if owing:
                        nxt_owing = functools.reduce(operator.or_, (combo[i] for i in owing_at), 0)
                    else:
                        nxt_owing = nxt_big
                    succs.add(number((nxt_big, nxt_owing & ~fstates)))
                row.append(tuple(sorted(succs)))
        return row

    error = AutomatonCapError(f"state cap of {cap} exceeded in breakpoint construction")
    order, trans = explore(init, row_of, cap, error)
    accepting = frozenset(i for i, (_big, owing) in enumerate(order) if not owing)
    return NBA(apa.atoms, 0, accepting, trans)


# ---------------------------------------------------------------------------
# Deterministic parity automaton


# What ``DPA.sink`` says of a state: it accepts no word, or every word.
LOSE, WIN = -1, -2


class DPA(_Automaton):
    """One successor state per letter; ``row(q)`` is the row of state ``q``.

    ``sink[q]`` is ``LOSE`` or ``WIN`` if state ``q`` accepts no word or
    every word, and None if the automaton leaves it undecided.  This class
    holds every row; a row of :class:`_ProductDPA` computes each entry
    when it is first read, until ``complete()`` fills it.

    ``apa_states``, ``nba_states`` and ``safra_steps`` are the sizes of the
    translation that built it (see :func:`ltl_to_dpa`), 0 where unset.
    """

    apa_states = nba_states = safra_steps = 0

    def __init__(self, atoms, initial, colors, trans):
        super().__init__(atoms, initial, trans)
        self.colors = colors

    @property
    def n_colors(self) -> int:
        return len(set(self.colors))

    def row(self, q: int) -> list[int]:
        return self.trans[q]

    def complete(self) -> "DPA":
        """Fill every row of a state reachable from the initial one; returns ``self``."""
        return self

    @functools.cached_property
    def sink(self) -> list[Optional[int]]:
        """By :func:`decided_states`, over every state."""
        empty, universal = decided_states(self)
        return [LOSE if e else WIN if u else None for e, u in zip(empty, universal)]


# A node tree is a tuple of ``(name, depth, label)`` in preorder, ``label`` a
# bitmask over the NBA's states; siblings come in order of seniority (older
# first).  Each transition reports which node names were deleted and which
# completed a breakpoint, and the record of live names turns those events
# into a parity colour.


def _safra_step(tree, move, accepting):
    """One deterministic macro step; returns (tree', removed, marked, fresh).

    ``move[q]`` is the bitmask of the successors of NBA state ``q`` under
    the letter, and ``accepting`` the bitmask of accepting states.  Three
    passes over the preorder: branch, move and dedupe, breakpoint.
    """
    # branch: a node seeing acceptance gets a fresh youngest child, placed
    # after its subtree and named by the smallest unused name
    used = 0
    for name, _depth, _label in tree:
        used |= 1 << name
    branched = []
    pending = []  # fresh children whose parent's subtree is still open, deepest last
    fresh = []
    for node in tree:
        depth = node[1]
        while pending and pending[-1][1] > depth:
            branched.append(pending.pop())
        branched.append(node)
        hit = node[2] & accepting
        if hit:
            bit = ~used & (used + 1)
            used |= bit
            fresh.append(bit.bit_length() - 1)
            pending.append((fresh[-1], depth + 1, hit))
    branched += reversed(pending)

    # move every label forward and keep a state only in the oldest sibling
    # tracking it; an emptied node is dropped, and its subtree empties too
    removed: set[int] = set()
    kept = []
    unions = []  # per kept node, the union of its kept children's labels
    free = [-1] * (len(branched) + 1)  # per depth, parent's label minus older siblings'
    at = [0] * len(branched)  # per depth, the index in ``kept`` of the current node
    for name, depth, label in branched:
        nxt = 0
        while label:
            low = label & -label
            nxt |= move[low.bit_length() - 1]
            label ^= low
        nxt &= free[depth]
        free[depth] &= ~nxt
        free[depth + 1] = nxt
        if not nxt:
            removed.add(name)
            continue
        if depth:
            unions[at[depth - 1]] |= nxt
        at[depth] = len(kept)
        kept.append((name, depth, nxt))
        unions.append(0)
    if not kept:
        return None, removed, set(), []

    # breakpoint: a node whose children together track all its states is
    # marked, and its subtree dropped
    marked: set[int] = set()
    out = []
    cut = len(kept)  # nodes deeper than this lie below a marked node
    for node, union in zip(kept, unions):
        name, depth, label = node
        if depth > cut:
            removed.add(name)
            continue
        if union == label:
            marked.add(name)
            cut = depth
        else:
            cut = len(kept)
        out.append(node)
    return tuple(out), removed, marked, [c for c in fresh if c not in removed]


_DEAD = (None, (), 1)


def _letter_classes(rows: Sequence[Sequence]) -> tuple[list[int], list[int]]:
    """Partition the letters by their column ``(rows[0][v], rows[1][v], ...)``.

    Letters with equal columns of an automaton's ``trans`` move every state
    alike, so determinization and the quotients read one letter per class.
    Returns the class of each letter and the first letter of each class
    (its representative), in increasing letter order.
    """
    ids: dict = {}
    cls: list[int] = []
    reps: list[int] = []
    for letter, column in enumerate(zip(*rows)):
        c = ids.setdefault(column, len(ids))
        if c == len(reps):
            reps.append(letter)
        cls.append(c)
    return cls, reps


def nba_to_dpa(
    nba: NBA,
    cap: int = 10**6,
    classes: Optional[tuple[list[int], list[int]]] = None,
) -> DPA:
    """Determinize; the colour of a state reports the last transition's event.

    An appearance record over live node names orders deletion (odd colour
    2p+1) and breakpoint (even colour 2p+2) events by record position p, so
    a deletion dominates a breakpoint at the same position.  A node that
    eventually survives forever while completing breakpoints infinitely
    often yields a recurring even colour below every recurring odd one,
    matching acceptance of the input automaton.

    Each row entry becomes a successor bitmask once per class
    representative (``classes`` as returned by ``_letter_classes``).  A step
    reads the letter only through the column of those bitmasks on the
    states the tree tracks, so it runs once per class whose column is new.
    The DPA's ``safra_steps`` counts these steps.
    """
    cls, reps = _letter_classes(nba.trans) if classes is None else classes
    moves = [[_mask(row[letter]) for row in nba.trans] for letter in reps]
    accepting = _mask(nba.accepting)
    neutral = 2 * (nba.n_states + 2) + 3
    init_key = (((0, 0, 1 << nba.initial),), (0,), neutral)
    steps = 0

    def row_of(key, number) -> list[int]:
        nonlocal steps
        tree, record, _color = key
        if tree is None:
            return [number(_DEAD)] * nba.n_letters
        root = tree[0][2]
        column_of = operator.itemgetter(*(q for q in range(nba.n_states) if root >> q & 1))
        pos = {nm: i for i, nm in enumerate(record)}
        by_column: dict = {}
        ids = []
        # representatives come in letter order, so successors are numbered
        # in the order a per-letter loop would first meet them
        for move in moves:
            column = column_of(move)
            if column not in by_column:
                steps += 1
                by_column[column] = number(_successor(tree, record, pos, move, accepting, neutral))
            ids.append(by_column[column])
        return [ids[c] for c in cls]

    error = AutomatonCapError(f"state cap of {cap} exceeded in determinization")
    order, trans = explore(init_key, row_of, cap, error)
    dpa = DPA(nba.atoms, 0, [key[2] for key in order], trans)
    dpa.safra_steps = steps
    return dpa


def _mask(states: Iterable[int]) -> int:
    return functools.reduce(operator.or_, (1 << q for q in states), 0)


def _successor(tree, record, pos, move, accepting, neutral):
    """The key of the determinized state reached from ``(tree, record)``."""
    tree2, removed, marked, fresh = _safra_step(tree, move, accepting)
    if tree2 is None:
        return _DEAD
    removal_pos = [pos[nm] for nm in removed if nm in pos]
    mark_pos = [pos[nm] for nm in marked]
    if removal_pos and (not mark_pos or min(removal_pos) <= min(mark_pos)):
        color = 2 * min(removal_pos) + 1
    elif mark_pos:
        color = 2 * min(mark_pos) + 2
    else:
        color = neutral
    record2 = tuple(nm for nm in record if nm not in removed) + tuple(fresh)
    return (tree2, record2, color)


def _quotient(dpa: DPA, reps: Optional[Sequence[int]] = None) -> DPA:
    """Merge states with equal colour and bisimilar successor behaviour.

    Every block holds a state reachable from the initial one, so the
    quotient of an automaton built by search from its initial state has no
    unreachable state either.  If the columns of ``dpa.trans`` are constant
    on letter classes, ``reps`` (one letter per class) lets the signatures
    read those letters only.
    """
    n = dpa.n_states
    if reps is None or len(reps) == dpa.n_letters:
        rows = dpa.trans
    else:
        rows = [[row[v] for v in reps] for row in dpa.trans]
    block = refine(dpa.colors, rows)
    n_blocks = max(block) + 1
    if n_blocks == n:
        return dpa
    rep = [None] * n_blocks
    for q in range(n):
        if rep[block[q]] is None:
            rep[block[q]] = q
    colors = [dpa.colors[rep[b]] for b in range(n_blocks)]
    trans = [[block[t] for t in dpa.trans[rep[b]]] for b in range(n_blocks)]
    return DPA(dpa.atoms, block[dpa.initial], colors, trans)


def _neutralize_transient(dpa: DPA) -> DPA:
    """Give states on no cycle the minimal cycle colour.

    Such states are visited at most once per run, so their colour never
    decides acceptance; a uniform choice lets the quotient merge them.
    Returns ``dpa`` itself if no colour changes.
    """
    on_cycle = [bits != 0 for bits in cycle_parities(_distinct_successors(dpa), dpa.colors)]
    if all(on_cycle):
        return dpa
    fill = min(dpa.colors[q] for q in range(dpa.n_states) if on_cycle[q])
    colors = [c if cyc else fill for c, cyc in zip(dpa.colors, on_cycle)]
    if colors == dpa.colors:
        return dpa
    return DPA(dpa.atoms, dpa.initial, colors, dpa.trans)


def compress_colors(dpa: DPA) -> DPA:
    """Relabel colours to a minimal 0-based range preserving order and parity.

    Runs of same-parity colours collapse to one value, so the minimal colour
    of every cycle keeps its parity and winners are unchanged.
    """
    present = sorted(set(dpa.colors))
    mapping = {}
    value = present[0] % 2
    for c in present:
        if c % 2 != value % 2:
            value += 1
        mapping[c] = value
    colors = [mapping[c] for c in dpa.colors]
    return DPA(dpa.atoms, dpa.initial, colors, dpa.trans)


def deterministic_nba_to_dpa(nba: NBA) -> DPA:
    """Read an NBA with at most one successor per row as a DPA.

    Accepting states get colour 0 and the others colour 1; empty rows lead
    to a rejecting sink, added only if some row is empty.
    """
    sink = nba.n_states
    colors = [0 if q in nba.accepting else 1 for q in range(nba.n_states)]
    trans = [[succs[0] if succs else sink for succs in row] for row in nba.trans]
    if any(not succs for row in nba.trans for succs in row):
        colors.append(1)
        trans.append([sink] * nba.n_letters)
    return DPA(nba.atoms, nba.initial, colors, trans)


def _is_deterministic(nba: NBA) -> bool:
    return all(len(succs) <= 1 for row in nba.trans for succs in row)


# ---------------------------------------------------------------------------
# Obligation ∧ G F bodies: a product of deterministic automata, no Safra
#
# An obligation is a Boolean combination of safety and co-safety formulas;
# conjoined with ``G F ψ`` for propositional ``ψ`` it has a deterministic
# Büchi automaton (Dax, Eisinger & Klaedtke, ATVA 2007; Esparza, Křetínský &
# Sickert, LICS 2018).  Each leaf becomes a deterministic automaton that says
# whether a prefix is still alive; the ``G F`` conjuncts are degeneralized by
# the *set* of those seen since the last round, so permuting them (as the
# copy swap of the arena does) permutes the states.  The product and its
# leaves are built on the fly, only as far as the arena steps them
# (Courcoubetis, Vardi, Wolper & Yannakakis, FMSD 1992).

_SAFETY, _COSAFETY = 1, 2


def _kind(f: F.Ltl) -> int:
    """Bit ``_SAFETY`` if ``f`` uses only literals, X, G and R; ``_COSAFETY`` if F, U for G, R."""
    match f:
        case F.Atom() | F.Not() | F.TrueF() | F.FalseF():
            return _SAFETY | _COSAFETY
        case F.And(l, r) | F.Or(l, r):
            return _kind(l) & _kind(r)
        case F.Next(h):
            return _kind(h)
        case F.Globally(h):
            return _kind(h) & _SAFETY
        case F.Release(l, r):
            return _kind(l) & _kind(r) & _SAFETY
        case F.Eventually(h):
            return _kind(h) & _COSAFETY
        case F.Until(l, r):
            return _kind(l) & _kind(r) & _COSAFETY
    raise TypeError(f"not an NNF node: {f!r}")


def _combination(f: F.Ltl, leaves: list) -> Optional[object]:
    """``f`` as an ∧/∨ tree over maximal safety and co-safety subformulas, or None.

    Appends ``(safety formula, negated)`` per leaf to ``leaves``; a leaf
    node is its index, an inner node ``(all, l, r)`` or ``(any, l, r)``.
    A co-safety leaf holds iff its safety negation dies.
    """
    kind = _kind(f)
    if kind:
        if kind & _SAFETY:
            leaves.append((f, False))
        else:
            leaves.append((F.to_nnf(f, negated=True), True))
        return len(leaves) - 1
    if isinstance(f, (F.And, F.Or)):
        l, r = _combination(f.left, leaves), _combination(f.right, leaves)
        if l is not None and r is not None:
            return (all if isinstance(f, F.And) else any, l, r)
    return None


def _leaves_of(node) -> list[int]:
    if isinstance(node, int):
        return [node]
    return _leaves_of(node[1]) + _leaves_of(node[2])


def _settle(node, values: Sequence[Optional[bool]], unread: list) -> Optional[bool]:
    """The value of ``node`` over three-valued leaf ``values`` (None: not fixed yet).

    Appends to ``unread`` the leaves that no longer matter: those below an
    operand whose sibling is fixed to the operator's absorbing value (false
    for ``all``, true for ``any``).  The combination reads every leaf once,
    so this one pass is exact.  Over two-valued ``values`` it is the
    combination's truth value.
    """
    if isinstance(node, int):
        return values[node]
    op, l, r = node
    a, b = _settle(l, values, unread), _settle(r, values, unread)
    absorbing = op is any
    if a is absorbing:
        unread += _leaves_of(r)
        return a
    if b is absorbing:
        unread += _leaves_of(l)
        return b
    return None if a is None or b is None else a


def _support(f: F.Ltl, atoms: Sequence[tuple[str, str]]) -> tuple[tuple[str, str], ...]:
    """The atoms that ``f`` reads, in their order in ``atoms``."""
    read = set(F.collect_atoms(f))
    return tuple(a for a in atoms if a in read)


def _gather(atoms: Sequence[tuple[str, str]], support: Sequence[tuple[str, str]]) -> list[int]:
    """Per letter over ``atoms``, its restriction to ``support``, a subsequence of ``atoms``.

    Support atom ``j`` maps to bit ``j`` and any other atom to nothing
    (:func:`graph.letter_map`).  The least letter that restricts to a local
    letter sets only support bits, and those least letters ascend with the
    local ones.
    """
    bit = {a: 1 << j for j, a in enumerate(support)}
    return letter_map([bit.get(a, 0) for a in atoms])


def _first_letter_truth(f: F.Ltl, atoms: Sequence[tuple[str, str]]) -> Optional[list[bool]]:
    """Per letter, the truth of ``f`` if the first letter alone decides it, else None."""
    apa = ltl_to_apa(f, atoms)
    row = apa.trans[apa.initial]
    if all(t == _TRUE or t == _FALSE for t in row):
        return [t == _TRUE for t in row]
    return None


def _conjuncts(f: F.Ltl) -> list[F.Ltl]:
    if isinstance(f, F.And):
        return _conjuncts(f.left) + _conjuncts(f.right)
    return [f]


def _obligation_parts(f: F.Ltl, atoms: Sequence[tuple[str, str]]):
    """``(leaves, combination, fair)`` if the NNF body ``f`` is an obligation ∧ G F, else None.

    ``fair`` lists, per ``G F ψ`` conjunct whose ``ψ`` the first letter
    decides, the atoms ``ψ`` reads and the truth of ``ψ`` per letter over
    them; the other conjuncts together are the obligation.
    """
    fair, rest = [], []
    for c in _conjuncts(f):
        truth = None
        if isinstance(c, F.Globally) and isinstance(c.operand, F.Eventually):
            support = _support(c.operand.operand, atoms)
            truth = _first_letter_truth(c.operand.operand, support)
        if truth is None:
            rest.append(c)
        else:
            fair.append((support, truth))
    leaves: list = []
    obligation = functools.reduce(F.And, rest) if rest else F.TrueF()
    combination = _combination(obligation, leaves)
    if combination is None:
        return None
    return leaves, combination, fair


class _Leaf:
    """A safety leaf's deterministic automaton, stepped only as far as it is read.

    Every state of a safety APA has colour 0, so its word is accepted iff
    some run tree never gets stuck, and a subset construction decides that
    prefix by prefix.  A state is the antichain of the sets of APA states
    that the surviving run trees track, each set a bitmask: a superset dies
    whenever the set it contains does, so it is dropped (De Wulf, Doyen,
    Henzinger & Raskin, CAV 2006).  APA states that are true on every
    letter are left out of the sets.  The empty antichain ``()`` is dead and
    ``(0,)``, a run tree with nothing pending, accepts every word; both loop
    on every letter.  The APA reads only the leaf's own atoms, each through
    a literal state whose row splits on it, so no two local letters move
    its states alike; the ``gather`` table maps each letter of the product
    to its local letter (:func:`_gather`).  ``successor(s, v)`` steps
    state ``s`` on local letter ``v`` alone, when first asked; ``row(s)``
    asks it for every local letter, in order.
    """

    def __init__(self, apa: APA, gather: Sequence[int], cap: int):
        self.gather = gather
        self.n_local = apa.n_letters
        self.trans = apa.trans
        self.trivial = sum(
            1 << q for q, row in enumerate(apa.trans) if all(t == _TRUE for t in row)
        )
        self.cap = cap
        self.keys: list[tuple[int, ...]] = []
        self.succ: list[list[Optional[int]]] = []  # per state and local letter; None: not stepped
        self.rows: list[Optional[list[int]]] = []
        self.index: dict = {}
        self.initial = self.number((1 << apa.initial,))

    def number(self, key: tuple[int, ...]) -> int:
        """The state of an antichain, numbered on first sight."""
        s = self.index.get(key)
        if s is None:
            canonical = key
            if any(x & self.trivial for x in key):
                canonical = _minimal(x & ~self.trivial for x in key)
            s = self.index.get(canonical)
            if s is None:
                s = len(self.keys)
                if s >= self.cap:
                    raise AutomatonCapError(
                        f"state cap of {self.cap} exceeded in the safety automaton"
                    )
                self.keys.append(canonical)
                loops = canonical == () or canonical == _TRUE
                self.succ.append([s if loops else None] * self.n_local)
                self.rows.append(None)
                self.index[canonical] = s
            self.index[key] = s
        return s

    def _step(self, x: int, v: int) -> tuple[int, ...]:
        """The antichain of successor sets of the set ``x`` on local letter ``v``."""
        joined = 0
        choices = []
        for q in range(x.bit_length()):
            if x >> q & 1:
                got = self.trans[q][v]
                if len(got) == 1:
                    joined |= got[0]
                elif got:
                    choices.append(got)
                else:
                    return ()
        if not choices:
            return (joined,)
        return _minimal(
            functools.reduce(operator.or_, combo, joined) for combo in itertools.product(*choices)
        )

    def successor(self, s: int, v: int) -> int:
        """The successor of state ``s`` on local letter ``v``."""
        succ = self.succ[s]
        t = succ[v]
        if t is None:
            sets = [self._step(x, v) for x in self.keys[s]]
            key = sets[0] if len(sets) == 1 else _minimal(itertools.chain(*sets))
            t = succ[v] = self.number(key)
        return t

    def row(self, s: int) -> list[int]:
        """Per product letter, the successor of ``s``; steps each local letter not yet stepped."""
        row = self.rows[s]
        if row is None:
            succ = [self.successor(s, v) for v in range(self.n_local)]
            row = self.rows[s] = list(map(succ.__getitem__, self.gather))
        return row


class _Entries(dict):
    """Per letter, the successor of one product state, found when the letter is first read.

    The column of a letter is the ``G F`` set with the letter's hits, then
    each leaf's successor on the letter's local letter (-1 stays -1); its
    state comes from the product's memo of columns, shared with the full rows.
    """

    def __init__(self, product: "_ProductDPA", states: tuple, seen: int):
        super().__init__()
        self.product, self.states, self.seen = product, states, seen

    def __missing__(self, letter: int) -> int:
        product = self.product
        column = (self.seen | product.hits[letter],) + tuple(
            leaf.successor(s, leaf.gather[letter]) if s >= 0 else -1
            for leaf, s in zip(product.leaves, self.states)
        )
        self[letter] = q = product._successor(column)
        return q


class _ProductDPA(DPA):
    """The DPA of an obligation ∧ G F body, built as far as it is read.

    A state is (leaf states, the ``G F`` indices seen since the last round,
    whether the last letter completed a round).  It has colour 0 iff the
    leaves' current flags satisfy ``combination`` and a round was just
    completed.  A flag changes at most once along a run, so every cycle
    keeps the flags constant, and it accepts iff they satisfy the
    combination and every ``ψ`` recurs on it.

    A state is numbered, with its colour and sink, when first reached.
    Until its row is filled, ``row(q)`` gives an :class:`_Entries` mapping,
    which steps the state and its leaves on one letter when that letter is
    first read, so the product and its leaves number only the states those
    letters reach.  ``complete()`` fills every row in one pass per state,
    which groups the letters by their column (``G F`` set, then each leaf's
    successor) and numbers one state per distinct column; both ways share
    one memo of columns, so they number the same state for a letter.
    Three local rules keep the states canonical, in place of a quotient:

    * a dead or universal leaf has a fixed flag; if the fixed flags make
      the combination false, the state is the ``LOSE`` sink, and if they
      make it true and there is no ``G F`` conjunct, the ``WIN`` sink;
    * a leaf the combination no longer reads (:func:`_settle`) is replaced
      by the don't-care state -1, which loops on every letter;
    * the round bit is kept only where the current flags satisfy the
      combination, since it only sets the colour.
    """

    def __init__(self, leaves, combination, fair, atoms, cap: int):
        super().__init__(tuple(atoms), 0, [], [])
        self.sink: list[Optional[int]] = []
        self.leaves = []
        for leaf, _negated in leaves:
            support = _support(leaf, atoms)
            apa = ltl_to_apa(leaf, support)
            self.apa_states += apa.n_states
            self.leaves.append(_Leaf(apa, _gather(atoms, support), cap))
        self.negated = [neg for _leaf, neg in leaves]
        self.combination = combination
        # the hits over the atoms the G F conjuncts read, one pass per conjunct,
        # then spread to every letter in one pass
        fair_atoms = tuple(a for a in atoms if any(a in support for support, _ in fair))
        hits = [0] * (1 << len(fair_atoms))
        for i, (support, truth) in enumerate(fair):
            bits = [t << i for t in truth]
            spread = map(bits.__getitem__, _gather(fair_atoms, support))
            hits = list(map(operator.or_, hits, spread))
        self.hits = list(map(hits.__getitem__, _gather(atoms, fair_atoms)))
        self.full = (1 << len(fair)) - 1
        self.cap = cap
        self.keys: list = []
        self.index: dict = {}
        self.memo: dict = {}  # column -> state
        self.seen_rows: dict = {}  # G F set -> per letter, that set with the letter's hits
        init = tuple(leaf.initial for leaf in self.leaves)
        self.initial = self._state(init, 0, self.full == 0)

    @property
    def nba_states(self) -> int:
        return sum(len(leaf.keys) for leaf in self.leaves)

    def _state(self, states: tuple, seen: int, wrapped: bool) -> int:
        """The number of the canonical form of a state, numbered on first sight."""
        values: list[Optional[bool]] = []
        flags = []
        for leaf, s, neg in zip(self.leaves, states, self.negated):
            key = leaf.keys[s] if s >= 0 else None  # -1: any flag will do
            values.append(neg if key == () else (not neg) if key == _TRUE else None)
            flags.append((key != ()) != neg)
        unread: list[int] = []
        value = _settle(self.combination, values, unread)
        if value is False:
            key = LOSE
        elif value and not self.full:
            key = WIN
        else:
            if unread:
                states = tuple(-1 if i in unread else s for i, s in enumerate(states))
            key = (states, seen, int(wrapped and _settle(self.combination, flags, [])))
        q = self.index.get(key)
        if q is None:
            q = len(self.keys)
            if q >= self.cap:
                raise AutomatonCapError(
                    f"state cap of {self.cap} exceeded in the obligation product"
                )
            self.keys.append(key)
            self.index[key] = q
            if isinstance(key, int):
                self.colors.append(int(key == LOSE))
                self.sink.append(key)
                self.trans.append([q] * self.n_letters)
            else:
                self.colors.append(1 - key[2])
                self.sink.append(None)
                self.trans.append(None)
        return q

    def _successor(self, column: tuple) -> int:
        """The state a letter with ``column`` (``G F`` set, leaf states) leads to."""
        q = self.memo.get(column)
        if q is None:
            wrapped = column[0] == self.full
            q = self.memo[column] = self._state(column[1:], 0 if wrapped else column[0], wrapped)
        return q

    def row(self, q: int):
        """The row of ``q`` once filled, else a new :class:`_Entries` of it.

        The product keeps no :class:`_Entries`, which refer back to it, so
        it holds no reference cycle and is freed as soon as it is dropped;
        its memos make a second mapping of ``q`` find the same states.
        """
        row = self.trans[q]
        if row is None:
            states, seen, _wrapped = self.keys[q]
            row = _Entries(self, states, seen)
        return row

    def _fill(self, q: int) -> None:
        """Fill the row of ``q``, numbering one state per distinct column."""
        states, seen, _wrapped = self.keys[q]
        got = self.seen_rows.get(seen)
        if got is None:
            got = self.seen_rows[seen] = [seen | h for h in self.hits]
        leaf_rows = [
            leaf.row(s) if s >= 0 else itertools.repeat(-1) for leaf, s in zip(self.leaves, states)
        ]
        columns = list(zip(got, *leaf_rows))
        ids = dict.fromkeys(columns)
        for column in ids:
            ids[column] = self._successor(column)
        self.trans[q] = list(map(ids.__getitem__, columns))

    def complete(self) -> DPA:
        q = 0
        while q < len(self.trans):
            if self.trans[q] is None:
                self._fill(q)
            q += 1
        return self


def ltl_to_dpa(
    f: F.Ltl,
    atoms: Optional[Sequence[tuple[str, str]]] = None,
    cap: int = 10**6,
) -> DPA:
    """Normal form, then a deterministic automaton by one of three routes.

    A body that is an obligation conjoined with ``G F`` literals becomes the
    product :class:`_ProductDPA` of deterministic automata per safety and
    co-safety leaf, each built straight from the leaf's alternating
    automaton over the atoms the leaf reads; this route builds no
    breakpoint automaton and has no tidy step.  Its states and transitions
    are made when first read, so when it is returned only its initial state
    exists, and ``cap`` bounds the states that the product and each leaf
    number later.  Any other body goes alternating → breakpoint →
    determinization; the letters are partitioned once by the breakpoint
    automaton's columns, and determinization and the quotients work per
    letter class.  A breakpoint automaton that is already deterministic
    skips determinization.  These two routes fill every row,
    are tidied (quotient, neutral colours for states on no cycle, a second
    quotient if that changed a colour, colour compression), and have their
    sinks decided here by :func:`decided_states`.  The returned DPA holds
    the translation's sizes: ``apa_states`` and ``nba_states``, and
    ``safra_steps``, 0 unless the chain determinized.  On a product the
    counts are the states of the leaves' APAs and of their safety automata,
    each summed over the leaves; the second counts the states numbered so
    far, dead states included, and grows while the product is stepped.
    """
    nnf = F.to_nnf(f)
    if atoms is None:
        atoms = F.collect_atoms(nnf)
    parts = _obligation_parts(nnf, atoms)
    if parts is not None:
        return _ProductDPA(*parts, atoms, cap)
    apa = ltl_to_apa(nnf, atoms)
    nba = apa_to_nba(apa, cap=cap)
    classes = _letter_classes(nba.trans)
    if _is_deterministic(nba):
        dpa = deterministic_nba_to_dpa(nba)
    else:
        dpa = nba_to_dpa(nba, cap, classes)
    steps = dpa.safra_steps
    reps = classes[1]
    # the DPA's columns are constant on the classes; both quotients stay:
    # quotienting only after neutralizing merges less, and the second one
    # has nothing to merge unless a colour changed
    dpa = _quotient(dpa, reps)
    neutral = _neutralize_transient(dpa)
    if neutral is not dpa:
        dpa = _quotient(neutral, reps)
    dpa = compress_colors(dpa)
    dpa.apa_states, dpa.nba_states, dpa.safra_steps = apa.n_states, nba.n_states, steps
    _ = dpa.sink  # decided now, as part of the translation
    return dpa


# ---------------------------------------------------------------------------
# Emptiness / universality per state (used to prune decided game regions)


def _distinct_successors(dpa: DPA) -> list[list[int]]:
    """Per state: its successors over all letters, each once."""
    return [list(set(row)) for row in dpa.trans]


def decided_states(dpa: DPA) -> tuple[list[bool], list[bool]]:
    """Per state: does it accept no word at all, and does it accept every word?

    A state accepts some word iff it reaches a cycle whose minimal colour
    is even, and rejects some word iff it reaches one whose minimal colour
    is odd; the bits of :func:`graph.cycle_parities` are closed backwards.
    """
    succ = _distinct_successors(dpa)
    reach = cycle_parities(succ, dpa.colors)
    preds = predecessors(succ)
    stack = [q for q, bits in enumerate(reach) if bits]
    while stack:
        q = stack.pop()
        bits = reach[q]
        for p in preds[q]:
            if bits & ~reach[p]:
                reach[p] |= bits
                stack.append(p)
    return [not bits & 1 for bits in reach], [not bits & 2 for bits in reach]


# ---------------------------------------------------------------------------
# DOT export


def _cubes(letters: list[int], n_bits: int) -> list[str]:
    """An exact, disjoint cover of ``letters`` by don't-care cubes, for edge labels.

    Character ``i`` of a cube gives bit ``i``.  Bit by bit, each pair of
    cubes that differ only at that bit becomes one cube with ``*`` there.
    """
    top = 1 << n_bits  # a leading 1 keeps the leading zeros; it is dropped when reversing
    cubes = {format(letter | top, "b")[:0:-1] for letter in letters}
    for i in range(n_bits):
        merged = set()
        for c in cubes:
            head, bit, tail = c[:i], c[i], c[i + 1 :]
            if head + ("1" if bit == "0" else "0") + tail not in cubes:
                merged.add(c)
            elif bit == "0":
                merged.add(head + "*" + tail)
        cubes = merged
    return sorted(cubes)


def export_dot(dpa: DPA, name: str = "dpa") -> str:
    """Deterministic DOT rendering; edge labels are assignment cubes.

    An edge's letters are a union of the DPA's letter classes, so the rows
    are read once per class and each distinct union is labelled once.  An
    automaton built on the fly is completed first.
    """
    dpa.complete()
    n_bits = len(dpa.atoms)
    lines = [f"digraph {dot_string(name)} {{", "  rankdir=LR;"]
    atom_names = " ".join(f"{p}{{{v}}}" for p, v in dpa.atoms)
    lines.append(f"  info [label={dot_string(f'atoms: {atom_names}')}, shape=note];")
    for q in range(dpa.n_states):
        shape = "doublecircle" if q == dpa.initial else "circle"
        lines.append(f'  q{q} [label="q{q} c{dpa.colors[q]}", shape={shape}];')
    cls, reps = _letter_classes(dpa.trans)
    letters_of: list[list[int]] = [[] for _ in reps]
    for letter, c in enumerate(cls):
        letters_of[c].append(letter)
    labels: dict[tuple[int, ...], str] = {}
    for q in range(dpa.n_states):
        by_target: dict[int, list[int]] = {}
        for c, letter in enumerate(reps):
            by_target.setdefault(dpa.trans[q][letter], []).append(c)
        for t in sorted(by_target):
            classes = tuple(by_target[t])
            label = labels.get(classes)
            if label is None:
                letters = [v for c in classes for v in letters_of[c]]
                label = " | ".join(_cubes(letters, n_bits)) if n_bits else "*"
                labels[classes] = label
            lines.append(f"  q{q} -> q{t} [label={dot_string(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
