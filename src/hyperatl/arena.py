"""Game arena for one bracketed quantifier block over parallel copies.

Move-selection vertices extend partial move vectors stage by stage: at each
stage the coalition agents fix their moves first (player 0's turn), then
the adversarial agents (player 1), until all copies hold a total vector.
A round has one phase per (stage, team) pair, up to the last pair at which
some agent of some copy acts, or the one phase ``(0, True)`` when no agent
acts.  The edge that leaves the last phase fires the joint transition and
steps the body automaton on the labels of the joint state it reaches, so a
vertex's automaton state has already read the labels of its joint state
and there are no vertices for the automaton step.  Every vertex takes the
colour of its automaton state as priority, so the rounds are
priority-constant.

A vertex at which every copy has exactly one move is forced, and the
builder passes through it to its successor instead of keeping it: always
when it does not fire, since its successor lies in its round; when it
fires, only if the edge into it comes from a vertex of its round, which is
then kept.  So no vertex is kept at a pair where no agent acts, a round
begins at the first phase at which some copy has a choice, or at its
firing phase if none has, every round keeps a vertex, and every cycle
keeps a vertex of each round it passes, of the same colour (removing
one-successor vertices is a standard preprocessing step of parity-game
solvers: Friedmann & Lange, ATVA 2009).

The builder works on packed integers.  A copy's position inside one round
of move selection is the local position ``state * width + partial``, where
``partial`` indexes the moves fixed so far, and a vertex is the key
``(q * n_phases + phase) * size + sum(local_c * stride_c)`` over its copies;
the two decided sinks get negative keys.  Per-copy tables, computed once,
give each local position's successors in every phase and the next phase
at which the copy has a choice; on the firing edge an entry also holds the
copy's letter and the phase its next round may begin at.  So the search
only takes the least phase over the copies, sums table entries and interns
the results.  Vertex labels are made from the kept keys when first asked
for.

When both quantifiers of a two-copy block range over the same structure
with the same coalition, and the body automaton commutes with swapping the
two copies' atoms, swapping the copies is an automorphism of the game: it
keeps owners, priorities and edges.  The builder then keeps one vertex per
orbit of the swap, the first key of the pair that the search meets, and
interns its image under the same id.  Such an orbit quotient has the same
winners (symmetry reduction, Emerson & Sistla 1996; Ip & Dill 1996).
"""

from __future__ import annotations

import itertools
from functools import cached_property
from operator import getitem, mul
from typing import Mapping, Optional, Sequence

from .graph import dot_string, letter_map

# the values of ``DPA.sink`` are the keys of the two decided sinks, both
# negative; every other vertex key is >= 0
from .ltl2dpa import DPA, LOSE as _LOSE, WIN as _WIN
from .record import field, record
from .solver import ParityGame
from .structures import MSCGS


class ArenaError(Exception):
    """Raised for inconsistent quantifier/structure/atom configurations."""


class VertexCapError(Exception):
    """Raised when the reachable arena exceeds the configured vertex cap."""


@record
class BuiltArena:
    """The game plus what a report needs; vertex labels are made on demand."""
    __slots__ = ("__dict__",)  # holds the cached ``descriptions``

    game: ParityGame
    # vertices that begin a round: the initial one and those an automaton
    # step enters, sinks excluded
    n_automaton_vertices: int
    n_sink_vertices: int
    keys: list[int] = field(repr=False)
    layout: "_Layout" = field(repr=False)

    @cached_property
    def descriptions(self) -> list[str]:
        """One label per vertex, e.g. ``M q3 (4,7) l=0 T``, built on first use."""
        return [self.layout.describe(key) for key in self.keys]

    @property
    def swap_quotient(self) -> bool:
        """Is each vertex the representative of its orbit under the copy swap?"""
        return self.layout.mirror is not None


class _CopyInfo:
    """One copy's tables over its local positions ``state * width + partial``.

    ``partial`` is the mixed-radix index of the moves fixed so far in the
    current round, in the canonical move order (by stage, coalition before
    adversaries, then agent index), and ``width`` bounds it over all states.
    States with the same decision slots share a shape: per (stage, team)
    pair the number of moves of the agents acting there, and the table
    index of each total move vector in move-order product order, by which
    ``fire`` reads each state's successors off its table row.  :meth:`tables`
    gives, per phase, each position's next positions, the next phase at
    which the copy has a choice, and the firing entries reached when it has none.
    """

    def __init__(
        self,
        coalition,
        structure: MSCGS,
        atom_bits: list[tuple[str, int]],
        pairs: Sequence[tuple[int, bool]],
    ):
        coalition = frozenset(coalition)
        unknown = coalition - set(structure.agents)
        if unknown:
            raise ArenaError(
                f"coalition agents {sorted(unknown)} not present in {structure.name!r}"
            )
        agents, stages = structure.agents, structure.stages
        # canonical move order: by stage, coalition before adversaries, then index
        move_order = [
            agents[i]
            for i in sorted(
                range(len(agents)),
                key=lambda i: (stages[agents[i]], agents[i] not in coalition, i),
            )
        ]
        self.acting = [
            [a for a in move_order if stages[a] == l and (a in coalition) == team]
            for l, team in pairs
        ]
        # per agent: the pair it acts at and its rank among that pair's agents
        place = {a: (i, r) for i, acting in enumerate(self.acting) for r, a in enumerate(acting)}
        self.n_states = structure.n_states
        self.shapes, self.shape_of, self.fire = [], [], []  # shapes: (arities, index)
        known: dict = {}  # distinct decision slots -> shape id
        for slots, row in zip(structure.decisions, structure.table):
            k = known.get(slots)
            if k is None:
                arities, index, strided, stride = [1] * len(pairs), [0], [], len(row)
                for agent, arity in slots:
                    stride //= arity
                    strided.append((place[agent], arity, stride))
                for (i, _), arity, stride in sorted(strided):  # in the move order
                    arities[i] *= arity
                    index = [x + m * stride for x in index for m in range(arity)]
                k = known[slots] = len(self.shapes)
                self.shapes.append((arities, index))
            self.shape_of.append(k)
            self.fire.append([row[x] for x in self.shapes[k][1]])
        self.width = max(len(index) for _, index in self.shapes)
        # label bitmask per state over the formula's atom order
        self.letter_mask = mask = [0] * self.n_states
        for prop, bit in atom_bits:
            if prop not in structure.props:
                raise ArenaError(
                    f"proposition {prop!r} not present in structure {structure.name!r}"
                )
            for s, labels in enumerate(structure.labels):
                if prop in labels:
                    mask[s] |= 1 << bit

    def tables(self, nph: int, stride: int, size: int, digit: int) -> tuple[list, list[int]]:
        """Per phase, this copy's tables over its local positions; and per state its firing entry.

        The phases are the first ``nph`` pairs; no agent acts at a later
        one, and the last phase fires the joint step.  The start phase of a
        state is the first phase at which this copy has more than one move
        there, or the last phase if there is none; a round begins at the
        lowest start phase of its copies' states.  The firing entry of a
        state ``t`` is ``(start * digit + letter) * size + position *
        stride``, where ``start`` is the start phase of ``t``, ``letter``
        holds this copy's bits of its labels and ``position`` is ``t``'s
        first local position.  The copies' letters set disjoint bits and
        their digits are distinct powers of the number of phases, times the
        number of letters, so the sum of one entry per copy divides by
        ``size`` into the joint code and the joint position.  Per phase the
        tables are ``(jumps, moves, through)``, each with one item per local
        position live at that phase (None elsewhere):

        - ``moves``: the positions after the phase's moves, times
          ``stride``, in move-vector product order.  At the last phase the
          joint step fires, and each entry is the firing entry of the
          state reached.
        - ``jumps`` (before the last phase): the first later phase at which
          this copy has more than one move, or the number of phases if none.
        - ``through``: when there is none, the firing entries that passing
          the rest of the round reaches (else None).
        """
        n, w = self.n_states, self.width
        last = nph - 1
        out = [tuple([None] * (n * w) for _ in range(3)) for _ in range(nph)]
        # per shape: its start phase, and per phase its tables, its number
        # of moves, the first later phase with more than one move and the
        # number of partial move vectors before it
        per_shape = []
        for arities, _ in self.shapes:
            first = [nph] * (nph + 1)
            for i in range(last, -1, -1):
                first[i] = i if arities[i] > 1 else first[i + 1]
            live = itertools.accumulate(arities[:last], mul, initial=1)
            per_shape.append((min(first[0], last), list(zip(out, arities, first[1:], live))))
        start = [per_shape[k][0] for k in self.shape_of]
        # per state: the firing entry that reaches it
        entry = [
            (phase * digit + letter) * size + t * w * stride
            for t, (phase, letter) in enumerate(zip(start, self.letter_mask))
        ]
        for s, (k, fire) in enumerate(zip(self.shape_of, self.fire)):
            # the phases before the last; the last one's moves table, moves and count
            *before, ((_, fires, _), r, _, count) = per_shape[k][1]
            fired = [entry[t] for t in fire]
            x = s * w
            for (jumps, moves, through), r_i, jump, count_i in before:
                for p in range(count_i):
                    # the next positions, in move-vector product order
                    a = x + p * r_i
                    moves[x + p] = tuple(range(a * stride, (a + r_i) * stride, stride))
                    jumps[x + p] = jump
                    if jump == nph:
                        through[x + p] = tuple(fired[p * r_i : p * r_i + r_i])
            # once no move is left to fix, the positions index total move vectors
            for p in range(count):
                fires[x + p] = tuple(fired[p * r : p * r + r])
        return out, entry


class _Offsets(dict):
    """Per joint code ``sum(start_c * digit_c) + letter``: ``phase * size``.

    The phase is the lowest of the copies' start phases, at which the round
    begins; the digit of copy ``c`` is ``n_phases ** c * n_letters``.
    Filled as codes occur.
    """

    def __init__(self, n_phases: int, n_copies: int, n_letters: int, size: int):
        super().__init__()
        self.n_phases, self.n_copies = n_phases, n_copies
        self.n_letters, self.size = n_letters, size

    def __missing__(self, code: int) -> int:
        digits = code // self.n_letters
        phase = self.n_phases
        for _ in range(self.n_copies):
            digits, start = divmod(digits, self.n_phases)
            phase = min(phase, start)
        self[code] = offset = phase * self.size
        return offset


@record
class _Layout:
    """How vertex keys are packed; ``pairs`` holds each phase's (stage, team) pair."""

    pairs: list[tuple[int, bool]]
    size: int
    dims: list[tuple[int, int, int]]  # per copy: stride, number of local positions, width
    # under the copy swap: the image of ``q * n_phases + phase``, or None
    mirror: Optional[list[int]] = None

    def swap(self, key: int) -> int:
        """The image of a key under the copy swap (only when ``mirror`` is set)."""
        if key < 0:
            return key
        hi, rest = divmod(key, self.size)
        l1, l0 = divmod(rest, self.dims[1][0])
        return self.mirror[hi] * self.size + l0 * self.dims[1][0] + l1

    def describe(self, key: int) -> str:
        if key < 0:
            return "LOSE" if key == _LOSE else "WIN"
        hi, rest = divmod(key, self.size)
        q, phase = divmod(hi, len(self.pairs))
        js = ",".join(str(rest // st % sz // w) for st, sz, w in self.dims)
        stage, team = self.pairs[phase]
        return "M q%d (%s) l=%d %s" % (q, js, stage, "T" if team else "F")


def _copy_swap(
    quants: Sequence[tuple[frozenset, MSCGS]],
    dpa: DPA,
    atoms: Sequence[tuple[str, str]],
    atom_copy: Mapping[tuple[str, str], int],
) -> Optional[list[int]]:
    """The DPA automorphism ``sigma`` that matches swapping the two copies, if any.

    It exists when both quantifiers bind the same structure with equal
    coalitions, every atom's proposition is read in both copies, and a
    search of the DPA against itself from ``(initial, initial)``, on letters
    with the copies' atoms swapped, pairs each state with exactly one state
    of equal colour and sink.  Then ``trans[sigma[q]][swap(v)] == sigma[trans[q][v]]``.
    Only that search needs every row, so the DPA is completed, by
    ``dpa.complete()``'s pass over whole rows, only once the cheap
    conditions hold.
    """
    if len(quants) != 2:
        return None
    (c0, g0), (c1, g1) = quants
    if g0 is not g1 or frozenset(c0) != frozenset(c1):
        return None
    bit_of = {(prop, atom_copy[(prop, var)]): bit for bit, (prop, var) in enumerate(atoms)}
    if len(bit_of) != len(atoms):
        return None
    partner = []
    for prop, var in atoms:
        other = bit_of.get((prop, 1 - atom_copy[(prop, var)]))
        if other is None:
            return None
        partner.append(1 << other)
    perm = letter_map(partner)  # the letter with the copies' atoms swapped
    dpa.complete()
    colors, trans, sink = dpa.colors, dpa.trans, dpa.sink
    sigma = [-1] * dpa.n_states
    sigma[dpa.initial] = dpa.initial
    queue = [dpa.initial]
    for q in queue:
        s = sigma[q]
        if colors[s] != colors[q] or sink[s] != sink[q]:
            return None
        for t, u in set(zip(trans[q], map(trans[s].__getitem__, perm))):
            if sigma[t] < 0:
                sigma[t] = u
                queue.append(t)
            elif sigma[t] != u:
                return None
    if len(queue) != dpa.n_states or len(set(sigma)) != dpa.n_states:
        return None
    return sigma


def build_game(
    quants: Sequence[tuple[frozenset, MSCGS]],
    dpa: DPA,
    atoms: Sequence[tuple[str, str]],
    atom_copy: Mapping[tuple[str, str], int],
    cap: int = 10**7,
) -> BuiltArena:
    """Construct the reachable arena for the given quantifier block.

    The phases of a round are the (stage, team) pairs up to the last at
    which some agent of some copy acts, or ``(0, True)`` alone when no agent
    acts.  Forced vertices, where every copy has one move, get no vertices:
    an edge passes through them to their successor, and through a forced
    vertex that fires only when the edge comes from a vertex of the same
    round.  So a pair at which no agent acts keeps no vertex.  The edge
    that leaves the last phase performs the joint step and steps the
    automaton on the labels of the joint state it reaches, so the next round
    begins in that state.  The initial vertex is the target of such an
    edge from ``dpa.initial`` into the initial joint state.  Automaton
    states that ``dpa.sink`` marks as accepting no word (resp. every word)
    are replaced by one losing (resp. winning) sink, entered by the step
    that reaches them; winners are unchanged.  The DPA decides its sinks itself: a tidied DPA by
    ``ltl2dpa.decided_states`` over all its states, the on-the-fly product
    locally, as each state is numbered.  The arena asks ``dpa.row(q)``
    once per automaton state and reads one entry per joint letter it
    meets; a product's row fills an entry when it is first read, so the
    product is built only as far as the game reads it.
    The game without these shortcuts is built by ``tests/reference_arena.py``.
    Vertices are numbered in BFS order from the initial one, and each row
    lists its successors in move-vector product order (copy by copy).
    The cap counts the kept vertices.  When the copy swap is an
    automorphism (see :func:`_copy_swap`), one vertex stands for each
    orbit, so sizes and the cap count orbits.
    """
    k = len(quants)
    if k == 0:
        raise ArenaError("at least one quantifier is required")
    atom_bits_per_copy: list[list[tuple[str, int]]] = [[] for _ in range(k)]
    for bit, atom in enumerate(atoms):
        copy = atom_copy[atom]
        if not 0 <= copy < k:
            raise ArenaError(f"atom {atom} mapped to copy {copy} out of range")
        atom_bits_per_copy[copy].append((atom[0], bit))
    max_stage = max(structure.max_stage() for _, structure in quants)
    pairs = [(l, team) for l in range(max_stage + 1) for team in (True, False)]
    copies = [
        _CopyInfo(coalition, structure, atom_bits_per_copy[i], pairs)
        for i, (coalition, structure) in enumerate(quants)
    ]
    # the phases: the pairs up to the last at which some agent acts
    nph = 1 + max((i for i in range(len(pairs)) if any(c.acting[i] for c in copies)), default=0)
    pairs = pairs[:nph]

    dims = []
    size = 1
    for c in copies:
        dims.append((size, c.n_states * c.width, c.width))
        size *= c.n_states * c.width
    span = nph * size  # key distance between consecutive automaton states
    sigma = _copy_swap(quants, dpa, atoms, atom_copy)
    # equal structures and coalitions give both copies the same positions
    mirror = None if sigma is None else [s * nph + ph for s in sigma for ph in range(nph)]
    layout = _Layout(pairs, size, dims, mirror)
    swap = None if mirror is None else layout.swap
    # per phase: per-copy tables (see ``_CopyInfo.tables``) and the owner
    tabled = [
        c.tables(nph, st, size, nph**i * dpa.n_letters)
        for i, (c, (st, _, _)) in enumerate(zip(copies, dims))
    ]
    phases = []
    for i, (_, team) in enumerate(pairs):
        jumps, moves, through = zip(*(tables[i] for tables, _ in tabled))
        phases.append((jumps, moves, through, int(not team)))
    places = [(st, sz) for st, sz, _ in dims]
    offset = _Offsets(nph, k, dpa.n_letters, size)
    letter_bits = dpa.n_letters - 1
    fire_phase = nph - 1
    # the product appends to these lists as the search reaches new states
    sink, colors = dpa.sink, dpa.colors
    # automaton state -> ``dpa.row`` of it, asked for once
    rows: dict = {dpa.initial: dpa.row(dpa.initial)}
    product = itertools.product

    # the initial vertex is entered by a firing edge from ``dpa.initial``
    # into the initial joint state; a decided state steps to sinks of its kind
    code, pos = divmod(sum(entry[g.initial] for (_, g), (_, entry) in zip(quants, tabled)), size)
    q = rows[dpa.initial][code & letter_bits]
    initial_key = sink[q]
    if initial_key is None:
        initial_key = q * span + offset[code] + pos
    if cap < 1:
        raise VertexCapError(f"vertex cap of {cap} exceeded")
    keys = [initial_key]
    index = {initial_key: 0}
    succ: list[tuple[int, ...]] = []  # rows as tuples, which the game keeps as they are
    owner: list[int] = []
    priority: list[int] = []
    n_entered = n_sink = 0  # vertices first reached by an automaton step; sinks
    for vid, key in enumerate(keys):
        if key < 0:
            n_sink += 1
            owner.append(0)
            priority.append(1 if key == _LOSE else 0)
            succ.append((vid,))
            continue
        hi, rest = divmod(key, size)
        q, phase = divmod(hi, nph)
        jumps, moves, through, who = phases[phase]
        owner.append(who)
        priority.append(colors[q])
        locs = [rest // st % sz for st, sz in places]
        fires = True
        if phase < fire_phase:
            jump = min(map(getitem, jumps, locs))
            if jump < nph:
                # pass the phases at which every copy has one move
                fires = False
                base = (hi + jump - phase) * size
                targets = [base + sum(combo) for combo in product(*map(getitem, moves, locs))]
            else:
                moves = through
        if fires:
            step = rows.get(q)
            if step is None:
                step = rows[q] = dpa.row(q)
            targets = []
            for combo in product(*map(getitem, moves, locs)):
                code, pos = divmod(sum(combo), size)
                nq = step[code & letter_bits]
                decided = sink[nq]
                targets.append(nq * span + offset[code] + pos if decided is None else decided)
            n_entered -= len(keys)
        row = []
        for nk in targets:
            t = index.get(nk)
            if t is None:
                t = len(keys)
                if t >= cap:
                    raise VertexCapError(f"vertex cap of {cap} exceeded")
                index[nk] = t
                keys.append(nk)
                if swap is not None:
                    index[swap(nk)] = t
            row.append(t)
        succ.append(tuple(row))
        if fires:
            n_entered += len(keys)

    game = ParityGame(succ=succ, owner=owner, priority=priority, initial=0)
    return BuiltArena(
        game=game,
        # the initial vertex begins a round, and so does each vertex an
        # automaton step reaches first, unless it is a sink
        n_automaton_vertices=1 + n_entered - n_sink,
        n_sink_vertices=n_sink,
        keys=keys,
        layout=layout,
    )


def export_dot(
    arena: BuiltArena, name: str = "game", strategy: Optional[Mapping[int, int]] = None
) -> str:
    """Deterministic DOT rendering; player 0 boxes, player 1 diamonds.

    When a positional strategy is given, its edges are drawn bold so the
    winner's play can be followed through the arena.
    """
    g = arena.game
    strategy = strategy or {}
    lines = [f"digraph {dot_string(name)} {{"]
    for v in range(g.n_vertices):
        shape = "box" if g.owner[v] == 0 else "diamond"
        peripheries = 2 if v == g.initial else 1
        lines.append(
            f"  v{v} [label={dot_string(f'{arena.descriptions[v]} p{g.priority[v]}')}, "
            f"shape={shape}, peripheries={peripheries}];"
        )
    for v in range(g.n_vertices):
        chosen = strategy.get(v)
        marked = False
        for t in g.succ[v]:
            if t == chosen and not marked:
                lines.append(f"  v{v} -> v{t} [penwidth=2, color=red];")
                marked = True
            else:
                lines.append(f"  v{v} -> v{t};")
    lines.append("}")
    return "\n".join(lines) + "\n"
