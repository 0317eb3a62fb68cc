"""The tuple-keyed arena builder, kept as a test oracle for ``arena.build_game``.

This is the construction that ``arena.build_game`` replaced, unchanged:
vertices are tuple keys interned in BFS order and every move vector is
stepped through :func:`delta`.  It never quotients by the copy swap.
``tests/test_arena_kernel.py`` contracts its ``collapse=True,
prune_decided=True`` games by moving each automaton step onto the edges
into it, as the kernel does, and requires the kernel to reproduce the
contracted game vertex for vertex where the kernel keeps every vertex, and
to be its orbit quotient where it keeps one vertex per orbit of the swap.  With both switches off it
builds the exact game (every stage and total-vector vertex kept, decided
states not pruned), the only place that game still exists; the arena tests
compare its winners with the kernel's.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from hyperatl.arena import ArenaError, VertexCapError
from hyperatl.ltl2dpa import DPA, LOSE
from hyperatl.solver import ParityGame
from hyperatl.structures import MSCGS


@dataclass
class BuiltArena:
    game: ParityGame
    descriptions: list[str]
    n_automaton_vertices: int
    keys: list = field(repr=False)  # the tuple key of each vertex
    copies: list = field(repr=False)


def delta(g: MSCGS, state: int, moves: Mapping[str, int]) -> int:
    """Total transition of ``g``: missing agents default to move 0, moves wrap."""
    idx = 0
    for agent, arity in g.decisions[state]:
        idx = idx * arity + (moves.get(agent, 0) % arity)
    return g.table[state][idx]


class _CopyInfo:
    """Per-copy lookups: acting agents by (stage, turn) and letter masks."""

    def __init__(self, coalition, structure: MSCGS, atom_bits: list[tuple[str, int]]):
        self.structure = structure
        self.coalition = frozenset(coalition)
        unknown = self.coalition - set(structure.agents)
        if unknown:
            raise ArenaError(
                f"coalition agents {sorted(unknown)} not present in {structure.name!r}"
            )
        stages = structure.stages
        self.max_stage = structure.max_stage()
        # canonical move order: by stage, coalition before adversaries, then index
        self.move_order = sorted(
            range(len(structure.agents)),
            key=lambda i: (
                stages[structure.agents[i]],
                0 if structure.agents[i] in self.coalition else 1,
                i,
            ),
        )
        self.acting: dict[tuple[int, bool], tuple[str, ...]] = {}
        for l in range(self.max_stage + 1):
            for team in (True, False):
                agents = tuple(
                    structure.agents[i]
                    for i in self.move_order
                    if stages[structure.agents[i]] == l
                    and (structure.agents[i] in self.coalition) == team
                )
                self.acting[(l, team)] = agents
        # label bitmask per state over the formula's atom order
        self.letter_mask = [0] * structure.n_states
        for prop, bit in atom_bits:
            if prop not in structure.props:
                raise ArenaError(
                    f"proposition {prop!r} not present in structure {structure.name!r}"
                )
            for s in range(structure.n_states):
                if prop in structure.labels[s]:
                    self.letter_mask[s] |= 1 << bit
        # slot position of each agent per state resolved lazily via dicts
        self.slot_arity: list[dict[str, int]] = [
            {agent: arity for agent, arity in structure.decisions[s]}
            for s in range(structure.n_states)
        ]

    def arity(self, state: int, agent: str) -> int:
        return self.slot_arity[state].get(agent, 1)


def build_game(
    quants: Sequence[tuple[frozenset, MSCGS]],
    dpa: DPA,
    atoms: Sequence[tuple[str, str]],
    atom_copy: Mapping[tuple[str, str], int],
    collapse: bool = True,
    cap: int = 10**7,
    prune_decided: bool = False,
) -> BuiltArena:
    """Construct the reachable arena for the given quantifier block.

    ``collapse`` skips move-selection vertices whose acting agent set is
    empty (their unique successor is substituted).  ``prune_decided``
    replaces the automaton states that ``dpa.sink`` marks as accepting no
    word (resp. every word) by a single losing (resp. winning) sink; winners
    are unchanged but vertex counts differ, so it stays off where exact
    shape matters.  An automaton built on the fly is completed first.
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
    copies = [
        _CopyInfo(coalition, structure, atom_bits_per_copy[i])
        for i, (coalition, structure) in enumerate(quants)
    ]
    max_stage = max(c.max_stage for c in copies)
    dpa.complete()

    index: dict = {}
    order: list = []
    succ: list[Optional[list[int]]] = []
    owner: list[int] = []
    priority: list[int] = []

    def intern(key) -> int:
        got = index.get(key)
        if got is not None:
            return got
        if len(order) >= cap:
            raise VertexCapError(f"vertex cap of {cap} exceeded")
        index[key] = len(order)
        order.append(key)
        succ.append(None)
        owner.append(0)
        priority.append(0)
        return index[key]

    def joint_step(js, sigma):
        nxt = []
        for i, copy in enumerate(copies):
            agents_in_order = [copy.structure.agents[j] for j in copy.move_order]
            moves = dict(zip(agents_in_order, sigma[i]))
            nxt.append(delta(copy.structure, js[i], moves))
        return tuple(nxt)

    def advance(q, js, sigma, stage, team):
        """Next materialized vertex key from a protocol position."""
        while True:
            if not collapse:
                return ("M", q, js, sigma, stage, team)
            if stage > max_stage:
                # the total-vector vertex is kept unless fast pruning is on
                if prune_decided:
                    return automaton_key(q, joint_step(js, sigma))
                return ("M", q, js, sigma, stage, team)
            acting = [copy.acting.get((stage, team), ()) for copy in copies]
            if any(acting):
                return ("M", q, js, sigma, stage, team)
            stage, team = (stage, False) if team else (stage + 1, True)

    def automaton_key(q, js):
        if prune_decided and dpa.sink[q] is not None:
            return ("LOSE",) if dpa.sink[q] == LOSE else ("WIN",)
        return ("A", q, js)

    initial = intern(automaton_key(dpa.initial, tuple(c.structure.initial for c in copies)))

    frontier = 0
    while frontier < len(order):
        vid = frontier
        key = order[vid]
        frontier += 1
        kind = key[0]
        if kind == "LOSE":
            owner[vid] = 0
            priority[vid] = 1
            succ[vid] = [vid]
            continue
        if kind == "WIN":
            owner[vid] = 0
            priority[vid] = 0
            succ[vid] = [vid]
            continue
        if kind == "A":
            _, q, js = key
            owner[vid] = 0
            priority[vid] = dpa.colors[q]
            value = 0
            for i, copy in enumerate(copies):
                value |= copy.letter_mask[js[i]]
            q2 = dpa.trans[q][value]
            empty_sigma = tuple(() for _ in copies)
            succ[vid] = [intern(advance(q2, js, empty_sigma, 0, True))]
            continue
        _, q, js, sigma, stage, team = key
        owner[vid] = 0 if team else 1
        priority[vid] = dpa.colors[q]
        if stage > max_stage:
            # total move vector: the unique edge performs the joint system step
            succ[vid] = [intern(automaton_key(q, joint_step(js, sigma)))]
            continue
        acting = [copy.acting.get((stage, team), ()) for copy in copies]
        ranges = []
        slots = []
        for i, copy in enumerate(copies):
            for agent in acting[i]:
                ranges.append(range(copy.arity(js[i], agent)))
                slots.append(i)
        nxt_stage, nxt_team = (stage, False) if team else (stage + 1, True)
        row = []
        if not ranges:
            row.append(intern(advance(q, js, sigma, nxt_stage, nxt_team)))
        else:
            for combo in itertools.product(*ranges):
                new_sigma = list(sigma)
                pos = 0
                for i in range(k):
                    count = len(acting[i])
                    if count:
                        new_sigma[i] = new_sigma[i] + tuple(combo[pos : pos + count])
                        pos += count
                row.append(intern(advance(q, js, tuple(new_sigma), nxt_stage, nxt_team)))
        succ[vid] = row

    descriptions = []
    n_automaton = 0
    for key in order:
        kind = key[0]
        if kind == "A":
            n_automaton += 1
            _, q, js = key
            descriptions.append("A q%d (%s)" % (q, ",".join(str(s) for s in js)))
        elif kind == "M":
            _, q, js, sigma, stage, team = key
            descriptions.append(
                "M q%d (%s) l=%d %s"
                % (q, ",".join(str(s) for s in js), stage, "T" if team else "F")
            )
        else:
            descriptions.append(kind)
    game = ParityGame(succ=succ, owner=owner, priority=priority, initial=initial)
    return BuiltArena(
        game=game,
        descriptions=descriptions,
        n_automaton_vertices=n_automaton,
        keys=order,
        copies=copies,
    )
