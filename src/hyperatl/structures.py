"""Multi-stage concurrent game structures and the stutter / shift transforms.

A structure stores, per state, an ordered list of decision slots
``(agent, arity)``, at most one per agent, and a dense successor table
indexed mixed-radix by the slot choices (first slot most significant).
The joint transition function is total: an agent without a slot in a
state is ignored, and a move ``m`` of a slot agent acts as ``m mod
arity``.  Program-compiled structures are turn-based (one slot); the
stutter transform adds a second slot for the scheduling agent, whose
later stage lets it react to the others' choices.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional

from .graph import dot_string, explore, refine
from .record import record

SCHED = "sched"
STUT_PROP = "stut"


class TransformError(Exception):
    """Raised when a structure transform is applied to an unsuitable input."""


@record
class MSCGS:
    """Explicit game structure; treat its lists and dict as read-only after creation."""

    name: str
    agents: tuple[str, ...]
    stages: dict[str, int]
    props: frozenset[str]
    labels: list[frozenset[str]]
    decisions: list[tuple[tuple[str, int], ...]]
    table: list[tuple[int, ...]]
    initial: int
    state_names: list[str]

    @property
    def n_states(self) -> int:
        return len(self.labels)

    def decode_choice(self, state: int, idx: int) -> list[tuple[str, int]]:
        """Per-slot moves selecting entry ``idx`` of the successor table."""
        slots = self.decisions[state]
        moves = []
        for agent, arity in reversed(slots):
            moves.append((agent, idx % arity))
            idx //= arity
        return list(reversed(moves))

    def max_stage(self) -> int:
        return max(self.stages.values()) if self.stages else 0


Severity = str  # "error" | "warning"
Diagnostics = list[tuple[Severity, str, Optional[int]]]


def validate(g: MSCGS) -> Diagnostics:
    """Structural well-formedness report; empty list means valid."""
    out: Diagnostics = []
    n = g.n_states
    if not (0 <= g.initial < n):
        out.append(("error", f"initial state {g.initial} out of range", None))
    for agent in g.agents:
        if agent not in g.stages:
            out.append(("error", f"agent {agent!r} missing from the stage map", None))
    for s in range(n):
        if not g.table[s]:
            out.append(("error", "non-total transition: state has no successor", s))
            continue
        expected = 1
        for j, (agent, arity) in enumerate(g.decisions[s]):
            if agent not in g.agents:
                out.append(("error", f"decision slot for unknown agent {agent!r}", s))
            if any(a == agent for a, _ in g.decisions[s][:j]):
                out.append(("error", f"two decision slots for agent {agent!r}", s))
            if arity < 1:
                out.append(("error", "decision slot with arity < 1", s))
            expected *= max(arity, 1)
        if len(g.table[s]) != expected:
            out.append(
                ("error", f"successor table has {len(g.table[s])} entries, expected {expected}", s)
            )
        for t in g.table[s]:
            if not (0 <= t < n):
                out.append(("error", f"successor {t} out of range", s))
        extra = g.labels[s] - g.props
        if extra:
            out.append(("error", f"labels not in the proposition set: {sorted(extra)}", s))
    return out


def stutter_transform(g: MSCGS) -> MSCGS:
    """Add a scheduling agent that may freeze the state for a step.

    Output states are pairs (s, frozen?).  The scheduler decides, after all
    existing agents (one stage later), whether the joint choice fires
    (landing in (s', 0)) or the state freezes (landing in (s, 1)); frozen
    copies carry the extra proposition ``stut``.
    """
    if SCHED in g.agents:
        raise TransformError(f"agent {SCHED!r} already present in {g.name!r}")
    sched_stage = g.max_stage() + 1

    def row_of(key, number) -> tuple[int, ...]:
        s, _frozen = key
        row: list[int] = []
        frozen = None  # numbered once, right after the first choice's target
        # per base joint choice, the scheduler picks progress (0) or freeze (1)
        for t in g.table[s]:
            row.append(number((t, 0)))
            if frozen is None:
                frozen = number((s, 1))
            row.append(frozen)
        return tuple(row)

    order, table = explore((g.initial, 0), row_of)
    labels = []
    decisions = []
    names = []
    for s, b in order:
        lab = g.labels[s] | {STUT_PROP} if b else g.labels[s]
        labels.append(frozenset(lab))
        decisions.append(g.decisions[s] + ((SCHED, 2),))
        names.append(f"{g.state_names[s]}~" if b else g.state_names[s])

    return MSCGS(
        name=f"{g.name}_stut",
        agents=g.agents + (SCHED,),
        stages={**g.stages, SCHED: sched_stage},
        props=g.props | {STUT_PROP},
        labels=labels,
        decisions=decisions,
        table=table,
        initial=0,
        state_names=names,
    )


def shift_transform(g: MSCGS, k: int) -> MSCGS:
    """Prepend a chain of ``k`` unlabelled states before the initial state.

    The chain delays the structure's behaviour by ``k`` positions; dummy
    states are owned by the first agent with a single move.
    """
    if k < 1:
        raise TransformError("shift distance must be at least 1")
    filler_agent = g.agents[0]
    labels: list[frozenset[str]] = []
    decisions: list[tuple[tuple[str, int], ...]] = []
    table: list[tuple[int, ...]] = []
    names: list[str] = []
    for i in range(k):
        labels.append(frozenset())
        decisions.append(((filler_agent, 1),))
        nxt = i + 1 if i + 1 < k else g.initial + k
        table.append((nxt,))
        names.append(f"shift{i}")
    for s in range(g.n_states):
        labels.append(g.labels[s])
        decisions.append(g.decisions[s])
        table.append(tuple(t + k for t in g.table[s]))
        names.append(g.state_names[s])
    return MSCGS(
        name=f"{g.name}_shift{k}",
        agents=g.agents,
        stages=dict(g.stages),
        props=g.props,
        labels=labels,
        decisions=decisions,
        table=table,
        initial=0,
        state_names=names,
    )


def quotient(g: MSCGS, props: Iterable[str]) -> MSCGS:
    """``g`` up to the bisimulation that respects every move vector, seen through ``props``.

    Two moves of a slot are alike when their slices of a state's table lead
    to the same classes for every choice of the other slots, and merging
    the alike moves leaves one move per distinct slice (:func:`_merge_moves`).
    Two states fall into one class iff their labels restricted to ``props``
    are equal and their merged slots and rows of classes are equal: one
    :func:`graph.refine` from the partition by labels, signing each state
    with its merged slots and row, reaches the coarsest such partition.
    Each class keeps the state name of its first state and that state's
    merged slots and row.  Labels and the proposition set are restricted
    to ``props``.

    Mapping each state to its class and each move to the move that stands
    for it keeps the owner of every decision and the successor of every
    move vector up to the class, so a game over the quotient is a
    functional bisimulation image of the game over ``g``, with the same
    winners (alternating bisimulation preserves ATL*: Alur, Henzinger,
    Kupferman & Vardi, CONCUR 1998).
    """
    keep = frozenset(props) & g.props
    labels = [lab & keep for lab in g.labels]
    block = refine(labels, g.table, lambda s, row: _merge_moves(g.decisions[s], row))
    first: dict[int, int] = {}
    for s, b in enumerate(block):
        first.setdefault(b, s)
    reps = list(first.values())
    merged = [_merge_moves(g.decisions[s], [block[t] for t in g.table[s]]) for s in reps]
    return MSCGS(
        name=g.name,
        agents=g.agents,
        stages=dict(g.stages),
        props=keep,
        labels=[labels[s] for s in reps],
        decisions=[slots for slots, _ in merged],
        table=[row for _, row in merged],
        initial=block[g.initial],
        state_names=[g.state_names[s] for s in reps],
    )


def _merge_moves(slots, row: list[int]) -> tuple[tuple[tuple[str, int], ...], tuple[int, ...]]:
    """Keep, per slot, the first move of each distinct slice of ``row``."""
    if len(set(row)) == len(row):
        # no two entries agree, so no two moves can merge
        return slots, tuple(row)
    strides, kept = [], []
    stride = len(row)
    for _, arity in slots:
        stride //= arity
        strides.append(stride)
        # ``row[o::span]``: the entries at offset ``o`` of each run of the
        # slot's moves; move m's slice is offsets ``m * stride`` on, ``stride`` of them
        span = stride * arity
        cols = [tuple(row[o::span]) for o in range(span)]
        first: dict[tuple, int] = {}
        for m in range(arity):
            first.setdefault(tuple(cols[m * stride : m * stride + stride]), m)
        kept.append(list(first.values()))
    if all(len(k) == arity for k, (_, arity) in zip(kept, slots)):
        return slots, tuple(row)
    new_row = tuple(
        row[sum(m * st for m, st in zip(moves, strides))] for moves in itertools.product(*kept)
    )
    return tuple((agent, len(k)) for (agent, _), k in zip(slots, kept)), new_row


def export_dot(g: MSCGS) -> str:
    """Deterministic DOT rendering: node = state id + labels, edge = moves."""
    lines = [f"digraph {dot_string(g.name)} {{"]
    lines.append("  rankdir=LR;")
    for s in range(g.n_states):
        labs = "{" + ",".join(sorted(g.labels[s])) + "}"
        shape = "doublecircle" if s == g.initial else "circle"
        lines.append(f"  n{s} [label={dot_string(f'{g.state_names[s]} {labs}')}, shape={shape}];")
    for s in range(g.n_states):
        for idx, t in enumerate(g.table[s]):
            moves = g.decode_choice(s, idx)
            label = " ".join(f"{a}={m}" for a, m in moves) or "-"
            lines.append(f"  n{s} -> n{t} [label={dot_string(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
