"""Shared randomized generators for the test suite (all explicitly seeded)."""

from __future__ import annotations

import random

from hyperatl import formula as F
from hyperatl.ltl2dpa import DPA
from hyperatl.solver import ParityGame
from hyperatl.structures import MSCGS

ATOM_POOL = (("a", "p"), ("b", "p"), ("c", "p"))


def random_ltl(rng: random.Random, size: int, atoms=ATOM_POOL, nnf_only: bool = True):
    """Random formula of the given size; sugar/negations only when allowed."""
    unary = [F.Next, F.Globally, F.Eventually]
    binary = [F.And, F.Or, F.Until, F.Release]
    if not nnf_only:
        unary.append(F.Not)
        binary.extend([F.Implies, F.Iff])
    return _random_formula(rng, size, atoms, unary, binary)


def _random_formula(rng: random.Random, size: int, atoms, unary, binary):
    """Random formula of the given size over the given operators."""
    if size <= 1:
        r = rng.random()
        if r < 0.1:
            return F.TrueF()
        if r < 0.2:
            return F.FalseF()
        atom = F.Atom(*atoms[rng.randrange(len(atoms))])
        return F.Not(atom) if rng.random() < 0.3 else atom
    if rng.random() < 0.45:
        return rng.choice(unary)(_random_formula(rng, size - 1, atoms, unary, binary))
    left = rng.randint(1, size - 1)
    op = rng.choice(binary)
    return op(
        _random_formula(rng, left, atoms, unary, binary),
        _random_formula(rng, size - left, atoms, unary, binary),
    )


SAFETY_OPS = ([F.Next, F.Globally], [F.And, F.Or, F.Release])
COSAFETY_OPS = ([F.Next, F.Eventually], [F.And, F.Or, F.Until])


def random_safety_formula(rng: random.Random, size: int, atoms=ATOM_POOL):
    """Random safety formula (literals, X, G, ∧, ∨, R) of the given size."""
    return _random_formula(rng, size, atoms, *SAFETY_OPS)


def random_obligation_body(
    rng: random.Random, atoms=ATOM_POOL, max_parts: int = 3, max_size: int = 5, max_fair: int = 2
):
    """Random obligation ∧ G F body.

    One to ``max_parts`` random formulas of size 2–``max_size``, safety and
    co-safety in turn, joined by random ∧/∨ and conjoined with zero to
    ``max_fair`` ``G F`` literals.
    """
    body = None
    turn = rng.randrange(2)
    for i in range(rng.randint(1, max_parts)):
        unary, binary = (SAFETY_OPS, COSAFETY_OPS)[(turn + i) % 2]
        part = _random_formula(rng, rng.randint(2, max_size), atoms, unary, binary)
        body = part if body is None else rng.choice((F.And, F.Or))(body, part)
    for _ in range(rng.randint(0, max_fair)):
        atom = F.Atom(*rng.choice(atoms))
        body = F.And(body, F.Globally(F.Eventually(rng.choice((atom, F.Not(atom))))))
    return body


def random_lasso(rng: random.Random, atoms, max_prefix: int = 4, max_loop: int = 4):
    prefix = [
        {a: rng.random() < 0.5 for a in atoms} for _ in range(rng.randint(0, max_prefix))
    ]
    loop = [
        {a: rng.random() < 0.5 for a in atoms} for _ in range(rng.randint(1, max_loop))
    ]
    return prefix, loop


def random_game(rng: random.Random, max_vertices: int = 8, max_degree: int = 3,
                max_priority: int = 4) -> ParityGame:
    n = rng.randint(1, max_vertices)
    succ = [
        [rng.randrange(n) for _ in range(rng.randint(1, max_degree))] for _ in range(n)
    ]
    owner = [rng.randint(0, 1) for _ in range(n)]
    priority = [rng.randint(0, max_priority) for _ in range(n)]
    return ParityGame(succ=succ, owner=owner, priority=priority)


def random_structure(
    rng: random.Random,
    max_states: int = 6,
    props=("x", "y"),
    max_agents: int = 2,
    max_arity: int = 2,
    shuffle_slots: bool = False,
) -> MSCGS:
    """Small structure with one to ``max_agents`` agents over at most two stages.

    Each agent gets a slot of one to ``max_arity`` moves in about 70% of
    the states.  Slots are listed by stage and then by agent name, or in a
    random order with ``shuffle_slots``.  The defaults take no extra draws
    from ``rng``, so a seed gives the same structure whether or not they
    are passed.
    """
    n = rng.randint(1, max_states)
    agents = tuple(f"a{i}" for i in range(rng.randint(1, max_agents)))
    stages = {a: rng.randint(0, 1) for a in agents}
    labels, decisions, table = [], [], []
    for _ in range(n):
        labels.append(frozenset(p for p in props if rng.random() < 0.5))
        slots = []
        for a in sorted(agents, key=lambda a: (stages[a], a)):
            if rng.random() < 0.7:
                slots.append((a, rng.randint(1, max_arity)))
        if shuffle_slots:
            rng.shuffle(slots)
        if not slots:
            slots = [(agents[0], 1)]
        arity = 1
        for _, k in slots:
            arity *= k
        decisions.append(tuple(slots))
        table.append(tuple(rng.randrange(n) for _ in range(arity)))
    return MSCGS(
        name="R",
        agents=agents,
        stages=stages,
        props=frozenset(props),
        labels=labels,
        decisions=decisions,
        table=table,
        initial=0,
        state_names=[f"s{i}" for i in range(n)],
    )


def arity(g: MSCGS, state: int) -> int:
    """The size of ``state``'s successor table: the product of its slots' arities."""
    n = 1
    for _, a in g.decisions[state]:
        n *= a
    return n


def owner(g: MSCGS, state: int) -> str:
    """The agent of the first decision slot of ``state``, or ``g``'s first agent if it has none."""
    slots = g.decisions[state]
    return slots[0][0] if slots else g.agents[0]


def random_program(
    rng: random.Random, max_block: int = 3, depth: int = 2, names=None, max_width: int = 2
) -> str:
    """Random program text over the variables ``names``, each of width 1 to ``max_width``.

    Without ``names`` the variables are one to three of ``x``, ``y``, ``z``.
    Blocks hold one to ``max_block`` statements: assignments, ``read_H`` /
    ``read_L``, and, down to ``depth`` levels of nesting, ``if``, ``if (*)``
    and ``while``.  Half of the ``if`` statements have two identical
    branches, which parse to equal but distinct objects.
    """
    if names is None:
        names = "xyz"[: rng.randint(1, 3)]
    widths = {x: rng.randint(1, max_width) for x in names}

    def bit(size: int) -> str:
        if size <= 1:
            if rng.random() < 0.2:
                return rng.choice(("true", "false"))
            x = rng.choice(list(widths))
            return f"{x}[{rng.randrange(widths[x])}]"
        r = rng.random()
        if r < 0.3:
            return f"!{bit(size - 1)}"
        return f"({bit(size - 1)} {'&' if r < 0.65 else '|'} {bit(size - 1)})"

    def expr(width: int) -> str:
        if width == 1:
            return bit(rng.randint(1, 3))
        same = [x for x, w in widths.items() if w == width]
        if same and rng.random() < 0.5:
            x = rng.choice(same)
            return rng.choice((x, f"!{x}", f"({x} & {rng.choice(same)})"))
        rest = bit(rng.randint(1, 2)) if width == 2 else expr(width - 1)
        return f"{bit(rng.randint(1, 2))} @ {rest}"

    def block(depth: int) -> str:
        return " ".join(stmt(depth) for _ in range(rng.randint(1, max_block)))

    def stmt(depth: int) -> str:
        kind = rng.choice(("assign", "read") + (("if", "if*", "while") if depth else ()))
        if kind in ("if", "if*"):
            then = block(depth - 1)
            els = then if rng.random() < 0.5 else block(depth - 1)
            guard = "*" if kind == "if*" else bit(rng.randint(1, 3))
            return f"if ({guard}) {{ {then} }} else {{ {els} }}"
        if kind == "while":
            return f"while ({bit(rng.randint(1, 3))}) {{ {block(depth - 1)} }}"
        x = rng.choice(list(widths))
        if kind == "read":
            return f"{x} := {rng.choice(('read_H', 'read_L'))};"
        return f"{x} := {expr(widths[x])};"

    decls = "".join(f"var {x}:{w}; " for x, w in widths.items())
    return decls + block(depth)


def random_dpa(rng: random.Random, atoms, max_states: int = 5, max_color: int = 2) -> DPA:
    n = rng.randint(1, max_states)
    n_letters = 1 << len(atoms)
    colors = [rng.randint(0, max_color) for _ in range(n)]
    trans = [[rng.randrange(n) for _ in range(n_letters)] for _ in range(n)]
    return DPA(tuple(atoms), 0, colors, trans)


def random_block(rng: random.Random, **draws):
    """A random quantifier block: 1-3 copies, atoms ``x`` and ``y`` of each, a random DPA.

    ``draws`` go to :func:`random_structure`.
    """
    k = rng.randint(1, 3)
    quants = []
    for _ in range(k):
        g = random_structure(rng, max_states=6 if k < 3 else 4, **draws)
        coalition = frozenset(a for a in g.agents if rng.random() < 0.5)
        quants.append((coalition, g))
    atoms = tuple((p, f"p{i + 1}") for i in range(k) for p in ("x", "y"))
    atom_copy = {(p, f"p{i + 1}"): i for i in range(k) for p in ("x", "y")}
    return quants, random_dpa(rng, atoms, max_states=5), atoms, atom_copy


def swap_paths(f):
    """The formula with paths ``p1`` and ``p2`` exchanged."""
    if isinstance(f, F.Atom):
        return F.Atom(f.prop, {"p1": "p2", "p2": "p1"}[f.var])
    return type(f)(*(swap_paths(getattr(f, name)) for name in f.__match_args__))
