"""Specification syntax: quantifier blocks over path variables plus an LTL body.

A specification has the shape ``[ <quantifier>+ ] <ltl>`` with an optional
leading ``!`` negating the whole block.  Each quantifier is ``forall``,
``exists`` or an explicit agent coalition ``<<a,b>>``, binds one path
variable, and may name the structure it is resolved on with ``@ system``.
The body is quantifier-free LTL whose atoms ``prop{var}`` read a labelled
proposition off one bound path.
"""

from __future__ import annotations

import sys
from typing import Mapping, Optional, Union

from .lexer import Cursor, ParseError
from .record import record


class FormulaError(ParseError):
    """Raised for syntactically or semantically ill-formed specifications."""


# ---------------------------------------------------------------------------
# Abstract syntax


@record
class Atom:
    prop: str
    var: str


@record
class TrueF:
    pass


@record
class FalseF:
    pass


@record
class Not:
    operand: "Ltl"


@record
class And:
    left: "Ltl"
    right: "Ltl"


@record
class Or:
    left: "Ltl"
    right: "Ltl"


@record
class Implies:
    left: "Ltl"
    right: "Ltl"


@record
class Iff:
    left: "Ltl"
    right: "Ltl"


@record
class Next:
    operand: "Ltl"


@record
class Until:
    left: "Ltl"
    right: "Ltl"


@record
class Release:
    left: "Ltl"
    right: "Ltl"


@record
class Globally:
    operand: "Ltl"


@record
class Eventually:
    operand: "Ltl"


Ltl = Union[
    Atom, TrueF, FalseF, Not, And, Or, Implies, Iff, Next, Until, Release, Globally, Eventually
]


@record
class Forall:
    """Empty coalition: every agent is adversarial."""


@record
class Exists:
    """Full coalition: every agent of the bound structure is controlled."""


@record
class Coalition:
    agents: tuple[str, ...]

    def __post_init__(self):
        if not self.agents:
            raise FormulaError("empty coalition; use 'forall' instead")


AgentSpec = Union[Forall, Exists, Coalition]


@record
class Quantifier:
    spec: AgentSpec
    var: str
    system: Optional[str] = None


@record
class HyperFormula:
    block: tuple[Quantifier, ...]
    body: Ltl
    negated: bool = False


# ---------------------------------------------------------------------------
# Parser

_RESERVED = {"forall", "exists", "true", "false", "X", "G", "F", "U", "R"}
_PREFIX = {"!": Not, "G": Globally, "F": Eventually}


class _Parser(Cursor):
    punct = ["<->", "->", "<<", ">>", "[", "]", "(", ")", "{", "}", "!", "&", "|", ".", ",", "@"]
    error_class = FormulaError

    # -- quantifier block

    def parse_hyper(self) -> HyperFormula:
        negated = False
        if self.at_punct("!"):
            self.next()
            negated = True
        kind, val, _ = self.peek()
        if kind == "ident" and (val in ("forall", "exists")) or (kind == "punct" and val == "<<"):
            raise self.error(
                "unsupported fragment: quantifiers must be grouped in one '[...]' block"
            )
        self.expect_punct("[")
        block = [self.parse_quantifier()]
        while not self.at_punct("]"):
            block.append(self.parse_quantifier())
        self.expect_punct("]")
        body = self.parse_infix()
        if not self.at_eof():
            raise self.error("trailing input after formula")
        f = HyperFormula(block=tuple(block), body=body, negated=negated)
        _check_bindings(f)
        return f

    def parse_quantifier(self) -> Quantifier:
        spec: AgentSpec
        if self.at_ident("forall"):
            self.next()
            spec = Forall()
        elif self.at_ident("exists"):
            self.next()
            spec = Exists()
        elif self.at_punct("<<"):
            self.next()
            agents = [self.expect_ident()]
            while self.at_punct(","):
                self.next()
                agents.append(self.expect_ident())
            self.expect_punct(">>")
            spec = Coalition(tuple(agents))
        else:
            raise self.error("expected 'forall', 'exists' or '<<agents>>'")
        var = self.expect_ident()
        system = None
        if self.at_punct("@"):
            self.next()
            system = self.expect_ident()
        self.expect_punct(".")
        return Quantifier(spec=spec, var=var, system=system)

    # -- LTL body; precedence: unary > U/R (right) > & > | > -> (right) > <-> (right)

    infix = {
        "<->": (1, True, lambda l, r, _: Iff(l, r)),
        "->": (2, True, lambda l, r, _: Implies(l, r)),
        "|": (3, False, lambda l, r, _: Or(l, r)),
        "&": (4, False, lambda l, r, _: And(l, r)),
        "U": (5, True, lambda l, r, _: Until(l, r)),
        "R": (5, True, lambda l, r, _: Release(l, r)),
    }

    def parse_operand(self) -> Ltl:
        kind, val, _ = self.peek()
        if kind == "ident" and val not in _RESERVED:
            return self.parse_atom()
        if val in ("true", "false"):
            self.next()
            return TrueF() if val == "true" else FalseF()
        if val in _PREFIX:
            self.next()
            return _PREFIX[val](self.parse_operand())
        if val == "X":
            self.next()
            reps = 1
            if self.at_punct("["):
                self.next()
                at = self.peek()[2]
                reps = self.expect_int("expected repetition count after 'X['")
                limit = sys.getrecursionlimit()
                if reps > limit:  # too deep to check anyway, so refuse it before building it
                    raise FormulaError(
                        f"formula is nested too deeply (repetition count {reps}"
                        f" is above Python's recursion limit of {limit})",
                        at,
                        self.text,
                    )
                self.expect_punct("]")
            inner = self.parse_operand()
            for _ in range(reps):
                inner = Next(inner)
            return inner
        if val == "(":
            self.next()
            inner = self.parse_infix()
            self.expect_punct(")")
            return inner
        if kind == "ident":
            raise self.error(f"reserved word {val!r} cannot start an atom")
        raise self.error("expected a formula")

    def parse_atom(self) -> Ltl:
        name = self.expect_ident()
        prop = name
        if self.at_punct("["):
            self.next()
            prop = f"{name}[{self.expect_nat('expected bit index')}]"
            self.expect_punct("]")
        self.expect_punct("{")
        var = self.expect_ident()
        self.expect_punct("}")
        return Atom(prop=prop, var=var)


def _check_bindings(f: HyperFormula) -> tuple[tuple[str, str], ...]:
    """The body's atoms; a FormulaError if a path variable is bound twice or an atom's not at all."""
    seen = set()
    for q in f.block:
        if q.var in seen:
            raise FormulaError(f"path variable {q.var!r} bound twice")
        seen.add(q.var)
    atoms = collect_atoms(f.body)
    for prop, var in atoms:
        if var not in seen:
            raise FormulaError(f"unbound path variable {var!r} in atom {prop}{{{var}}}")
    return atoms


def parse_formula(text: str) -> HyperFormula:
    """Parse a specification; raises :class:`FormulaError` with a position."""
    return _Parser(text).parse_hyper()


def parse_ltl(text: str) -> Ltl:
    """Parse a bare LTL formula (no quantifier block)."""
    p = _Parser(text)
    body = p.parse_infix()
    if not p.at_eof():
        raise p.error("trailing input after formula")
    return body


# ---------------------------------------------------------------------------
# Printing (parse ∘ format is the identity up to structural equality)


def format_ltl(f: Ltl) -> str:
    match f:
        case Atom(prop, var):
            return f"{prop}{{{var}}}"
        case TrueF():
            return "true"
        case FalseF():
            return "false"
        case Not(g):
            return f"! {format_ltl(g)}" if isinstance(g, (Atom, TrueF, FalseF)) else f"! ({format_ltl(g)})"
        case And(l, r):
            return f"({format_ltl(l)} & {format_ltl(r)})"
        case Or(l, r):
            return f"({format_ltl(l)} | {format_ltl(r)})"
        case Implies(l, r):
            return f"({format_ltl(l)} -> {format_ltl(r)})"
        case Iff(l, r):
            return f"({format_ltl(l)} <-> {format_ltl(r)})"
        case Next(g):
            return f"X ({format_ltl(g)})"
        case Until(l, r):
            return f"({format_ltl(l)} U {format_ltl(r)})"
        case Release(l, r):
            return f"({format_ltl(l)} R {format_ltl(r)})"
        case Globally(g):
            return f"G ({format_ltl(g)})"
        case Eventually(g):
            return f"F ({format_ltl(g)})"
    raise TypeError(f"not an LTL node: {f!r}")


def format_quantifier(q: Quantifier) -> str:
    match q.spec:
        case Forall():
            kind = "forall"
        case Exists():
            kind = "exists"
        case Coalition(agents):
            kind = "<<" + ",".join(agents) + ">>"
    at = f" @ {q.system}" if q.system else ""
    return f"{kind} {q.var}{at} ."


def format_hyper(f: HyperFormula) -> str:
    neg = "! " if f.negated else ""
    block = " ".join(format_quantifier(q) for q in f.block)
    return f"{neg}[ {block} ] {format_ltl(f.body)}"


# ---------------------------------------------------------------------------
# Negation normal form


def to_nnf(f: Ltl, negated: bool = False) -> Ltl:
    """The negation normal form of ``f``, or of ``Not(f)`` when ``negated``.

    Negation only guards atoms, and ``->`` and ``<->`` are expanded.  One
    walk carries the polarity: under it ``∧``/``∨``, ``U``/``R`` and
    ``G``/``F`` swap, ``X`` is self-dual, an atom is wrapped in ``Not`` and
    ``true``/``false`` swap.
    """
    match f:
        case Atom():
            return Not(f) if negated else f
        case TrueF():
            return FalseF() if negated else f
        case FalseF():
            return TrueF() if negated else f
        case Not(g):
            return to_nnf(g, not negated)
        case And(l, r):
            return (Or if negated else And)(to_nnf(l, negated), to_nnf(r, negated))
        case Or(l, r):
            return (And if negated else Or)(to_nnf(l, negated), to_nnf(r, negated))
        case Implies(l, r):
            return (And if negated else Or)(to_nnf(l, not negated), to_nnf(r, negated))
        case Iff(l, r):
            return Or(
                And(to_nnf(l), to_nnf(r, negated)), And(to_nnf(l, True), to_nnf(r, not negated))
            )
        case Next(g):
            return Next(to_nnf(g, negated))
        case Until(l, r):
            return (Release if negated else Until)(to_nnf(l, negated), to_nnf(r, negated))
        case Release(l, r):
            return (Until if negated else Release)(to_nnf(l, negated), to_nnf(r, negated))
        case Globally(g):
            return (Eventually if negated else Globally)(to_nnf(g, negated))
        case Eventually(g):
            return (Globally if negated else Eventually)(to_nnf(g, negated))
    raise TypeError(f"not an LTL node: {f!r}")


# ---------------------------------------------------------------------------
# Atoms and fragment validation


_UNARY = frozenset((Not, Next, Globally, Eventually))
_BINARY = frozenset((And, Or, Implies, Iff, Until, Release))


def collect_atoms(f: Ltl) -> tuple[tuple[str, str], ...]:
    """All (proposition, path variable) pairs in first-occurrence order.

    The walk dispatches on each node's exact type, with no pattern
    matching: the product route of ``ltl2dpa`` runs it once per leaf.
    """
    found: dict[tuple[str, str], None] = {}  # insertion-ordered set

    def walk(g: Ltl) -> None:
        kind = type(g)
        if kind is Atom:
            found[(g.prop, g.var)] = None
        elif kind in _UNARY:
            walk(g.operand)
        elif kind in _BINARY:
            walk(g.left)
            walk(g.right)
        elif kind is not TrueF and kind is not FalseF:
            raise TypeError(f"not an LTL node: {g!r}")

    walk(f)
    return tuple(found)


@record
class ResolvedQuantifier:
    var: str
    system: str
    coalition: frozenset[str]


@record
class FragmentInfo:
    """Checked block: per-quantifier coalition plus the body's atom layout."""

    quantifiers: tuple[ResolvedQuantifier, ...]
    atoms: tuple[tuple[str, str], ...]
    atom_copy: Mapping[tuple[str, str], int]


def validate_fragment(f: HyperFormula, systems: Mapping[str, object]) -> FragmentInfo:
    """Resolve quantifier bindings against concrete structures.

    Every structure must expose ``agents`` (ordered names) and ``props``.
    A quantifier without an ``@`` annotation binds to the single structure
    when only one is supplied.  Bindings are checked as the parser does.
    """
    atoms = _check_bindings(f)
    only = next(iter(systems)) if len(systems) == 1 else None
    var_to_copy: dict[str, int] = {}
    resolved = []
    for idx, q in enumerate(f.block):
        sys_id = q.system or only
        if sys_id is None:
            raise FormulaError(f"quantifier for {q.var!r} names no system and no default is set")
        if sys_id not in systems:
            raise FormulaError(f"unknown system {sys_id!r}")
        g = systems[sys_id]
        agents = tuple(g.agents)
        match q.spec:
            case Forall():
                coalition: frozenset[str] = frozenset()
            case Exists():
                coalition = frozenset(agents)
            case Coalition(names):
                missing = [a for a in names if a not in agents]
                if missing:
                    raise FormulaError(
                        f"coalition of {q.var!r} names agents absent from {sys_id!r}: "
                        + ", ".join(missing)
                    )
                coalition = frozenset(names)
        var_to_copy[q.var] = idx
        resolved.append(ResolvedQuantifier(var=q.var, system=sys_id, coalition=coalition))
    atom_copy = {}
    for prop, var in atoms:
        copy = var_to_copy[var]
        g = systems[resolved[copy].system]
        if prop not in g.props:
            raise FormulaError(
                f"proposition {prop!r} is not labelled in system {resolved[copy].system!r}"
            )
        atom_copy[(prop, var)] = copy
    return FragmentInfo(quantifiers=tuple(resolved), atoms=atoms, atom_copy=atom_copy)
