"""Imperative bit-vector programs and their compilation to explicit game structures.

Programs manipulate fixed-width bit vectors with ``&``, ``|``, ``!``,
concatenation ``@`` and single-bit projection ``e[n]``.  Inputs enter via
``read_H`` / ``read_L`` statements; ``if (*)`` branches non-deterministically.
Each program step is owned by one of three agents: ``xi_H`` and ``xi_L``
resolve the reads, ``xi_N`` everything else.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Union

from .graph import explore, letter_map
from .lexer import Cursor, ParseError
from .record import field, record
from .structures import MSCGS

AGENT_N = "xi_N"
AGENT_H = "xi_H"
AGENT_L = "xi_L"
AGENTS = (AGENT_N, AGENT_H, AGENT_L)


class ProgramError(ParseError):
    """Raised for malformed program text (syntax or bit-width violations)."""


class StateCapError(Exception):
    """Raised when reachable-state exploration exceeds the configured cap."""


# ---------------------------------------------------------------------------
# Expressions
#
# ``pos`` is the offset in the program text that a width error points at:
# the variable, the operator or the bit index.  It takes no part in equality.


_POS = field(None, compare=False, repr=False)


@record
class Var:
    name: str
    pos: Optional[int] = _POS


@record
class TrueE:
    pass


@record
class FalseE:
    pass


@record
class NotE:
    operand: "Expr"


@record
class AndE:
    left: "Expr"
    right: "Expr"
    pos: Optional[int] = _POS


@record
class OrE:
    left: "Expr"
    right: "Expr"
    pos: Optional[int] = _POS


@record
class Concat:
    left: "Expr"
    right: "Expr"


@record
class Index:
    operand: "Expr"
    index: int
    pos: Optional[int] = _POS


Expr = Union[Var, TrueE, FalseE, NotE, AndE, OrE, Concat, Index]


def expr_width(e, widths: Mapping[str, int], text: str) -> int:
    """Bit width of a well-formed expression; raises on width violations.

    ``text`` is the program the expression was parsed from; errors start
    with the ``line:col:`` of the variable, operator or bit index at fault.
    """
    match e:
        case Var(name):
            if name not in widths:
                raise ProgramError(f"undeclared variable {name!r}", e.pos, text)
            return widths[name]
        case TrueE() | FalseE():
            return 1
        case NotE(op):
            return expr_width(op, widths, text)
        case AndE(l, r) | OrE(l, r):
            wl, wr = expr_width(l, widths, text), expr_width(r, widths, text)
            if wl != wr:
                raise ProgramError(f"operand widths differ ({wl} vs {wr})", e.pos, text)
            return wl
        case Concat(l, r):
            return expr_width(l, widths, text) + expr_width(r, widths, text)
        case Index(op, i):
            w = expr_width(op, widths, text)
            if not 0 <= i < w:
                raise ProgramError(f"bit index {i} out of range for width {w}", e.pos, text)
            return 1
    raise TypeError(f"not an expression: {e!r}")


def eval_expr(e, values: int, layout: Mapping[str, tuple[int, int]]) -> tuple[int, int]:
    """The value and width of a well-formed expression over packed variable values.

    ``layout`` maps each variable to its offset and width in ``values``.  Bit
    ``i`` of a value is its bit ``e[i]``, so ``l @ r`` puts ``r`` above ``l``.
    """
    match e:
        case Var(name):
            offset, width = layout[name]
            return values >> offset & (1 << width) - 1, width
        case TrueE():
            return 1, 1
        case FalseE():
            return 0, 1
        case NotE(op):
            v, w = eval_expr(op, values, layout)
            return ~v & (1 << w) - 1, w
        case AndE(l, r):
            (a, w), (b, _) = eval_expr(l, values, layout), eval_expr(r, values, layout)
            return a & b, w
        case OrE(l, r):
            (a, w), (b, _) = eval_expr(l, values, layout), eval_expr(r, values, layout)
            return a | b, w
        case Concat(l, r):
            (a, wl), (b, wr) = eval_expr(l, values, layout), eval_expr(r, values, layout)
            return a | b << wl, wl + wr
        case Index(op, i):
            return eval_expr(op, values, layout)[0] >> i & 1, 1
    raise TypeError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# Programs


@record
class Assign:
    var: str
    expr: object


@record
class ReadH:
    var: str


@record
class ReadL:
    var: str


@record
class IfExpr:
    cond: object
    then: "Program"
    els: "Program"


@record
class IfStar:
    then: "Program"
    els: "Program"


@record
class While:
    cond: object
    body: "Program"


@record
class Seq:
    """Two or more statements run in order; none of them is itself a ``Seq``."""

    stmts: tuple["Program", ...]


Program = Union[Assign, ReadH, ReadL, IfExpr, IfStar, While, Seq]


def _sequence(stmts: tuple):
    """The program that runs ``stmts`` (no ``Seq`` among them, at least one) in order."""
    return stmts[0] if len(stmts) == 1 else Seq(stmts)


# ---------------------------------------------------------------------------
# Program points


def _number_points(program) -> tuple[int, list[tuple]]:
    """The entry point of ``program`` and, per program point, its statement and targets.

    A point is the rest of the program still to run, numbered once as the
    pair (next statement, point after it).  Structurally equal pairs share a
    number, so points whose remaining statements are equal are one point.
    Point 0 has run every statement and targets itself.  An ``if`` or
    ``if (*)`` targets the entries of its two branches, a ``while`` the entry
    of its body and then the point after it, any other statement the point
    after it.
    """
    index: dict = {}
    points: list = [(None, (0,))]

    def enter(p, after: int) -> int:
        for s in reversed(p.stmts if isinstance(p, Seq) else (p,)):
            after = point(s, after)
        return after

    def point(s, after: int) -> int:
        got = index.get((s, after))
        if got is None:
            got = index[s, after] = len(points)
            points.append(None)  # a loop's body runs back to the loop's point
            match s:
                case IfExpr(_, then, els) | IfStar(then, els):
                    targets = (enter(then, after), enter(els, after))
                case While(_, body):
                    targets = (enter(body, got), after)
                case _:
                    targets = (after,)
            points[got] = (s, targets)
        return got

    return enter(program, 0), points


def _sources(e, layout: Mapping[str, tuple[int, int]]) -> list[int]:
    """Per bit of ``e``, the mask of the program bits that it is computed from."""
    match e:
        case Var(name):
            offset, width = layout[name]
            return [1 << offset + i for i in range(width)]
        case TrueE() | FalseE():
            return [0]
        case NotE(op):
            return _sources(op, layout)
        case AndE(l, r) | OrE(l, r):
            return [a | b for a, b in zip(_sources(l, layout), _sources(r, layout))]
        case Concat(l, r):
            return _sources(l, layout) + _sources(r, layout)
        case Index(op, i):
            return [_sources(op, layout)[i]]
    raise TypeError(f"not an expression: {e!r}")


def _live_bits(points: list[tuple], layout: Mapping[str, tuple[int, int]], observed: int) -> list[int]:
    """Per program point, the mask of the bits that some path from it reads before writing them.

    A guard reads its bits, and an assignment reads the sources of each
    target bit that is live after it (cone of influence: Clarke, Grumberg &
    Peled, *Model Checking*, 1999).  Every ``observed`` bit is live at every
    point.
    """
    flow = []  # per point: (bits written, (written bit, its sources) pairs, bits read)
    for stmt, _ in points:
        match stmt:
            case Assign(var, expr):
                bits = _sources(Var(var), layout)  # each bit of ``var`` alone
                flow.append((sum(bits), tuple(zip(bits, _sources(expr, layout))), 0))
            case ReadH(var) | ReadL(var):
                flow.append((sum(_sources(Var(var), layout)), (), 0))
            case IfExpr(cond) | While(cond):
                flow.append((0, (), _sources(cond, layout)[0]))
            case _:
                flow.append((0, (), 0))
    live = [observed] * len(points)
    changed = True
    while changed:
        changed = False
        for p, (_, targets) in enumerate(points):
            after = 0
            for t in targets:
                after |= live[t]
            written, sources, read = flow[p]
            new = after & ~written | read | observed
            for bit, source in sources:
                if after & bit:
                    new |= source
            if new != live[p]:
                live[p] = new
                changed = True
    return live


# ---------------------------------------------------------------------------
# Parser

_KEYWORDS = frozenset({"var", "if", "else", "while", "true", "false", "read_H", "read_L"})


class _Parser(Cursor):
    punct = [":=", ":", ";", "{", "}", "(", ")", "[", "]", "!", "&", "|", "@", "*"]
    comments = True
    keywords = _KEYWORDS
    ident_name = "variable name"
    error_class = ProgramError

    def __init__(self, text: str, width_overrides: Optional[Mapping[str, int]] = None):
        super().__init__(text)
        self.widths: dict[str, int] = {}
        self.width_overrides = dict(width_overrides or {})

    def parse_program(self):
        while self.at_ident("var"):
            self.next()
            name = self.expect_ident()
            if name in self.widths:
                raise self.error(f"variable {name!r} declared twice")
            self.expect_punct(":")
            declared = self.expect_int("expected bit width")
            width = self.width_overrides.get(name, declared)
            if width < 1:
                raise self.error("bit width must be at least 1")
            self.expect_punct(";")
            self.widths[name] = width
        body = self.parse_stmts()
        if not self.at_eof():
            raise self.error("expected a statement")
        return self.widths, body

    def parse_stmts(self):
        stmts = [self.parse_stmt()]
        while not (self.at_eof() or self.at_punct("}")):
            stmts.append(self.parse_stmt())
        return _sequence(tuple(stmts))

    def parse_block(self):
        self.expect_punct("{")
        body = self.parse_stmts()
        self.expect_punct("}")
        return body

    def parse_stmt(self):
        k, v, pos = self.peek()
        if k == "ident" and v in ("if", "while"):
            self.next()
            self.expect_punct("(")
            cond = None
            if v == "if" and self.at_punct("*"):
                self.next()
            else:
                cond = self.parse_infix()
                if expr_width(cond, self.widths, self.text) != 1:
                    raise ProgramError("guard must have width 1", pos, self.text)
            self.expect_punct(")")
            then = self.parse_block()
            if v == "while":
                return While(cond, then)
            if not self.at_ident("else"):
                raise self.error("expected 'else'")
            self.next()
            els = self.parse_block()
            return IfStar(then, els) if cond is None else IfExpr(cond, then, els)
        if self.at_eof() or self.at_punct("}"):
            raise self.error("expected a statement")
        name = self.expect_ident()
        if name not in self.widths:
            raise ProgramError(f"undeclared variable {name!r}", pos, self.text)
        self.expect_punct(":=")
        if self.at_ident("read_H") or self.at_ident("read_L"):
            _, which, _ = self.next()
            self.expect_punct(";")
            return ReadH(name) if which == "read_H" else ReadL(name)
        expr = self.parse_infix()
        w = expr_width(expr, self.widths, self.text)
        if w != self.widths[name]:
            raise ProgramError(
                f"cannot assign width {w} to {name!r} of width {self.widths[name]}",
                pos,
                self.text,
            )
        self.expect_punct(";")
        return Assign(name, expr)

    # expression precedence: postfix [] > ! > @ > & > |, all left-associative

    infix = {
        "|": (1, False, OrE),
        "&": (2, False, AndE),
        "@": (3, False, lambda l, r, _: Concat(l, r)),
    }

    def parse_operand(self):
        k, v, pos = self.peek()
        if v == "!":
            self.next()
            return NotE(self.parse_operand())
        if v == "(":
            self.next()
            e = self.parse_infix()
            self.expect_punct(")")
        elif k == "ident" and v not in _KEYWORDS:
            self.next()
            e = Var(v, pos)
        elif v in ("true", "false"):
            self.next()
            e = TrueE() if v == "true" else FalseE()
        else:
            raise self.error("expected expression")
        while self.at_punct("["):
            self.next()
            pos = self.peek()[2]
            e = Index(e, self.expect_int("expected bit index"), pos)
            self.expect_punct("]")
        return e


def parse_program(text: str, width_overrides: Optional[Mapping[str, int]] = None):
    """Parse program text into ``(width map, program)``.

    ``width_overrides`` replaces declared widths before well-formedness is
    checked, so a single source can be explored at several bit widths.
    """
    widths, body = _Parser(text, width_overrides).parse_program()
    if width_overrides:
        missing = set(width_overrides) - set(widths)
        if missing:
            raise ProgramError(f"width override for undeclared variable(s): {sorted(missing, key=str)}")
    return widths, body


# ---------------------------------------------------------------------------
# Compilation to an explicit game structure


def build_cgs(
    program,
    widths: Mapping[str, int],
    cap: int = 10**6,
    name: str = "G",
    observe: Optional[Iterable[str]] = None,
) -> MSCGS:
    """Enumerate the reachable configurations of a program as a game structure.

    States are ⟨program point, variable values⟩ pairs; ``xi_H`` and ``xi_L``
    own the states at their reads, ``xi_N`` all others, and the owner picks
    among the successor list.  The values are one int: bit ``i`` of the
    variable declared at offset ``n`` (the widths declared before it,
    summed) is bit ``n + i``.  All variables start as all-zero vectors.

    With ``observe``, the propositions ``x[i]`` that the formula reads, a
    bit that is dead at a point (:func:`_live_bits`) holds 0 there: a read
    branches over the bits live after it, and an edge into point ``t``
    keeps ``values & live[t]``.  States that agree on the live bits reach
    states that agree on every observed bit and every owner, which
    ``structures.quotient`` merges anyway.  Without ``observe`` every bit is
    live.
    """
    entry, points = _number_points(program)
    layout, n = {}, 0
    for x, w in widths.items():
        layout[x] = (n, w)
        n += w
    masks = {x: (1 << w) - 1 << offset for x, (offset, w) in layout.items()}
    names = [f"{x}[{i}]" for x, w in widths.items() for i in range(w)]  # per bit
    observed = (1 << n) - 1
    if observe is not None:
        observe = set(observe)
        observed = sum(1 << b for b, prop in enumerate(names) if prop in observe)
    live = _live_bits(points, layout, observed)
    reads: dict[int, list] = {}
    cap_error = StateCapError(f"state cap of {cap} exceeded")

    def read_values(at: int, var: str) -> list[int]:
        keep = masks[var] & live[points[at][1][0]]
        # a read's 2^k successors are distinct states; 2^k > cap iff k >= cap.bit_length()
        if keep.bit_count() >= cap.bit_length():
            raise cap_error
        # every value setting only kept bits, lexicographic with the lowest bit most significant
        reads[at] = letter_map([1 << i for i in range(keep.bit_length())[::-1] if keep >> i & 1])
        return reads[at]

    def row_of(key, number) -> tuple[int, ...]:
        at, values = key
        stmt, targets = points[at]
        match stmt:
            case Assign(var, expr):
                writes = [eval_expr(expr, values, layout)[0] << layout[var][0]]
            case ReadH(var) | ReadL(var):
                writes = reads.get(at) or read_values(at, var)
            case IfExpr(cond) | While(cond):
                t = targets[not eval_expr(cond, values, layout)[0]]
                return (number((t, values & live[t])),)
            case _:  # if (*) and the end
                return tuple(number((t, values & live[t])) for t in targets)
        t = targets[0]
        rest = values & ~masks[var]
        return tuple(number((t, (rest | v) & live[t])) for v in writes)

    order, succ_ids = explore((entry, 0), row_of, cap, cap_error)
    labels = [frozenset(names[b] for b in range(n) if values >> b & 1) for _, values in order]
    owners = {ReadH: AGENT_H, ReadL: AGENT_L}
    decisions = [
        ((owners.get(type(points[at][0]), AGENT_N), len(row)),) for (at, _), row in zip(order, succ_ids)
    ]
    state_names = [f"s{idx}" for idx in range(len(order))]
    return MSCGS(
        name=name,
        agents=AGENTS,
        stages={a: 0 for a in AGENTS},
        props=frozenset(names),
        labels=labels,
        decisions=decisions,
        table=succ_ids,
        initial=0,
        state_names=state_names,
    )
