import itertools
import random
import re
import time

import pytest

from conftest import arity, owner, random_program
from hyperatl import imp
from hyperatl.imp import (
    AGENT_H,
    AGENT_L,
    AGENT_N,
    Assign,
    ProgramError,
    Seq,
    StateCapError,
    TrueE,
    While,
    build_cgs,
    eval_expr,
    parse_program,
)
from hyperatl.structures import quotient, validate


def test_parse_minimal_assign():
    widths, prog = parse_program("var o:1; o := true;")
    assert widths == {"o": 1}
    assert prog == Assign("o", TrueE())


def test_parse_width_mismatch_rejected():
    with pytest.raises(ProgramError, match="width"):
        parse_program("var x:2; x := true;")


def test_parse_guard_width_rejected():
    with pytest.raises(ProgramError, match="guard"):
        parse_program("var x:2; while (x) { x := x; }")


def test_parse_undeclared_variable_rejected():
    with pytest.raises(ProgramError, match="undeclared"):
        parse_program("var x:1; y := true;")


def test_width_override_for_undeclared_variable_rejected():
    with pytest.raises(ProgramError, match=re.escape("width override for undeclared variable(s): ['y']")):
        parse_program("var x:1; x := x;", width_overrides={"x": 2, "y": 2})


def test_parse_p1_shape():
    text = (imp_asset("p1.imp")).read_text()
    widths, prog = parse_program(text)
    assert widths == {"o": 1, "h": 1, "l": 1}
    # init assignment first, then the loop
    assert isinstance(prog, Seq)
    assert [type(s) for s in prog.stmts] == [Assign, While]


X, Y, Z, W = (imp.Var(x) for x in "xyzw")
PRECEDENCE = {  # (declared widths, expression, tree)
    "or over and over concat": ("x:2 y:2 z:1 w:1", "x | y & z @ w", imp.OrE(X, imp.AndE(Y, imp.Concat(Z, W)))),
    "and left assoc": ("x:1 y:1 z:1", "x & y & z", imp.AndE(imp.AndE(X, Y), Z)),
    "or left assoc": ("x:1 y:1 z:1", "x | y | z", imp.OrE(imp.OrE(X, Y), Z)),
    "concat left assoc": ("x:1 y:1 z:1", "x @ y @ z", imp.Concat(imp.Concat(X, Y), Z)),
    "index binds tighter than not": ("x:2 y:1", "!x[0] & y", imp.AndE(imp.NotE(imp.Index(X, 0)), Y)),
    "parentheses": ("x:1 y:1 z:1", "(x | y)[0] & z", imp.AndE(imp.Index(imp.OrE(X, Y), 0), Z)),
}


@pytest.mark.parametrize("case", sorted(PRECEDENCE))
def test_precedence(case):
    decls, text, tree = PRECEDENCE[case]
    widths = dict((name, int(w)) for name, w in (d.split(":") for d in decls.split()))
    width = imp.expr_width(tree, widths, "")
    declared = "".join(f"var {name}:{w}; " for name, w in widths.items())
    assert parse_program(f"{declared}var t:{width}; t := {text};")[1] == Assign("t", tree)


def imp_asset(name):
    from hyperatl.cli import bundled_asset

    return bundled_asset(name)


# packed values: bit ``i`` of the variable at offset ``n`` is bit ``n + i``
LAYOUT = {"y": (0, 1), "x": (1, 2), "z": (3, 3)}


def test_eval_concat_of_constants():
    assert eval_expr(imp.Concat(imp.FalseE(), TrueE()), 0, {}) == (0b10, 2)


def test_eval_bitwise_and():
    layout = {"x": (0, 2), "y": (2, 2)}
    # x = (True, False), y = (True, True)
    assert eval_expr(imp.AndE(X, Y), 0b11_01, layout) == (0b01, 2)


def test_eval_negate_then_project():
    assert eval_expr(imp.Index(imp.NotE(X), 1), 0b01, {"x": (0, 2)}) == (1, 1)


def test_eval_negation_keeps_its_operand_width():
    # y and z set, x = (True, False): !x is (False, True) and nothing above it
    assert eval_expr(imp.NotE(X), 0b111_01_1, LAYOUT) == (0b10, 2)


def test_eval_concat_puts_the_left_operand_first():
    # x = (True, False), z = (False, True, True): x @ z is (True, False, False, True, True)
    assert eval_expr(imp.Concat(X, Z), 0b110_01_0, LAYOUT) == (0b11001, 5)
    assert eval_expr(imp.Concat(Z, X), 0b110_01_0, LAYOUT) == (0b01110, 5)


def expressions(p):
    """Every guard and assigned expression of a program, in text order."""
    match p:
        case Seq(stmts):
            for s in stmts:
                yield from expressions(s)
        case Assign(_, e):
            yield e
        case imp.IfExpr(c, a, b):
            yield c
            yield from expressions(a)
            yield from expressions(b)
        case imp.IfStar(a, b):
            yield from expressions(a)
            yield from expressions(b)
        case While(c, body):
            yield c
            yield from expressions(body)


def test_eval_matches_the_reference_on_random_expressions():
    rng = random.Random(33)
    checked = 0
    for _ in range(300):
        widths, prog = parse_program(random_program(rng, names="xyz", max_width=3))
        layout, n = {}, 0
        for x, w in widths.items():
            layout[x], n = (n, w), n + w
        for e in expressions(prog):
            for _ in range(4):
                values = rng.getrandbits(n)
                sigma = {x: tuple(bool(values >> o + i & 1) for i in range(w)) for x, (o, w) in layout.items()}
                want = reference_eval(e, sigma)
                assert eval_expr(e, values, layout) == (sum(b << i for i, b in enumerate(want)), len(want)), e
                checked += 1
    assert checked >= 2000, checked


def build(text):
    widths, prog = parse_program(text)
    return build_cgs(prog, widths)


def test_read_fanout_and_order():
    g = build("var x:2; x := read_H;")
    assert owner(g, 0) == AGENT_H
    assert g.table[0] == (1, 2, 3, 4)
    # lexicographic, leftmost bit most significant
    assert g.labels[1:] == [frozenset(), {"x[1]"}, {"x[0]"}, {"x[0]", "x[1]"}]
    assert all(g.table[s] == (s,) for s in range(1, 5))


def test_while_exit_on_false_guard():
    g = build("var x:1; while (x) { x := true; }")
    assert g.table == [(1,), (1,)]
    assert g.labels == [frozenset(), frozenset()]


def test_while_unrolls_on_true_guard():
    g = build("var x:1; x := true; while (x) { x := true; }")
    # the loop steps into its body, and the body runs back to the loop
    assert g.table == [(1,), (2,), (1,)]
    assert g.labels == [frozenset(), {"x[0]"}, {"x[0]"}]


def test_steps_splice_into_one_flat_sequence():
    g = build("var x:1; x := true; while (x) { x := true; x := read_H; } x := x;")
    # body, loop and the statement after the loop run as one sequence: both
    # read values go back to the loop, which exits to ``x := x`` and the end
    assert g.table == [(1,), (2,), (3,), (4, 1), (5,), (6,), (6,)]
    assert [owner(g, s) for s in range(g.n_states)] == [AGENT_N] * 3 + [AGENT_H] + [AGENT_N] * 3
    assert g.labels[4:] == [frozenset()] * 3


def test_terminated_self_loop():
    g = build("var x:1; x := !x;")
    assert g.table == [(1,), (1,)]
    assert g.decisions[1] == ((AGENT_N, 1),)
    assert g.labels[1] == {"x[0]"}


def test_controlling_player():
    owners = {
        "x := read_H;": AGENT_H,
        "x := read_L;": AGENT_L,
        "x := !x;": AGENT_N,
        "if (x) { x := x; } else { x := !x; }": AGENT_N,
        "if (*) { x := x; } else { x := !x; }": AGENT_N,
        "while (x) { x := x; }": AGENT_N,
    }
    for stmt, agent in owners.items():
        assert owner(build(f"var x:1; {stmt}"), 0) == agent, stmt


def test_identical_branches_are_one_point():
    g = build("var x:1; if (*) { x := !x; } else { x := !x; }")
    assert g.table == [(1, 1), (2,), (2,)]


# -- reference enumeration, independent of build_cgs -------------------------
#
# A configuration is the flat tuple of statements still to run, () once all
# of them have run, and the variable values, each a tuple of bools.


def reference_eval(e, sigma):
    """The bits of a well-formed expression, ``e[0]`` first."""
    match e:
        case imp.Var(x):
            return sigma[x]
        case imp.TrueE():
            return (True,)
        case imp.FalseE():
            return (False,)
        case imp.NotE(a):
            return tuple(not b for b in reference_eval(a, sigma))
        case imp.AndE(a, b):
            return tuple(p and q for p, q in zip(reference_eval(a, sigma), reference_eval(b, sigma)))
        case imp.OrE(a, b):
            return tuple(p or q for p, q in zip(reference_eval(a, sigma), reference_eval(b, sigma)))
        case imp.Concat(a, b):
            return reference_eval(a, sigma) + reference_eval(b, sigma)
        case imp.Index(a, i):
            return (reference_eval(a, sigma)[i],)
    raise TypeError(f"not an expression: {e!r}")


def flat(p):
    return p.stmts if isinstance(p, Seq) else (p,)


def step(rest, sigma, widths):
    """All one-step successors of a configuration, in order, straight off the step rules."""
    if not rest:
        return [((), sigma)]
    p, after = rest[0], rest[1:]
    match p:
        case imp.Assign(x, e):
            return [(after, {**sigma, x: reference_eval(e, sigma)})]
        case imp.ReadH(x) | imp.ReadL(x):
            vals = itertools.product((False, True), repeat=widths[x])
            return [(after, {**sigma, x: tuple(v)}) for v in vals]
        case imp.IfExpr(c, a, b):
            return [(flat(a if reference_eval(c, sigma)[0] else b) + after, sigma)]
        case imp.IfStar(a, b):
            return [(flat(a) + after, sigma), (flat(b) + after, sigma)]
        case imp.While(c, body):
            if reference_eval(c, sigma)[0]:
                return [(flat(body) + rest, sigma)]
            return [(after, sigma)]
    raise TypeError(f"not a statement: {p!r}")


def reference_owner(rest):
    return {imp.ReadH: AGENT_H, imp.ReadL: AGENT_L}.get(type(rest[0]) if rest else None, AGENT_N)


def reference_reach(prog, widths):
    """The configurations reachable from the start, breadth first, and their successor rows."""
    init = (flat(prog), {x: (False,) * w for x, w in widths.items()})
    index = {}
    configs, rows = [], []

    def number(config):
        rest, sigma = config
        key = (rest, tuple(sorted(sigma.items())))
        if key not in index:
            index[key] = len(configs)
            configs.append(config)
        return index[key]

    number(init)
    for rest, sigma in configs:  # grows while the search runs
        rows.append(tuple(number(c) for c in step(rest, sigma, widths)))
    return configs, rows


def assert_matches_reference(prog, widths):
    """``build_cgs`` numbers, labels, owns and links every state as the reference does."""
    g = build_cgs(prog, widths)
    configs, rows = reference_reach(prog, widths)
    assert validate(g) == []
    assert g.n_states == len(configs)
    assert g.table == rows
    assert g.state_names == [f"s{v}" for v in range(len(configs))]
    for v, (rest, sigma) in enumerate(configs):
        assert g.labels[v] == {f"{x}[{i}]" for x, bits in sigma.items() for i, b in enumerate(bits) if b}
        assert g.decisions[v] == ((reference_owner(rest), len(rows[v])),)
    return g, configs


def test_build_cgs_read_then_stop_against_reference():
    widths, prog = parse_program("var x:1; x := read_H;")
    g, _ = assert_matches_reference(prog, widths)
    # initial read config plus one terminated config per read value
    assert g.n_states == 3
    assert owner(g, 0) == AGENT_H
    assert {owner(g, s) for s in range(1, 3)} == {AGENT_N}


def test_build_cgs_p1_against_reference():
    widths, prog = parse_program(imp_asset("p1.imp").read_text())
    assert_matches_reference(prog, widths)


def test_build_cgs_terminated_only():
    g = build("var x:1; x := false;")
    # the assignment keeps the all-zero values, yet the end is a point of its own
    assert g.n_states == 2
    assert g.table == [(1,), (1,)]
    assert owner(g, 1) == AGENT_N
    assert g.labels[1] == frozenset()


def test_build_cgs_label_soundness_and_owner_agreement():
    # p2's two identical ``if`` branches are one point
    widths, prog = parse_program(imp_asset("p2.imp").read_text())
    assert_matches_reference(prog, widths)


# p1 and p2 are checked against the reference above
BUNDLED = {name: (name, None) for name in ("fig1b", "p3", "p4", "q1", "q2")}
BUNDLED.update({f"q1 h={h}": ("q1", {"h": h}) for h in range(1, 5)})


@pytest.mark.parametrize("case", sorted(BUNDLED))
def test_build_cgs_matches_reference_on_bundled_programs(case):
    name, overrides = BUNDLED[case]
    widths, prog = parse_program(imp_asset(f"{name}.imp").read_text(), overrides)
    assert_matches_reference(prog, widths)


def test_build_cgs_matches_reference_on_random_programs():
    for seed in range(400):
        text = random_program(random.Random(seed))
        widths, prog = parse_program(text)
        try:
            assert_matches_reference(prog, widths)
        except AssertionError as e:
            raise AssertionError(f"seed {seed}: {text}") from e


def test_deterministic_configs_have_single_successor():
    widths, prog = parse_program(imp_asset("q2.imp").read_text())
    g, configs = assert_matches_reference(prog, widths)
    for v, (rest, _) in enumerate(configs):
        head = rest[0] if rest else None
        if isinstance(head, imp.IfStar):
            assert arity(g, v) == 2
        elif isinstance(head, (imp.ReadH, imp.ReadL)):
            assert arity(g, v) == 2 ** widths[head.var]
        else:
            assert arity(g, v) == 1


def test_straight_line_build_is_linear():
    widths, prog = parse_program("var o:1;\n" + "o := !o;\n" * 10_000)
    start = time.perf_counter()
    g = build_cgs(prog, widths)
    assert time.perf_counter() - start < 2.0
    assert g.n_states == 10_001


def test_width_override_changes_fanout():
    text = imp_asset("q1.imp").read_text()
    widths, prog = parse_program(text, width_overrides={"h": 2})
    assert widths["h"] == 2
    g = build_cgs(prog, widths)
    reads = [s for s in range(g.n_states) if owner(g, s) == AGENT_H and arity(g, s) == 4]
    assert reads, "read states must branch over all four two-bit values"


def test_state_cap_enforced():
    text = imp_asset("q1.imp").read_text()
    widths, prog = parse_program(text)
    with pytest.raises(StateCapError):
        build_cgs(prog, widths, cap=5)


def test_read_fits_a_cap_that_holds_all_its_values():
    widths, prog = parse_program("var x:3; x := read_H;")
    assert build_cgs(prog, widths, cap=9).n_states == 9
    with pytest.raises(StateCapError):
        build_cgs(prog, widths, cap=8)


# ---------------------------------------------------------------------------
# Bit liveness


def test_read_branches_over_the_bits_a_guard_reads():
    widths, prog = parse_program("var x:3; var o:1; x := read_H; while (x[1]) { o := !o; }")
    g = build_cgs(prog, widths, observe={"o[0]"})
    assert g.table[0] == (1, 2)  # x[1] only: x[0] and x[2] are never read
    assert all(not {"x[0]", "x[2]"} & g.labels[s] for s in range(g.n_states))


def test_a_bit_dies_on_the_edge_after_its_last_read():
    widths, prog = parse_program("var h:2; var o:1; h := read_H; o := h[0]; o := h[1];")
    g = build_cgs(prog, widths, observe={"o[0]"})
    # the read branches over both bits; h[0] is zeroed once o has copied it
    assert g.table[0] == (1, 2, 3, 4)
    copied = [g.table[s][0] for s in range(1, 5)]
    assert [g.labels[s] & {"h[0]", "h[1]"} for s in copied] == [set(), {"h[1]"}] * 2
    assert build_cgs(prog, widths, observe={"h[0]", "o[0]"}).n_states == build_cgs(prog, widths).n_states


def canonical(g):
    """``g`` renumbered breadth-first from its initial state, without its state names."""
    number = {g.initial: 0}
    order = [g.initial]
    for s in order:  # grows while the search runs
        for t in g.table[s]:
            if t not in number:
                number[t] = len(order)
                order.append(t)
    rows = [(g.labels[s], g.decisions[s], tuple(number[t] for t in g.table[s])) for s in order]
    return g.agents, g.props, rows


# A full build whose quotient has 7 classes, one of which joins states with
# different slots once their moves merge; refining by the slots as loaded
# keeps 9 classes.
SETTLES_LATE = (
    "var x:2; var y:3; var z:2; if (*) { y := false @ !x; } else { y := false @ !x; } "
    "y := x[1] @ (x[0] & y[1]) @ z[0]; if (*) { while (true) { y := read_L; z := x; z := read_L; } "
    "if (*) { x := read_H; x := y[2] @ false; y := (false | false) @ y[0] @ (false & z[1]); } "
    "else { x := read_H; x := y[2] @ false; y := (false | false) @ y[0] @ (false & z[1]); } } "
    "else { x := (x & z); }"
)


def test_quotient_is_settled_in_one_call():
    widths, prog = parse_program(SETTLES_LATE)
    full, reduced = build_cgs(prog, widths), build_cgs(prog, widths, observe=set())
    q = quotient(full, ())
    assert (full.n_states, q.n_states) == (110, 7)
    assert canonical(q) == canonical(quotient(q, ())) == canonical(quotient(reduced, ()))


def test_reduced_build_has_the_quotient_of_the_full_build():
    """Zeroing dead bits merges only states that the quotient merges anyway."""
    rng = random.Random(3030)
    reduced_cases = 0
    for seed in range(300):
        text = random_program(rng, names="xyz"[: rng.randint(1, 3)], max_width=3)
        widths, prog = parse_program(text)
        bits = [f"{x}[{i}]" for x, w in widths.items() for i in range(w)]
        observe = set(rng.sample(bits, rng.randint(0, len(bits))))
        try:
            full = build_cgs(prog, widths, cap=3000)
        except StateCapError:
            continue
        reduced = build_cgs(prog, widths, observe=observe)
        assert reduced.n_states <= full.n_states, text
        got, want = quotient(reduced, observe), quotient(full, observe)
        assert canonical(got) == canonical(want), (text, observe)
        reduced_cases += reduced.n_states < full.n_states
    assert reduced_cases >= 100, reduced_cases
