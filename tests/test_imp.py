import itertools

import pytest

from hyperatl import imp
from hyperatl.imp import (
    AGENT_H,
    AGENT_L,
    AGENT_N,
    Assign,
    IfStar,
    ProgramError,
    ReadH,
    Seq,
    StateCapError,
    TERMINATED,
    Terminated,
    TrueE,
    While,
    build_cgs,
    controlling_player,
    eval_expr,
    parse_program,
    successors,
)
from hyperatl.structures import validate


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


def test_eval_concat_of_constants():
    from hyperatl.imp import Concat, FalseE

    assert eval_expr(Concat(FalseE(), TrueE()), {}) == (False, True)


def test_eval_bitwise_and():
    from hyperatl.imp import AndE, Var

    state = {"x": (True, False), "y": (True, True)}
    assert eval_expr(AndE(Var("x"), Var("y")), state) == (True, False)


def test_eval_negate_then_project():
    from hyperatl.imp import Index, NotE, Var

    assert eval_expr(Index(NotE(Var("x")), 1), {"x": (True, False)}) == (True,)


def test_read_fanout_and_order():
    widths = {"x": 2}
    succs = successors(ReadH("x"), {"x": (False, False)}, widths)
    values = [s["x"] for _, s in succs]
    # lexicographic, leftmost bit most significant
    assert values == [(False, False), (False, True), (True, False), (True, True)]
    assert all(p == TERMINATED for p, _ in succs)


def test_while_exit_on_false_guard():
    from hyperatl.imp import Var

    prog = While(Var("x"), Assign("x", TrueE()))
    succs = successors(prog, {"x": (False,)}, {"x": 1})
    assert succs == [(TERMINATED, {"x": (False,)})]


def test_while_unrolls_on_true_guard():
    from hyperatl.imp import Var

    body = Assign("x", TrueE())
    prog = While(Var("x"), body)
    succs = successors(prog, {"x": (True,)}, {"x": 1})
    assert succs == [(Seq((body, prog)), {"x": (True,)})]


def test_steps_splice_into_one_flat_sequence():
    from hyperatl.imp import Var

    body = Seq((Assign("x", TrueE()), ReadH("x")))
    loop = While(Var("x"), body)
    last = Assign("x", Var("x"))
    state, widths = {"x": (True,)}, {"x": 1}
    [(unrolled, _)] = successors(Seq((loop, last)), state, widths)
    assert unrolled == Seq((*body.stmts, loop, last))
    [(at_read, _)] = successors(unrolled, state, widths)
    assert at_read == Seq((ReadH("x"), loop, last))
    assert controlling_player(at_read) == AGENT_H
    assert [p for p, _ in successors(at_read, state, widths)] == [Seq((loop, last))] * 2


def test_terminated_self_loop():
    assert successors(TERMINATED, {}, {}) == [(TERMINATED, {})]


def test_controlling_player():
    assert controlling_player(Seq((ReadH("x"), imp.ReadL("x")))) == AGENT_H
    assert controlling_player(IfStar(TERMINATED, TERMINATED)) == AGENT_N
    assert controlling_player(Terminated()) == AGENT_N
    assert controlling_player(imp.ReadL("x")) == AGENT_L


# -- reference enumeration, independent of build_cgs -------------------------


def reference_reach(prog, widths):
    """Brute-force reachable ⟨program, state⟩ sets straight off the step rules."""

    def seq(*parts):
        # the statements of ``parts`` in order, flattened, without TERMINATED
        stmts = []
        for part in parts:
            if isinstance(part, imp.Seq):
                stmts.extend(part.stmts)
            elif part != TERMINATED:
                stmts.append(part)
        return stmts[0] if len(stmts) == 1 else imp.Seq(tuple(stmts))

    def step(p, sigma):
        match p:
            case imp.Assign(x, e):
                return [(TERMINATED, {**sigma, x: eval_expr(e, sigma)})]
            case imp.ReadH(x) | imp.ReadL(x):
                vals = itertools.product((False, True), repeat=widths[x])
                return [(TERMINATED, {**sigma, x: tuple(v)}) for v in vals]
            case imp.IfExpr(c, a, b):
                return [(a if eval_expr(c, sigma)[0] else b, dict(sigma))]
            case imp.IfStar(a, b):
                return [(a, dict(sigma)), (b, dict(sigma))]
            case imp.While(c, body):
                if eval_expr(c, sigma)[0]:
                    return [(seq(body, p), dict(sigma))]
                return [(TERMINATED, dict(sigma))]
            case imp.Seq((a, *rest)):
                return [(seq(p2, *rest), s2) for p2, s2 in step(a, sigma)]
            case imp.Terminated():
                return [(TERMINATED, dict(sigma))]

    def key(p, sigma):
        return (p, tuple(sorted((x, v) for x, v in sigma.items())))

    init = {x: (False,) * w for x, w in widths.items()}
    seen = {key(prog, init): (prog, init)}
    frontier = [(prog, init)]
    while frontier:
        p, sigma = frontier.pop()
        for p2, s2 in step(p, sigma):
            k = key(p2, s2)
            if k not in seen:
                seen[k] = (p2, s2)
                frontier.append((p2, s2))
    return seen


def test_build_cgs_read_then_stop_against_reference():
    widths, prog = parse_program("var x:1; x := read_H;")
    ref = reference_reach(prog, widths)
    g = build_cgs(prog, widths)
    # initial read config plus one terminated config per read value
    assert g.n_states == len(ref) == 3
    assert g.owner(0) == AGENT_H
    assert {g.owner(s) for s in range(1, 3)} == {AGENT_N}


def test_build_cgs_p1_against_reference():
    text = imp_asset("p1.imp").read_text()
    widths, prog = parse_program(text)
    ref = reference_reach(prog, widths)
    g = build_cgs(prog, widths)
    assert g.n_states == len(ref)
    assert validate(g) == []


def test_build_cgs_terminated_only():
    g = build_cgs(TERMINATED, {})
    assert g.n_states == 1
    assert g.table[0] == (0,)
    assert g.owner(0) == AGENT_N
    assert g.labels[0] == frozenset()


def test_build_cgs_label_soundness_and_owner_agreement():
    text = imp_asset("p2.imp").read_text()
    widths, prog = parse_program(text)
    g = build_cgs(prog, widths)
    assert validate(g) == []
    # walk the structure alongside an independent breadth-first enumeration;
    # discovery order matches because successor order is deterministic
    init = {x: (False,) * w for x, w in widths.items()}
    configs = [(prog, init)]
    index = {(prog, tuple(sorted(init.items()))): 0}
    frontier = 0
    while frontier < len(configs):
        p, sigma = configs[frontier]
        frontier += 1
        expected_labels = {
            f"{x}[{i}]" for x, bits in sigma.items() for i, b in enumerate(bits) if b
        }
        assert g.labels[frontier - 1] == expected_labels
        assert g.owner(frontier - 1) == controlling_player(p)
        succ_ids = []
        for p2, s2 in successors(p, sigma, widths):
            k = (p2, tuple(sorted(s2.items())))
            if k not in index:
                index[k] = len(configs)
                configs.append((p2, s2))
            succ_ids.append(index[k])
        assert list(g.table[frontier - 1]) == succ_ids
    assert len(configs) == g.n_states


def test_deterministic_configs_have_single_successor():
    text = imp_asset("q2.imp").read_text()
    widths, prog = parse_program(text)
    seen = reference_reach(prog, widths)
    for p, sigma in seen.values():
        succs = successors(p, sigma, widths)
        head = p.stmts[0] if isinstance(p, imp.Seq) else p
        if isinstance(head, (imp.ReadH, imp.ReadL, imp.IfStar)):
            if isinstance(head, imp.IfStar):
                assert len(succs) == 2
            else:
                assert len(succs) == 2 ** widths[head.var]
        else:
            assert len(succs) == 1


def test_width_override_changes_fanout():
    text = imp_asset("q1.imp").read_text()
    widths, prog = parse_program(text, width_overrides={"h": 2})
    assert widths["h"] == 2
    g = build_cgs(prog, widths)
    reads = [s for s in range(g.n_states) if g.owner(s) == AGENT_H and g.arity(s) == 4]
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
