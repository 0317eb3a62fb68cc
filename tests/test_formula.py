import random

import pytest

from conftest import random_lasso, random_ltl
from oracles import eval_lasso
from hyperatl import formula as F
from hyperatl.formula import (
    And,
    Atom,
    Coalition,
    Exists,
    Forall,
    FormulaError,
    Globally,
    HyperFormula,
    Iff,
    Next,
    Not,
    Quantifier,
    Release,
    TrueF,
    Until,
    collect_atoms,
    format_hyper,
    format_ltl,
    parse_formula,
    parse_ltl,
    to_nnf,
    validate_fragment,
)


def is_nnf(f) -> bool:
    """Negation on atoms only, and no implication or equivalence."""
    match f:
        case Not(g):
            return isinstance(g, Atom)
        case F.Implies() | Iff():
            return False
        case And(l, r) | F.Or(l, r) | Until(l, r) | Release(l, r):
            return is_nnf(l) and is_nnf(r)
        case Next(g) | Globally(g) | F.Eventually(g):
            return is_nnf(g)
    return True


class FakeSystem:
    def __init__(self, agents, props):
        self.agents = tuple(agents)
        self.props = frozenset(props)


THREE_AGENTS = FakeSystem(["xi_N", "xi_H", "xi_L"], ["o[0]", "l[0]", "h[0]", "x[0]"])


def test_parse_od_shape():
    f = parse_formula("[ forall p1 . forall p2 . ] G (o[0]{p1} <-> o[0]{p2})")
    assert len(f.block) == 2
    assert not f.negated
    assert all(isinstance(q.spec, Forall) for q in f.block)
    assert isinstance(f.body, Globally)


def test_parse_coalition_quantifier():
    f = parse_formula("[ <<sched>> p1 . ] G true")
    (q,) = f.block
    assert q.spec == Coalition(("sched",))
    assert f.body == Globally(TrueF())


def test_parse_unbound_variable_rejected():
    with pytest.raises(FormulaError, match="unbound path variable 'p2'"):
        parse_formula("[ forall p1 . ] F (x[0]{p2})")


def test_parse_duplicate_variable_rejected():
    with pytest.raises(FormulaError, match="bound twice"):
        parse_formula("[ forall p1 . forall p1 . ] G true")


def test_sequential_prefix_rejected_as_unsupported():
    with pytest.raises(FormulaError, match="unsupported fragment"):
        parse_formula("forall p1 . exists p2 . G true")


def test_parse_error_carries_position():
    with pytest.raises(FormulaError, match=r"1:\d+:"):
        parse_formula("[ forall p1 . ] G (o[0]{p1}")


def test_negated_block_and_system_annotations():
    f = parse_formula("! [ exists p1 @ Gsys . ] F o[0]{p1}")
    assert f.negated
    assert f.block[0].system == "Gsys"
    assert isinstance(f.block[0].spec, Exists)


def test_x_tower_sugar():
    f = parse_ltl("X[3] a{p}")
    assert f == Next(Next(Next(Atom("a", "p"))))


A, B, C = (Atom(x, "p") for x in "abc")
PRECEDENCE = {
    "until binds tighter than and": ("a{p} U b{p} & c{p}", And(Until(A, B), C)),
    "implication right assoc": ("a{p} -> b{p} -> c{p}", F.Implies(A, F.Implies(B, C))),
    "and left assoc": ("a{p} & b{p} & c{p}", And(And(A, B), C)),
    "or left assoc": ("a{p} | b{p} | c{p}", F.Or(F.Or(A, B), C)),
    "until right assoc": ("a{p} U b{p} U c{p}", Until(A, Until(B, C))),
    "until and release share a level": ("a{p} R b{p} U c{p}", Release(A, Until(B, C))),
    "iff right assoc": ("a{p} <-> b{p} <-> c{p}", F.Iff(A, F.Iff(B, C))),
    "or binds tighter than implication": ("a{p} -> b{p} | c{p}", F.Implies(A, F.Or(B, C))),
    "and binds tighter than or": ("a{p} | b{p} & c{p}", F.Or(A, And(B, C))),
    "implication binds tighter than iff": ("a{p} -> b{p} <-> c{p}", F.Iff(F.Implies(A, B), C)),
    "unary binds tighter than until": ("! a{p} U G b{p}", Until(Not(A), Globally(B))),
    "parentheses": ("(a{p} | b{p}) & c{p}", And(F.Or(A, B), C)),
}


@pytest.mark.parametrize("case", sorted(PRECEDENCE))
def test_precedence(case):
    text, tree = PRECEDENCE[case]
    assert parse_ltl(text) == tree


def test_nnf_until_dual():
    f = to_nnf(Not(Until(Atom("a", "p"), Atom("b", "p"))))
    assert f == Release(Not(Atom("a", "p")), Not(Atom("b", "p")))


def test_nnf_next_self_dual():
    assert to_nnf(Not(Next(Atom("a", "p")))) == Next(Not(Atom("a", "p")))


def test_nnf_identity_on_nnf_input():
    f = And(Atom("a", "p"), Atom("b", "p"))
    assert to_nnf(f) == f


def test_nnf_idempotent_and_semantics_preserved():
    rng = random.Random(11)
    for _ in range(300):
        f = random_ltl(rng, rng.randint(1, 6), nnf_only=False)
        nnf = to_nnf(f)
        assert is_nnf(nnf)
        assert to_nnf(nnf) == nnf
        atoms = set(collect_atoms(f)) | set(collect_atoms(nnf)) or {("a", "p")}
        for _ in range(8):
            prefix, loop = random_lasso(rng, sorted(atoms), max_prefix=4, max_loop=4)
            assert eval_lasso(f, prefix, loop) == eval_lasso(nnf, prefix, loop)


def test_nnf_linear_size_without_sugar():
    def size(g):
        match g:
            case F.Atom(_, _) | F.TrueF() | F.FalseF():
                return 1
            case F.Not(h) | F.Next(h) | F.Globally(h) | F.Eventually(h):
                return 1 + size(h)
            case (
                F.And(l, r)
                | F.Or(l, r)
                | F.Until(l, r)
                | F.Release(l, r)
                | F.Implies(l, r)
                | F.Iff(l, r)
            ):
                return 1 + size(l) + size(r)

    rng = random.Random(5)
    for _ in range(200):
        f = random_ltl(rng, rng.randint(1, 8))  # no Implies/Iff in NNF pool
        negated = Not(f)
        assert size(to_nnf(negated)) <= 2 * size(negated)


def test_roundtrip_parse_format():
    rng = random.Random(3)
    for _ in range(300):
        body = random_ltl(rng, rng.randint(1, 7), nnf_only=False)
        assert parse_ltl(format_ltl(body)) == body
    f = parse_formula("! [ forall p1 . <<xi_N,sched>> p2 @ S . exists p3 . ] G (o[0]{p1} <-> X o[0]{p2})")
    assert parse_formula(format_hyper(f)) == f


def test_collect_atoms_first_occurrence_order():
    f = parse_ltl("G (o[0]{p1} <-> o[0]{p2})")
    assert collect_atoms(f) == (("o[0]", "p1"), ("o[0]", "p2"))
    assert collect_atoms(TrueF()) == ()
    fair = parse_ltl("G F ! stut{p1}")
    assert collect_atoms(fair) == (("stut", "p1"),)


def test_validate_forall_is_empty_coalition():
    f = parse_formula("[ forall p1 . forall p2 . ] G (o[0]{p1} <-> o[0]{p2})")
    info = validate_fragment(f, {"G": THREE_AGENTS})
    assert [rq.coalition for rq in info.quantifiers] == [frozenset(), frozenset()]
    assert info.atom_copy[("o[0]", "p1")] == 0
    assert info.atom_copy[("o[0]", "p2")] == 1


def test_validate_exists_is_full_coalition():
    f = parse_formula("[ exists p1 . ] F o[0]{p1}")
    info = validate_fragment(f, {"G": THREE_AGENTS})
    assert info.quantifiers[0].coalition == frozenset(THREE_AGENTS.agents)


def test_validate_missing_agent_rejected():
    f = parse_formula("[ <<sched>> p1 . ] G true")
    with pytest.raises(FormulaError, match="sched"):
        validate_fragment(f, {"G": THREE_AGENTS})


def test_validate_unknown_system_rejected():
    f = parse_formula("[ forall p1 @ H . ] G true")
    with pytest.raises(FormulaError, match="unknown system 'H'"):
        validate_fragment(f, {"G": THREE_AGENTS})


def test_validate_unlabelled_proposition_rejected():
    f = parse_formula("[ forall p1 . ] G stut{p1}")
    with pytest.raises(FormulaError, match="'stut'"):
        validate_fragment(f, {"G": THREE_AGENTS})


def test_validate_needs_default_for_unannotated():
    f = parse_formula("[ forall p1 . ] G o[0]{p1}")
    two = {"A": THREE_AGENTS, "B": THREE_AGENTS}
    with pytest.raises(FormulaError, match="no default"):
        validate_fragment(f, two)



@pytest.mark.parametrize(
    "variables, message",
    [
        # every p1 atom would read the last copy bound to p1
        (("p1", "p1"), "path variable 'p1' bound twice"),
        (("p2",), "unbound path variable 'p1'"),
    ],
    ids=["bound-twice", "unbound"],
)
def test_validate_checks_the_bindings_of_a_block_built_without_the_parser(variables, message):
    o = Atom("o[0]", "p1")
    block = tuple(Quantifier(spec, var) for spec, var in zip((Forall(), Exists()), variables))
    f = HyperFormula(block, Globally(Iff(o, o)))
    with pytest.raises(FormulaError, match=message):
        validate_fragment(f, {"G": THREE_AGENTS})
