"""Record classes: the eq, hash, repr, defaults and immutability of each one,
and an import of the CLI that stays free of ``dataclasses``."""

import copy
import itertools
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import hyperatl
from hyperatl import arena, cli, formula, imp, solver, structures
from hyperatl.formula import FormulaError

A = formula.Atom("o[0]", "p1")
T = formula.TrueF()
H, L = imp.Var("h", 3), imp.Var("l", 8)
RQ = formula.ResolvedQuantifier("p1", "G", frozenset({"xi_H"}))
GAME = solver.ParityGame([[0]], [0], [0])
LAYOUT = arena._Layout([(0, True)], 4, [(1, 4, 2)])

# Every record class of the package: the arguments of one instance and the
# instance's repr, in the standard data-class format.
CASES = [
    (formula.Atom, ("o[0]", "p1"), "Atom(prop='o[0]', var='p1')"),
    (formula.TrueF, (), "TrueF()"),
    (formula.FalseF, (), "FalseF()"),
    (formula.Not, (A,), "Not(operand=Atom(prop='o[0]', var='p1'))"),
    (formula.And, (A, T), "And(left=Atom(prop='o[0]', var='p1'), right=TrueF())"),
    (formula.Or, (A, T), "Or(left=Atom(prop='o[0]', var='p1'), right=TrueF())"),
    (formula.Implies, (A, T), "Implies(left=Atom(prop='o[0]', var='p1'), right=TrueF())"),
    (formula.Iff, (A, T), "Iff(left=Atom(prop='o[0]', var='p1'), right=TrueF())"),
    (formula.Next, (A,), "Next(operand=Atom(prop='o[0]', var='p1'))"),
    (formula.Until, (A, T), "Until(left=Atom(prop='o[0]', var='p1'), right=TrueF())"),
    (formula.Release, (A, T), "Release(left=Atom(prop='o[0]', var='p1'), right=TrueF())"),
    (formula.Globally, (A,), "Globally(operand=Atom(prop='o[0]', var='p1'))"),
    (formula.Eventually, (A,), "Eventually(operand=Atom(prop='o[0]', var='p1'))"),
    (formula.Forall, (), "Forall()"),
    (formula.Exists, (), "Exists()"),
    (formula.Coalition, (("xi_H", "xi_L"),), "Coalition(agents=('xi_H', 'xi_L'))"),
    (
        formula.Quantifier,
        (formula.Forall(), "p1"),
        "Quantifier(spec=Forall(), var='p1', system=None)",
    ),
    (
        formula.HyperFormula,
        ((formula.Quantifier(formula.Forall(), "p1"),), A),
        "HyperFormula(block=(Quantifier(spec=Forall(), var='p1', system=None),),"
        " body=Atom(prop='o[0]', var='p1'), negated=False)",
    ),
    (
        formula.ResolvedQuantifier,
        ("p1", "G", frozenset({"xi_H"})),
        "ResolvedQuantifier(var='p1', system='G', coalition=frozenset({'xi_H'}))",
    ),
    (
        formula.FragmentInfo,
        ((RQ,), (("o[0]", "p1"),), {("o[0]", "p1"): 0}),
        "FragmentInfo(quantifiers=(ResolvedQuantifier(var='p1', system='G',"
        " coalition=frozenset({'xi_H'})),), atoms=(('o[0]', 'p1'),), atom_copy={('o[0]', 'p1'): 0})",
    ),
    (imp.Var, ("h", 3), "Var(name='h')"),
    (imp.TrueE, (), "TrueE()"),
    (imp.FalseE, (), "FalseE()"),
    (imp.NotE, (H,), "NotE(operand=Var(name='h'))"),
    (imp.AndE, (H, L, 5), "AndE(left=Var(name='h'), right=Var(name='l'))"),
    (imp.OrE, (H, L, 5), "OrE(left=Var(name='h'), right=Var(name='l'))"),
    (imp.Concat, (H, L), "Concat(left=Var(name='h'), right=Var(name='l'))"),
    (imp.Index, (H, 0, 2), "Index(operand=Var(name='h'), index=0)"),
    (imp.Assign, ("o", H), "Assign(var='o', expr=Var(name='h'))"),
    (imp.ReadH, ("h",), "ReadH(var='h')"),
    (imp.ReadL, ("l",), "ReadL(var='l')"),
    (
        imp.IfExpr,
        (H, imp.ReadH("h"), imp.ReadL("l")),
        "IfExpr(cond=Var(name='h'), then=ReadH(var='h'), els=ReadL(var='l'))",
    ),
    (imp.IfStar, (imp.ReadH("h"), imp.ReadL("l")), "IfStar(then=ReadH(var='h'), els=ReadL(var='l'))"),
    (imp.While, (H, imp.ReadH("h")), "While(cond=Var(name='h'), body=ReadH(var='h'))"),
    (imp.Seq, ((imp.ReadH("h"), imp.ReadL("l")),), "Seq(stmts=(ReadH(var='h'), ReadL(var='l')))"),
    (
        cli.SystemSpec,
        ("G", "p1.imp"),
        "SystemSpec(system_id='G', program_path='p1.imp', transforms=())",
    ),
    (
        cli.CheckConfig,
        ([],),
        "CheckConfig(systems=[], formula_file=None, prop=None, widths={}, cap_states=1000000,"
        " cap_vertices=10000000, dump_dpa=None, dump_game=None, dump_sys={}, report_path=None)",
    ),
    (
        cli.Report,
        ("satisfied", "od", {"game.vertices": 3}, {"build": 1.5}),
        "Report(verdict='satisfied', formula='od', sizes={'game.vertices': 3},"
        " timings_ms={'build': 1.5}, strategy_vertices=0, peak_rss_mb=0.0)",
    ),
    (
        cli.SuiteRow,
        ("p1-od", "satisfied", "satisfied", True, 2.5, {}),
        "SuiteRow(name='p1-od', verdict='satisfied', expected='satisfied', ok=True,"
        " millis=2.5, sizes={}, message='')",
    ),
    (
        solver.ParityGame,
        ([[0]], [0], [0]),
        "ParityGame(succ=((0,),), owner=[0], priority=[0], initial=0)",
    ),
    (
        solver.WinningRegions,
        (b"\x00",),
        "WinningRegions(won=b'\\x00')",
    ),
    (
        arena.BuiltArena,
        (GAME, 1, 0, [0], LAYOUT),
        "BuiltArena(game=ParityGame(succ=((0,),), owner=[0], priority=[0], initial=0),"
        " n_automaton_vertices=1, n_sink_vertices=0)",
    ),
    (
        arena._Layout,
        ([(0, True)], 4, [(1, 4, 2)]),
        "_Layout(pairs=[(0, True)], size=4, dims=[(1, 4, 2)], mirror=None)",
    ),
    (
        structures.MSCGS,
        ("G", ("xi_N",), {"xi_N": 0}, frozenset({"o"}), [frozenset({"o"})], [(("xi_N", 1),)], [(0,)], 0, ["s0"]),
        "MSCGS(name='G', agents=('xi_N',), stages={'xi_N': 0}, props=frozenset({'o'}),"
        " labels=[frozenset({'o'})], decisions=[(('xi_N', 1),)], table=[(0,)], initial=0,"
        " state_names=['s0'])",
    ),
]

# a record hashes as the tuple of its fields, so one with a list or dict
# field does not hash
UNHASHABLE = {
    formula.FragmentInfo,
    cli.CheckConfig,
    cli.Report,
    cli.SuiteRow,
    solver.ParityGame,
    arena.BuiltArena,
    arena._Layout,
    structures.MSCGS,
}


def test_the_cases_cover_every_record_class():
    modules = (formula, imp, cli, solver, arena, structures)
    defined = {
        c
        for m in modules
        for c in vars(m).values()
        if isinstance(c, type) and "__match_args__" in vars(c) and c.__module__ == m.__name__
    }
    assert defined == {cls for cls, *_ in CASES}
    assert len(CASES) == 44


@pytest.mark.parametrize("cls, args, text", CASES, ids=[c.__name__ for c, *_ in CASES])
def test_a_record_keeps_its_repr_eq_hash_and_mutability(cls, args, text):
    x, y = cls(*args), cls(*args)
    assert repr(x) == text
    assert x == y and not x != y
    assert x != object() and x != args
    # by keyword, the same record
    assert cls(**dict(zip(cls.__match_args__, args))) == x
    for again in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert again == x and repr(again) == text
    assert not hasattr(x, "__dict__") or cls is arena.BuiltArena
    name = cls.__match_args__[0] if cls.__match_args__ else "extra"
    with pytest.raises(AttributeError):
        setattr(x, name, None)
    with pytest.raises(AttributeError):
        delattr(x, name)
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == hash(y)
        assert {x: 1, y: 2} == {x: 2}


def test_nodes_with_equal_fields_differ_across_classes():
    """``Not(x) != Next(x)``, ``Forall() != Exists()``, ``TrueE() != TrueF()``, ..."""
    pairs = 0
    for (a, args, _), (b, *_) in itertools.permutations(CASES, 2):
        if a.__match_args__ == b.__match_args__:
            x, y = a(*args), b(*args)
            assert x != y and not x == y, (a, b)
            pairs += 1
    assert pairs == 96


def test_equal_nodes_intern_to_one_key():
    first = formula.And(formula.Next(A), formula.Not(A))
    again = formula.And(formula.Next(formula.Atom("o[0]", "p1")), formula.Not(A))
    assert first is not again and first == again and hash(first) == hash(again)
    interned: dict = {}
    assert interned.setdefault(first, len(interned)) == interned.setdefault(again, len(interned)) == 0
    assert formula.Or(A, T) not in interned


def test_a_program_position_is_not_part_of_a_node():
    assert imp.Var("h", pos=3) == imp.Var("h", pos=7)
    assert hash(imp.Var("h", pos=3)) == hash(imp.Var("h", pos=7))
    assert "pos" not in repr(imp.Index(imp.Var("h", 1), 0, 4))
    assert imp.Var("h").pos is None and imp.Var("h", pos=7).pos == 7


def test_construction_checks_its_arguments():
    assert formula.Quantifier(formula.Exists(), "p2", system="G") == formula.Quantifier(
        var="p2", spec=formula.Exists(), system="G"
    )
    with pytest.raises(FormulaError, match="empty coalition"):
        formula.Coalition(())
    with pytest.raises(TypeError, match="missing argument 'right'"):
        formula.And(A)
    with pytest.raises(TypeError, match="takes 2 arguments but 3"):
        formula.And(A, T, T)
    with pytest.raises(TypeError, match="unexpected argument 'lhs'"):
        formula.And(A, lhs=T)
    with pytest.raises(TypeError, match="multiple values for argument 'left'"):
        formula.And(A, left=T)


def test_mutable_defaults_are_fresh_per_instance():
    a, b = cli.CheckConfig(systems=[]), cli.CheckConfig(systems=[])
    a.widths["h"] = 2
    a.dump_sys["G"] = "g.dot"
    assert b.widths == {} and b.dump_sys == {}


def test_arena_descriptions_are_made_once_on_demand():
    built = arena.BuiltArena(GAME, 1, 0, [0], LAYOUT)
    assert "descriptions" not in vars(built)
    assert built.descriptions == ["M q0 (0) l=0 T"]
    assert built.descriptions is built.descriptions


def test_importing_the_cli_leaves_dataclasses_unimported():
    """The ``dataclasses`` module and its ``inspect`` import cost more at
    start-up than building every record class of the package."""
    src = str(Path(hyperatl.__file__).resolve().parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); import hyperatl.cli; print('dataclasses' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
