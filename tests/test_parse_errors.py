"""Full parse-error messages, ``line:col:`` prefix included, for both languages."""

import pytest

from hyperatl.formula import FormulaError, parse_formula, parse_ltl
from hyperatl.imp import ProgramError, parse_program

FORMULA_ERRORS = [
    ("[ forall p1 . ] G o[0]{p1} $", "1:28: unexpected character '$'"),
    ("[ forall p1 ] G o[0]{p1}", "1:13: expected '.'"),
    ("[ forall p1 . G o[0]{p1}", "1:15: expected 'forall', 'exists' or '<<agents>>'"),
    ("[ forall p1 . ] X[ o[0]{p1}", "1:20: expected repetition count after 'X['"),
    ("[ forall p1 . ]\n  G (o[0]{p1}\n   & U{p1})", "3:6: reserved word 'U' cannot start an atom"),
    ("[ forall p1 . ] G X{p1}", "1:20: expected a formula"),
    (
        "forall p1 . G o[0]{p1}",
        "1:1: unsupported fragment: quantifiers must be grouped in one '[...]' block",
    ),
    ("[ forall p1 . ] o[x]{p1}", "1:19: expected bit index"),
    ("[ forall p1 . ] G o[0]{p1} )", "1:28: trailing input after formula"),
    ("[ <<>> p1 . ] true", "1:5: expected identifier"),
]

LTL_ERRORS = [
    ("G o[0]{p1} &", "1:13: expected a formula"),
    ("X[2 o{p}", "1:5: expected ']'"),
]

PROGRAM_ERRORS = [
    ("var x : 1;\nx := x $ x;", "2:8: unexpected character '$'"),
    ("var x : 1;\nx := x", "2:7: expected ';'"),
    ("var x : 1\nx := x;", "2:1: expected ';'"),
    ("var x : 1;\nx := (x;", "2:8: expected ')'"),
    ("var x : 1;\nx := x[;", "2:8: expected bit index"),
    ("var x : ;\nx := x;", "1:9: expected bit width"),
    ("var if : 1;\nx := x;", "1:5: expected variable name"),
    ("var x : 1;\ny := x;", "2:1: undeclared variable 'y'"),
    ("var x : 1;\nvar x : 1;\nx := x;", "2:7: variable 'x' declared twice"),
    ("var x : 0;\nx := x;", "1:10: bit width must be at least 1"),
    ("var x : 2;\nvar y : 1;\nx := y;", "3:1: cannot assign width 1 to 'x' of width 2"),
    ("var x : 1;\n# comment\nif (x @ x) { x := x; } else { x := x; }", "3:1: guard must have width 1"),
    ("var x : 1;\nif (x) { x := x; } x := x;", "2:20: expected 'else'"),
    ("var x : 1;\nwhile (x) { x := x; }\nx := x", "3:7: expected ';'"),
    # expression-level checks point at the variable, the operator or the index
    ("var x : 1;\nx := y;", "2:6: undeclared variable 'y'"),
    ("var x : 1;\nx := x & (x @ x);", "2:8: operand widths differ (1 vs 2)"),
    ("var x : 1;\nx := x[3];", "2:8: bit index 3 out of range for width 1"),
]


@pytest.mark.parametrize("text,message", FORMULA_ERRORS)
def test_formula_error_message(text, message):
    with pytest.raises(FormulaError) as info:
        parse_formula(text)
    assert str(info.value) == message


@pytest.mark.parametrize("text,message", LTL_ERRORS)
def test_ltl_error_message(text, message):
    with pytest.raises(FormulaError) as info:
        parse_ltl(text)
    assert str(info.value) == message


@pytest.mark.parametrize("text,message", PROGRAM_ERRORS)
def test_program_error_message(text, message):
    with pytest.raises(ProgramError) as info:
        parse_program(text)
    assert str(info.value) == message
