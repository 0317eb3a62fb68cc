"""Full parse-error messages, ``line:col:`` prefix included, for both languages."""

import random
import sys

import pytest

from hyperatl import formula, imp
from hyperatl.formula import FormulaError, parse_formula, parse_ltl
from hyperatl.imp import ProgramError, parse_program
from hyperatl.lexer import ParseError
from oracles import tokenize_by_character

LIMIT = sys.getrecursionlimit()
LONG = "7" * 5000

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
    # a digit that is not decimal, or a numeral, starts no number and no identifier
    ("[ forall p1 . ] X[²] o[0]{p1}", "1:19: unexpected character '²'"),
    ("[ forall p1 . ] G o[0]{Ⅷ}", "1:24: unexpected character 'Ⅷ'"),
    (
        "[ forall p1 . ] X[100000000] o[0]{p1}",
        "1:19: formula is nested too deeply (repetition count 100000000"
        f" is above Python's recursion limit of {LIMIT})",
    ),
    # a number longer than ``int`` reads (``sys.get_int_max_str_digits()``)
    pytest.param(f"[ forall p1 . ] X[{LONG}] o[0]{{p1}}", "1:19: number too long (5000 digits)", id="long X"),
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
    ("var x : 1;\nelse := x;", "2:1: expected variable name"),
    # where a statement should start, the end of input or a '}' is reported as such
    ("var o : 1;", "1:11: expected a statement"),
    ("var o : 1;\nwhile (true) { }", "2:16: expected a statement"),
    ("var o : 1;\nvar l : 1;\nif (*) { } else { o := l; }", "3:10: expected a statement"),
    ("var o : 1;\nvar l : 1;\nif (*) { o := l; } else { }", "3:27: expected a statement"),
    ("var o : 1;\no := o; }", "2:9: expected a statement"),
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
    ("var x : 1;\nx := x & ;", "2:10: expected expression"),
    ("var x : 1;\nx := x[²];", "2:8: unexpected character '²'"),
    ("var Ⅷ : 1;\nx := x;", "1:5: unexpected character 'Ⅷ'"),
    pytest.param(f"var x : {LONG};\nx := x;", "1:9: number too long (5000 digits)", id="long width"),
    pytest.param(f"var x : 1;\nx := x[{LONG}];", "2:8: number too long (5000 digits)", id="long index"),
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


def test_numbers_keep_their_meaning():
    """Leading zeros: a formula's bit index is kept as written, other numbers are read as ints."""
    assert parse_ltl("X[007] o[007]{p1}") == parse_ltl("X X X X X X X o[007]{p1}")
    assert parse_ltl("o[007]{p1}") == formula.Atom("o[007]", "p1")
    widths, program = parse_program("var x : 02;\nx := x[01] @ x[00];")
    assert widths == {"x": 2} and program == parse_program("var x : 2;\nx := x[1] @ x[0];")[1]


# Every symbol either language uses, and characters on the edges of the
# classes a scanner tests: letters, decimal digits (``٣`` too), digits that
# are not decimal (``²``), numerals (``Ⅷ``) and whitespace (U+00A0, U+2028).
SCAN_ALPHABET = ["0", "7", "a", "Z", "_", "#", " ", "\n", "é", "٣", "²", "Ⅷ", "\u00a0", "\u2028"]


def reference_scan(text: str, parser: type):
    """The character loop's tokens of ``text``, or of the part before its error, and that error."""
    try:
        return tokenize_by_character(text, parser.punct, parser.comments), None
    except ParseError as e:
        return tokenize_by_character(text[: e.pos], parser.punct, parser.comments), str(e)


@pytest.mark.parametrize("parser", [formula._Parser, imp._Parser], ids=["formula", "program"])
def test_scanner_matches_the_character_loop(parser):
    """Equal tokens where every number is decimal; elsewhere an error at its first other digit."""
    rng = random.Random(19)
    pieces = SCAN_ALPHABET + list(parser.punct)
    outcomes = {"tokens": 0, "error": 0, "non-decimal": 0}
    for _ in range(2500):
        text = "".join(rng.choice(pieces) for _ in range(rng.randrange(16)))
        tokens, error = reference_scan(text, parser)
        bad = [
            at + i
            for kind, value, at in tokens
            if kind == "nat"
            for i, c in enumerate(value)
            if not c.isdecimal()
        ]
        if bad:
            error = str(ParseError(f"unexpected character {text[bad[0]]!r}", bad[0], text))
            outcomes["non-decimal"] += 1
        outcomes["error" if error else "tokens"] += 1
        try:
            got = parser(text).tokens
        except parser.error_class as e:
            got = str(e)
        assert got == (error or tokens), text
    assert min(outcomes.values()) >= 200, outcomes
