"""Scanner, token cursor and positioned errors shared by both parsers.

Specifications (``formula.py``) and programs (``imp.py``) share one token
shape: punctuation, natural numbers, identifiers and an end marker, each
with its offset into the text.  What differs between the two languages is
data on the parser class: its punctuation, whether ``#`` starts a comment,
the keywords that are not identifiers, its binary operators and its error
class.
"""

from __future__ import annotations

import re
from typing import Callable, Mapping, Optional, Sequence

Token = tuple[str, str, int]  # (kind, value, offset); kind: punct, nat, ident or eof

# precedence (higher binds tighter), right-associative?, node(left, right, offset)
Infix = tuple[int, bool, Callable]


class ParseError(Exception):
    """An error whose message starts with ``line:col:`` when its offset is known."""

    def __init__(self, message: str, pos: Optional[int] = None, text: Optional[str] = None):
        self.pos = pos
        if pos is not None and text is not None:
            line = text.count("\n", 0, pos) + 1
            col = pos - (text.rfind("\n", 0, pos) + 1) + 1
            message = f"{line}:{col}: {message}"
        super().__init__(message)


class Cursor:
    """A position in the token list of one text; subclasses set the language data."""

    punct: Sequence[str] = ()
    comments = False
    keywords: frozenset[str] = frozenset()  # identifiers that ``expect_ident`` rejects
    ident_name = "identifier"
    error_class: type = ParseError
    # binary operators by token value; punctuation and identifiers never share one
    infix: Mapping[str, Infix] = {}
    scanner: re.Pattern  # compiled per subclass from ``punct`` and ``comments``

    def __init_subclass__(cls, **kwargs):
        """Compile the class's scanner: one alternative per token kind, tried in order.

        Whitespace and comments match no group.  Longer punctuation comes
        first, so it wins over its prefixes.  A number is a run of decimal
        digits (``\\d``), which ``int`` reads.  ``\\w+`` takes every identifier,
        which starts with a letter or ``_``; a run that starts with another
        digit or numeral (``²``, ``Ⅷ``) is an unexpected character.
        """
        super().__init_subclass__(**kwargs)
        skip = r"\s+|#[^\n]*" if cls.comments else r"\s+"
        punct = "|".join(map(re.escape, sorted(cls.punct, key=len, reverse=True)))
        tokens = rf"(?P<punct>{punct})|(?P<nat>\d+)|(?P<ident>\w+)|(?P<bad>.)"
        cls.scanner = re.compile(f"{skip}|{tokens}", re.S)

    def __init__(self, text: str):
        self.text = text
        self.tokens: list[Token] = []
        for m in self.scanner.finditer(text):
            kind, value, at = m.lastgroup, m[0], m.start()
            if kind == "bad" or kind == "ident" and not (value[0].isalpha() or value[0] == "_"):
                raise self.error_class(f"unexpected character {value[0]!r}", at, text)
            if kind:
                self.tokens.append((kind, value, at))
        self.tokens.append(("eof", "", len(text)))
        self.pos = 0

    def parse_operand(self):
        """One operand of a binary operator: a prefix operator's term or a primary."""
        raise NotImplementedError

    def parse_infix(self, min_prec: int = 0):
        """Operands joined by ``infix`` operators of at least ``min_prec``.

        Precedence climbing (Pratt, *Top down operator precedence*, POPL
        1973): a tighter operator is parsed by the recursive call for the
        right operand, so one Python frame serves every precedence level.
        """
        left = self.parse_operand()
        while True:
            _, val, pos = self.peek()
            op = self.infix.get(val)
            if op is None or op[0] < min_prec:
                return left
            prec, right_assoc, node = op
            self.next()
            left = node(left, self.parse_infix(prec if right_assoc else prec + 1), pos)

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str) -> ParseError:
        return self.error_class(message, self.peek()[2], self.text)

    def at_punct(self, p: str) -> bool:
        kind, val, _ = self.peek()
        return kind == "punct" and val == p

    def at_ident(self, name: str) -> bool:
        kind, val, _ = self.peek()
        return kind == "ident" and val == name

    def at_eof(self) -> bool:
        return self.peek()[0] == "eof"

    def expect_punct(self, p: str) -> None:
        if not self.at_punct(p):
            raise self.error(f"expected {p!r}")
        self.next()

    def expect_ident(self) -> str:
        kind, val, _ = self.peek()
        if kind != "ident" or val in self.keywords:
            raise self.error(f"expected {self.ident_name}")
        self.next()
        return val

    def expect_nat(self, message: str) -> str:
        kind, val, _ = self.peek()
        if kind != "nat":
            raise self.error(message)
        self.next()
        return val

    def expect_int(self, message: str) -> int:
        """A number's value; one longer than ``int`` reads is a positioned error."""
        at = self.peek()[2]
        digits = self.expect_nat(message)
        try:
            return int(digits)
        except ValueError:  # above ``sys.get_int_max_str_digits()``
            raise self.error_class(f"number too long ({len(digits)} digits)", at, self.text) from None
