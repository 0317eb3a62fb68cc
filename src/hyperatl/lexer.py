"""Tokenizer, token cursor and positioned errors shared by both parsers.

Specifications (``formula.py``) and programs (``imp.py``) share one token
shape: punctuation, natural numbers, identifiers and an end marker, each
with its offset into the text.  What differs between the two languages is
data on the parser class: its punctuation, whether ``#`` starts a comment,
the keywords that are not identifiers, its binary operators and its error
class.
"""

from __future__ import annotations

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


def _tokenize(text: str, punct: Sequence[str], comments: bool, error: type) -> list[Token]:
    """Split ``text``; ``punct`` is tried in order, so longer symbols come first."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if comments and c == "#":  # comment to end of line
            j = text.find("\n", i)
            i = n if j < 0 else j + 1
            continue
        p = next((p for p in punct if text.startswith(p, i)), None)
        if p is not None:
            tokens.append(("punct", p, i))
            i += len(p)
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("nat", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        raise error(f"unexpected character {c!r}", i, text)
    tokens.append(("eof", "", n))
    return tokens


class Cursor:
    """A position in the token list of one text; subclasses set the language data."""

    punct: Sequence[str] = ()
    comments = False
    keywords: frozenset[str] = frozenset()  # identifiers that ``expect_ident`` rejects
    ident_name = "identifier"
    error_class: type = ParseError
    # binary operators by token value; punctuation and identifiers never share one
    infix: Mapping[str, Infix] = {}

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text, self.punct, self.comments, self.error_class)
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
