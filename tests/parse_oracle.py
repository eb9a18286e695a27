"""The bracket-text reader token by token, for the test suite only.

A tokenizer that matches one token at a time from where the last one
ended, and a recursive-descent parser with one method per rule of the
grammar.  The library reads the same syntax with one regex scan and
loops over the token list; tests/test_whitehead.py checks that both
accept the same texts and give the same tokens, words and sums.
"""

import re

from cechwedge.hall import HallWord, bracket, letter
from cechwedge.whitehead import FormalSum, monomial_of_word

_TOKEN_RE = re.compile(r"\s*(?:(?P<letter>a(\d+))|(?P<int>\d+)|(?P<sym>[\[\],+\-*()]))")


def tokenize(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ValueError("bad token at %r" % text[pos:pos + 10])
            break
        if m.group("letter"):
            out.append(("letter", int(m.group(2))))
        elif m.group("int"):
            out.append(("int", int(m.group("int"))))
        else:
            out.append(("sym", m.group("sym")))
        pos = m.end()
    return out


class Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self, kind=None, value=None):
        tok = self.peek()
        if tok[0] is None:
            raise ValueError("unexpected end of expression")
        if kind is not None and tok[0] != kind:
            raise ValueError("expected %s, got %r" % (kind, tok[1]))
        if value is not None and tok[1] != value:
            raise ValueError("expected %r, got %r" % (value, tok[1]))
        self.pos += 1
        return tok

    # Each rule returns its sum as a list of (monomial, coefficient)
    # pairs, which may repeat a monomial.

    def expr(self, degrees) -> list:
        pairs = self.term(degrees)
        while self.peek() == ("sym", "+") or self.peek() == ("sym", "-"):
            _, op = self.take("sym")
            t = self.term(degrees)
            pairs += _scaled(t, -1) if op == "-" else t
        return pairs

    def term(self, degrees) -> list:
        kind, val = self.peek()
        if kind == "sym" and val == "-":
            self.take()
            return _scaled(self.term(degrees), -1)
        if kind == "int":
            self.take()
            if self.peek() == ("sym", "*"):
                self.take()
                return _scaled(self.atom(degrees), val)
            if val == 0:
                return []
            raise ValueError("bare integer %d (only 0 stands alone)" % val)
        return self.atom(degrees)

    def atom(self, degrees) -> list:
        kind, val = self.peek()
        if kind == "letter":
            self.take()
            return [(monomial_of_word(letter(val), degrees), 1)]
        if kind == "sym" and val == "[":
            self.take()
            x = self.expr(degrees)
            self.take("sym", ",")
            y = self.expr(degrees)
            self.take("sym", "]")
            # each factor is added up first, so that a monomial of it is
            # bracketed once
            return [(mx.bracket(my), cx * cy) for mx, cx in FormalSum(x).items()
                    for my, cy in FormalSum(y).items()]
        if kind == "sym" and val == "(":
            self.take()
            e = self.expr(degrees)
            self.take("sym", ")")
            return e
        raise ValueError("expected a letter, bracket, or 0, got %r" % (val,))


def _scaled(pairs: list, c: int) -> list:
    return [(m, c * k) for m, k in pairs]


def parse_bracket_expr(text: str, degrees) -> FormalSum:
    parser = Parser(tokenize(text))
    pairs = parser.expr(degrees)
    if parser.peek()[0] is not None:
        raise ValueError("trailing input after expression: %r" % (parser.peek()[1],))
    return FormalSum(pairs)


def parse_word(text: str) -> HallWord:

    def walk(p: Parser) -> HallWord:
        kind, val = p.peek()
        if kind == "letter":
            p.take()
            return letter(val)
        if kind == "sym" and val == "[":
            p.take()
            x = walk(p)
            p.take("sym", ",")
            y = walk(p)
            p.take("sym", "]")
            return bracket(x, y)
        raise ValueError("expected a letter or bracket, got %r" % (val,))

    parser = Parser(tokenize(text))
    w = walk(parser)
    if parser.peek()[0] is not None:
        raise ValueError("trailing input after word: %r" % (parser.peek()[1],))
    return w
