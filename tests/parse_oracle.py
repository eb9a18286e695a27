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

    def expr(self, degrees) -> FormalSum:
        terms = [self.term(degrees)]
        while self.peek() == ("sym", "+") or self.peek() == ("sym", "-"):
            _, op = self.take("sym")
            t = self.term(degrees)
            terms.append(-t if op == "-" else t)
        return FormalSum.sum_of(terms)

    def term(self, degrees) -> FormalSum:
        kind, val = self.peek()
        if kind == "sym" and val == "-":
            self.take()
            return -self.term(degrees)
        if kind == "int":
            self.take()
            if self.peek() == ("sym", "*"):
                self.take()
                return self.atom(degrees).scale(val)
            if val == 0:
                return FormalSum()
            raise ValueError("bare integer %d (only 0 stands alone)" % val)
        return self.atom(degrees)

    def atom(self, degrees) -> FormalSum:
        kind, val = self.peek()
        if kind == "letter":
            self.take()
            return FormalSum.single(monomial_of_word(letter(val), degrees))
        if kind == "sym" and val == "[":
            self.take()
            x = self.expr(degrees)
            self.take("sym", ",")
            y = self.expr(degrees)
            self.take("sym", "]")
            return x.bracket(y)
        if kind == "sym" and val == "(":
            self.take()
            e = self.expr(degrees)
            self.take("sym", ")")
            return e
        raise ValueError("expected a letter, bracket, or 0, got %r" % (val,))


def parse_bracket_expr(text: str, degrees) -> FormalSum:
    parser = Parser(tokenize(text))
    e = parser.expr(degrees)
    if parser.peek()[0] is not None:
        raise ValueError("trailing input after expression: %r" % (parser.peek()[1],))
    return e


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
