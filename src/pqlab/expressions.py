"""Small arithmetic expression language for coefficient and boundary fields.

Grammar (usual precedence, ``^`` binds tightest and is right associative)::

    expr   := term  (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?
    atom   := NUMBER | NAME | NAME '(' expr (',' expr)* ')' | '(' expr ')'

The only names are the variables ``x``, ``y`` and the functions ``exp``,
``log``, ``min``, ``max``.  Evaluation is vectorized: ``x`` and ``y`` may be
numpy arrays of any broadcastable shape.
"""

from __future__ import annotations

import operator

import numpy as np

# op: (arity, callable) of every operator and function node (op, *children).
# Unary minus is "u-", not a name, so no expression can call it.
_OPERATIONS = {
    "+": (2, operator.add),
    "-": (2, operator.sub),
    "*": (2, operator.mul),
    "/": (2, operator.truediv),
    "^": (2, np.power),
    "u-": (1, operator.neg),
    "exp": (1, np.exp),
    "log": (1, np.log),
    "min": (2, np.minimum),
    "max": (2, np.maximum),
}
_VARIABLES = ("x", "y")


class ExpressionError(ValueError):
    """Raised on a malformed expression; ``column`` is 1-based."""

    def __init__(self, message: str, column: int):
        super().__init__(f"col {column}: {message}")
        self.column = column
        self.reason = message


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or c == ".":
            j = i
            while j < n and (src[j].isdigit() or src[j] == "."):
                j += 1
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and src[k].isdigit():
                    j = k
                    while j < n and src[j].isdigit():
                        j += 1
            try:
                float(src[i:j])
            except ValueError:
                raise ExpressionError(f"bad number {src[i:j]!r}", i + 1) from None
            tokens.append(_Token("num", src[i:j], i + 1))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(_Token("name", src[i:j], i + 1))
            i = j
            continue
        if c in "+-*/^(),":
            tokens.append(_Token(c, c, i + 1))
            i += 1
            continue
        raise ExpressionError(f"unexpected character {c!r}", i + 1)
    tokens.append(_Token("end", "", n + 1))
    return tokens


class Expression:
    """Parsed expression; evaluate with numpy scalars or arrays."""

    def __init__(self, node, source: str):
        self._node = node
        self.source = source

    def __call__(self, x, y):
        return _eval(self._node, x, y)

    def __repr__(self):
        return f"Expression({self.source!r})"


def _eval(node, x, y):
    op = node[0]
    if op == "num":
        return node[1]
    if op == "var":
        return x if node[1] == "x" else y
    arity, fn = _OPERATIONS[op]
    if arity == 1:
        return fn(_eval(node[1], x, y))
    return fn(_eval(node[1], x, y), _eval(node[2], x, y))


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind=None):
        tok = self.tokens[self.i]
        if kind is not None and tok.kind != kind:
            raise ExpressionError(f"expected {kind!r}, found {tok.text or 'end'!r}", tok.pos)
        self.i += 1
        return tok

    def expr(self):
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.take().kind
            node = (op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek().kind in ("*", "/"):
            op = self.take().kind
            node = (op, node, self.unary())
        return node

    def unary(self):
        if self.peek().kind == "-":
            self.take()
            return ("u-", self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        if self.peek().kind == "^":
            self.take()
            node = ("^", node, self.unary())
        return node

    def atom(self):
        tok = self.peek()
        if tok.kind == "num":
            self.take()
            return ("num", float(tok.text))
        if tok.kind == "name":
            self.take()
            if self.peek().kind == "(":
                if tok.text not in _OPERATIONS:
                    raise ExpressionError(f"unknown function {tok.text!r}", tok.pos)
                self.take("(")
                args = [self.expr()]
                while self.peek().kind == ",":
                    self.take()
                    args.append(self.expr())
                self.take(")")
                arity = _OPERATIONS[tok.text][0]
                if len(args) != arity:
                    raise ExpressionError(f"{tok.text} takes {arity} argument(s), got {len(args)}", tok.pos)
                return (tok.text, *args)
            if tok.text in _VARIABLES:
                return ("var", tok.text)
            raise ExpressionError(f"unknown name {tok.text!r}", tok.pos)
        if tok.kind == "(":
            self.take()
            node = self.expr()
            self.take(")")
            return node
        raise ExpressionError(f"expected a value, found {tok.text or 'end'!r}", tok.pos)


def parse_expression(source: str) -> Expression:
    """Parse ``source`` or raise :class:`ExpressionError` with a 1-based column."""
    parser = _Parser(_tokenize(source))
    node = parser.expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise ExpressionError(f"trailing input {tok.text!r}", tok.pos)
    return Expression(node, source)
