"""Small recursive-descent parser for real functions of x.

Grammar, lowest to highest precedence:

    expr   := term (("+" | "-") term)*
    term   := unary (("*" | "/") unary)*
    unary  := "-" unary | power
    power  := atom ("^" unary)?          right-associative
    atom   := NUMBER | "x" | NAME "(" expr ")" | "(" expr ")"

so "-x^2" is -(x^2) and "x^2^3" is x^(2^3).  Domain violations surface at
evaluation time with the offending sample point.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import EvalError, ParseError

FUNCTIONS = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "log": math.log,
    "tanh": math.tanh,
    "cosh": math.cosh,
    "sinh": math.sinh,
    "sqrt": math.sqrt,
    "abs": abs,
}

_TOKEN = re.compile(r"""
    (?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[()+\-*/^])
  | (?P<ws>\s+)
""", re.VERBOSE)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


# AST nodes are plain tuples:
#   ("num", value) ("var",) ("call", name, arg)
#   ("neg", arg)   ("bin", op, lhs, rhs)


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)
        self.take()

    def parse(self):
        node = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {val!r}", pos)
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                node = ("bin", val, node, self.term())
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                node = ("bin", val, node, self.unary())
            else:
                return node

    def unary(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.take()
            return ("neg", self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.take()
            node = ("bin", "^", node, self.unary())
        return node

    def atom(self):
        kind, val, pos = self.take()
        if kind == "num":
            return ("num", float(val))
        if kind == "name":
            if val == "x":
                return ("var",)
            if val in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return ("call", val, arg)
            raise ParseError(f"unknown name {val!r}", pos)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected token {val!r}", pos)


# the literal exponent of a square: u^2 is u*u, correctly rounded, where
# libm's pow is not always; an overflow raises as pow's does
_TWO = ("num", 2.0)


def _eval(node, x: float) -> float:
    tag = node[0]
    if tag == "num":
        return node[1]
    if tag == "var":
        return x
    if tag == "neg":
        return -_eval(node[1], x)
    if tag == "call":
        arg = _eval(node[2], x)
        try:
            return float(FUNCTIONS[node[1]](arg))
        except (ValueError, OverflowError) as exc:
            raise EvalError(f"{node[1]}({arg!r}): {exc}", x) from exc
    _, op, lhs, rhs = node
    a = _eval(lhs, x)
    b = _eval(rhs, x)
    try:
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            return a / b
        if rhs == _TWO:
            result = a * a
            if math.isinf(result) and math.isfinite(a):
                raise OverflowError
            return result
        result = a ** b
    except ZeroDivisionError as exc:
        raise EvalError("division by zero", x) from exc
    except OverflowError as exc:
        raise EvalError(f"overflow in {a!r} ^ {b!r}", x) from exc
    if isinstance(result, complex):
        raise EvalError(f"{a!r} ^ {b!r} is not real", x)
    return result


class _Rerun(Exception):
    """A node failed or left the finite range; the scalar loop decides
    what to raise."""


# numpy twins of the scalar operations that are IEEE correctly rounded and
# hence bit-identical to Python float arithmetic; "^" and the remaining
# FUNCTIONS go through libm per element, since numpy's SIMD kernels differ
_NUMPY_OPS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}
_NUMPY_FUNCTIONS = {"sqrt": np.sqrt, "abs": np.abs}


class Sampler:
    """Points to sample expressions at, with a memo of subexpression samples.

    Expressions sampled through one Sampler (``expr.sample(sampler)``)
    evaluate each distinct subexpression, an AST subtree, once over the
    points.  The memo holds only subtrees whose samples came out finite at
    every point, so a shared entry never hides an error.  A libm call is
    made once per mirror pair of points: when every operand of a call or
    of "^" equals its own reversal bit for bit (as an even function does
    on a grid closed under reflection), the first half of the points
    gives the whole.
    """

    def __init__(self, xs):
        self.points = np.asarray(xs, dtype=float).ravel()
        # keyed by AST tuple; parsed literals are never -0.0 or nan, so
        # equal keys are equal subtrees
        self.memo: dict[tuple, np.ndarray | np.float64] = {}

    @property
    def size(self) -> int:
        """Number of points, as for an array."""
        return self.points.size

    def _pointwise(self, fn, *args) -> np.ndarray | np.float64:
        """fn on Python floats at every point, or once if every operand is
        a constant, which is passed as a repeated scalar.  When the samples
        of every other operand read the same reversed, with +0.0 and -0.0
        told apart, so do the results: fn runs on the first ceil(n/2)
        points and the rest are their mirror."""
        samples = [self.eval(a) for a in args]
        arrays = [v for v in samples if v.ndim]
        n = self.size
        mirrored = all(np.array_equal(b, b[::-1])
                       for b in (v.view(np.int64) for v in arrays))
        todo = (n - n // 2 if mirrored else n) if arrays else 1
        operands = [v[:todo].tolist() if v.ndim else repeat(float(v))
                    for v in samples]
        try:
            # a negative base to a fractional power is complex: TypeError
            out = np.fromiter(map(fn, *operands), float, todo)
        except (ArithmeticError, ValueError, TypeError) as exc:
            raise _Rerun from exc
        if not arrays:
            return out[0]
        return np.concatenate((out, out[:n - todo][::-1])) if mirrored else out

    def eval(self, node) -> np.ndarray | np.float64:
        """Samples of node, computed once per node, as an array that must
        not be modified or, without x, a float64 scalar.  Raises _Rerun as
        soon as a node fails or is not finite everywhere."""
        out = self.memo.get(node)
        if out is not None:
            return out
        tag = node[0]
        if tag == "num":
            out = np.float64(node[1])
        elif tag == "var":
            out = self.points
        elif tag == "neg":
            out = -self.eval(node[1])
        elif tag == "call":
            if node[1] in _NUMPY_FUNCTIONS:
                out = _NUMPY_FUNCTIONS[node[1]](self.eval(node[2]))
            else:
                out = self._pointwise(FUNCTIONS[node[1]], node[2])
        else:
            _, op, lhs, rhs = node
            if op in _NUMPY_OPS:
                out = _NUMPY_OPS[op](self.eval(lhs), self.eval(rhs))
            elif rhs == _TWO:
                base = self.eval(lhs)
                out = base * base
            else:
                out = self._pointwise(pow, lhs, rhs)
        if not (np.isfinite(out).all() if out.ndim else math.isfinite(out)):
            raise _Rerun
        self.memo[node] = out
        return out


def _to_text(node) -> str:
    tag = node[0]
    if tag == "num":
        return format(node[1], ".17g")
    if tag == "var":
        return "x"
    if tag == "neg":
        return f"(-{_to_text(node[1])})"
    if tag == "call":
        return f"{node[1]}({_to_text(node[2])})"
    _, op, lhs, rhs = node
    return f"({_to_text(lhs)} {op} {_to_text(rhs)})"


@dataclass(frozen=True)
class Expression:
    """Parsed real function of x; callable on scalars, sampleable on arrays."""

    text: str
    ast: tuple

    def __call__(self, x: float) -> float:
        return _eval(self.ast, float(x))

    def __str__(self) -> str:
        return _to_text(self.ast)

    def sample(self, xs) -> np.ndarray:
        """Evaluate at every point, bit-identical to scalar calls.

        xs is an array of points, or a Sampler whose memo the expressions
        sampled through it share.  Returns a fresh array.  Raises EvalError
        at the first point whose evaluation fails or whose value is not
        finite.  A function of samples that read the same reversed costs
        one libm call per mirror pair of points, and u^2 is u*u.
        """
        sampler = xs if isinstance(xs, Sampler) else Sampler(xs)
        try:
            with np.errstate(all="ignore"):
                return np.full(sampler.points.shape, sampler.eval(self.ast))
        except _Rerun:
            pass
        values = []
        for x in sampler.points.tolist():
            value = _eval(self.ast, x)
            if not math.isfinite(value):
                raise EvalError(f"non-finite value {value!r}", x)
            values.append(value)
        return np.array(values)


def parse_expression(text: str) -> Expression:
    """Parse expression text into an evaluable real function of x."""
    if not text or not text.strip():
        raise ParseError("empty expression", 0)
    return Expression(text, _Parser(text).parse())
