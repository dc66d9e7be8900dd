"""Small recursive-descent parser for real functions of x.

Grammar, lowest to highest precedence:

    expr   := term (("+" | "-") term)*
    term   := unary (("*" | "/") unary)*
    unary  := "-" unary | power
    power  := atom ("^" unary)?          right-associative
    atom   := NUMBER | "x" | NAME "(" expr ")" | "(" expr ")"

so "-x^2" is -(x^2) and "x^2^3" is x^(2^3).  Domain violations surface at
evaluation time with the offending sample point.  Every node is sampled by
one (u)func call: exp, log, sqrt and abs are numpy's ufuncs, scalars
included; the other functions and "^" are libm's, called once per point.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass

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
        return self.left_assoc("+-", self.term)

    def term(self):
        return self.left_assoc("*/", self.unary)

    def left_assoc(self, ops: str, operand):
        """operand ((an op of ops) operand)*, folded from the left."""
        node = operand()
        while self.peek()[0] == "op" and self.peek()[1] in ops:
            node = ("bin", self.take()[1], node, operand())
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
        if node[1] in _NUMPY_FUNCTIONS:
            with np.errstate(all="ignore"):
                value = float(_NUMPY_FUNCTIONS[node[1]](np.float64(arg)))
            if math.isfinite(value):
                return value
        try:
            return float(FUNCTIONS[node[1]](arg))
        except (ValueError, OverflowError) as exc:
            raise EvalError(f"{node[1]}({arg!r}): {exc}", x) from exc
    _, op, lhs, rhs = node
    a = _eval(lhs, x)
    b = _eval(rhs, x)
    try:
        if op in _SCALAR_OPS:
            return _SCALAR_OPS[op](a, b)
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


_SCALAR_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
               "/": operator.truediv}
# numpy twins of the scalar operations: arithmetic, sqrt and abs are correctly
# rounded; exp and log are numpy's kernels, which _eval calls too, with libm's
# value or error where they leave the finite range.  "^" and the other
# FUNCTIONS stay on libm, which keeps f(-x) = +-f(x) bit for bit, as the PT
# real form needs; numpy's SIMD kernels do not promise that
_NUMPY_OPS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}
_NUMPY_FUNCTIONS = {"sqrt": np.sqrt, "abs": np.abs, "exp": np.exp,
                    "log": np.log}


class Sampler:
    """Points to sample expressions at, with a memo of subexpression samples.

    Expressions sampled through one Sampler (``expr.sample(sampler)``)
    evaluate each distinct subexpression, an AST subtree, once over the
    points.  The memo holds only subtrees whose samples came out finite at
    every point, so a shared entry never hides an error.  Each node is one
    numpy call; the parity functions and "^" are libm's, through
    np.frompyfunc.
    """

    def __init__(self, xs):
        self.points = np.asarray(xs, dtype=float).ravel()
        # keyed by AST tuple; parsed literals are never -0.0 or nan, so
        # equal keys are equal subtrees
        self.memo: dict[tuple, np.ndarray | np.float64] = {}

    @property
    def size(self) -> int:
        """Number of points, which ``np.size`` reads as for an array: the
        benchmark's tracer counts sampled points with it."""
        return self.points.size

    def _libm(self, fn, *args) -> np.ndarray | np.float64:
        """fn on Python floats at every point, or once if every operand is
        a constant."""
        samples = [self.eval(a) for a in args]
        try:
            # a negative base to a fractional power is complex: TypeError
            return np.asarray(np.frompyfunc(fn, len(samples), 1)(*samples),
                              dtype=float)[()]
        except (ArithmeticError, ValueError, TypeError) as exc:
            raise _Rerun from exc

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
                out = self._libm(FUNCTIONS[node[1]], node[2])
        else:
            _, op, lhs, rhs = node
            if op in _NUMPY_OPS:
                out = _NUMPY_OPS[op](self.eval(lhs), self.eval(rhs))
            elif rhs == _TWO:
                base = self.eval(lhs)
                out = base * base
            else:
                out = self._libm(pow, lhs, rhs)
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
        finite.  Each node is one (u)func call over the points: exp, log,
        sqrt and abs are numpy's, any other function and "^" are libm's,
        and u^2 is u*u.
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
