"""Scalar math expressions over state/input variables x1..xn, u1..um.

Expressions are parsed into immutable trees that support pointwise and
vectorized evaluation plus exact symbolic differentiation.  The grammar:

    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' atom)*          # exponent: nonnegative integer constant
    atom   := NUMBER | VARIABLE | FUNC '(' expr ')' | '(' expr ')'

Binary operators of equal precedence associate to the left.  Supported
functions: sin, cos, tan, exp, ln, sqrt, abs, tanh.  Variables match
x<k> or u<k> with k >= 1.  Derivative trees may additionally contain
sign(.) (from abs; sign(0) = 0), which evaluates but is not accepted by
the input grammar.

Evaluation is generated code: :func:`emitter` writes straight-line
statements, each distinct subtree once, which :func:`point_kernel` and
:func:`batch_kernel` compile.  A point runs on Python floats with
``math``; where a statement raises, the walk :func:`evaluate` reruns the
point to name the failing node in an :class:`ExprEvalError`, or to
saturate an overflow to +-inf.  A batch runs on numpy columns with
ufuncs: a bad sample comes back nan or inf and nothing raises.

Trees are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

_FUNCTIONS = ("sin", "cos", "tan", "exp", "ln", "sqrt", "abs", "tanh")


class ExprError(Exception):
    """Base class for expression errors."""


class ExprSyntaxError(ExprError):
    """Parse failure; carries the byte offset and what was expected."""

    def __init__(self, offset: int, message: str):
        super().__init__(f"at offset {offset}: {message}")
        self.offset = offset


class ExprEvalError(ExprError):
    """Domain or dimension error during evaluation; carries the node."""

    def __init__(self, node: "Expression", message: str):
        super().__init__(f"{message} (in subexpression '{unparse(node)}')")
        self.node = node


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    kind: str  # 'x' or 'u'
    index: int  # 1-based

    @property
    def name(self) -> str:
        return f"{self.kind}{self.index}"


@dataclass(frozen=True)
class Unary:
    op: str
    arg: "Expression"


@dataclass(frozen=True)
class Binary:
    op: str
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Pow:
    base: "Expression"
    exponent: int  # >= 0


Expression = Const | Var | Unary | Binary | Pow


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z][A-Za-z0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)

_VAR_RE = re.compile(r"^([xu])([0-9]+)$")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ExprSyntaxError(at, f"unexpected character {stripped[0]!r}")
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, text, pos = self.peek()
        if kind != "op" or text != op:
            got = repr(text) if kind != "end" else "end of input"
            raise ExprSyntaxError(pos, f"expected {op!r}, got {got}")
        return self.advance()

    def parse(self) -> Expression:
        e = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(pos, f"unexpected trailing input {text!r}")
        return e

    def expr(self) -> Expression:
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in ("+", "-"):
                self.advance()
                node = Binary(text, node, self.term())
            else:
                return node

    def term(self) -> Expression:
        node = self.unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in ("*", "/"):
                self.advance()
                node = Binary(text, node, self.unary())
            else:
                return node

    def unary(self) -> Expression:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Unary("neg", self.unary())
        return self.power()

    def power(self) -> Expression:
        node = self.atom()
        while True:
            kind, text, pos = self.peek()
            if kind == "op" and text == "^":
                self.advance()
                _, _, epos = self.peek()
                exponent = self.atom()
                node = Pow(node, self._as_int_exponent(exponent, epos))
            else:
                return node

    def _as_int_exponent(self, e: Expression, pos: int) -> int:
        if isinstance(e, Const) and float(e.value).is_integer() and e.value >= 0:
            return int(e.value)
        raise ExprSyntaxError(pos, "exponent must be a nonnegative integer constant")

    def atom(self) -> Expression:
        kind, text, pos = self.advance()
        if kind == "num":
            return Const(float(text))
        if kind == "ident":
            nxt_kind, nxt_text, _ = self.peek()
            if nxt_kind == "op" and nxt_text == "(":
                if text not in _FUNCTIONS:
                    raise ExprSyntaxError(pos, f"unknown function {text!r}")
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return Unary(text, arg)
            m = _VAR_RE.match(text)
            if m is None:
                raise ExprSyntaxError(
                    pos, f"unknown identifier {text!r} (expected x<k> or u<k>)"
                )
            index = int(m.group(2))
            if index < 1:
                raise ExprSyntaxError(pos, f"variable index must be >= 1 in {text!r}")
            return Var(m.group(1), index)
        if kind == "op" and text == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        got = repr(text) if kind != "end" else "end of input"
        raise ExprSyntaxError(pos, f"expected a number, variable, function or '(', got {got}")


def parse(text: str) -> Expression:
    """Parse ``text`` into an expression tree.

    Raises :class:`ExprSyntaxError` with a byte offset on malformed input.
    """
    if not isinstance(text, str) or not text.strip():
        raise ExprSyntaxError(0, "empty expression")
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# printing

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(e: Expression) -> int:
    if isinstance(e, Binary):
        return _PREC_ADD if e.op in ("+", "-") else _PREC_MUL
    if isinstance(e, Unary):
        return _PREC_NEG if e.op == "neg" else _PREC_ATOM
    if isinstance(e, Pow):
        return _PREC_POW
    if isinstance(e, Const) and (e.value < 0 or _is_neg_zero(e.value)):
        # prints with a leading minus, so binds like unary negation
        return _PREC_NEG
    return _PREC_ATOM


def unparse(e: Expression) -> str:
    """Render a tree back to text; reparsing yields a structurally equal tree.

    Negative constants (produced only by simplification, never by parse)
    reprint as unary negation, which evaluates identically.
    """
    if isinstance(e, Const):
        v = e.value
        if math.isnan(v):
            return "nan"  # made only by folding a derivative; it has no literal
        if math.isinf(v):
            return "1e999" if v > 0 else "-1e999"  # parses back to +-inf
        if v == int(v) and abs(v) < 1e16:
            return str(int(v)) if not _is_neg_zero(v) else "-0"
        return repr(v)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Unary):
        if e.op == "neg":
            arg = unparse(e.arg)
            if _prec(e.arg) < _PREC_NEG:
                arg = f"({arg})"
            return f"-{arg}"
        return f"{e.op}({unparse(e.arg)})"
    if isinstance(e, Pow):
        base = unparse(e.base)
        if _prec(e.base) < _PREC_POW:
            base = f"({base})"
        return f"{base}^{e.exponent}"
    if isinstance(e, Binary):
        own = _prec(e)
        left = unparse(e.left)
        if _prec(e.left) < own:
            left = f"({left})"
        right = unparse(e.right)
        # left associativity: a right child at equal precedence needs parens
        if _prec(e.right) < own or (_prec(e.right) == own and isinstance(e.right, Binary)):
            right = f"({right})"
        return f"{left} {e.op} {right}"
    raise TypeError(f"not an expression node: {e!r}")


def _is_neg_zero(v: float) -> bool:
    return v == 0.0 and math.copysign(1.0, v) < 0


# ---------------------------------------------------------------------------
# evaluation: generated straight-line code for one point or for a batch of
# points; a walk over the tree is the point's error path


def _ln(a: float) -> float:
    if a <= 0.0:
        raise ValueError(f"ln of non-positive value {a!r}")
    return math.log(a)


def _sqrt(a: float) -> float:
    if a < 0.0:
        raise ValueError(f"sqrt of negative value {a!r}")
    return math.sqrt(a)


# Python floats and math: a domain error raises, an overflow saturates,
# and one point costs far less than with numpy scalars.  Powers round as
# libm pow does, which differs from numpy's array power in the last bit
# for about 3 % of bases at exponents 3 and 4.
_POINT = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "ln": _ln,
    "sqrt": _sqrt,
    "abs": abs,
    "tanh": math.tanh,
    "sign": lambda a: float((a > 0) - (a < 0)),
    "neg": operator.neg,
}
# numpy columns and ufuncs: a bad sample comes back nan or inf
_BATCH = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "ln": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "tanh": np.tanh,
    "sign": np.sign,
    "neg": np.negative,
    "divide": np.divide,
    "power": np.power,
}


def _eval(e: Expression, x, u):
    """Value of ``e`` at one point on Python floats, where ``x[i]`` and
    ``u[i]`` hold variable i + 1: the kernels' error path, which raises
    :class:`ExprEvalError` naming the failing node or saturates an overflow."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        vec = x if e.kind == "x" else u
        if e.index > len(vec):
            raise ExprEvalError(e, f"variable {e.name} is out of range for dimension {len(vec)}")
        return float(vec[e.index - 1])
    if isinstance(e, Unary):
        a = _eval(e.arg, x, u)
        try:
            return _POINT[e.op](a)
        except OverflowError:
            # IEEE-754 semantics: overflow saturates to infinity
            return math.inf
        except ValueError as exc:
            raise ExprEvalError(e, str(exc)) from exc
    if isinstance(e, Pow):
        b = _eval(e.base, x, u)
        try:
            return b**e.exponent
        except OverflowError:
            return -math.inf if b < 0.0 and e.exponent % 2 == 1 else math.inf
    if isinstance(e, Binary):
        lv = _eval(e.left, x, u)
        rv = _eval(e.right, x, u)
        if e.op == "+":
            return lv + rv
        if e.op == "-":
            return lv - rv
        if e.op == "*":
            return lv * rv
        try:
            return lv / rv
        except ZeroDivisionError:
            raise ExprEvalError(e, "division by zero") from None
    raise TypeError(f"not an expression node: {e!r}")


def evaluate(e: Expression, x, u=()) -> float:
    """Evaluate at a single point, IEEE-754 double semantics.

    ``x`` and ``u`` are sequences of reals.  Domain errors (log of a
    non-positive value, sqrt of a negative, division by zero) raise
    :class:`ExprEvalError` naming the offending subexpression.
    """
    return _eval(e, x, u)


def point_kernel(live) -> Callable:
    """A function of ``(x, u, out)`` that stores, for each ``(tree, j)``
    of ``live`` in turn, the value of ``tree`` at one point in ``out[j]``
    and returns ``out``, a list, generated as straight-line code and
    compiled.  A tree listed twice is computed once.

    Every distinct subtree is computed once, with the point primitives
    in the walk's order of operations, so each value has the bits of
    :func:`evaluate`.  A domain error, division by zero, an overflow or
    a variable out of range raises a bare error, with the entries of the
    trees before it stored: rerun the walk to name the node or to
    saturate the overflow.
    """
    return _kernel(live, lambda v: f"float({v.kind}[{v.index - 1}])", False)


def batch_kernel(live, n: int, m: int) -> Callable:
    """:func:`point_kernel` for N rows of n states and m inputs: ``x[i]``
    and ``u[i]`` are columns, ``out`` a list or an array of rows, and a
    tree that reads no variable is a scalar.  A column is freed after
    its last read.  Under ``np.errstate(all="ignore")`` a bad sample
    comes back nan or inf; a variable beyond n or m raises
    :class:`ExprEvalError` here."""
    zeros = [0.0] * n, [0.0] * m

    def column(v: Var) -> str:
        _eval(v, *zeros)  # the walk names a variable out of range
        return f"{v.kind}[{v.index - 1}]"

    return _kernel(live, column, True)


def _kernel(live, variable: Callable[[Var], str], batch: bool) -> Callable:
    namespace = {"float": float}
    lines: list[str] = []
    emit = emitter(variable, namespace, lines, batch)
    for tree, j in live:
        lines.append(f"out[{j:d}] = {emit(tree)}")
    if batch:  # free each column after its last read, as a walk of each tree would
        read, backward = set(), []
        for line in reversed(lines):
            names = dict.fromkeys(re.findall(r"\bt\d+\b", line.partition(" = ")[2]))
            dead = [t for t in names if t not in read]
            read.update(dead)
            backward += [f"del {', '.join(dead)}"] * bool(dead) + [line]
        lines = backward[::-1]
    source = "\n    ".join(["def kernel(x, u, out):", *lines, "return out"])
    exec(compile(source, "<kernel>", "exec"), namespace)
    return namespace["kernel"]


def emitter(variable: Callable[[Var], str], namespace: dict, lines: list, batch=False):
    """A function ``emit(tree)`` that appends to ``lines`` unindented
    statements making the walk's operations on the tree, and returns the
    operand holding its value: at a point with the point table and
    Python's -a, a / b and a ** k, which raise; on a batch with ufuncs.
    ``variable(v)`` is a variable's text: an identifier is used as it
    is, other text such as ``x[0]`` is computed once into a local.  Each
    distinct subtree is computed once (its text identifies it), and a
    node seen before is not walked again (the memo keeps it alive)."""
    namespace.update(_BATCH if batch else _POINT)
    point = ("-{}", "{} / {}", "{} ** {:d}")  # Python's operators, which raise
    neg, divide, power = ("neg({})", "divide({}, {})", "power({}, {:d})") if batch else point
    local: dict[str, str] = {}  # right-hand side -> the local holding it
    memo: dict[int, tuple] = {}  # id(node) -> (node, operand)

    def emit(e: Expression) -> str:
        if id(e) in memo:
            return memo[id(e)][1]
        # a constant's repr tells 0.0 from -0.0
        if isinstance(e, Const):
            if math.isfinite(e.value):
                return f"({e.value!r})"
            name = f"c{len(namespace)}"  # inf and nan have no literal
            namespace[name] = e.value
            return name
        if isinstance(e, Var):
            rhs = variable(e)
        elif isinstance(e, Unary):
            a = emit(e.arg)
            if e.op not in _POINT:
                raise TypeError(f"unknown unary operator {e.op!r}")
            rhs = neg.format(a) if e.op == "neg" else f"{e.op}({a})"
        elif isinstance(e, Pow):
            rhs = power.format(emit(e.base), e.exponent)
        elif isinstance(e, Binary):
            a, b = emit(e.left), emit(e.right)
            rhs = f"{a} {e.op} {b}" if e.op in ("+", "-", "*") else divide.format(a, b)
        else:
            raise TypeError(f"not an expression node: {e!r}")
        if rhs not in local and not rhs.isidentifier():
            local[rhs] = f"t{len(local)}"
            lines.append(f"{local[rhs]} = {rhs}")
        memo[id(e)] = (e, local.get(rhs, rhs))
        return memo[id(e)][1]

    return emit


# ---------------------------------------------------------------------------
# differentiation

_ZERO = Const(0.0)
_ONE = Const(1.0)


def _const(v: float) -> Const:
    return Const(float(v))


def _is_const(e, v=None) -> bool:
    return isinstance(e, Const) and (v is None or e.value == v)


def _neg(e):
    if isinstance(e, Const):
        return _const(-e.value)
    if isinstance(e, Unary) and e.op == "neg":
        return e.arg
    return Unary("neg", e)


def _add(a, b):
    if _is_const(a) and _is_const(b):
        return _const(a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Binary("+", a, b)


def _sub(a, b):
    if _is_const(a) and _is_const(b):
        return _const(a.value - b.value)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return _neg(b)
    return Binary("-", a, b)


def _mul(a, b):
    if _is_const(a) and _is_const(b):
        return _const(a.value * b.value)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return _ZERO
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return Binary("*", a, b)


def _div(a, b):
    if _is_const(a, 0.0):
        return _ZERO
    if _is_const(b, 1.0):
        return a
    if _is_const(a) and _is_const(b) and b.value != 0.0:
        return _const(a.value / b.value)
    return Binary("/", a, b)


def _pow(base, k: int):
    if k == 0:
        return _ONE
    if k == 1:
        return base
    if _is_const(base):
        # folded as evaluation does it, so an overflow saturates
        return _const(_eval(Pow(base, k), (), ()))
    return Pow(base, k)


def differentiate(e: Expression, var: str) -> Expression:
    """Exact symbolic derivative with respect to the named variable.

    Applies only light simplification (0*e -> 0, e+0 -> e, 1*e -> e and
    constant folding) so the result remains a plain tree.  abs has
    derivative sign(.) with sign(0) = 0.
    """
    m = _VAR_RE.match(var)
    if m is None or int(m.group(2)) < 1:
        raise ValueError(f"not a valid variable name: {var!r}")
    return _diff(e, var)


def _diff(e: Expression, var: str) -> Expression:
    if isinstance(e, Const):
        return _ZERO
    if isinstance(e, Var):
        return _ONE if e.name == var else _ZERO
    if isinstance(e, Unary):
        g = e.arg
        dg = _diff(g, var)
        if e.op == "neg":
            return _neg(dg)
        if e.op == "sin":
            return _mul(Unary("cos", g), dg)
        if e.op == "cos":
            return _neg(_mul(Unary("sin", g), dg))
        if e.op == "tan":
            return _div(dg, _pow(Unary("cos", g), 2))
        if e.op == "exp":
            return _mul(e, dg)
        if e.op == "ln":
            return _div(dg, g)
        if e.op == "sqrt":
            return _div(dg, _mul(_const(2.0), e))
        if e.op == "abs":
            return _mul(Unary("sign", g), dg)
        if e.op == "tanh":
            return _mul(_sub(_ONE, _pow(Unary("tanh", g), 2)), dg)
        if e.op == "sign":
            # zero almost everywhere; the jump at 0 is ignored by convention
            return _ZERO
    if isinstance(e, Pow):
        if e.exponent == 0:
            return _ZERO
        db = _diff(e.base, var)
        return _mul(_mul(_const(e.exponent), _pow(e.base, e.exponent - 1)), db)
    if isinstance(e, Binary):
        dl = _diff(e.left, var)
        dr = _diff(e.right, var)
        if e.op == "+":
            return _add(dl, dr)
        if e.op == "-":
            return _sub(dl, dr)
        if e.op == "*":
            return _add(_mul(dl, e.right), _mul(e.left, dr))
        num = _sub(_mul(dl, e.right), _mul(e.left, dr))
        return _div(num, _pow(e.right, 2))
    raise TypeError(f"not an expression node: {e!r}")


def max_indices(e: Expression) -> tuple[int, int]:
    """Largest state and input variable indices referenced by the tree."""
    if isinstance(e, Const):
        return 0, 0
    if isinstance(e, Var):
        return (e.index, 0) if e.kind == "x" else (0, e.index)
    if isinstance(e, Unary):
        return max_indices(e.arg)
    if isinstance(e, Pow):
        return max_indices(e.base)
    if isinstance(e, Binary):
        lx, lu = max_indices(e.left)
        rx, ru = max_indices(e.right)
        return max(lx, rx), max(lu, ru)
    raise TypeError(f"not an expression node: {e!r}")
