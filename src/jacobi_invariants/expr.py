"""Immutable expression trees in the variables t and x.

Constants are exact rationals (decimal literals are converted on parse), so
cancellations like (1/2)*2 = 1 are structural rather than floating-point.
Named identifiers other than t and x are free scalar parameters.  Exponents
of ``^`` are restricted to constant (t,x-free) expressions.

``simplify`` rewrites to a canonical normal form: sums and products are
flattened, sorted and collected, constants folded, exp/ln pairs cancelled.
It is a fixed rewrite set, not a full CAS; ``zero_check`` backs it with
quasi-random sampling for whatever rewriting misses.  It is idempotent, so
each node keeps its normal form, and a normal form its two partial
derivatives, once computed: ``simplify`` and ``diff`` do a node's work once
for as long as the node lives.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

# node kinds
RAT = "rat"
PARAM = "param"
VAR = "var"
ADD = "add"
SUB = "sub"
MUL = "mul"
DIV = "div"
POW = "pow"
NEG = "neg"
EXP = "exp"
LN = "ln"
SQRT = "sqrt"
SIN = "sin"
COS = "cos"

_FUNCS = (EXP, LN, SQRT, SIN, COS)


class ExprError(Exception):
    pass


class ParseError(ExprError):
    """Syntax error; ``offset`` is the byte position in the input."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


# characters of the failing node a DomainError prints
_MAX_NODE_TEXT = 80


class DomainError(ExprError):
    """Evaluation left the real domain (ln<=0, sqrt<0, division by zero...).
    ``expr`` is the failing node, or the source of a compiled template whose
    own arithmetic overflowed."""

    def __init__(self, expr: "Expr | str", t: float, x: float, reason: str):
        t, x = float(t), float(x)
        node = str(expr)
        if len(node) > _MAX_NODE_TEXT:
            node = node[:_MAX_NODE_TEXT - 1] + "…"
        super().__init__(f"{reason} in {node} at (t={t!r}, x={x!r})")
        self.expr = expr
        self.t = t
        self.x = x
        self.reason = reason


class UnboundParameterError(ExprError):
    def __init__(self, name: str):
        super().__init__(f"parameter {name!r} is not bound")
        self.name = name


class IllPosedDomainError(ExprError):
    """More than half of the sample points hit domain errors."""


class NonConstantExponentError(ExprError):
    pass


class Expr:
    """A single expression-tree node.  Immutable and hashable.

    The slots after ``name`` are filled on first use and take no part in
    ``==`` or ``hash``: ``_canon`` is the node's normal form, or
    ``_CANONICAL`` when the node is its own; ``_d_t`` and ``_d_x`` are the
    partial derivatives of a normal form.
    """

    __slots__ = ("kind", "args", "value", "name", "_hash", "_key",
                 "_canon", "_d_t", "_d_x")

    def __init__(self, kind, args=(), value=None, name=None):
        self.kind = kind
        self.args = tuple(args)
        self.value = value
        self.name = name
        self._hash = None
        self._key = None
        self._canon = None
        self._d_t = None
        self._d_x = None

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Expr):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.value == other.value
            and self.name == other.name
            and self.args == other.args
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.kind, self.value, self.name, self.args))
        return self._hash

    def __repr__(self):
        return f"Expr({pprint(self)})"

    def __str__(self):
        return pprint(self)

    # arithmetic sugar; results are raw trees, call simplify() for canon form
    def __add__(self, other):
        return Expr(ADD, (self, _coerce(other)))

    def __radd__(self, other):
        return Expr(ADD, (_coerce(other), self))

    def __sub__(self, other):
        return Expr(SUB, (self, _coerce(other)))

    def __rsub__(self, other):
        return Expr(SUB, (_coerce(other), self))

    def __mul__(self, other):
        return Expr(MUL, (self, _coerce(other)))

    def __rmul__(self, other):
        return Expr(MUL, (_coerce(other), self))

    def __truediv__(self, other):
        return Expr(DIV, (self, _coerce(other)))

    def __rtruediv__(self, other):
        return Expr(DIV, (_coerce(other), self))

    def __pow__(self, other):
        return Expr(POW, (self, _coerce(other)))

    def __neg__(self):
        return Expr(NEG, (self,))


def _coerce(v) -> Expr:
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, Fraction)):
        return Rat(v)
    if isinstance(v, float):
        return Rat(Fraction(v))
    raise TypeError(f"cannot use {type(v).__name__} in an expression")


# ---------------------------------------------------------------- builders

def Rat(v, q=None) -> Expr:
    if q is not None:
        v = Fraction(v, q)
    elif not isinstance(v, Fraction):
        v = Fraction(v)
    return Expr(RAT, value=v)


def Param(name: str) -> Expr:
    return Expr(PARAM, name=name)


T = Expr(VAR, name="t")
X = Expr(VAR, name="x")

ZERO = Rat(0)
ONE = Rat(1)
MINUS_ONE = Rat(-1)
HALF = Rat(1, 2)


def Exp(a) -> Expr:
    return Expr(EXP, (_coerce(a),))


def Ln(a) -> Expr:
    return Expr(LN, (_coerce(a),))


def Sqrt(a) -> Expr:
    return Expr(SQRT, (_coerce(a),))


def Sin(a) -> Expr:
    return Expr(SIN, (_coerce(a),))


def Cos(a) -> Expr:
    return Expr(COS, (_coerce(a),))


# ---------------------------------------------------------------- queries

def free_params(e: Expr) -> set[str]:
    if e.kind == PARAM:
        return {e.name}
    out: set[str] = set()
    for a in e.args:
        out |= free_params(a)
    return out


def depends_on(e: Expr, var: str) -> bool:
    """Structural dependence of e on variable name 't' or 'x'."""
    if e.kind == VAR:
        return e.name == var
    return any(depends_on(a, var) for a in e.args)


def is_constant(e: Expr) -> bool:
    """True when e contains neither t nor x (parameters allowed)."""
    return not depends_on(e, "t") and not depends_on(e, "x")


# ---------------------------------------------------------------- parsing

_KNOWN_FUNCS = {"exp": EXP, "ln": LN, "sqrt": SQRT, "sin": SIN, "cos": COS}


# Nesting levels (parentheses, unary minus, exponents, and one per operator
# of a chain such as x+x+...+x, whose left-deep tree the recursive
# evaluator, printer and simplifier walk) the recursive-descent parser
# accepts.  Each level costs about five Python frames, so this stays well
# inside the interpreter's default recursion limit of 1000.
_MAX_PARSE_DEPTH = 100


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.tokens: list[tuple[str, str, int]] = []
        self._scan()
        self.i = 0
        self.depth = 0

    def _scan(self):
        s, n = self.text, len(self.text)
        i = 0
        while i < n:
            c = s[i]
            if c.isspace():
                i += 1
                continue
            if c.isdigit() or (c == "." and i + 1 < n and s[i + 1].isdigit()):
                j = i
                seen_dot = False
                while j < n and (s[j].isdigit() or (s[j] == "." and not seen_dot)):
                    if s[j] == ".":
                        seen_dot = True
                    j += 1
                self.tokens.append(("num", s[i:j], i))
                i = j
                continue
            if c.isalpha() or c == "_":
                j = i
                while j < n and (s[j].isalnum() or s[j] == "_"):
                    j += 1
                self.tokens.append(("ident", s[i:j], i))
                i = j
                continue
            if c in "+-*/^()":
                self.tokens.append(("op", c, i))
                i += 1
                continue
            raise ParseError(f"unexpected character {c!r}", i)

    def peek(self):
        if self.i < len(self.tokens):
            return self.tokens[self.i]
        return ("end", "", len(self.text))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok


def parse(text: str) -> Expr:
    """Parse infix text to an expression tree.

    Grammar: ``+ - * / ^`` with standard precedence (``^`` highest and
    right-associative, then unary minus, then ``* /``, then ``+ -``),
    functions exp/ln/sqrt/sin/cos, variables t and x, integer and decimal
    literals, any other identifier as a named parameter.
    """
    tz = _Tokenizer(text)
    e = _parse_sum(tz)
    kind, val, off = tz.peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing input {val!r}", off)
    return e


def _descend(tz, off: int):
    if tz.depth >= _MAX_PARSE_DEPTH:
        raise ParseError(f"expression nested deeper than {_MAX_PARSE_DEPTH} levels", off)
    tz.depth += 1


def _parse_sum(tz) -> Expr:
    depth = tz.depth
    e = _parse_term(tz)
    while True:
        kind, val, off = tz.peek()
        if kind == "op" and val in "+-":
            tz.next()
            _descend(tz, off)  # a binary chain is one tree level per operator
            rhs = _parse_term(tz)
            e = Expr(ADD if val == "+" else SUB, (e, rhs))
        else:
            tz.depth = depth
            return e


def _parse_term(tz) -> Expr:
    depth = tz.depth
    e = _parse_unary(tz)
    while True:
        kind, val, off = tz.peek()
        if kind == "op" and val in "*/":
            tz.next()
            _descend(tz, off)
            rhs = _parse_unary(tz)
            if val == "/" and e.kind == RAT and rhs.kind == RAT and rhs.value != 0:
                e = Rat(e.value / rhs.value)
            elif val == "*" and e.kind == RAT and rhs.kind == RAT:
                e = Rat(e.value * rhs.value)
            else:
                e = Expr(MUL if val == "*" else DIV, (e, rhs))
        else:
            tz.depth = depth
            return e


def _parse_unary(tz) -> Expr:
    kind, val, off = tz.peek()
    _descend(tz, off)
    if kind == "op" and val == "-":
        tz.next()
        inner = _parse_unary(tz)
        e = Rat(-inner.value) if inner.kind == RAT else Expr(NEG, (inner,))
    else:
        e = _parse_power(tz)
    tz.depth -= 1
    return e


def _parse_power(tz) -> Expr:
    base = _parse_atom(tz)
    kind, val, off = tz.peek()
    if kind == "op" and val == "^":
        tz.next()
        expo = _parse_unary(tz)  # right-associative, allows x^-2
        if depends_on(expo, "t") or depends_on(expo, "x"):
            raise ParseError("exponent must be a constant expression", off)
        if base.kind == RAT and expo.kind == RAT and expo.value.denominator == 1:
            folded = _rat_pow(base.value, expo.value)
            if folded is not None:
                return Rat(folded)
        return Expr(POW, (base, expo))
    return base


def _parse_atom(tz) -> Expr:
    kind, val, off = tz.next()
    if kind == "num":
        try:
            return Rat(Fraction(val))
        except ValueError as err:  # beyond the int-from-string digit limit
            raise ParseError(str(err), off) from None
    if kind == "ident":
        nkind, nval, noff = tz.peek()
        if nkind == "op" and nval == "(":
            if val not in _KNOWN_FUNCS:
                raise ParseError(f"unknown function {val!r}", off)
            tz.next()
            arg = _parse_sum(tz)
            ckind, cval, coff = tz.next()
            if not (ckind == "op" and cval == ")"):
                raise ParseError("expected ')'", coff)
            return Expr(_KNOWN_FUNCS[val], (arg,))
        if val == "t":
            return T
        if val == "x":
            return X
        return Param(val)
    if kind == "op" and val == "(":
        e = _parse_sum(tz)
        ckind, cval, coff = tz.next()
        if not (ckind == "op" and cval == ")"):
            raise ParseError("expected ')'", coff)
        return e
    raise ParseError(f"unexpected token {val!r}" if val else "unexpected end of input", off)


# ---------------------------------------------------------------- printing

def pprint(e: Expr) -> str:
    """Fully parenthesized infix form; re-parses to the same canonical tree."""
    k = e.kind
    if k == RAT:
        v = e.value
        if v.denominator == 1:
            return f"({v.numerator})" if v < 0 else str(v.numerator)
        # fractions always need parens: x ^ 3/2 would re-parse as (x^3)/2
        return f"({v.numerator}/{v.denominator})"
    if k == PARAM or k == VAR:
        return e.name
    if k in _FUNCS:
        return f"{k}({pprint(e.args[0])})"
    if k == NEG:
        return f"(-{pprint(e.args[0])})"
    if k == ADD:
        parts = [pprint(e.args[0])]
        for a in e.args[1:]:
            neg = _negated_term(a)
            if neg is not None:
                parts.append(f" - {pprint(neg)}")
            else:
                parts.append(f" + {pprint(a)}")
        return "(" + "".join(parts) + ")"
    if k == SUB:
        return f"({pprint(e.args[0])} - {pprint(e.args[1])})"
    if k == MUL:
        return "(" + " * ".join(pprint(a) for a in e.args) + ")"
    if k == DIV:
        return f"({pprint(e.args[0])} / {pprint(e.args[1])})"
    if k == POW:
        return f"({pprint(e.args[0])} ^ {pprint(e.args[1])})"
    raise ExprError(f"unknown node kind {k!r}")


def _negated_term(a: Expr) -> Expr | None:
    """If a == (-c)*rest or a negative rational, return the flipped term."""
    if a.kind == RAT and a.value < 0:
        return Rat(-a.value)
    if a.kind == MUL and a.args[0].kind == RAT and a.args[0].value < 0:
        flipped = Rat(-a.args[0].value)
        rest = a.args[1:]
        if flipped.value == 1 and len(rest) == 1:
            return rest[0]
        if flipped.value == 1:
            return Expr(MUL, rest)
        return Expr(MUL, (flipped,) + rest)
    return None


# ---------------------------------------------------------------- evaluation

def evaluate(e: Expr, t: float, x: float, params: dict[str, float] | None = None) -> float:
    """Evaluate at (t, x) with every free parameter bound in ``params``."""
    params = params or {}
    return _eval(e, t, x, params)


def _eval(e: Expr, t, x, params) -> float:
    """Slow reference evaluator: every numeric failure is a DomainError
    that names the node and the point."""
    k = e.kind
    if k == RAT:
        try:
            return float(e.value)
        except OverflowError:
            raise DomainError(e, t, x, "constant beyond float range") from None
    if k == VAR:
        return t if e.name == "t" else x
    if k == PARAM:
        try:
            return float(params[e.name])
        except KeyError:
            raise UnboundParameterError(e.name) from None
    if k == ADD:
        terms = [_eval(a, t, x, params) for a in e.args]
        try:
            return math.fsum(terms)
        except OverflowError:
            raise DomainError(e, t, x, "overflow in sum") from None
        except ValueError:  # inf + -inf
            raise DomainError(e, t, x, "sum of opposite infinities") from None
    if k == SUB:
        return _eval(e.args[0], t, x, params) - _eval(e.args[1], t, x, params)
    if k == MUL:
        out = 1.0
        for a in e.args:
            out *= _eval(a, t, x, params)
        return out
    if k == DIV:
        num = _eval(e.args[0], t, x, params)
        den = _eval(e.args[1], t, x, params)
        if den == 0.0:
            raise DomainError(e, t, x, "division by zero")
        return num / den
    if k == NEG:
        return -_eval(e.args[0], t, x, params)
    if k == POW:
        base = _eval(e.args[0], t, x, params)
        expo = _eval(e.args[1], t, x, params)
        return _pow_guard(base, expo, e, t, x)
    if k == EXP:
        v = _eval(e.args[0], t, x, params)
        try:
            return math.exp(v)
        except OverflowError:
            raise DomainError(e, t, x, "overflow in exp") from None
    if k == LN:
        v = _eval(e.args[0], t, x, params)
        if v <= 0.0:
            raise DomainError(e, t, x, "ln of non-positive value")
        return math.log(v)
    if k == SQRT:
        v = _eval(e.args[0], t, x, params)
        if v < 0.0:
            raise DomainError(e, t, x, "sqrt of negative value")
        return math.sqrt(v)
    if k == SIN or k == COS:
        v = _eval(e.args[0], t, x, params)
        try:
            return (math.sin if k == SIN else math.cos)(v)
        except ValueError:  # an infinite argument
            raise DomainError(e, t, x, f"{k} of infinite value") from None
    raise ExprError(f"unknown node kind {k!r}")


def _pow_guard(base: float, expo: float, e: Expr, t, x) -> float:
    if base == 0.0 and expo < 0.0:
        raise DomainError(e, t, x, "zero raised to a negative power")
    if base < 0.0 and not float(expo).is_integer():
        raise DomainError(e, t, x, "negative base with fractional exponent")
    try:
        return base ** expo
    except OverflowError:
        raise DomainError(e, t, x, "overflow in power") from None


class _FastDomainSignal(Exception):
    pass


# what the fast path of a compiled function raises before it falls back to
# the slow evaluator
_FAST_ERRORS = (ValueError, ZeroDivisionError, OverflowError, _FastDomainSignal)


def _fast_pow(base, expo):
    if base == 0.0 and expo < 0.0:
        raise _FastDomainSignal
    if base < 0.0 and not expo.is_integer():
        raise _FastDomainSignal
    return base ** expo


_NAMESPACE = {"math": math, "_pw": _fast_pow}


def _check_bound(e: Expr, params: dict[str, float]) -> None:
    for name in free_params(e):
        if name not in params:
            raise UnboundParameterError(name)


def compile_fn(e: Expr, params: dict[str, float] | None = None):
    """Compile to a fast (t, x) -> float callable of finite t and x, with
    params frozen in.

    The fast path uses plain math ops; on any numeric-domain failure the slow
    evaluator re-runs to raise a DomainError locating the offending node.
    """
    params = params or {}
    _check_bound(e, params)
    fast = eval("lambda t, x: " + _pysrc(e, params), dict(_NAMESPACE))

    def fn(t: float, x: float) -> float:
        try:
            return fast(t, x)
        except _FAST_ERRORS:
            return _eval(e, t, x, params)

    return fn


def _define(name: str, args: str, body: list[str], namespace: dict):
    """Execute a generated ``def`` in namespace and return the function."""
    exec(f"def {name}({args}):\n" + "".join(f"    {line}\n" for line in body), namespace)
    return namespace[name]


def _value_lines(source: str, sink: str, indent: int = 0) -> list[str]:
    """Template source as body lines: its statements, then ``sink``
    applied to its last line, the value expression."""
    *statements, value = source.splitlines()
    return [" " * indent + line for line in (*statements, sink.format(value))]


def _fused(template: str, exprs: dict[str, Expr], params: dict[str, float] | None,
           point: str):
    """Fast-path source of ``template`` and the namespace it runs in.

    ``template`` is Python source in the names of ``point`` (t, x, v and
    channel values u0, u1..): statements, one a line, then the value
    expression.  Each field ``{name}`` stands for ``exprs[name]``, and the
    fast path inlines that expression's fast-path source.  The namespace's
    ``_slow(point)`` evaluates the template at one point over each
    expression's ``compile_fn`` callable instead; it is compiled on the
    first fast-path failure, which most series never meet.  Those callables
    raise only DomainError, so an OverflowError there comes from the
    template's own arithmetic (the exp of a channel value, a power of v),
    and ``_slow`` raises it as a DomainError of the template at that point.
    """
    params = params or {}
    for e in exprs.values():
        _check_bound(e, params)
    compiled = []

    def slow(*args):
        if not compiled:
            fns = [compile_fn(e, params) for e in exprs.values()]
            source = template.format(**{name: f"_f[{i}](t, x)" for i, name in enumerate(exprs)})
            compiled.append(_define("slow", point, _value_lines(source, "return {}"),
                                    {**_NAMESPACE, "_f": fns}))
        try:
            return compiled[0](*args)
        except OverflowError:
            shown = template.format(**{name: f"({e})" for name, e in exprs.items()})
            raise DomainError(shown, args[0], args[1], "overflow") from None

    fast = template.format(**{name: f"({_pysrc(e, params)})" for name, e in exprs.items()})
    namespace = {**_NAMESPACE, "_FAST_ERRORS": _FAST_ERRORS, "DomainError": DomainError,
                 "_slow": slow}
    return fast, namespace


def _point(channels: int) -> str:
    """Argument list of a point: t, x, v and the channel values u0, u1.."""
    return ", ".join(["t", "x", "v", *(f"u{i}" for i in range(channels))])


def velocity_poly(fields: dict[int, str], sign: int = 0, channel: str = "") -> str:
    """Template text of exp(sign*channel) * (c_0 + c_1*v + c_2*v^2 + ..),
    where the field ``fields[d]`` stands for c_d; sign 0 drops the
    exponential.  c_0 and c_1*v are written without a power of v, which
    changes no bit: v**0 is 1.0 and v**1 is v for every float v."""
    powers = {0: "", 1: "*v"}
    text = "0.0" + "".join(f" + {{{name}}}{powers.get(d, f'*v**{d}')}"
                           for d, name in sorted(fields.items()))
    return f"({text})*math.exp({sign}*{channel})" if sign else text


def compile_fused(template: str, exprs: dict[str, Expr],
                  params: dict[str, float] | None = None, channels: int = 0):
    """Compile several expressions and the arithmetic that combines them
    into one function ``fn(t, x, v, u0, ..)`` with one ``u`` per channel
    (see ``_fused`` for ``template``).

    On any fast-path failure the template runs again over the separate
    ``compile_fn`` callables, in its own order, so values and the
    DomainError raised are exactly those of the separate callables.
    """
    point = _point(channels)
    fast, namespace = _fused(template, exprs, params, point)
    body = ["try:", *_value_lines(fast, "return {}", 4),
            "except _FAST_ERRORS:",
            f"    return _slow({point})"]
    return _define("fused", point, body, namespace)


def compile_series(template: str, exprs: dict[str, Expr],
                   params: dict[str, float] | None = None, channels: int = 0):
    """``compile_fused`` as a loop over many points:
    ``fn(T, X, V, U0, ..) -> (values, err)`` over equal-length sequences of
    Python floats, one ``U`` per channel (``u0``.. in the template).

    Every point runs the fused fast path, or the fallback where it fails.
    The loop stops at the first point whose fallback raises a DomainError
    and returns it with the values before it, as a point-by-point loop
    over ``compile_fused`` would; other errors propagate.
    """
    point = _point(channels)
    fast, namespace = _fused(template, exprs, params, point)
    body = ["out = []",
            "append = out.append",
            f"for {point} in zip({point.upper()}):",
            "    try:", *_value_lines(fast, "append({})", 8),
            "    except _FAST_ERRORS:",
            "        try:",
            f"            append(_slow({point}))",
            "        except DomainError as err:",
            "            return out, err",
            "return out, None"]
    return _define("series", point.upper(), body, namespace)


def _literal(value) -> str | None:
    """Source of the float nearest ``value``, parenthesized when negative;
    None when it lies beyond float range.  float(Fraction) is the same
    integer true division as the source ``(n/d)``, so the bits agree."""
    try:
        text = repr(float(value))
    except OverflowError:
        return None
    return f"({text})" if text[0] == "-" else text


_MATH_NAMES = {EXP: "exp", LN: "log", SQRT: "sqrt", SIN: "sin", COS: "cos"}


def _pysrc(e: Expr, params) -> str:
    """Fast-path source of e; the operations that can leave the real domain
    raise one of _FAST_ERRORS."""
    k = e.kind
    if k == RAT:
        # a constant beyond float range fails at run time, and _eval says so
        return _literal(e.value) or f"({e.value.numerator}/{e.value.denominator})"
    if k == VAR:
        return e.name
    if k == PARAM:
        return _literal(params[e.name])
    args = [_pysrc(a, params) for a in e.args]
    if k == ADD:
        return "(" + "+".join(args) + ")"
    if k == SUB:
        return f"({args[0]}-{args[1]})"
    if k == MUL:
        return "(" + "*".join(args) + ")"
    if k == NEG:
        return f"(-{args[0]})"
    if k == DIV:
        return f"({args[0]}/{args[1]})"
    if k == POW:
        expo = e.args[1]
        if expo.kind == RAT and _literal(expo.value) is not None:
            # a constant exponent needs no guard call: ** and math.pow both
            # reach the C library's pow for a non-negative base, and both
            # raise where _fast_pow does for a finite one
            if expo.value.denominator == 1:
                return f"({args[0]})**{args[1]}"
            # math.pow takes a base of -inf (an overflowed intermediate) to
            # a fractional power, where _pw raises, so that base alone goes
            # to _pw; the base is evaluated once, into _b, and -1e999 is the
            # literal -inf
            return (f"(math.pow(_b,{args[1]}) if (_b:={args[0]}) != -1e999 "
                    f"else _pw(_b,{args[1]}))")
        return f"_pw({args[0]},{args[1]})"
    if k in _FUNCS:
        return f"math.{_MATH_NAMES[k]}({args[0]})"
    raise ExprError(f"unknown node kind {k!r}")


# ---------------------------------------------------------------- substitution

def substitute(e: Expr, var: str, replacement: Expr) -> Expr:
    """Replace every occurrence of variable ``var`` ('t' or 'x')."""
    if e.kind == VAR:
        return replacement if e.name == var else e
    if not e.args:
        return e
    return Expr(e.kind, tuple(substitute(a, var, replacement) for a in e.args),
                value=e.value, name=e.name)


# ---------------------------------------------------------------- derivative

def diff(e: Expr, var: str) -> Expr:
    """Symbolic partial derivative with respect to 't' or 'x', simplified;
    the normal form of ``e`` keeps it."""
    if var not in ("t", "x"):
        raise ValueError("var must be 't' or 'x'")
    s = simplify(e)
    slot = "_d_" + var
    d = getattr(s, slot)
    if d is None:
        d = simplify(_diff(s, var))
        setattr(s, slot, d)
    return d


def _diff(e: Expr, var: str) -> Expr:
    k = e.kind
    if k in (RAT, PARAM):
        return ZERO
    if k == VAR:
        return ONE if e.name == var else ZERO
    if k == ADD:
        return Expr(ADD, tuple(_diff(a, var) for a in e.args))
    if k == SUB:
        return Expr(SUB, (_diff(e.args[0], var), _diff(e.args[1], var)))
    if k == NEG:
        return Expr(NEG, (_diff(e.args[0], var),))
    if k == MUL:
        terms = []
        for i in range(len(e.args)):
            factors = list(e.args)
            factors[i] = _diff(e.args[i], var)
            terms.append(Expr(MUL, tuple(factors)))
        return Expr(ADD, tuple(terms)) if len(terms) > 1 else terms[0]
    if k == DIV:
        f, g = e.args
        num = Expr(SUB, (Expr(MUL, (_diff(f, var), g)), Expr(MUL, (f, _diff(g, var)))))
        return Expr(DIV, (num, Expr(POW, (g, Rat(2)))))
    if k == POW:
        base, c = e.args  # exponent is constant by construction
        down = Expr(POW, (base, Expr(ADD, (c, MINUS_ONE))))
        return Expr(MUL, (c, down, _diff(base, var)))
    if k == EXP:
        return Expr(MUL, (e, _diff(e.args[0], var)))
    if k == LN:
        return Expr(DIV, (_diff(e.args[0], var), e.args[0]))
    if k == SQRT:
        return Expr(DIV, (_diff(e.args[0], var), Expr(MUL, (Rat(2), e))))
    if k == SIN:
        return Expr(MUL, (Cos(e.args[0]), _diff(e.args[0], var)))
    if k == COS:
        return Expr(NEG, (Expr(MUL, (Sin(e.args[0]), _diff(e.args[0], var))),))
    raise ExprError(f"unknown node kind {k!r}")


# ---------------------------------------------------------------- simplify

def simplify(e: Expr) -> Expr:
    return _norm(e)


# what ``Expr._canon`` holds on a node that is its own normal form: a marker
# rather than the node itself, so that no node refers to itself, and one
# that a copied or unpickled node still holds
_CANONICAL = True


def _norm(e: Expr) -> Expr:
    """Normal form of e.  e keeps it, and it is marked as its own normal
    form: simplify is idempotent."""
    canon = e._canon
    if canon is not None:
        return e if canon is _CANONICAL else canon
    if e.kind in (RAT, PARAM, VAR):
        return e
    s = _rewrite(e)
    if s is e:
        e._canon = _CANONICAL
    else:
        e._canon = s
        s._canon = _CANONICAL
    return s


def _rewrite(e: Expr) -> Expr:
    k = e.kind
    if k == NEG:
        return _c_mul([MINUS_ONE, _norm(e.args[0])])
    if k == SUB:
        return _c_add([_norm(e.args[0]), _c_mul([MINUS_ONE, _norm(e.args[1])])])
    if k == DIV:
        return _c_mul([_norm(e.args[0]), _c_pow(_norm(e.args[1]), MINUS_ONE)])
    if k == SQRT:
        return _c_pow(_norm(e.args[0]), HALF)
    if k == ADD:
        return _c_add([_norm(a) for a in e.args])
    if k == MUL:
        return _c_mul([_norm(a) for a in e.args])
    if k == POW:
        return _c_pow(_norm(e.args[0]), _norm(e.args[1]))
    if k == EXP:
        return _c_exp(_norm(e.args[0]))
    if k == LN:
        return _c_ln(_norm(e.args[0]))
    if k == SIN:
        return _c_trig(SIN, _norm(e.args[0]))
    if k == COS:
        return _c_trig(COS, _norm(e.args[0]))
    raise ExprError(f"unknown node kind {k!r}")


def _key(e: Expr):
    if e._key is not None:
        return e._key
    k = e.kind
    if k == RAT:
        key = (0, float(e.value), e.value.numerator, e.value.denominator)
    elif k == PARAM:
        key = (1, e.name)
    elif k == VAR:
        key = (2, e.name)
    else:
        key = (3, k, tuple(_key(a) for a in e.args))
    e._key = key
    return key


def _as_coeff_core(term: Expr) -> tuple[Fraction, Expr | None]:
    """Split a canonical term into (rational coefficient, remaining core)."""
    if term.kind == RAT:
        return term.value, None
    if term.kind == MUL and term.args[0].kind == RAT:
        rest = term.args[1:]
        core = rest[0] if len(rest) == 1 else Expr(MUL, rest)
        return term.args[0].value, core
    return Fraction(1), term


def _with_coeff(c: Fraction, core: Expr | None) -> Expr | None:
    if c == 0:
        return None
    if core is None:
        return Rat(c)
    if c == 1:
        return core
    if core.kind == MUL:
        return Expr(MUL, (Rat(c),) + core.args)
    return Expr(MUL, (Rat(c), core))


def _c_add(args: list[Expr]) -> Expr:
    flat: list[Expr] = []
    for a in args:
        if a.kind == ADD:
            flat.extend(a.args)
        else:
            flat.append(a)
    acc: dict[Expr | None, Fraction] = {}
    order: list[Expr | None] = []
    for term in flat:
        c, core = _as_coeff_core(term)
        if core not in acc:
            acc[core] = Fraction(0)
            order.append(core)
        acc[core] += c
    out = []
    for core in order:
        rebuilt = _with_coeff(acc[core], core)
        if rebuilt is not None:
            out.append(rebuilt)
    if not out:
        return ZERO
    out.sort(key=_key)
    if len(out) == 1:
        return out[0]
    return Expr(ADD, tuple(out))


# Bit length above which exact powers stay symbolic: 2^(10^7) would fold to
# a 10-Mbit integer, and folded integers must still print within Python's
# 4300-digit int-to-string limit.
_MAX_FOLD_BITS = 4096


def _too_big(base: Fraction, n: int) -> bool:
    size = max(abs(base.numerator), base.denominator).bit_length()
    return size > 1 and size * abs(n) > _MAX_FOLD_BITS


def _rat_pow(base: Fraction, expo: Fraction) -> Fraction | None:
    """Exact rational power, or None when not exactly representable or
    larger than _MAX_FOLD_BITS."""
    if expo.denominator == 1:
        n = expo.numerator
        if base == 0:
            return Fraction(0) if n > 0 else (Fraction(1) if n == 0 else None)
        return None if _too_big(base, n) else base ** n
    if base == 0:
        return Fraction(0) if expo > 0 else None
    q = expo.denominator
    if base < 0 and q % 2 == 0:
        return None
    rn = _exact_root(base.numerator, q)
    rd = _exact_root(base.denominator, q)
    if rn is None or rd is None:
        return None
    root = Fraction(rn, rd)
    return None if _too_big(root, expo.numerator) else root ** expo.numerator


def _exact_root(n: int, q: int) -> int | None:
    if n < 0:
        if q % 2 == 0:
            return None
        r = _exact_root(-n, q)
        return None if r is None else -r
    if n < 2:
        return n
    if q >= n.bit_length():  # 1 < root < 2; and 2**q would be huge
        return None
    try:
        r = round(n ** (1.0 / q))
    except OverflowError:  # n beyond the float range
        return None
    for cand in (r - 1, r, r + 1):
        if cand >= 0 and cand ** q == n:
            return cand
    return None


def _c_pow(base: Expr, expo: Expr) -> Expr:
    if depends_on(expo, "t") or depends_on(expo, "x"):
        raise NonConstantExponentError(f"exponent {expo} depends on t or x")
    if expo.kind == RAT:
        if expo.value == 0:
            return ONE
        if expo.value == 1:
            return base
    if base.kind == RAT and expo.kind == RAT:
        folded = _rat_pow(base.value, expo.value)
        if folded is not None:
            return Rat(folded)
        return Expr(POW, (base, expo))
    if base.kind == EXP:
        return _c_exp(_c_mul([expo, base.args[0]]))
    if base.kind == POW:
        inner_expo = base.args[1]
        outer_int = expo.kind == RAT and expo.value.denominator == 1
        inner_odd_int = (
            inner_expo.kind == RAT
            and inner_expo.value.denominator == 1
            and inner_expo.value.numerator % 2 == 1
        )
        # (b^k)^m folds only when sound without sign info: integer m, or odd k
        if outer_int or inner_odd_int:
            return _c_pow(base.args[0], _c_mul([inner_expo, expo]))
        return Expr(POW, (base, expo))
    if base.kind == MUL:
        is_int = expo.kind == RAT and expo.value.denominator == 1
        if is_int:
            return _c_mul([_c_pow(f, expo) for f in base.args])
        if base.args[0].kind == RAT and base.args[0].value > 0:
            # pull the positive rational coefficient through the root
            coeff = _c_pow(base.args[0], expo)
            rest = base.args[1:]
            rest_e = rest[0] if len(rest) == 1 else Expr(MUL, rest)
            return _c_mul([coeff, _c_pow(rest_e, expo)])
    return Expr(POW, (base, expo))


def _c_exp(arg: Expr) -> Expr:
    if arg.kind == RAT and arg.value == 0:
        return ONE
    if arg.kind == LN:
        return arg.args[0]
    terms = arg.args if arg.kind == ADD else (arg,)
    pow_factors: list[Expr] = []
    residual: list[Expr] = []
    for term in terms:
        extracted = _ln_term_to_pow(term)
        if extracted is not None:
            pow_factors.append(extracted)
        else:
            residual.append(term)
    if not pow_factors:
        return Expr(EXP, (arg,))
    factors = pow_factors
    if residual:
        res = residual[0] if len(residual) == 1 else Expr(ADD, tuple(residual))
        factors = factors + [Expr(EXP, (res,))]
    return _c_mul(factors)


def _ln_term_to_pow(term: Expr) -> Expr | None:
    """Rewrite a constant multiple of ln(u) as u^c; None when not of that shape."""
    if term.kind == LN:
        return term.args[0]
    if term.kind == MUL:
        ln_args = [f for f in term.args if f.kind == LN]
        others = [f for f in term.args if f.kind != LN]
        if len(ln_args) == 1 and all(is_constant(f) for f in others):
            c = others[0] if len(others) == 1 else Expr(MUL, tuple(others))
            return _c_pow(ln_args[0].args[0], c)
    return None


def _c_ln(arg: Expr) -> Expr:
    if arg.kind == RAT and arg.value == 1:
        return ZERO
    if arg.kind == EXP:
        return arg.args[0]
    if arg.kind == POW:
        return _c_mul([arg.args[1], _c_ln(arg.args[0])])
    return Expr(LN, (arg,))


def _c_trig(kind: str, arg: Expr) -> Expr:
    if arg.kind == RAT and arg.value == 0:
        return ZERO if kind == SIN else ONE
    c, core = _as_coeff_core(arg)
    if c < 0:
        flipped = _with_coeff(-c, core)
        if kind == SIN:
            return _c_mul([MINUS_ONE, Expr(SIN, (flipped,))])
        return Expr(COS, (flipped,))
    return Expr(kind, (arg,))


def _c_mul(args: list[Expr]) -> Expr:
    # flatten, then expand products over sums to reach sum-of-products form
    flat: list[Expr] = []
    for a in args:
        if a.kind == MUL:
            flat.extend(a.args)
        else:
            flat.append(a)
    if any(f.kind == ADD for f in flat):
        terms: list[list[Expr]] = [[]]
        for f in flat:
            if f.kind == ADD:
                terms = [t + [sub] for t in terms for sub in f.args]
            else:
                for t in terms:
                    t.append(f)
        return _c_add([_c_mul_flat(t) for t in terms])
    return _c_mul_flat(flat)


def _c_mul_flat(factors: list[Expr]) -> Expr:
    """Product of canonical non-ADD factors."""
    work = list(factors)
    for _ in range(8):  # exp extraction can feed new factors back in once
        flat: list[Expr] = []
        for f in work:
            if f.kind == MUL:
                flat.extend(f.args)
            else:
                flat.append(f)
        work = flat
        coeff = Fraction(1)
        powers: dict[Expr, list[Expr]] = {}
        order: list[Expr] = []
        exp_args: list[Expr] = []
        for f in work:
            if f.kind == RAT:
                coeff *= f.value
            elif f.kind == EXP:
                exp_args.append(f.args[0])
            elif f.kind == POW:
                b, c = f.args
                if b not in powers:
                    powers[b] = []
                    order.append(b)
                powers[b].append(c)
            else:
                if f not in powers:
                    powers[f] = []
                    order.append(f)
                powers[f].append(ONE)
        if coeff == 0:
            return ZERO
        out: list[Expr] = []
        retry: list[Expr] = []
        for b in order:
            total = _c_add(powers[b])
            merged = _c_pow(b, total)
            if merged.kind == RAT:
                coeff *= merged.value
            elif merged.kind == MUL or merged.kind == EXP:
                retry.append(merged)  # e.g. pulled-out root coefficient
            elif merged.kind == ADD:
                retry.append(merged)
            else:
                out.append(merged)
        if exp_args:
            total = _c_add(exp_args)
            merged = _c_exp(total)
            if merged.kind == EXP:
                out.append(merged)
            elif merged.kind == RAT:
                coeff *= merged.value
            else:
                retry.append(merged)
        if not retry:
            if coeff == 0:
                return ZERO
            out.sort(key=_key)
            if not out:
                return Rat(coeff)
            if coeff != 1:
                out = [Rat(coeff)] + out
            if len(out) == 1:
                return out[0]
            return Expr(MUL, tuple(out))
        work = out + retry
        if coeff != 1:
            work.append(Rat(coeff))
        if any(f.kind == ADD for f in work):
            return _c_mul(work)
    raise ExprError("product normalization did not converge")


# ---------------------------------------------------------------- zero check

# sample points of every identically-zero test and sampled hypothesis check
SAMPLES = 64

def _halton(i: int, base: int) -> float:
    f, r = 1.0, 0.0
    while i > 0:
        f /= base
        r += f * (i % base)
        i //= base
    return r


@functools.lru_cache(maxsize=8)
def _unit_points(n: int) -> tuple[tuple[float, float], ...]:
    """The first n Halton (2, 3) points of the unit square, computed once."""
    return tuple((_halton(i, 2), _halton(i, 3)) for i in range(1, n + 1))


def sample_points(domain: tuple[float, float, float, float], n: int):
    """n quasi-random (t, x) points in [tmin,tmax] x [xmin,xmax] (Halton 2,3)."""
    tmin, tmax, xmin, xmax = domain
    return [(tmin + ht * (tmax - tmin), xmin + hx * (xmax - xmin))
            for ht, hx in _unit_points(n)]


def _monomial(term: Expr) -> tuple[int, int] | None:
    """(i, j) of a term c*t^i*x^j with rational c != 0 and natural i, j;
    None for any other term."""
    degree = {"t": 0, "x": 0}
    for factor in term.args if term.kind == MUL else (term,):
        if factor.kind == RAT:
            if factor.value == 0:
                return None
            continue
        base, expo = factor.args if factor.kind == POW else (factor, ONE)
        if not (base.kind == VAR and expo.kind == RAT
                and expo.value.denominator == 1 and expo.value > 0):
            return None
        degree[base.name] += int(expo.value)
    return degree["t"], degree["x"]


def _nonzero_polynomial(s: Expr) -> bool:
    """Whether s is a sum of monomials c*t^i*x^j with rational c != 0 and
    distinct (i, j): a nonzero polynomial, which no box of positive area
    makes vanish.  A power of a sum, which the normal form does not
    expand, is not a monomial, so such a residual is sampled."""
    degrees = set()
    for term in s.args if s.kind == ADD else (s,):
        degree = _monomial(term)
        if degree is None or degree in degrees:
            return False
        degrees.add(degree)
    return True


class ZeroCheck:
    """Outcome of an identically-zero test; ``structural`` marks a zero
    established by simplification alone."""

    __slots__ = ("is_zero", "structural", "skipped", "warning", "max_residual")

    def __init__(self, is_zero, structural, skipped=0, warning=None, max_residual=0.0):
        self.is_zero = is_zero
        self.structural = structural
        self.skipped = skipped
        self.warning = warning
        self.max_residual = max_residual

    def __bool__(self):
        return self.is_zero


def zero_check(e: Expr, domain: tuple[float, float, float, float],
               samples: int = SAMPLES, params: dict[str, float] | None = None) -> ZeroCheck:
    """Structural-then-numeric test of e == 0 on the domain rectangle.

    A normal form of 0 is zero (``structural``); one that is a sum of
    distinct monomials c*t^i*x^j with rational c is a nonzero polynomial,
    decided without sampling.  Numeric fallback: |e| < 1e-12 * (1 + scale)
    at every sample point, where scale is the largest magnitude among the
    un-cancelled top-level terms.  Sample points hitting domain errors are
    skipped; more than half skipped raises IllPosedDomainError.
    """
    if samples < 16:
        raise ValueError("samples must be >= 16")
    s = simplify(e)
    if s.kind == RAT and s.value == 0:
        return ZeroCheck(True, structural=True)
    if _nonzero_polynomial(s):
        return ZeroCheck(False, structural=False)
    params = params or {}
    terms = s.args if s.kind == ADD else (s,)
    skipped = 0
    worst = 0.0
    ok = True
    for (tv, xv) in sample_points(domain, samples):
        try:
            vals = [_eval(term, tv, xv, params) for term in terms]
        except DomainError:
            skipped += 1
            continue
        # the fsum of the terms is what _eval computes for an ADD
        resid = abs(math.fsum(vals) if s.kind == ADD else vals[0])
        scale = max(abs(v) for v in vals)
        worst = max(worst, resid)
        if not resid < 1e-12 * (1.0 + scale):
            ok = False
            break
    if skipped > samples // 2:
        raise IllPosedDomainError(
            f"{skipped}/{samples} sample points hit domain errors")
    if ok:
        warning = ("zero established by sampling only; "
                   "structural simplification left " + pprint(s))
        return ZeroCheck(True, structural=False, skipped=skipped,
                         warning=warning, max_residual=worst)
    return ZeroCheck(False, structural=False, skipped=skipped, max_residual=worst)


def is_identically_zero(e: Expr, domain: tuple[float, float, float, float],
                        samples: int = SAMPLES, params: dict[str, float] | None = None) -> bool:
    return zero_check(e, domain, samples, params).is_zero
