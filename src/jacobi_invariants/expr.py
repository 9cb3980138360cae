"""Immutable expression trees in the variables t and x.

Constants are exact rationals (decimal literals are converted on parse), so
cancellations like (1/2)*2 = 1 are structural rather than floating-point.
A constant's value is an ``int`` when integral and a ``Fraction`` (with a
denominator above 1) otherwise; the two compare and hash alike.  The
simplifier folds constants on (numerator, denominator) integer pairs and
builds one value per result; the parser divides constants through
``Fraction``.
Named identifiers other than t and x are free scalar parameters.  Exponents
of ``^`` are restricted to constant (t,x-free) expressions.
Every tree has the normal form's ten node kinds: a - b, a / b, -a and
sqrt(a) are built as a + (-1)*b, a * b^(-1), (-1)*a and a^(1/2).

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
import operator
from fractions import Fraction

# node kinds
RAT = "rat"
PARAM = "param"
VAR = "var"
ADD = "add"
MUL = "mul"
POW = "pow"
EXP = "exp"
LN = "ln"
SIN = "sin"
COS = "cos"

_FUNCS = (EXP, LN, SIN, COS)
_KIND = operator.attrgetter("kind")


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
    """Evaluation left the real domain (ln<=0, zero to a negative power...).
    ``expr`` is the failing node, or the source of a compiled template whose
    own arithmetic overflowed."""

    def __init__(self, expr: "Expr | str", t: float, x: float, reason: str):
        t, x = float(t), float(x)
        node = ""  # printed only as far as it is shown
        for piece in (expr,) if isinstance(expr, str) else _pieces(expr):
            node += piece
            if len(node) > _MAX_NODE_TEXT:
                node = node[:_MAX_NODE_TEXT - 1] + "…"
                break
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


class ExpressionTooLargeError(ExprError):
    """A tree too large to print or compile (``_check_written``, ``_code``)."""


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
        self.args = args if type(args) is tuple else tuple(args)
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
            value = self.value
            if type(value) is Fraction:
                # the reduced pair hashes without Fraction's modular inverse
                value = value.as_integer_ratio()
            self._hash = hash((self.kind, value, self.name, self.args))
        return self._hash

    def __repr__(self):
        return f"Expr({pprint(self)})"

    def __str__(self):
        return pprint(self)

    # arithmetic sugar; raw trees of the normal form's kinds, call simplify() for the form
    def __add__(self, other):
        return Expr(ADD, (self, _coerce(other)))

    def __radd__(self, other):
        return Expr(ADD, (_coerce(other), self))

    def __sub__(self, other):
        return Expr(ADD, (self, -_coerce(other)))

    def __rsub__(self, other):
        return Expr(ADD, (_coerce(other), -self))

    def __mul__(self, other):
        return Expr(MUL, (self, _coerce(other)))

    def __rmul__(self, other):
        return Expr(MUL, (_coerce(other), self))

    def __truediv__(self, other):
        return Expr(MUL, (self, Expr(POW, (_coerce(other), MINUS_ONE))))

    def __rtruediv__(self, other):
        return Expr(MUL, (_coerce(other), Expr(POW, (self, MINUS_ONE))))

    def __pow__(self, other):
        return Expr(POW, (self, _coerce(other)))

    def __neg__(self):
        return Expr(MUL, (MINUS_ONE, self))


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
    """The constant v, or v/q exactly: an int when integral, else a Fraction."""
    if type(v) is int and q is None:
        return Expr(RAT, value=v)
    if q is not None or not isinstance(v, (int, Fraction)):
        v = Fraction(v, q)
    return Expr(RAT, value=v.numerator if v.denominator == 1 else v)


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
    return Expr(POW, (_coerce(a), HALF))


def Sin(a) -> Expr:
    return Expr(SIN, (_coerce(a),))


def Cos(a) -> Expr:
    return Expr(COS, (_coerce(a),))


# ---------------------------------------------------------------- queries

def depends_on(e: Expr, var: str) -> bool:
    """Structural dependence of e on variable name 't' or 'x'."""
    if e.kind == VAR:
        return e.name == var
    return any(depends_on(a, var) for a in e.args)


def is_constant(e: Expr) -> bool:
    """True when e contains neither t nor x (parameters allowed)."""
    return not depends_on(e, "t") and not depends_on(e, "x")


# ---------------------------------------------------------------- parsing

_KNOWN_FUNCS = {"exp": Exp, "ln": Ln, "sqrt": Sqrt, "sin": Sin, "cos": Cos}


# Nesting levels (parentheses, unary minus and exponents) the parser
# accepts.  Each costs about five Python frames of the descent, so this
# stays well inside the interpreter's default recursion limit of 1000.
_MAX_PARSE_DEPTH = 100

# Operands of one sum or product, parsed or written: a chain is one n-ary
# node, one frame of a walker, and its source stays inside the compiler.
_MAX_OPERANDS = 1000


def _tokens(text: str) -> list[tuple[str, str, int]]:
    """The tokens of text as (kind, text, offset), kind "num", "ident" or
    the operator's own character, closed by an "end" token."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c, j = text[i], i + 1
        if c.isdigit() or (c == "." and text[j:j + 1].isdigit()):
            while j < n and (text[j].isdigit() or text[j] == "." and "." not in text[i:j]):
                j += 1
            tokens.append(("num", text[i:j], i))
        elif c.isalpha() or c == "_":
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
        elif c in "+-*/^()":
            tokens.append((c, c, i))
        elif not c.isspace():
            raise ParseError(f"unexpected character {c!r}", i)
        i = j
    tokens.append(("end", "", n))
    return tokens


def parse(text: str) -> Expr:
    """Parse infix text to an expression tree.

    Grammar: ``+ - * / ^`` with standard precedence (``^`` highest and
    right-associative, then unary minus, then ``* /``, then ``+ -``),
    functions exp/ln/sqrt/sin/cos, variables t and x, integer and decimal
    literals, any other identifier as a named parameter.  Each chain of
    ``+ -`` is one sum and each chain of ``* /`` one product.
    """
    tokens = _tokens(text)
    e, i = _parse_sum(tokens, 0, 0)
    kind, val, off = tokens[i]
    if kind != "end":
        raise ParseError(f"unexpected trailing input {val!r}", off)
    return e


# The descent reads the token list from index i and returns the node it
# read with the index after it; depth counts the enclosing parentheses,
# unary minus signs and exponents.

def _parse_sum(tokens, i, depth):
    """A sum; a - b contributes the term (-1)*b."""
    e, i = _parse_term(tokens, i, depth)
    terms = [e]
    kind, _, off = tokens[i]
    while kind == "+" or kind == "-":
        if len(terms) == _MAX_OPERANDS:
            raise ParseError(f"sum of more than {_MAX_OPERANDS} terms", off)
        e, i = _parse_term(tokens, i + 1, depth)
        terms.append(e if kind == "+" else Expr(MUL, (MINUS_ONE, e)))
        kind, _, off = tokens[i]
    return (e if len(terms) == 1 else Expr(ADD, terms)), i


def _parse_term(tokens, i, depth):
    """A product; a / b contributes the factor b^(-1), and a leading run of
    rational factors folds into one."""
    e, i = _parse_unary(tokens, i, depth)
    factors = [e]
    count = 1  # folded factors count too
    kind, _, off = tokens[i]
    while kind == "*" or kind == "/":
        if count == _MAX_OPERANDS:
            raise ParseError(f"product of more than {_MAX_OPERANDS} factors", off)
        count += 1
        e, i = _parse_unary(tokens, i + 1, depth)
        lead = factors[0]
        if (len(factors) == 1 and lead.kind == RAT and e.kind == RAT
                and (kind == "*" or e.value != 0)):
            factors[0] = Rat(lead.value * e.value) if kind == "*" else Rat(lead.value, e.value)
        else:
            factors.append(e if kind == "*" else Expr(POW, (e, MINUS_ONE)))
        kind, _, off = tokens[i]
    return (factors[0] if len(factors) == 1 else Expr(MUL, factors)), i


def _parse_unary(tokens, i, depth):
    """A negated operand, or an atom and its exponent."""
    kind, _, off = tokens[i]
    if depth > _MAX_PARSE_DEPTH:
        raise ParseError(f"expression nested deeper than {_MAX_PARSE_DEPTH} levels", off)
    if kind == "-":
        e, i = _parse_unary(tokens, i + 1, depth + 1)
        return (Rat(-e.value) if e.kind == RAT else Expr(MUL, (MINUS_ONE, e))), i
    base, i = _parse_atom(tokens, i, depth)
    kind, _, off = tokens[i]
    if kind != "^":
        return base, i
    expo, i = _parse_unary(tokens, i + 1, depth + 1)  # right-associative, allows x^-2
    if depends_on(expo, "t") or depends_on(expo, "x"):
        raise ParseError("exponent must be a constant expression", off)
    if base.kind == RAT and expo.kind == RAT and expo.value.denominator == 1:
        folded = _rat_pow(base.value, expo.value)
        if folded is not None:
            return Rat(folded), i
    return Expr(POW, (base, expo)), i


def _parse_atom(tokens, i, depth):
    kind, val, off = tokens[i]
    if kind == "num":
        try:
            return Rat(int(val) if val.isascii() and val.isdigit() else Fraction(val)), i + 1
        except ValueError as err:  # beyond the int-from-string digit limit
            raise ParseError(str(err), off) from None
    if kind == "ident":
        if tokens[i + 1][0] == "(":
            if val not in _KNOWN_FUNCS:
                raise ParseError(f"unknown function {val!r}", off)
            arg, i = _parse_group(tokens, i + 2, depth)
            return _KNOWN_FUNCS[val](arg), i
        return (T if val == "t" else X if val == "x" else Param(val)), i + 1
    if kind == "(":
        return _parse_group(tokens, i + 1, depth)
    raise ParseError(f"unexpected token {val!r}" if val else "unexpected end of input", off)


def _parse_group(tokens, i, depth):
    """A parenthesized sum, from the token after its '(' through its ')'."""
    e, i = _parse_sum(tokens, i, depth + 1)
    kind, _, off = tokens[i]
    if kind != ")":
        raise ParseError("expected ')'", off)
    return e, i + 1


# ---------------------------------------------------------------- printing

def pprint(e: Expr) -> str:
    """Fully parenthesized infix form; re-parses to the same canonical tree.
    A sum prints a term (-c)*rest as a subtraction of c*rest."""
    _check_written((e,))
    return "".join(_pieces(e))


def _pieces(e: Expr):
    """The text of e, piece by piece, left to right."""
    k = e.kind
    if k == RAT:
        n, d = e.value.as_integer_ratio()
        if d == 1:
            yield f"(-{_decimal(-n)})" if n < 0 else _decimal(n)
        else:
            # fractions always need parens: x ^ 3/2 would re-parse as (x^3)/2
            yield f"({'-' if n < 0 else ''}{_decimal(abs(n))}/{_decimal(d)})"
    elif k == PARAM or k == VAR:
        yield e.name
    elif k in _FUNCS:
        yield f"{k}("
        yield from _pieces(e.args[0])
        yield ")"
    elif k == ADD:
        yield "("
        yield from _pieces(e.args[0])
        for a in e.args[1:]:
            neg = _negated_term(a)
            yield " + " if neg is None else " - "
            yield from _pieces(a if neg is None else neg)
        yield ")"
    elif k == MUL or k == POW:
        op = " * " if k == MUL else " ^ "
        for i, a in enumerate(e.args):
            yield op if i else "("
            yield from _pieces(a)
        yield ")"
    else:
        raise ExprError(f"unknown node kind {k!r}")


def _decimal(n: int) -> str:
    """str(n) for n >= 0, also past Python's 4300-digit int-to-string
    limit, which folded constants can pass: a longer n is written in halves."""
    if n.bit_length() <= 13_000:  # at most 3914 digits
        return str(n)
    k = n.bit_length() * 3 // 20  # about half the digits: log10(2) = 0.30103
    hi, lo = divmod(n, 10 ** k)
    return _decimal(hi) + _decimal(lo).zfill(k)


# nodes that pprint or a generated source may write, a shared node once per
# use; the benchmark's largest normal forms have about 200
_MAX_TREE_NODES = 1_000_000


def _check_written(exprs, params: dict[str, float] | None = None) -> None:
    """Raise ExpressionTooLargeError unless the trees of exprs hold at most
    _MAX_TREE_NODES nodes together and no sum or product more than
    _MAX_OPERANDS operands, and, given params, UnboundParameterError for a
    parameter they do not bind.  Tree sizes are kept by node identity, so
    the walk visits each node of the DAG once."""
    sizes: dict[int, int] = {}

    def size(e: Expr) -> int:
        if id(e) not in sizes:
            if len(e.args) > _MAX_OPERANDS:
                raise ExpressionTooLargeError(
                    f"expression too large: a {'sum' if e.kind == ADD else 'product'} "
                    f"of {len(e.args)} operands, more than {_MAX_OPERANDS}")
            if e.kind == PARAM and params is not None and e.name not in params:
                raise UnboundParameterError(e.name)
            sizes[id(e)] = 1 + sum(map(size, e.args))
        return sizes[id(e)]

    total = sum(map(size, exprs))
    if total > _MAX_TREE_NODES:
        raise ExpressionTooLargeError(
            f"expression too large: {total} tree nodes, more than {_MAX_TREE_NODES}")


def _negated_term(a: Expr) -> Expr | None:
    """If a == (-c)*rest or a negative rational, return the flipped term."""
    if a.kind == RAT and a.value < 0:
        return Rat(-a.value)
    if a.kind == MUL and a.args[0].kind == RAT and a.args[0].value < 0:
        flipped = Rat(-a.args[0].value)
        rest = a.args[1:]
        if flipped.value == 1:
            return rest[0] if len(rest) == 1 else Expr(MUL, rest)
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
        value = _key(e)[1]
        if math.isinf(value):
            raise DomainError(e, t, x, "constant beyond float range")
        return value
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
    if k == MUL:
        out = 1.0
        for a in e.args:
            out *= _eval(a, t, x, params)
        return out
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


# what the fast path of a compiled function raises before it falls back to
# the slow evaluator
_FAST_ERRORS = (ValueError, ZeroDivisionError, OverflowError)


def _fast_pow(base, expo):
    """base ** expo, raising ValueError where math.pow does for a finite base."""
    if base == 0.0 and expo < 0.0:
        raise ValueError
    if base < 0.0 and not expo.is_integer():
        raise ValueError
    return base ** expo


_NAMESPACE = {"math": math, "_pw": _fast_pow, "_eval": _eval}


def _param_name(name: str) -> str:
    """The name a parameter's value is bound to in generated source: ``_p_``
    and the parameter's own name when that is an ASCII identifier, else
    ``_pu_`` and its UTF-8 bytes in hex (Python folds other identifiers
    under NFKC, so two parameters could meet in one name)."""
    if name.isascii() and name.isidentifier():
        return f"_p_{name}"
    return f"_pu_{name.encode().hex()}"


def _bindings(params: dict[str, float]) -> dict[str, float]:
    """Namespace entries that bind each parameter's generated-source name
    to its value, as a float, as ``_eval`` reads it."""
    return {_param_name(name): float(value) for name, value in params.items()}


@functools.lru_cache(maxsize=128)
def _code(name: str, args: str, body: tuple[str, ...]):
    """The compiled code of the generated function ``def name(args):``
    with the source lines ``body``; the source text is built only here,
    on a miss.  A source names parameters instead of writing their
    values, so a parameter sweep repeats a few sources; a run of distinct
    problems repeats none, hence the bound."""
    source = f"def {name}({args}):\n" + "".join(f"    {line}\n" for line in body)
    try:
        return compile(source, "<generated>", "exec")
    except (RecursionError, SyntaxError) as err:  # nested past the compiler's limits
        raise ExpressionTooLargeError(f"expression too large to compile: {err}") from None


def _define(name: str, args: str, body: tuple[str, ...] | list[str], namespace: dict):
    """Define a generated function in namespace and return it.  Each
    distinct function is compiled once (while it stays in ``_code``'s
    cache); the namespace, parameter values included, is bound anew.  A
    caller that keeps one body tuple per shape (``integrate._loop_body``)
    passes it as is, and its lines' hashes are cached, so a hit costs
    little more than the lookup."""
    exec(_code(name, args, tuple(body)), namespace)
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
    ``_slow(point)``, compiled on its first call, evaluates the template
    over ``_eval`` instead: ``evaluate``'s values or its DomainError.  An
    OverflowError there comes from the template's own arithmetic (the exp
    of a channel value, a power of v), and is raised as a DomainError of
    the template at that point.
    """
    params = params or {}
    _check_written(exprs.values(), params)
    compiled = []

    def slow(*args):
        if not compiled:
            source = template.format(**{name: f"_eval(_e[{i}], t, x, _params)"
                                        for i, name in enumerate(exprs)})
            compiled.append(_define("slow", point, _value_lines(source, "return {}"),
                                    {**_NAMESPACE, "_e": list(exprs.values()), "_params": params}))
        try:
            return compiled[0](*args)
        except OverflowError:
            shown = template.format(**{name: f"({e})" for name, e in exprs.items()})
            raise DomainError(shown, args[0], args[1], "overflow") from None

    fast = template.format(**{name: f"({_pysrc(e)})" for name, e in exprs.items()})
    namespace = {**_NAMESPACE, **_bindings(params), "_FAST_ERRORS": _FAST_ERRORS,
                 "_slow": slow, "_finish": _finish}
    return fast, namespace


def _finish(slow, out: list, points) -> tuple[list, DomainError | None]:
    """A series block's values out at points, and the DomainError that cut
    them short: where their sum is not finite, each value that is inf or
    nan becomes ``slow``'s at its point, up to the first that raises."""
    total = sum(out)  # a sum of finite values is finite unless it overflows
    if total - total == 0.0:
        return out, None
    for i, (value, point) in enumerate(zip(out, points)):
        if value - value != 0.0:  # inf or nan
            try:
                out[i] = slow(*point)
            except DomainError as err:
                del out[i:]
                return out, err
    return out, None


def _point(channels: int) -> str:
    """Argument list of a point: t, x, v and the channel values u0, u1.."""
    return ", ".join(["t", "x", "v", *(f"u{i}" for i in range(channels))])


def velocity_poly(fields: dict[int, str], sign: int = 0, channel: str = "") -> str:
    """Template text of exp(sign*channel) * (c_0 + c_1*v + c_2*v^2 + ..),
    where the field ``fields[d]`` stands for c_d; sign 0 drops the
    exponential, and so do no fields: a zero polynomial is 0.0 whatever
    its dressing, whose value may leave float range.  c_0 and c_1*v are
    written without a power of v, which changes no bit: v**0 is 1.0 and
    v**1 is v for every float v."""
    powers = {0: "", 1: "*v"}
    text = "0.0" + "".join(f" + {{{name}}}{powers.get(d, f'*v**{d}')}"
                           for d, name in sorted(fields.items()))
    return f"({text})*math.exp({sign}*{channel})" if sign and fields else text


def compile_fn(e: Expr, params: dict[str, float] | None = None):
    """Compile to a fast (t, x) -> float function of finite t and x, with
    params bound in: ``_fused``'s one-expression case.  Where the fast path
    raises or gives inf or nan, which float products and sums reach without
    an error, it gives ``_slow``'s result: ``evaluate``'s value (an
    overflowed product is inf for both) or its DomainError (inf - inf is
    "sum of opposite infinities")."""
    fast, namespace = _fused("{e}", {"e": e}, params, "t, x")
    body = ["try:", *_value_lines(fast, "value = {}", 4),
            "except _FAST_ERRORS:",
            "    return _slow(t, x)",
            # value - value is 0.0 for a finite value, nan for inf or nan
            "return value if value - value == 0.0 else _slow(t, x)"]
    return _define("fast", "t, x", body, namespace)


def compile_fused(template: str, exprs: dict[str, Expr],
                  params: dict[str, float] | None = None, channels: int = 0):
    """Compile several expressions and the arithmetic that combines them
    into one function ``fn(t, x, v, u0, ..)`` with one ``u`` per channel
    (see ``_fused`` for ``template``).  Where the fast path raises, it
    gives ``_slow``'s result.  An inf or nan is returned as it is: the
    integration loop that calls it rejects a step with a stage that is not
    finite, and a test in every call would slow that loop by about a sixth.
    """
    point = _point(channels)
    fast, namespace = _fused(template, exprs, params, point)
    body = ["try:", *_value_lines(fast, "return {}", 4),
            "except _FAST_ERRORS:",
            f"    return _slow({point})"]
    return _define("fused", point, body, namespace)


def compile_series(template: str, exprs: dict[str, Expr],
                   params: dict[str, float] | None = None, channels: int = 0):
    """A float-valued template at many points, under ``compile_fn``'s rule:
    ``fn(T, X, V, U0, ..) -> (values, err)`` over equal-length sequences of
    Python floats, one ``U`` per channel (``u0``.. in the template).  The
    values stop at the first point where ``_slow`` raises a DomainError,
    which is err, as in a point-by-point loop; other errors propagate.  A
    point where the fast path raises reads nan until ``_finish``.
    """
    point = _point(channels)
    columns = point.upper()
    fast, namespace = _fused(template, exprs, params, point)
    body = ["out = []",
            "append = out.append",
            f"for {point} in zip({columns}):",
            "    try:", *_value_lines(fast, "append({})", 8),
            "    except _FAST_ERRORS:",
            "        append(math.nan)",
            f"return _finish(_slow, out, zip({columns}))"]
    return _define("series", columns, body, namespace)


def _literal(value) -> str | None:
    """Source of the float nearest ``value``, parenthesized when negative;
    None when it lies beyond float range.  float() is the same integer
    true division as the source ``(n/d)``, so the bits agree."""
    try:
        text = repr(float(value))
    except OverflowError:
        return None
    return f"({text})" if text[0] == "-" else text


def _pysrc(e: Expr) -> str:
    """Fast-path source of e; the operations that can leave the real domain
    raise one of _FAST_ERRORS.  A parameter is written as its name
    (``_param_name``), bound in the namespace the source runs in, so the
    source depends only on the structure of e.  The values are the bits a
    literal would give: CPython folds an operation on literals with the
    same IEEE operation that runs on the names at run time."""
    k = e.kind
    if k == RAT:
        # a constant beyond float range fails at run time, and _eval says so;
        # hexadecimal literals have no digit limit
        return _literal(e.value) or "({:#x}/{:#x})".format(*e.value.as_integer_ratio())
    if k == VAR:
        return e.name
    if k == PARAM:
        return _param_name(e.name)
    args = [_pysrc(a) for a in e.args]
    if k == ADD:
        return "(" + "+".join(args) + ")"
    if k == MUL:
        return "(" + "*".join(args) + ")"
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
    if k in _FUNCS:  # each is named as its math function, but for ln
        return f"math.{'log' if k == LN else k}({args[0]})"
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
    if k == MUL:
        terms = []
        for i in range(len(e.args)):
            factors = list(e.args)
            factors[i] = _diff(e.args[i], var)
            terms.append(Expr(MUL, tuple(factors)))
        return Expr(ADD, tuple(terms)) if len(terms) > 1 else terms[0]
    if k == POW:
        base, c = e.args  # exponent is constant by construction
        down = Expr(POW, (base, Expr(ADD, (c, MINUS_ONE))))
        return Expr(MUL, (c, down, _diff(base, var)))
    if k == EXP:
        return Expr(MUL, (e, _diff(e.args[0], var)))
    if k == LN:
        return _diff(e.args[0], var) / e.args[0]
    if k == SIN:
        return Expr(MUL, (Cos(e.args[0]), _diff(e.args[0], var)))
    if k == COS:
        return -Expr(MUL, (Sin(e.args[0]), _diff(e.args[0], var)))
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
    if k == SIN or k == COS:
        return _c_trig(k, _norm(e.args[0]))
    raise ExprError(f"unknown node kind {k!r}")


def _key(e: Expr):
    """Sort key of e; a RAT's second field is its nearest float, formed by
    the integer true division float() does, or ±inf for a constant
    beyond float range, which numerator and denominator then order."""
    if e._key is not None:
        return e._key
    k = e.kind
    if k == RAT:
        n, d = e.value.as_integer_ratio()
        try:
            value = n / d
        except OverflowError:
            value = math.inf if n > 0 else -math.inf
        key = (0, value, n, d)
    elif k == PARAM:
        key = (1, e.name)
    elif k == VAR:
        key = (2, e.name)
    else:
        key = (3, k, tuple(map(_key, e.args)))
    e._key = key
    return key


def _fold(n: int, d: int) -> int | Fraction:
    """The value n/d, for d > 0, in a constant's form: an int when d
    divides n, else a Fraction, whose construction reduces the pair.  A
    node of a value in that form needs no ``Rat``: ``Expr(RAT, value=v)``."""
    if d == 1:
        return n
    return n // d if n % d == 0 else Fraction(n, d)


def _product(values: list) -> int | Fraction:
    """The product of constant values: numerators and denominators are
    multiplied as integers and the result is built once.  A lone value is
    returned as it is, and no values multiply to 1."""
    if len(values) < 2:
        return values[0] if values else 1
    n = d = 1
    for v in values:
        if type(v) is int:
            n *= v
        else:
            vn, vd = v.as_integer_ratio()
            n *= vn
            d *= vd
    return _fold(n, d)


def _sum(values: list) -> int | Fraction:
    """The sum of constant values, cross-multiplied on integer pairs and
    built once."""
    n, d = 0, 1
    for v in values:
        if type(v) is int:
            n += v * d
        else:
            vn, vd = v.as_integer_ratio()
            if vd == d:
                n += vn
            else:
                n = n * vd + vn * d
                d *= vd
    return _fold(n, d)


def _as_coeff_core(term: Expr) -> tuple[int | Fraction, Expr | None]:
    """Split a canonical term into (rational coefficient, remaining core)."""
    if term.kind == RAT:
        return term.value, None
    if term.kind == MUL and term.args[0].kind == RAT:
        rest = term.args[1:]
        core = rest[0] if len(rest) == 1 else Expr(MUL, rest)
        return term.args[0].value, core
    return 1, term


def _with_coeff(c: int | Fraction, core: Expr | None) -> Expr | None:
    # a Fraction is never 0 or 1
    if type(c) is int:
        if c == 0:
            return None
        if c == 1 and core is not None:
            return core
    coeff = Expr(RAT, value=c)  # c is in a constant's form already
    if core is None:
        return coeff
    if core.kind == MUL:
        return Expr(MUL, (coeff,) + core.args)
    return Expr(MUL, (coeff, core))


def _c_add(args: list[Expr]) -> Expr:
    flat: list[Expr] = []
    for a in args:
        if a.kind == ADD:
            flat.extend(a.args)
        else:
            flat.append(a)
    # core -> [the term itself while no other term shares the core, then
    # the coefficients]; coefficients are summed only where terms combine
    acc: dict[Expr | None, list] = {}
    for term in flat:
        c, core = _as_coeff_core(term)
        entry = acc.get(core)
        if entry is None:
            acc[core] = [term, c]
        else:
            entry[0] = None
            entry.append(c)
    out = []
    for core, entry in acc.items():
        term = entry[0]
        if term is None:
            term = _with_coeff(_sum(entry[1:]), core)
            if term is None:
                continue
        elif type(entry[1]) is int and entry[1] == 0:  # a Fraction is never 0
            continue
        out.append(term)
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


def _rat_pow(base: int | Fraction, expo: int | Fraction) -> int | Fraction | None:
    """Exact rational power, or None when not exactly representable or
    larger than _MAX_FOLD_BITS.  The power is taken on the integer pair
    of the base (or of its exact root), whose powers stay coprime."""
    n, d = base.as_integer_ratio()
    p, q = expo.as_integer_ratio()
    if n == 0:
        return 0 if p > 0 else (1 if p == 0 else None)
    if q != 1:
        if n < 0 and q % 2 == 0:
            return None
        n, d = _exact_root(n, q), _exact_root(d, q)
        if n is None or d is None:
            return None
    size = max(abs(n), d).bit_length()
    if size > 1 and size * abs(p) > _MAX_FOLD_BITS:
        return None
    if p < 0:  # an int to a negative power would be a float
        n, d, p = (d, n, -p) if n > 0 else (-d, -n, -p)
    return _fold(n ** p, d ** p)


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
    if expo.kind != RAT and (depends_on(expo, "t") or depends_on(expo, "x")):
        raise NonConstantExponentError(f"exponent {expo} depends on t or x")
    if expo.kind == RAT and type(expo.value) is int:  # a Fraction is never 0 or 1
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
    sums = False
    for a in args:
        if a.kind == MUL:
            flat.extend(a.args)
            sums = sums or ADD in map(_KIND, a.args)
        else:
            flat.append(a)
            sums = sums or a.kind == ADD
    if sums:
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
    """Product of canonical non-ADD factors.

    Most products multiply factors of distinct bases, which need no
    merging, so one pass comes first: it flattens MUL factors one level,
    folds the rationals into the coefficient and keeps every other factor
    node as it is.  At the first base seen twice (a power's base, or the
    factor itself) or a second exp factor it hands the product to
    ``_c_mul_merge``.  Otherwise it gives the merge loop's tree: each
    base's merged factor is the factor itself, and a lone exp factor of
    canonical input is its own normal form.  The rational factors are
    multiplied once, as integer pairs (``_product``); a lone one is reused
    as the coefficient node.
    """
    flat: list[Expr] = []
    for f in factors:
        if f.kind == MUL:
            flat.extend(f.args)
        else:
            flat.append(f)
    rats: list = []  # the values of the rational factors
    rat = None  # the rational factor; False once there is a second
    out: list[Expr] = []
    bases: set[Expr] = set()
    exp = False
    for f in flat:
        k = f.kind
        if k == RAT:
            rats.append(f.value)
            rat = f if rat is None else False
        elif k == EXP:
            if exp:
                return _c_mul_merge(factors)
            exp = True
            out.append(f)
        else:
            b = f.args[0] if k == POW else f
            if b in bases:
                return _c_mul_merge(factors)
            bases.add(b)
            out.append(f)
    coeff = _product(rats)
    unit = type(coeff) is int  # a Fraction is never 0 or 1
    if unit and coeff == 0:
        return ZERO
    if len(out) > 1:
        out.sort(key=_key)
    if not (unit and coeff == 1) or not out:
        out.insert(0, rat or Expr(RAT, value=coeff))
    return out[0] if len(out) == 1 else Expr(MUL, tuple(out))


def _c_mul_merge(factors: list[Expr]) -> Expr:
    """``_c_mul_flat`` by merging: the powers of each base are summed into
    one, the exp factors into one, and what that folds is merged again."""
    work = list(factors)
    for _ in range(8):  # exp extraction can feed new factors back in once
        flat: list[Expr] = []
        for f in work:
            if f.kind == MUL:
                flat.extend(f.args)
            else:
                flat.append(f)
        work = flat
        rats: list = []  # the values of the rational factors
        # base -> exponents, and base -> its first factor, in order
        powers: dict[Expr, list[Expr]] = {}
        first: dict[Expr, Expr] = {}
        exp_args: list[Expr] = []
        for f in work:
            if f.kind == RAT:
                rats.append(f.value)
            elif f.kind == EXP:
                exp_args.append(f.args[0])
            else:
                b, c = f.args if f.kind == POW else (f, ONE)
                exps = powers.get(b)
                if exps is None:
                    powers[b] = [c]
                    first[b] = f
                else:
                    exps.append(c)
        coeff = _product(rats)
        if type(coeff) is int and coeff == 0:  # a Fraction is never 0
            return ZERO
        rats = [coeff]  # and what the merges fold to a constant
        out: list[Expr] = []
        retry: list[Expr] = []
        for b, f in first.items():
            exps = powers[b]
            # a base no other factor shares keeps its node and its caches
            merged = f if len(exps) == 1 else _c_pow(b, _c_add(exps))
            if merged.kind == RAT:
                rats.append(merged.value)
            elif merged.kind in (MUL, EXP, ADD):
                retry.append(merged)  # e.g. pulled-out root coefficient
            else:
                base = merged.args[0] if merged.kind == POW else merged
                if base != b and base in powers:
                    # a folded power whose base is another factor's, as
                    # (x^(5/2))^(1/2) squared next to x^(-1): merged next round
                    retry.append(merged)
                else:
                    out.append(merged)
        if exp_args:
            total = _c_add(exp_args)
            merged = _c_exp(total)
            if merged.kind == EXP:
                out.append(merged)
            elif merged.kind == RAT:
                rats.append(merged.value)
            else:
                retry.append(merged)
        coeff = _product(rats)
        unit = type(coeff) is int
        if not retry:
            if unit and coeff == 0:
                return ZERO
            out.sort(key=_key)
            if not out:
                return Expr(RAT, value=coeff)
            if not (unit and coeff == 1):
                out = [Expr(RAT, value=coeff)] + out
            if len(out) == 1:
                return out[0]
            return Expr(MUL, tuple(out))
        work = out + retry
        if not (unit and coeff == 1):
            work.append(Expr(RAT, value=coeff))
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


@functools.lru_cache(maxsize=1)
def _unit_points() -> tuple[tuple[float, float], ...]:
    """The first SAMPLES Halton (2, 3) points of the unit square, computed once."""
    return tuple((_halton(i, 2), _halton(i, 3)) for i in range(1, SAMPLES + 1))


def sample_points(domain: tuple[float, float, float, float]):
    """SAMPLES quasi-random (t, x) points in [tmin,tmax] x [xmin,xmax] (Halton 2,3)."""
    tmin, tmax, xmin, xmax = domain
    return [(tmin + ht * (tmax - tmin), xmin + hx * (xmax - xmin))
            for ht, hx in _unit_points()]


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

    __slots__ = ("is_zero", "structural", "warning")

    def __init__(self, is_zero, structural, warning=None):
        self.is_zero = is_zero
        self.structural = structural
        self.warning = warning

    def __bool__(self):
        return self.is_zero


def zero_check(e: Expr, domain: tuple[float, float, float, float],
               params: dict[str, float] | None = None) -> ZeroCheck:
    """Structural-then-numeric test of e == 0 on the domain rectangle.

    A normal form of 0 is zero (``structural``); one that is a sum of
    distinct monomials c*t^i*x^j with rational c is a nonzero polynomial,
    decided without sampling.  Numeric fallback: |e| < 1e-12 * (1 + scale)
    at every sample point, where scale is the largest magnitude among the
    un-cancelled top-level terms.  Sample points hitting domain errors are
    skipped; more than half skipped raises IllPosedDomainError.
    """
    s = simplify(e)
    if s.kind == RAT and s.value == 0:
        return ZeroCheck(True, structural=True)
    if _nonzero_polynomial(s):
        return ZeroCheck(False, structural=False)
    params = params or {}
    terms = s.args if s.kind == ADD else (s,)
    skipped = 0
    ok = True
    for (tv, xv) in sample_points(domain):
        try:
            vals = [_eval(term, tv, xv, params) for term in terms]
        except DomainError:
            skipped += 1
            continue
        # the fsum of the terms is what _eval computes for an ADD
        resid = abs(math.fsum(vals) if s.kind == ADD else vals[0])
        scale = max(abs(v) for v in vals)
        if not resid < 1e-12 * (1.0 + scale):
            ok = False
            break
    if skipped > SAMPLES // 2:
        raise IllPosedDomainError(
            f"{skipped}/{SAMPLES} sample points hit domain errors")
    if ok:
        warning = ("zero established by sampling only; "
                   "structural simplification left " + pprint(s))
        return ZeroCheck(True, structural=False, warning=warning)
    return ZeroCheck(False, structural=False)
