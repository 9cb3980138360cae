import copy
import math
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jacobi_invariants import expr as ex
from jacobi_invariants.expr import (
    Cos,
    DomainError,
    Exp,
    IllPosedDomainError,
    Ln,
    Param,
    ParseError,
    Rat,
    Sin,
    Sqrt,
    T,
    X,
    compile_fn,
    diff,
    evaluate,
    parse,
    pprint,
    simplify,
    zero_check,
)
from conftest import SAFE_ENV, random_tree
from helpers import fresh, to_sympy


# ------------------------------------------------------------------ parse

def test_parse_rational_times_ln():
    e = parse("-(1/2)*ln(x)")
    assert e.kind == ex.MUL
    assert e.args[0] == Rat(-1, 2)
    assert e.args[1] == Ln(X)


def test_parse_param_power():
    e = parse("beta*x^n")
    assert e.kind == ex.MUL
    assert e.args[0] == Param("beta")
    assert e.args[1].kind == ex.POW
    assert e.args[1].args == (X, Param("n"))


def test_parse_exp_of_negated_sum():
    e = parse("exp(-(t+x)/2)")
    assert e.kind == ex.EXP
    negated = ex.Expr(ex.MUL, (ex.MINUS_ONE, T + X))
    assert e.args[0] == ex.Expr(ex.MUL, (negated, ex.Expr(ex.POW, (Rat(2), ex.MINUS_ONE))))


def test_parse_whitespace_insensitive():
    assert parse(" 1 +  2*x ") == parse("1+2*x")


def test_parse_precedence_and_associativity():
    # ^ binds tighter than unary minus, right-associative
    assert simplify(parse("-x^2")) == simplify(-(X ** Rat(2)))
    assert evaluate(parse("2^3^2"), 0, 0) == 512
    assert evaluate(parse("2-3-4"), 0, 0) == -5
    assert evaluate(parse("x^-2"), 0, 2) == 0.25


def test_parse_decimal_literals_become_rationals():
    e = parse("0.75*x")
    assert e.args[0] == Rat(3, 4)


def test_parse_error_carries_offset():
    with pytest.raises(ParseError) as err:
        parse("1 + @")
    assert err.value.offset == 4
    with pytest.raises(ParseError):
        parse("sin(x")
    with pytest.raises(ParseError) as err:
        parse("foo(x)")
    assert err.value.offset == 0


# every character the tokenizer knows, and a few it does not
PARSE_ALPHABET = "0123456789.+-*/^()tx abceklnopqrsinx_,@\n"

# the node kinds of the normal form, the only ones any tree is built from
NORMAL_KINDS = {ex.RAT, ex.PARAM, ex.VAR, ex.ADD, ex.MUL, ex.POW,
                ex.EXP, ex.LN, ex.SIN, ex.COS}


def _kinds(e: ex.Expr) -> set[str]:
    return {e.kind}.union(*map(_kinds, e.args))


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.text(), st.text(alphabet=PARSE_ALPHABET, max_size=60)))
def test_parse_accepts_or_raises_parse_error(text):
    # any text parses, or raises ParseError, never any other exception;
    # what parses is built from the normal form's kinds
    try:
        e = parse(text)
    except ParseError:
        return
    assert _kinds(e) <= NORMAL_KINDS


def test_parse_depth_limited():
    # 3,000 parentheses or 5,000 minus signs are past the nesting limit,
    # and a chain of 3,000 operands is past the operand cap
    for text in ("(" * 3000 + "x" + ")" * 3000, "-" * 5000 + "x",
                 "+".join(["x"] * 3000), "/".join(["x"] * 3000)):
        with pytest.raises(ParseError):
            parse(text)
    # the limit counts parentheses, a function's too, minus signs and exponents
    for text in ("(" * 101 + "x" + ")" * 101, "-" * 101 + "x",
                 "2^" * 101 + "x", "sqrt(" * 101 + "x" + ")" * 101):
        with pytest.raises(ParseError, match="nested deeper than 100 levels"):
            parse(text)
    assert parse("(" * 100 + "x" + ")" * 100) == parse("x")
    assert evaluate(parse("-" * 100 + "x"), 0.0, 2.0) == 2.0
    assert parse("(" * 90 + "x" + ")" * 90) == parse("x")
    assert evaluate(parse("-" * 90 + "x"), 0.0, 2.0) == 2.0
    assert evaluate(parse("+".join(["x"] * 90)), 0.0, 2.0) == 180.0


def test_long_chains_parse_to_one_node():
    # a chain is one n-ary node, not one nesting level per operator: this
    # 59-term polynomial and the 101-term sum were refused as too deep
    poly = parse("+".join(f"x^{i}" for i in range(1, 60)))
    assert poly.kind == ex.ADD and len(poly.args) == 59
    powers = [ex.Expr(ex.POW, (X, Rat(i))) for i in range(2, 60)]
    assert simplify(poly) == ex.Expr(ex.ADD, [X, *powers])
    total = parse("+".join(["x"] * 101))
    assert total == ex.Expr(ex.ADD, [X] * 101)
    assert simplify(total) == ex.Expr(ex.MUL, (Rat(101), X))


@pytest.mark.parametrize("op", list("+-*/"))
def test_a_chain_holds_at_most_the_operand_cap(op):
    assert len(parse(op.join(["x"] * 1000)).args) == 1000
    with pytest.raises(ParseError, match="more than 1000"):
        parse(op.join(["x"] * 1001))


# operands of a random chain, none with a binary operator of its own but
# an exponent's ^
CHAIN_TERMS = ["0", "1", "2", "0.75", "-1", "t", "x", "-x", "k", "x^2", "x^-1"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(CHAIN_TERMS), min_size=1, max_size=12),
       st.lists(st.sampled_from("+-*/"), min_size=11, max_size=11))
def test_a_chain_has_the_normal_form_of_its_left_fold(terms, ops):
    # each run of * and / folds left to right through Expr's operators,
    # then the + and - between the runs
    text = terms[0] + "".join(op + term for op, term in zip(ops, terms[1:]))
    operands = [parse(term) for term in terms]
    products, signs = [operands[0]], []
    for op, e in zip(ops, operands[1:]):
        if op == "*":
            products[-1] = products[-1] * e
        elif op == "/":
            products[-1] = products[-1] / e
        else:
            products.append(e)
            signs.append(op)
    folded = products[0]
    for op, e in zip(signs, products[1:]):
        folded = folded + e if op == "+" else folded - e
    assert simplify(parse(text)) == simplify(folded)


def test_written_text_and_source_are_bounded():
    # a sum past the operand cap, and a tree of 2^21 - 1 nodes over 21
    # shared ones, are neither printed nor compiled
    wide = ex.Expr(ex.ADD, [X] * 1001)
    deep = X
    for _ in range(20):
        deep = deep + deep
    for e in (wide, deep):
        with pytest.raises(ex.ExpressionTooLargeError, match="^expression too large"):
            pprint(e)
        with pytest.raises(ex.ExpressionTooLargeError, match="^expression too large"):
            compile_fn(e)
    # a DomainError prints the failing node only as far as it shows it
    message = str(DomainError(deep, 0.0, 1.0, "a reason"))
    assert message.startswith("a reason in " + "(" * 20 + "x + x) + (x + x))")
    assert len(message) == len("a reason in ") + 80 + len(" at (t=0.0, x=1.0)")


def test_a_source_past_the_compilers_nesting_limit_is_refused():
    # three parentheses a level in the generated source, where the
    # compiler takes 200
    nested = parse("sqrt(" * 70 + "x" + "+1)" * 70)
    with pytest.raises(ex.ExpressionTooLargeError, match="^expression too large to compile"):
        compile_fn(nested)


def test_exact_folding_is_bounded():
    # 2^(10^7) would fold to a 10-Mbit integer: it stays a power, in the
    # parser and in simplify, and so does a root search that cannot succeed
    big = parse("2^(10^7)")
    assert big.kind == ex.POW and big.args == (Rat(2), Rat(10 ** 7))
    assert simplify(Rat(3) ** Rat(10 ** 7)).kind == ex.POW
    assert simplify(Rat(2) ** Rat(Fraction(1, 10 ** 10))).kind == ex.POW
    assert simplify(parse("(10^400)^(1/2)")).kind == ex.POW  # beyond floats
    assert pprint(parse("2^20000")) == "(2 ^ 20000)"
    # small powers still fold exactly
    assert parse("2^10") == Rat(1024)
    assert parse("(2/3)^(-3)") == Rat(Fraction(27, 8))
    assert simplify(parse("(8/27)^(2/3)")) == Rat(Fraction(4, 9))
    assert simplify(parse("(-1)^(10^10 + 1)")) == Rat(-1)
    with pytest.raises(ParseError):
        parse("1" * 5000)  # past the interpreter's int-from-string limit


def test_nonconstant_exponent_rejected():
    with pytest.raises(ParseError) as err:
        parse("x^t")
    assert "constant" in str(err.value)
    with pytest.raises(ParseError):
        parse("2^(x+1)")
    # parameters are constants, so this is fine
    parse("x^(n+1/2)")


# ------------------------------------------------------------------- eval

def test_eval_examples():
    assert evaluate(parse("exp(0)"), 0, 0) == 1.0
    assert evaluate(parse("-ln(x)"), 0, 1.0) == 0.0
    assert evaluate(parse("beta*x^n"), 0, 3.0, {"beta": -4, "n": 2}) == -36.0


def test_eval_domain_errors():
    with pytest.raises(DomainError) as err:
        evaluate(parse("ln(x)"), 0, -1.0)
    assert err.value.x == -1.0
    with pytest.raises(DomainError):
        evaluate(parse("sqrt(x)"), 0, -0.5)
    with pytest.raises(DomainError):
        evaluate(parse("1/x"), 0, 0.0)
    with pytest.raises(DomainError):
        evaluate(parse("x^(1/2)"), 0, -2.0)


def test_constants_beyond_float_range_are_ordered_and_raise_on_evaluation():
    # the sort key of a constant is its nearest float, or +-inf beyond
    # float range, where numerator and denominator break the tie; an
    # in-range key is float(Fraction) exactly
    rng = random.Random(77)
    for _ in range(500):
        q = Fraction(rng.randint(-10 ** 300, 10 ** 300), rng.randint(1, 10 ** rng.randint(1, 320)))
        assert ex._key(Rat(q)) == (0, float(q), q.numerator, q.denominator)
    huge = Fraction(10 ** 400 + 1, 10 ** 92)  # in range: a quotient near 1e308
    assert ex._key(Rat(huge))[1] == float(huge)
    assert ex._key(Rat(Fraction(1, 10 ** 400)))[1] == 0.0
    assert ex._key(Rat(10 ** 400)) == (0, math.inf, 10 ** 400, 1)
    assert ex._key(Rat(-10 ** 400)) == (0, -math.inf, -10 ** 400, 1)
    terms = ["exp(x)", "exp(-10^400*x)", "exp(10^400*x)", "exp(10^401*x)"]
    s = simplify(parse(" + ".join(reversed(terms))))
    assert s.args == tuple(simplify(parse(term)) for term in terms)
    assert simplify(parse(" + ".join(terms[1:] + terms[:1]))) == s
    for value in (10 ** 400, -10 ** 400, Fraction(10 ** 400, 3)):
        with pytest.raises(DomainError, match="constant beyond float range"):
            evaluate(Rat(value), 0.0, 0.0)


def test_eval_unbound_parameter():
    with pytest.raises(ex.UnboundParameterError):
        evaluate(parse("beta*x"), 0, 1.0, {})


def test_compile_fn_matches_evaluate():
    e = parse("ln(x)*sin(t) + k*x^(3/2)")
    f = compile_fn(e, {"k": 1.5})
    for t, x in [(0.3, 0.7), (1.2, 2.5), (2.0, 0.1)]:
        assert f(t, x) == pytest.approx(evaluate(e, t, x, {"k": 1.5}), rel=1e-15)
    with pytest.raises(DomainError):
        f(0.5, -1.0)


def test_compile_fn_gives_evaluate_where_the_fast_path_is_not_finite():
    # float products overflow to inf without an error and inf - inf is
    # nan: there the callable gives what evaluate gives, its DomainError
    # or its value
    e = parse("x*x*x - x*x*x")
    with pytest.raises(DomainError) as want:
        evaluate(e, 0.0, 1e120)
    assert want.value.reason == "sum of opposite infinities"
    with pytest.raises(DomainError) as got:
        compile_fn(e)(0.0, 1e120)
    assert str(got.value) == str(want.value)
    cube = parse("x*x*x")
    assert compile_fn(cube)(0.0, 1e120) == evaluate(cube, 0.0, 1e120) == math.inf


def test_generated_functions_of_one_body_keep_their_names_and_arguments():
    # the compiled-code cache is keyed on name, arguments and body together
    body = ("return a",)
    f = ex._define("f", "a", body, {})
    g = ex._define("g", "a", body, {})
    h = ex._define("f", "b, a", body, {})
    assert (f.__name__, g.__name__, h.__name__) == ("f", "g", "f")
    assert f.__code__ is not g.__code__ and f.__code__ is not h.__code__
    assert (f(1), g(2), h(3, 4)) == (1, 2, 4)
    assert ex._define("f", "a", list(body), {}).__code__ is f.__code__


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


# points where the fast path meets zero denominators, non-positive
# logarithms, negative radicands and bases, exp/pow overflow, and products
# that overflow to +-inf without an error
HOSTILE_T = [0.0, 0.3, -1.25, 2.0, 700.0, -0.0, 1e-300, 3.5, -800.0, 1e8, 1e200, -1e200, 0.5]
HOSTILE_X = [0.0, -0.7, 1.5, -2.0, 0.8, 750.0, -1e-300, 1.0, 2.5, -1e8, 1e200, 1e200, -1e200]


def _pointwise(fn, ts, xs):
    """A point-by-point loop over a compile_fn callable: the values before
    the first DomainError, and that error."""
    values = []
    for t, x in zip(ts, xs):
        try:
            values.append(fn(t, x))
        except DomainError as err:
            return values, err
    return values, None


def _series(e, params=None):
    """The generated loop of the single expression e, over (t, x)."""
    loop = ex.compile_series("{e}", {"e": e}, params)
    return lambda ts, xs: loop(ts, xs, [0.0] * len(ts))


def test_compile_fn_array_matches_scalar_pointwise():
    # the generated loop over the hostile points, from every start point,
    # against a point-by-point compile_fn loop: the same bits and the same
    # stopping point and DomainError; and that loop stops where the
    # reference evaluator does, with its DomainError.  Each tree is also
    # tried under a square root of -x^3 times itself, whose base overflows
    # to -inf at x = 1e200
    rng = random.Random(11)
    stopped = negative_inf = 0
    for _ in range(400):
        tree = random_tree(rng, 4)
        for e in (tree, (-(X * X * X * tree)) ** Rat(1, 2)):
            fn, loop = compile_fn(e, SAFE_ENV), _series(e, SAFE_ENV)
            for start in range(len(HOSTILE_T)):
                ts, xs = HOSTILE_T[start:], HOSTILE_X[start:]
                values, err = loop(ts, xs)
                want, want_err = _pointwise(fn, ts, xs)
                assert [_bits(v) for v in values] == [_bits(v) for v in want], pprint(e)
                assert all(type(v) is float for v in values)
                assert str(err) == str(want_err), pprint(e)
                ref, ref_err = _pointwise(lambda t, x: evaluate(e, t, x, SAFE_ENV), ts, xs)
                assert (len(ref), str(ref_err)) == (len(want), str(want_err)), pprint(e)
                stopped += want_err is not None
                negative_inf += "negative base" in str(want_err) and xs[len(want)] == 1e200
    assert stopped > 100 and negative_inf > 100  # the hostile points are exercised


def test_fractional_power_of_negative_infinity_raises():
    # -(x*x*x) overflows to -inf without an error; math.pow would take it
    # to inf
    e = parse("(-(x*x*x))^(1/2)")
    with pytest.raises(DomainError) as want:
        evaluate(e, 0.0, 1e200)
    assert want.value.reason == "negative base with fractional exponent"
    with pytest.raises(DomainError) as got:
        compile_fn(e)(0.0, 1e200)
    assert str(got.value) == str(want.value)
    assert compile_fn(e)(0.0, -1e200) == math.inf


@pytest.mark.parametrize("text, x", [
    ("1/x", 0.0), ("ln(x)", 0.0), ("ln(x)", -1.0), ("sqrt(x)", -1e-300),
    ("x^(-2)", 0.0), ("x^(1/2)", -1.0), ("exp(x)", 710.0), ("x^3", 1e103),
    ("sin(exp(x))", 710.0),
])
def test_compile_fn_array_flags_each_domain_failure(text, x):
    values, err = _series(parse(text))([0.0] * 3, [0.5, x, 2.0])
    assert values == [compile_fn(parse(text))(0.0, 0.5)]
    with pytest.raises(DomainError) as scalar:
        compile_fn(parse(text), {})(0.0, x)
    assert isinstance(err, DomainError) and str(err) == str(scalar.value)


def test_compile_fn_array_takes_the_slow_path_value_where_it_exists():
    # 1 + x - 1 rounds to 0 left to right but not under fsum, so the fast
    # path divides by zero and the slow evaluator returns a value
    e = ex.ONE / ex.Expr(ex.ADD, (ex.ONE, X, Rat(-1)))
    want = compile_fn(e)(0.0, 1e-17)
    assert want == pytest.approx(1e17)
    values, err = _series(e)([0.0, 0.0], [0.5, 1e-17])
    assert err is None and _bits(values[1]) == _bits(want)


def test_template_overflow_is_a_domain_error():
    # the exp of a channel value is the template's own arithmetic, not a
    # field's; where it overflows, that point fails with the template shown
    template = "{g}*math.exp(u0)"
    fused = ex.compile_fused(template, {"g": X}, channels=1)
    want = "overflow in (x)*math.exp(u0) at (t=0.5, x=2.0)"
    assert fused(0.0, 2.0, 0.0, 1.0) == 2.0 * math.exp(1.0)
    with pytest.raises(DomainError) as caught:
        fused(0.5, 2.0, 0.0, 800.0)
    assert str(caught.value) == want
    series = ex.compile_series(template, {"g": X}, channels=1)
    values, err = series([0.0, 0.5, 1.0], [2.0] * 3, [0.0] * 3, [1.0, 800.0, 1.0])
    assert values == [2.0 * math.exp(1.0)] and str(err) == want


def test_compile_fn_is_one_generated_function():
    fn = compile_fn(X)
    assert fn.__code__.co_filename == "<generated>" and fn.__closure__ is None


# points where products overflow to +-inf without an error, sums of them
# meet as inf - inf, and quotients and logarithms leave the domain
RULE_POINTS = [(t, x) for t in (0.0, 0.7, 1e120, -1e200)
               for x in (1e120, -1e120, 1e-300, 0.0, 1.5, -0.5)]


def _outcome(fn, *point):
    """The bits of fn's value at point, or the text of its DomainError."""
    try:
        return "value", _bits(fn(*point))
    except DomainError as err:
        return "error", str(err)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.builds(lambda seed: simplify(random_tree(random.Random(seed), 4)),
                 st.integers(min_value=0, max_value=2 ** 32 - 1)))
@example(parse("x*x*x - x*x*x"))
@example(parse("t*x"))
def test_every_compiled_evaluator_follows_one_non_finite_rule(e):
    # the slow path is evaluate; compile_fn gives the fast path's value
    # where it is finite and the slow path's result elsewhere, and a series
    # gives the same point by point, up to its first DomainError
    fused = ex.compile_fused("{e}", {"e": e}, SAFE_ENV)
    fn = compile_fn(e, SAFE_ENV)
    want = []
    for t, x in RULE_POINTS:
        ref = _outcome(lambda: evaluate(e, t, x, SAFE_ENV))
        assert _outcome(fused.__globals__["_slow"], t, x, 0.0) == ref, pprint(e)
        fast = _outcome(fused, t, x, 0.0)
        finite = fast[0] == "value" and math.isfinite(np.frombuffer(fast[1])[0])
        want.append(fast if finite else ref)
        assert _outcome(fn, t, x) == want[-1], pprint(e)
    ts, xs = zip(*RULE_POINTS)
    values, err = ex.compile_series("{e}", {"e": e}, SAFE_ENV)(ts, xs, [0.0] * len(ts))
    stop = next((i for i, (kind, _) in enumerate(want) if kind == "error"), len(want))
    assert [("value", _bits(v)) for v in values] == want[:stop], pprint(e)
    assert (None if err is None else str(err)) == (want[stop][1] if want[stop:] else None)


def test_domain_error_point_is_plain_floats():
    err = DomainError(X, np.float64(0.5), np.float64(-1.0), "test")
    assert type(err.t) is float and type(err.x) is float
    assert "np.float64" not in str(err) and "x=-1.0" in str(err)


def test_domain_error_prints_at_most_80_characters_of_its_node():
    node = simplify(parse("x/2^2000"))
    err = DomainError(node, 0.0, 0.5, "test")
    printed = str(err)[len("test in "):-len(" at (t=0.0, x=0.5)")]
    assert len(printed) == 80 and printed.endswith("…")
    assert printed[:-1] == pprint(node)[:79]
    assert str(DomainError(X, 0.0, 0.5, "test")) == "test in x at (t=0.0, x=0.5)"


# ------------------------------------------------------------------- diff

def test_diff_examples():
    assert diff(parse("-alpha*ln(x)"), "x") == simplify(parse("-alpha/x"))
    assert diff(parse("t + x"), "t") == Rat(1)
    assert diff(parse("-2*x^3*t"), "t") == simplify(parse("-2*x^3"))


def test_diff_parameters_are_constant():
    assert diff(parse("beta"), "x") == Rat(0)
    assert diff(parse("beta*t"), "t") == Param("beta")


def test_diff_chain_rules():
    assert diff(Exp(X ** Rat(2)), "x") == simplify(Rat(2) * X * Exp(X ** Rat(2)))
    assert diff(Sqrt(X), "x") == simplify(ex.HALF * X ** Rat(-1, 2))
    assert diff(Sin(Rat(2) * T), "t") == simplify(Rat(2) * Cos(Rat(2) * T))


# --------------------------------------------------------------- simplify

def test_simplify_examples():
    e = Sin(T) * X
    assert simplify(Rat(1) * e) == simplify(e)
    assert simplify(Ln(Exp(X)) + Rat(0)) == X
    assert simplify(e - e) == Rat(0)


def test_simplify_collects_rational_coefficients():
    assert simplify(parse("x/2 + x/2")) == X
    assert simplify(parse("2*x + 3*x - 5*x")) == Rat(0)


def test_simplify_exp_ln_power_rules():
    assert simplify(Exp(Rat(-1) * Ln(X))) == simplify(parse("x^(-1)"))
    assert simplify(Exp(parse("t/2")) * Exp(parse("(t+x)/2"))) == \
        simplify(Exp(parse("(t+x)/2")) * Exp(parse("t/2")))
    assert simplify(Sqrt(parse("4*x^3"))) == simplify(parse("2*x^(3/2)"))
    assert simplify(parse("x^(3/2) * x^(1/2)")) == simplify(parse("x^2"))


def test_simplify_is_idempotent_on_random_trees():
    # simplify(s) of the normal form itself returns the form it keeps, so
    # the normal form is rebuilt from new nodes first
    rng = random.Random(1003)
    for _ in range(300):
        s = simplify(random_tree(rng, rng.randint(1, 6)))
        assert simplify(fresh(s)) == s


def _subtrees(e):
    yield e
    for a in e.args:
        yield from _subtrees(a)


def _memo_slots(e):
    return (e._canon, e._d_t, e._d_x)


@pytest.mark.parametrize("powers", [True, False])
def test_memoized_simplify_and_diff_are_transparent(powers):
    rng = random.Random(4242 if powers else 4243)
    for _ in range(300):
        e = random_tree(rng, rng.randint(1, 6), powers)
        twin = fresh(e)
        # fill the memo of some subtrees first, in a random order
        subtrees = list(_subtrees(e))
        for sub in rng.sample(subtrees, min(3, len(subtrees))):
            simplify(sub)
            diff(sub, rng.choice("tx"))
        s = simplify(e)
        assert s == simplify(twin)
        assert simplify(e) is s and simplify(s) is s
        for var in "tx":
            d = diff(e, var)
            assert d == diff(fresh(twin), var)
            assert diff(e, var) is d and diff(s, var) is d
            assert simplify(d) is d
        # memo slots take no part in equality or hashing, and survive a copy
        assert e == twin and hash(e) == hash(fresh(twin))
        assert s == fresh(s) and hash(s) == hash(fresh(s))
        assert simplify(pickle.loads(pickle.dumps(e))) == s
        assert simplify(copy.deepcopy(s)) == s


def test_nonconstant_exponent_leaves_no_memo_filled():
    e = (X + Rat(1)) ** (T * Rat(2))
    for _ in range(2):
        with pytest.raises(ex.NonConstantExponentError):
            simplify(e)
        assert _memo_slots(e) == (None, None, None)
    with pytest.raises(ex.NonConstantExponentError):
        diff(e, "x")
    assert _memo_slots(e) == (None, None, None)


def test_roundtrip_500_random_trees():
    # printing the simplified tree and re-parsing reproduces it exactly;
    # the operators and the parser build only the normal form's kinds
    rng = random.Random(20250810)
    for _ in range(500):
        e = random_tree(rng, rng.randint(1, 8))
        s = simplify(e)
        reparsed = parse(pprint(s))
        assert _kinds(e) <= NORMAL_KINDS and _kinds(reparsed) <= NORMAL_KINDS
        assert simplify(reparsed) == s


def test_simplify_preserves_value_at_100_points():
    rng = random.Random(555)
    checked = 0
    while checked < 100:
        e = random_tree(rng, rng.randint(1, 5))
        s = simplify(e)
        t, x = rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5)
        try:
            v1 = evaluate(e, t, x, SAFE_ENV)
            v2 = evaluate(s, t, x, SAFE_ENV)
        except DomainError:
            continue
        if not math.isfinite(v1) or abs(v1) > 1e3:
            continue
        assert abs(v1 - v2) < 1e-12 * (1 + abs(v1)), (pprint(e), pprint(s))
        checked += 1


def test_derivative_against_central_difference_100_points():
    rng = random.Random(777)
    h = 1e-6
    checked = 0
    while checked < 100:
        e = random_tree(rng, rng.randint(1, 5))
        var = rng.choice(["t", "x"])
        t, x = rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5)
        try:
            d = evaluate(diff(e, var), t, x, SAFE_ENV)
            if var == "t":
                fp, fm = (evaluate(e, t + h, x, SAFE_ENV),
                          evaluate(e, t - h, x, SAFE_ENV))
            else:
                fp, fm = (evaluate(e, t, x + h, SAFE_ENV),
                          evaluate(e, t, x - h, SAFE_ENV))
        except DomainError:
            continue
        if not all(math.isfinite(v) for v in (d, fp, fm)) or abs(d) > 1e6:
            continue
        fd = (fp - fm) / (2 * h)
        assert abs(d - fd) / (1 + abs(d)) < 1e-6, pprint(e)
        checked += 1


@given(st.fractions(min_value=-100, max_value=100, max_denominator=999))
def test_rational_print_parse_roundtrip(q):
    assert simplify(parse(pprint(Rat(q)))) == Rat(q)


def test_constants_divide_exactly():
    # a constant's value is an int when integral and a Fraction otherwise;
    # division and negative powers of constants stay exact
    assert parse("2^-3").value == Fraction(1, 8)
    assert parse("3^-2").value == Fraction(1, 9)  # 1/9 is no float
    assert simplify(parse("(3*x)^-2")) == parse("(1/9) * x^-2")
    assert type(parse("6/3").value) is int and parse("6/3").value == 2
    assert parse("6/4").value == Fraction(3, 2)
    assert type(parse("6/4").value) is Fraction
    assert type(Rat(True).value) is int and Rat(True) == Rat(1)
    whole, halves = Rat(2), Rat(Fraction(4, 2))
    assert type(halves.value) is int
    assert whole == halves and hash(whole) == hash(halves)
    assert ex._key(whole) == ex._key(halves) and pprint(whole) == pprint(halves)


@given(st.integers(), st.integers().filter(bool))
def test_rat_value_is_an_int_exactly_when_integral(a, b):
    value = Rat(a, b).value
    assert value == Fraction(a, b)
    assert (type(value) is int) == (a % b == 0)


def test_an_integer_polynomial_builds_no_fraction(monkeypatch):
    # integer coefficients fold with int arithmetic: parse, simplify, both
    # derivatives and a zero check decided without sampling build no Fraction
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    e = parse("3*t^2*x^4 - 2*x + 7 + x*(x+1)")
    s = simplify(e)
    for var in "tx":
        diff(e, var)
    box = (0.0, 1.0, 0.0, 1.0)
    monkeypatch.setattr(ex, "sample_points", lambda *args: pytest.fail("sampled"))
    assert not zero_check(e, box) and zero_check(s - s, box).structural
    assert not built
    Rat(1, 2)
    assert len(built) == 1


def test_a_fold_builds_one_fraction_per_result(monkeypatch):
    # coefficients fold on integer pairs: a product or a sum of several
    # non-integral constants builds its value once, and an integral one
    # builds none; the tree is flat, since the parser folds (1/2)*(2/3)
    # itself and nests a + b + c
    product = ex.Expr(ex.MUL, (Rat(1, 2), Rat(2, 3), Rat(3, 4), Rat(5, 7), X))
    total = ex.Expr(ex.ADD, (product, Rat(1, 6) * X, Rat(5, 12) * X))
    want = simplify(parse("(16/21)*x"))
    whole = ex.Expr(ex.ADD, (ex.Expr(ex.MUL, (Rat(2, 3), Rat(3, 2), T)),
                             Rat(2, 3) * X, Rat(1, 3) * X))
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    assert pprint(simplify(whole)) == "(t + x)" and not built
    assert simplify(total) == want
    assert len(built) == 2  # 5/28, then 16/21


# rationals small and of 1,000 bits and more, of either sign
RATIONALS = st.one_of(
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.builds(lambda n, d, sign: Fraction(sign * n, d),
              st.integers(min_value=2 ** 1000, max_value=2 ** 1100),
              st.integers(min_value=1, max_value=2 ** 1050), st.sampled_from([1, -1])),
)
# distinct canonical cores; None is the core of a constant term
CORES = [None, *(simplify(parse(text)) for text in ("x", "t^2", "k*sin(t)", "x^(1/2)*exp(t)"))]


def _coefficient(node):
    c, _ = ex._as_coeff_core(node)
    assert (type(c) is int) == (Fraction(c).denominator == 1), pprint(node)
    return Fraction(c)


@settings(max_examples=300, deadline=None)
@given(st.lists(RATIONALS, max_size=5), st.lists(st.sampled_from(CORES[1:]), unique=True, max_size=3),
       st.randoms(use_true_random=False))
@example([Fraction(1, 2), Fraction(2, 3), Fraction(3, 4)], [CORES[1]], random.Random(0))
@example([Fraction(2, 3), Fraction(3, 2), 0], [], random.Random(0))
def test_products_fold_coefficients_as_fraction_arithmetic(values, cores, rng):
    factors = [Rat(v) for v in values] + cores
    rng.shuffle(factors)
    want = math.prod(values, start=Fraction(1))
    for product in (ex._c_mul_flat(factors), ex._c_mul_merge(factors)):
        if want == 0:
            assert product == ex.ZERO
            continue
        assert _coefficient(product) == want
        assert ex._as_coeff_core(product)[1] == (ex._c_mul_flat(cores) if cores else None)


# the sum a core's coefficients reach: 0, an int or a non-integer
TARGETS = st.one_of(st.just(Fraction(0)), st.integers(-5, 5).map(Fraction), RATIONALS)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.lists(RATIONALS, min_size=2, max_size=4), TARGETS),
                min_size=1, max_size=len(CORES)),
       st.randoms(use_true_random=False))
def test_sums_fold_coefficients_as_fraction_arithmetic(groups, rng):
    # at least 3 terms per shared core, the last one making the sum reach
    # its target
    terms, want = [], {}
    for core, (values, target) in zip(CORES, groups):
        values = values + [target - sum(values)]
        terms += [simplify(ex.Expr(ex.MUL, (Rat(v), core))) if core else Rat(v) for v in values]
        if target:
            want[core] = target
    rng.shuffle(terms)
    s = ex._c_add(terms)
    got = {ex._as_coeff_core(term)[1]: _coefficient(term)
           for term in (s.args if s.kind == ex.ADD else (s,)) if term != ex.ZERO}
    assert got == want


def test_equal_constants_are_one_key_whatever_built_them():
    for same in ([Rat(2), Rat(Fraction(4, 2)), parse("6/3")],
                 [parse("6/4"), Rat(3, 2), Rat(Fraction(3, 2))],
                 [Rat(Fraction(10 ** 400, 3)), Rat(10 ** 400, 3), parse(f"{10 ** 400}/3")]):
        table = {same[0]: "found", ex.Expr(ex.MUL, (same[0], X)): "found"}
        for node in same:
            assert node == same[0] and hash(node) == hash(same[0])
            assert table[node] == table[ex.Expr(ex.MUL, (node, X))] == "found"


@settings(max_examples=200)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_simplify_idempotent_hypothesis(seed):
    rng = random.Random(seed)
    s = simplify(random_tree(rng, rng.randint(1, 6)))
    assert simplify(fresh(s)) == s


def _nested_power(exponents):
    e = X
    for q in exponents:
        e = e ** Rat(q)
    return e


# few exponents, so that products repeat a nested power that folds
POWER_EXPONENTS = st.sampled_from([Fraction(q) for q in ("-1", "-1/2", "1/2", "3/2", "5/2", "2")])


@settings(max_examples=300)
@given(st.lists(st.lists(POWER_EXPONENTS, min_size=1, max_size=2), min_size=1, max_size=4))
def test_products_of_nested_powers_print_their_own_normal_form(factors):
    # a nested power that folds inside the product, as (x^(5/2))^(1/2)
    # squared, merges with the other powers of its base
    product = _nested_power(factors[0])
    for exponents in factors[1:]:
        product = product * _nested_power(exponents)
    s = simplify(product)
    assert simplify(parse(pprint(s))) == s


def test_a_power_no_other_factor_shares_comes_back_as_the_same_node():
    factors = [simplify(parse(text)) for text in
               ("x^(1/2)", "ln(x)^3", "sin(t)^(-1)", "(t + x)^(1/3)", "k^2")]
    s = simplify(ex.Expr(ex.MUL, tuple(factors)))
    assert len(s.args) == len(factors)
    for factor in factors:
        assert any(o is factor for o in s.args), pprint(factor)


# canonical non-ADD factors: bases that repeat (x, t, k, ln(x), a nested
# power that folds when squared), exp factors, rationals zero, integral and
# not, and products that flatten into the list
PRODUCT_FACTORS = [simplify(parse(text)) for text in (
    "x", "x^2", "x^(-1)", "x^(1/2)", "(x^(5/2))^(1/2)", "t", "t^(-3)", "k", "k^(1/3)",
    "ln(x)", "ln(x)^2", "sin(t)", "(t + x)^(1/3)", "exp(t)", "exp(x^2)", "exp(-t - x)",
    "0", "1", "-1", "2", "3/2", "-1/3", "2*t*x^3", "(-5/7)*k*sin(t)", "x*exp(t)",
    "(1/2)*x^(-2)",
)]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(PRODUCT_FACTORS), max_size=6))
# (x^(5/2))^(1/2) squared folds to x^(5/2), which the merge loop merges
# with x^(-1) in a second round
@example([PRODUCT_FACTORS[4], PRODUCT_FACTORS[2], PRODUCT_FACTORS[4]])
def test_the_one_pass_product_gives_the_merge_loops_tree(factors):
    one_pass, merged = ex._c_mul_flat(factors), ex._c_mul_merge(factors)
    assert one_pass == merged
    assert pprint(one_pass) == pprint(merged)


def test_a_product_of_distinct_bases_needs_no_merge(monkeypatch):
    monomial = simplify(parse("(7/5)*t^2*x^(-3)"))
    k = Param("k")
    for name in ("_c_pow", "_c_add", "_c_mul_merge"):
        monkeypatch.setattr(ex, name, lambda *args, name=name: pytest.fail(f"{name} called"))
    product = ex._c_mul([monomial, k])
    assert pprint(product) == "((7/5) * k * (t ^ 2) * (x ^ (-3)))"
    assert product.args[0] is monomial.args[0]


# ------------------------------------------------------------- zero check

def test_zero_check_examples():
    assert zero_check(diff(parse("-ln(x)"), "t"), (0, 1, 0.5, 1.5)).is_zero
    assert not zero_check(parse("t + x"), (0, 1, 0, 1)).is_zero
    zc = zero_check(parse("ln(exp(t)) - t"), (0, 1, 0, 1))
    assert zc.is_zero and zc.structural
    # (x^(5/2))^(1/2) squared folds to x^(5/2), which merges with x^(-1)
    zc = zero_check(parse("(x^(5/2))^(1/2) * (x^(-1) * (x^(5/2))^(1/2)) - x^(3/2)"),
                    (0, 1, 0.5, 1.5))
    assert zc.is_zero and zc.structural


def test_zero_check_decides_a_nonzero_polynomial_without_sampling(monkeypatch):
    # a box 1e-13 wide around x = 1/2, where 1/2 - x stays under the bound
    # at every sample point
    thin = (0.0, 1.0, 0.5, 0.5000000000001)
    monkeypatch.setattr(ex, "sample_points", lambda *args: pytest.fail("sampled"))
    for text in ("1/2 - x", "-1", "3*t*x^2 - 2*x*t^2 + 5", "x/2 + t^3*x"):
        zc = zero_check(parse(text), thin)
        assert not zc.is_zero and not zc.structural and zc.warning is None, text


@pytest.mark.parametrize("text, zero", [
    # not sums of distinct monomials: a power of a sum, which the normal
    # form leaves unexpanded, a parameter and a negative power
    ("(x + 1)^2 - x^2 - 2*x - 1", True), ("(x + 1)^2 - x^2", False),
    ("k*x - k*x^2", False), ("x/t", False)])
def test_zero_check_samples_other_residuals(monkeypatch, text, zero):
    sampled = []
    original = ex.sample_points
    monkeypatch.setattr(ex, "sample_points", lambda *args: sampled.append(1) or original(*args))
    zc = zero_check(parse(text), (0.5, 1.0, 0.5, 1.0), params={"k": 2.0})
    assert sampled and zc.is_zero == zero


def test_zero_check_numeric_fallback_warns():
    zc = zero_check(parse("sin(t)^2 + cos(t)^2 - 1"), (0, 2, 0, 1))
    assert zc.is_zero and not zc.structural
    assert zc.warning is not None


def test_zero_check_skips_bad_points_and_raises_when_ill_posed():
    # ln(x) on a domain that is half-negative: points skipped, still decidable
    zc = zero_check(parse("ln(x) - ln(x)"), (0, 1, -0.4, 1.0))
    assert zc.is_zero
    with pytest.raises(IllPosedDomainError):
        zero_check(parse("ln(x) + 1"), (0, 1, -10.0, -0.1))


@pytest.mark.parametrize("domain", [(0.0, 1.0, 0.0, 1.0), (0.0, 0.4, 0.35, 3.0),
                                    (-2.5, 7.0, -1e3, 1e-3)])
def test_sample_points_are_the_scaled_halton_sequence(domain):
    def radical_inverse(i, base):
        digits = []
        while i:
            i, d = divmod(i, base)
            digits.append(d)
        return sum(d / base ** (k + 1) for k, d in enumerate(digits))

    tmin, tmax, xmin, xmax = domain
    want = [(tmin + radical_inverse(i, 2) * (tmax - tmin),
             xmin + radical_inverse(i, 3) * (xmax - xmin)) for i in range(1, 65)]
    # the unit points are shared between calls; the result is a new list
    first, second = ex.sample_points(domain), ex.sample_points(domain)
    assert ex.SAMPLES == 64 and len(first) == 64
    assert first == second == pytest.approx(want, rel=1e-15, abs=0)
    assert first is not second


def test_pprint_fully_parenthesized():
    s = simplify(parse("t - 2*x^2 + x^(3/2)"))
    text = pprint(s)
    assert simplify(parse(text)) == s
    assert text.startswith("(") and text.endswith(")")


def test_a_constant_past_the_int_to_string_limit_is_printed_and_compiled():
    # (10^3000 - 1)^2 folds to 6000 digits, past the 4300 that str() converts
    nines = "9" * 3000
    e = simplify(parse(f"{nines} * {nines} * x"))
    assert pprint(e) == f"({'9' * 2999}8{'0' * 2999}1 * x)"
    assert pprint(Rat(1 - 10 ** 20000, 7)) == f"(-{'9' * 20000}/7)"
    with pytest.raises(DomainError, match="constant beyond float range"):
        compile_fn(e)(0.0, 0.5)


# ------------------------------------------------------- sympy cross-check

def _random_monomial(rng, degrees=None):
    """A raw tree c*t^i*x^j with rational c, of the given or random degrees."""
    i, j = degrees or (rng.randint(0, 3), rng.randint(0, 3))
    c = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 6))
    return Rat(c) * T ** Rat(i) * X ** Rat(j)


def _random_sum(rng):
    """A raw sum of monomials in which some degrees repeat and the
    negation of one term cancels it."""
    terms = [_random_monomial(rng) for _ in range(rng.randint(1, 4))]
    for _ in range(rng.randint(1, 2)):  # the same degrees again
        terms.append(_random_monomial(rng, _degrees(simplify(rng.choice(terms)))))
    terms.append(-rng.choice(terms))
    rng.shuffle(terms)
    return ex.Expr(ex.ADD, terms)


def _random_polynomial(rng):
    shape = rng.randrange(4)
    p, q = _random_sum(rng), _random_sum(rng)
    if shape == 0:
        return p
    if shape == 1:
        return p * q
    if shape == 2:
        return p * q + _random_sum(rng) * p - q
    return p * q - q * p  # zero


def _degrees(term):
    """(i, j) of a canonical monomial c*t^i*x^j."""
    degree = {"t": 0, "x": 0}
    for factor in term.args if term.kind == ex.MUL else (term,):
        if factor.kind == ex.RAT:
            continue
        base, expo = factor.args if factor.kind == ex.POW else (factor, Rat(1))
        assert base.kind == ex.VAR and expo.kind == ex.RAT and expo.value.denominator == 1
        degree[base.name] += int(expo.value)
    return degree["t"], degree["x"]


def _coefficients(s):
    """{(i, j): c} of a normal form that is a sum of monomials c*t^i*x^j."""
    out = {}
    if s == Rat(0):
        return out
    for term in s.args if s.kind == ex.ADD else (s,):
        c = term.value if term.kind == ex.RAT else (
            term.args[0].value if term.kind == ex.MUL and term.args[0].kind == ex.RAT
            else Fraction(1))
        degrees = _degrees(term)
        assert c != 0 and degrees not in out, pprint(s)
        out[degrees] = c
    return out


def test_polynomial_normal_form_coefficients_equal_sympy_exactly():
    # simplify's normal form of a polynomial with rational coefficients is
    # a sum of monomials; each coefficient is compared with sympy's as an
    # exact rational, which a comparison of values cannot resolve
    sp = pytest.importorskip("sympy")
    t, x = sp.Symbol("t", real=True), sp.Symbol("x", real=True)
    rng = random.Random(1217)
    zeros = 0
    for _ in range(200):
        e = _random_polynomial(rng)
        got = _coefficients(simplify(e))
        want = {degrees: Fraction(int(c.p), int(c.q))
                for degrees, c in sp.Poly(sp.expand(to_sympy(sp, e)), t, x).terms() if c != 0}
        assert got == want, pprint(e)
        zeros += not want
    assert zeros >= 40  # the p*q - q*p shape, at least


def test_a_term_no_other_shares_comes_back_as_the_same_node():
    rng = random.Random(1218)
    for _ in range(200):
        terms = [simplify(_random_monomial(rng)) for _ in range(rng.randint(2, 6))]
        s = simplify(ex.Expr(ex.ADD, terms))
        out = s.args if s.kind == ex.ADD else (s,)
        degrees = [_degrees(term) for term in terms]
        for term, d in zip(terms, degrees):
            if degrees.count(d) == 1:
                assert any(o is term for o in out), (pprint(term), pprint(s))


def _sympy_values(sp, f, points):
    """f at each (t, x) of points with SAFE_ENV bound, through sympy's own
    printer and the math module; None where it is not a finite real."""
    names = ("t", "x", *SAFE_ENV)
    fn = sp.lambdify([sp.Symbol(n, real=True) for n in names], f, modules="math")
    out = []
    for t, x in points:
        try:
            v = fn(t, x, *SAFE_ENV.values())
        except (ValueError, ZeroDivisionError, OverflowError, TypeError):
            v = None
        if not isinstance(v, (int, float)) or not math.isfinite(v) or abs(v) > 1e6:
            v = None
        out.append(v)
    return out


def _agree(a, b):
    return a is None or b is None or math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def test_simplify_and_diff_agree_with_sympy():
    # simplify(e) against e, and diff(e, v) against sympy.diff, evaluated by
    # sympy at points where both sides are defined
    sp = pytest.importorskip("sympy")
    rng = random.Random(9001)
    points = ex.sample_points((0.5, 1.5, 0.5, 1.5))[:5]
    trees = 0
    compared = {"simplify": 0, "diff": 0}

    def check(what, want, got, e):
        assert all(_agree(a, b) for a, b in zip(want, got)), (what, pprint(e), want, got)
        compared[what] += sum(a is not None and b is not None for a, b in zip(want, got))

    while trees < 150:
        e = random_tree(rng, rng.randint(1, 4))
        ref = to_sympy(sp, e)
        want = _sympy_values(sp, ref, points)
        if all(v is None for v in want):
            continue
        trees += 1
        check("simplify", want, _sympy_values(sp, to_sympy(sp, simplify(e)), points), e)
        for var in ("t", "x"):
            check("diff", _sympy_values(sp, sp.diff(ref, sp.Symbol(var, real=True)), points),
                  _sympy_values(sp, to_sympy(sp, diff(e, var)), points), e)
    # most points are defined on both sides: 748 of 750 and 1,496 of 1,500
    assert compared["simplify"] >= 600 and compared["diff"] >= 1200
