import copy
import math
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
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
    is_identically_zero,
    parse,
    pprint,
    simplify,
    zero_check,
)
from conftest import SAFE_ENV, random_tree
from helpers import fresh


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
    inner = e.args[0]
    assert inner.kind == ex.DIV
    assert inner.args[0].kind == ex.NEG
    assert inner.args[0].args[0] == T + X


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


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.text(), st.text(alphabet=PARSE_ALPHABET, max_size=60)))
def test_parse_accepts_or_raises_parse_error(text):
    # any text parses, or raises ParseError, never any other exception
    try:
        parse(text)
    except ParseError:
        pass


def test_parse_depth_limited():
    # a flat chain builds a left-deep tree, one level per operator
    for text in ("(" * 3000 + "x" + ")" * 3000, "-" * 5000 + "x",
                 "+".join(["x"] * 3000), "/".join(["x"] * 3000)):
        with pytest.raises(ParseError):
            parse(text)
    assert parse("(" * 90 + "x" + ")" * 90) == parse("x")
    assert evaluate(parse("-" * 90 + "x"), 0.0, 2.0) == 2.0
    assert evaluate(parse("+".join(["x"] * 90)), 0.0, 2.0) == 180.0


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
    e = ex.Expr(ex.DIV, (ex.ONE, ex.Expr(ex.ADD, (ex.ONE, X, Rat(-1)))))
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
    # printing the simplified tree and re-parsing reproduces it exactly
    rng = random.Random(20250810)
    for _ in range(500):
        s = simplify(random_tree(rng, rng.randint(1, 8)))
        assert simplify(parse(pprint(s))) == s


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


@settings(max_examples=200)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_simplify_idempotent_hypothesis(seed):
    rng = random.Random(seed)
    s = simplify(random_tree(rng, rng.randint(1, 6)))
    assert simplify(fresh(s)) == s


# ------------------------------------------------------------- zero check

def test_zero_check_examples():
    assert is_identically_zero(diff(parse("-ln(x)"), "t"), (0, 1, 0.5, 1.5))
    assert not is_identically_zero(parse("t + x"), (0, 1, 0, 1))
    zc = zero_check(parse("ln(exp(t)) - t"), (0, 1, 0, 1))
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
    for n in (16, ex.SAMPLES):
        want = [(tmin + radical_inverse(i, 2) * (tmax - tmin),
                 xmin + radical_inverse(i, 3) * (xmax - xmin)) for i in range(1, n + 1)]
        # the unit points are shared between calls; the result is a new list
        first, second = ex.sample_points(domain, n), ex.sample_points(domain, n)
        assert first == second == pytest.approx(want, rel=1e-15, abs=0)
        assert first is not second


def test_zero_check_requires_16_samples():
    with pytest.raises(ValueError):
        zero_check(Rat(0), (0, 1, 0, 1), samples=8)


def test_pprint_fully_parenthesized():
    s = simplify(parse("t - 2*x^2 + x^(3/2)"))
    text = pprint(s)
    assert simplify(parse(text)) == s
    assert text.startswith("(") and text.endswith(")")


# ------------------------------------------------------- sympy cross-check

def _to_sympy(sp, e):
    """e as a sympy expression over real symbols, parameters included."""
    k = e.kind
    if k == ex.RAT:
        return sp.Rational(e.value.numerator, e.value.denominator)
    if k in (ex.VAR, ex.PARAM):
        return sp.Symbol(e.name, real=True)
    a = [_to_sympy(sp, arg) for arg in e.args]
    if k == ex.ADD:
        return sp.Add(*a)
    if k == ex.MUL:
        return sp.Mul(*a)
    if k == ex.SUB:
        return a[0] - a[1]
    if k == ex.DIV:
        return a[0] / a[1]
    if k == ex.POW:
        return a[0] ** a[1]
    if k == ex.NEG:
        return -a[0]
    return {ex.EXP: sp.exp, ex.LN: sp.log, ex.SQRT: sp.sqrt,
            ex.SIN: sp.sin, ex.COS: sp.cos}[k](a[0])


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
    points = ex.sample_points((0.5, 1.5, 0.5, 1.5), 5)
    trees = 0
    compared = {"simplify": 0, "diff": 0}

    def check(what, want, got, e):
        assert all(_agree(a, b) for a, b in zip(want, got)), (what, pprint(e), want, got)
        compared[what] += sum(a is not None and b is not None for a, b in zip(want, got))

    while trees < 150:
        e = random_tree(rng, rng.randint(1, 4))
        ref = _to_sympy(sp, e)
        want = _sympy_values(sp, ref, points)
        if all(v is None for v in want):
            continue
        trees += 1
        check("simplify", want, _sympy_values(sp, _to_sympy(sp, simplify(e)), points), e)
        for var in ("t", "x"):
            check("diff", _sympy_values(sp, sp.diff(ref, sp.Symbol(var, real=True)), points),
                  _sympy_values(sp, _to_sympy(sp, diff(e, var)), points), e)
    # most points are defined on both sides: 748 of 750 and 1,496 of 1,500
    assert compared["simplify"] >= 600 and compared["diff"] >= 1200
