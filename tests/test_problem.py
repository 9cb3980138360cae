import math
import random

import pytest
import scalar_reference

from jacobi_invariants import expr as ex
from jacobi_invariants import problem as problem_module
from jacobi_invariants.expr import Rat, parse
from jacobi_invariants.problem import (
    AUTONOMOUS,
    GENERAL,
    TIME_INDEPENDENT_PHI,
    Integrand,
    JacobiProblem,
    LagrangianData,
    ProblemError,
    canonical,
    classify,
    euler_lagrange_residual,
    lagrangian_residual_expr,
    read_channel,
    rhs,
    validate_lagrangian,
)
from jacobi_invariants.verify import oracle_channels


@pytest.fixture
def pg18():
    return JacobiProblem(phi=parse("-ln(x)"), B=parse("-4*x^2"),
                         t0=0.0, t_end=0.4, x0=1.0, v0=0.0,
                         domain=(0.0, 0.4, 0.4, 3.0))


def test_constructor_guards():
    with pytest.raises(ProblemError):
        JacobiProblem(phi=parse("0"), B=parse("0"), t0=1.0, t_end=0.5)
    with pytest.raises(ProblemError):
        # ln(x) undefined at the initial point
        JacobiProblem(phi=parse("-ln(x)"), B=parse("0"), t0=0, t_end=1, x0=-1.0)


def test_default_domain():
    p = JacobiProblem(phi=parse("0"), B=parse("0"), t0=0, t_end=2, x0=1.0)
    assert p.domain == (0, 2, -2.0, 4.0)


def test_classify_three_regimes(pg18):
    assert classify(pg18).tag == AUTONOMOUS
    p4 = JacobiProblem(phi=ex.ZERO, B=parse("-(6*x^2+t)"), t0=0, t_end=0.7, x0=1.0)
    assert classify(p4).tag == TIME_INDEPENDENT_PHI
    pj = JacobiProblem(phi=parse("t+x"), B=parse("rho*exp(-(t+x)/2)"),
                       params={"rho": 1.0}, t0=0, t_end=4, x0=2 * math.log(4), v0=-1)
    assert classify(pj).tag == GENERAL


def test_classify_is_computed_once_per_problem(monkeypatch, pg18):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return ex.zero_check(*args, **kwargs)

    monkeypatch.setattr(problem_module, "zero_check", counting)
    first = classify(pg18)
    assert first.tag == AUTONOMOUS and len(calls) == 2
    calls.clear()
    assert classify(pg18) is first
    assert calls == []


def test_classify_stable_under_forcing_rescaling(pg18):
    for c in ("2", "-3", "1/7"):
        p = JacobiProblem(phi=pg18.phi, B=ex.simplify(parse(c) * pg18.B),
                          t0=0, t_end=0.4, x0=1.0, domain=pg18.domain)
        assert classify(p).tag == classify(pg18).tag


def test_classify_numeric_zero_attaches_warning():
    # phi_t = sin(x)^2 + cos(x)^2 - 1: zero numerically, not structurally
    p = JacobiProblem(phi=parse("t*(sin(x)^2 + cos(x)^2 - 1)"),
                      B=parse("-4*x^2"), t0=0, t_end=0.4, x0=1.0,
                      domain=(0.0, 0.4, 0.4, 3.0))
    cls = classify(p)
    assert cls.tag == AUTONOMOUS
    assert any("sampling" in w for w in cls.warnings)


def test_rhs_examples(pg18):
    assert rhs(pg18)(0.0, 1.0, 0.0)[1] == pytest.approx(4.0, abs=1e-14)
    free = JacobiProblem(phi=ex.ZERO, B=ex.ZERO, t0=0, t_end=1)
    assert rhs(free)(0.3, 5.0, -2.0)[1] == 0.0
    pj = JacobiProblem(phi=parse("t+x"), B=parse("rho*exp(-(t+x)/2)"),
                       params={"rho": 1.0}, t0=0, t_end=1, x0=0.0, v0=0.0)
    assert rhs(pj)(0.0, 0.0, 0.0)[1] == pytest.approx(-1.0, abs=1e-14)


def _outcome(f, *point):
    """The values of f bit for bit, or the type and text of its DomainError."""
    try:
        return tuple(float(value).hex() for value in f(*point))
    except ex.DomainError as err:
        return type(err), str(err)


def _assert_fused_rhs_is_bit_identical(loaded, channels_of):
    rng = random.Random(2024)
    for fid, fx in loaded.items():
        p = fx.problem
        integrands = tuple(map(canonical, channels_of(fid)))
        reads = read_channel(integrands) is not None
        fused, separate = rhs(p, integrands), scalar_reference.rhs(p, integrands)
        t0, t1, x0, x1 = p.domain
        values = 0
        for _ in range(200):
            point = (rng.uniform(t0, t1), rng.uniform(x0, x1), rng.uniform(-3.0, 3.0),
                     *([rng.uniform(-1.0, 1.0)] if reads else []))
            want = _outcome(separate, *point)
            assert _outcome(fused, *point) == want, (fid, point)
            values += isinstance(want[0], str)
        assert values > 100, fid


def test_fused_rhs_is_bit_identical_to_separate_callables(loaded, constructions):
    _assert_fused_rhs_is_bit_identical(loaded, lambda fid: constructions[fid].integrands)


def test_fused_rhs_on_the_oracle_channels_is_bit_identical(loaded, families):
    # the work channel is a polynomial in v, dressed by the channel b when
    # the family has an exponential factor
    _assert_fused_rhs_is_bit_identical(loaded, lambda fid: oracle_channels(
        loaded[fid].problem, loaded[fid].lagrangian, families[fid]))


def test_rhs_reads_the_one_channel_a_dressed_integrand_names():
    p = JacobiProblem(phi=ex.ZERO, B=parse("x"), t0=0, t_end=1, x0=0.5, v0=0.0)
    b, g = parse("t"), parse("x^2")
    work = Integrand((parse("x"), ex.ZERO, parse("t")), sign=-1, channel=b)
    assert read_channel((g, b, work)) == 1 and read_channel((g, b)) is None
    f = rhs(p, (g, b, work))
    # exp(-u)*(x + t*v^2) with u = 0.5
    want = math.exp(-0.5) * (3.0 + 2.0 * 0.5 * 0.5)
    assert f(2.0, 3.0, 0.5, 0.5) == (0.5, -3.0, 9.0, 2.0, want)
    assert rhs(p, (Integrand((parse("x"), parse("t")),),))(2.0, 3.0, 0.5) == (0.5, -3.0, 4.0)
    with pytest.raises(ProblemError, match="not registered"):
        read_channel((g, work))
    other = Integrand((ex.ONE,), sign=1, channel=g)
    with pytest.raises(ProblemError, match="more than one channel"):
        read_channel((g, b, work, other))
    for bad in (dict(coeffs=()), dict(coeffs=(ex.ONE,), sign=2, channel=b),
                dict(coeffs=(ex.ONE,), sign=1), dict(coeffs=(ex.ONE,), channel=b)):
        with pytest.raises(ValueError):
            Integrand(**bad)


def test_rhs_is_built_once_per_problem_and_channel_tuple(pg18):
    g = (parse("x"),)
    f = rhs(pg18, g)
    assert rhs(pg18, (parse("x"),)) is f
    assert rhs(pg18, ()) is not f
    assert rhs(pg18, g) is not f  # only the last one built is kept


def test_fused_rhs_raises_the_separate_domain_error():
    # ln(x) in the forcing leaves its domain at x <= 0, the channel at x = 1
    p = JacobiProblem(phi=ex.ZERO, B=parse("ln(x)"), t0=0, t_end=1, x0=0.5, v0=0.0)
    integrands = (parse("t"), parse("1/(x - 1)"))
    fused, separate = rhs(p, integrands), scalar_reference.rhs(p, integrands)
    for x, reason in ((-0.5, "ln of non-positive value"), (0.0, "ln of non-positive value"),
                      (1.0, "division by zero")):
        want = _outcome(separate, 0.25, x, 2.0)
        assert want[0] is ex.DomainError and want[1].startswith(reason)
        assert _outcome(fused, 0.25, x, 2.0) == want
    assert isinstance(_outcome(fused, 0.25, 2.0, 2.0)[0], str)


def test_rhs_compiles_its_fallback_only_on_a_fast_path_failure(monkeypatch, loaded):
    original = ex.compile_fn
    compiled = []
    monkeypatch.setattr(ex, "compile_fn", lambda *args: compiled.append(args) or original(*args))
    p = loaded["PG18"].problem
    f = rhs(p, (parse("x^(1/2)"),))
    assert f(0.0, 1.0, 0.0) == (0.0, 4.0, 1.0) and compiled == []
    # phi_x, B and the channel, compiled once; PG18's phi_t is structurally
    # zero, and the acceleration leaves its term out
    for _ in range(2):
        with pytest.raises(ex.DomainError, match="negative base with fractional exponent"):
            f(0.0, -1.0, 0.0)
        assert len(compiled) == 3
    # free parameters are still checked when the function is built
    with pytest.raises(ex.UnboundParameterError):
        rhs(p, (parse("k*x"),))


def test_validate_lagrangian_autonomous(pg18):
    reports = validate_lagrangian(pg18, LagrangianData(ex.ZERO, parse("2*x^2")))
    assert reports[0].passed and reports[0].structural


def test_validate_lagrangian_with_eta():
    p4 = JacobiProblem(phi=ex.ZERO, B=parse("-(6*x^2+t)"), t0=0, t_end=0.7, x0=1.0)
    L = LagrangianData(parse("-6*x^2*t"), parse("t*x"), eta=parse("-2*x^3*t"))
    reports = validate_lagrangian(p4, L)
    assert all(r.passed for r in reports)
    assert {r.name for r in reports} == {"lagrangian_constraint", "delta1_is_dx_eta"}


def test_validate_lagrangian_failure_is_reported_not_raised(pg18):
    reports = validate_lagrangian(pg18, LagrangianData(ex.ZERO, ex.ZERO))
    assert not reports[0].passed
    assert reports[0].residual != "0"


def test_lagrangian_residual_expr(pg18):
    assert lagrangian_residual_expr(
        pg18, LagrangianData(ex.ZERO, parse("2*x^2"))) == Rat(0)


def test_euler_lagrange_free_particle():
    free = JacobiProblem(phi=ex.ZERO, B=ex.ZERO, t0=0, t_end=1)
    res = euler_lagrange_residual(free, LagrangianData(ex.ZERO, ex.ZERO))
    assert res(0.0, 1.0, 2.0, 0.0) == 0.0
    assert res(0.0, 1.0, 2.0, 1.0) == 1.0


def test_euler_lagrange_vanishes_on_rhs(pg18):
    f = rhs(pg18)
    res = euler_lagrange_residual(pg18, LagrangianData(ex.ZERO, parse("2*x^2")))
    for (t, x, v) in [(0.0, 1.0, 0.0), (0.1, 1.2, 0.8), (0.3, 2.0, 3.0)]:
        a = f(t, x, v)[1]
        assert abs(res(t, x, v, a)) < 1e-8 * (1 + abs(a))
