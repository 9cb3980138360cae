"""Whole-grid evaluation agrees bit for bit with the point-by-point
reference in ``scalar_reference``: dense-output states, invariant series
(including where a series leaves its domain, alone or in a pass over
several), every series a run computes, the Simpson prefix sums and the
oracle series."""

import json
import pathlib
import random
from fractions import Fraction

import numpy as np
import pytest

import scalar_reference as ref
from jacobi_invariants import catalog, cli
from jacobi_invariants import expr as ex
from jacobi_invariants.expr import parse
from jacobi_invariants.integrate import (BLOCK, IntegrationError, Trajectory, evaluate_along,
                                         integrate)
from jacobi_invariants.invariants import NONLOCAL_CONSTANT, InvariantSpec
from jacobi_invariants.problem import JacobiProblem
from jacobi_invariants.verify import _prefix_simpson, oracle_constant
from helpers import EARLY_ENDS, LONG_WINDOWS, free_particle, integration_case, spec_value


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def cosine_problem():
    """x'' + x = 0 from x = 1: x(t) = cos(t) turns negative at t = pi/2."""
    return JacobiProblem(phi=ex.ZERO, B=ex.X, t0=0.0, t_end=3.0, x0=1.0, v0=0.0,
                         domain=(0.0, 3.0, 0.5, 1.5))


def leaving_spec():
    """Every part of a spec's value, with coefficients that leave their
    domain once x turns negative (ln, sqrt, fractional power)."""
    return InvariantSpec(
        name="leaves_domain",
        kind=NONLOCAL_CONSTANT,
        poly={2: parse("exp(t)/2"), 1: parse("sqrt(x)*cos(t)"),
              0: parse("ln(x) + x^(3/2) - 1/(x - 2)")},
        integrands=(parse("x"),),
        exp_sign=-1,
        linear_channels=((Fraction(1, 2), 0),),
        exp_closed_arg=parse("t/3"),
    )


def test_sample_matches_pointwise_state(trajectories):
    # the fixtures' runs, the long windows' and the runs that end early,
    # three of them with inf and nan in their last rows; and two that end
    # after one step, and after none, where a channel is undefined at t0
    runs = dict(trajectories)
    for name in LONG_WINDOWS + tuple(EARLY_ENDS):
        p, integrands, tol, quadratures = integration_case(name)
        runs[name] = integrate(p, integrands, (tol, tol), quadratures)
    runs["one_step"] = integrate(free_particle(t_end=1e-3), (), (1e-10, 1e-10))
    runs["no_step"] = integrate(free_particle(), (parse("ln(x)"),), (1e-10, 1e-10))
    assert sum(not np.isfinite(traj.conts).all() for traj in runs.values()) == 3
    assert (len(runs["one_step"].conts), len(runs["no_step"].conts)) == (1, 0)
    for fid, traj in runs.items():
        ts = np.concatenate([np.linspace(traj.t0, traj.t_last, 1031), traj.ts])
        want = np.array([ref.state(traj, float(t)) for t in ts])
        assert same_bits(traj.sample(ts), want), fid
        s = traj.state(float(ts[7]))
        assert same_bits([s.x, s.v, *s.u], want[7]), fid


def test_sample_rejects_times_outside_the_window(trajectories):
    traj = trajectories["PG18"]
    with pytest.raises(IntegrationError, match="outside integrated window"):
        traj.sample([traj.t0, traj.t_last + 1e-9])
    with pytest.raises(IntegrationError):
        traj.state(float("nan"))


@pytest.mark.parametrize("grid", [BLOCK, 1500])
def test_evaluate_along_matches_pointwise_loop(constructed, trajectories, grid):
    for fid, specs in constructed.items():
        for spec in specs:
            series = evaluate_along(trajectories[fid], spec, grid)
            ts, values, truncated, _ = ref.evaluate_along(trajectories[fid], spec, grid)
            assert not truncated and not series.truncated
            assert same_bits(series.ts, ts) and same_bits(series.values, values), \
                (fid, spec.name)


@pytest.mark.parametrize("grid", [BLOCK, 3000])
def test_evaluate_along_truncates_where_the_pointwise_loop_does(grid):
    spec = leaving_spec()
    traj = integrate(cosine_problem(), spec.integrands, (1e-10, 1e-10))
    series = evaluate_along(traj, spec, grid)
    ts, values, truncated, abort = ref.evaluate_along(traj, spec, grid)
    assert truncated and series.truncated
    assert 1 < len(values) < grid
    assert same_bits(series.ts, ts) and same_bits(series.values, values)
    assert (series.error.t, series.error.x) == abort
    assert all(type(c) is float for c in (series.error.t, series.error.x))
    assert abort[1] <= 0.0
    assert abort[0] == pytest.approx(np.pi / 2, abs=3.0 / (grid - 1))


def test_a_pass_truncates_each_series_where_its_pointwise_loop_does(monkeypatch):
    # at 3000 points, three blocks: one spec leaves its domain at t = 1/2,
    # in the first block, the other at t = pi/2, in the second.  Each series
    # stops where its own pointwise loop does, the other runs on past it,
    # and the third block, after the last live series, is never sampled
    early = InvariantSpec(name="leaves_early", kind=NONLOCAL_CONSTANT,
                          poly={0: parse("sqrt(1/2 - t)")})
    late = leaving_spec()
    traj = integrate(cosine_problem(), late.integrands, (1e-10, 1e-10))
    sizes = []
    original = Trajectory.sample
    monkeypatch.setattr(Trajectory, "sample",
                        lambda self, ts: sizes.append(len(ts)) or original(self, ts))
    got = traj.series((early, late), 3000)
    assert sizes == [BLOCK, BLOCK]
    assert 1 < len(got[0].values) < BLOCK < len(got[1].values) < 2 * BLOCK
    for spec, series in zip((early, late), got):
        ts, values, truncated, abort = ref.evaluate_along(traj, spec, 3000)
        assert truncated and (series.error.t, series.error.x) == abort, spec.name
        assert same_bits(series.ts, ts) and same_bits(series.values, values), spec.name
    # reads are served from the store, with no sampling
    assert evaluate_along(traj, late, 3000) is got[1]
    assert sizes == [BLOCK, BLOCK]


@pytest.mark.parametrize("name", catalog.ids() + LONG_WINDOWS)
def test_every_series_of_a_run_matches_the_pointwise_loop(name, monkeypatch):
    # run --oracle computes the invariants' series and the oracle's on the
    # coarse and the fine trajectory: each is the pointwise loop's, bit for
    # bit, and the store holds them all
    if name in LONG_WINDOWS:
        data, threshold = json.loads(
            (pathlib.Path(__file__).parent / "data" / f"{name}.json").read_text()), 1e-6
    else:
        data, threshold = catalog.get(name).data, catalog.get(name).drift_threshold
    runs = []
    original = cli.integrate
    monkeypatch.setattr(cli, "integrate", lambda *args: runs.append(original(*args)) or runs[-1])
    problem, exprs = cli.load_problem(data)
    report, _, _ = cli.run_pipeline(problem, exprs, data, oracle=True, threshold=threshold)
    assert len(runs) == 2
    names = [entry["name"] for entry in report["invariants"]] + ["oracle"]
    for traj in runs:
        stored = traj._series.values()
        assert sorted(spec.name for spec, _ in stored) == sorted(names)
        for spec, series in stored:
            ts, values, _, _ = ref.evaluate_along(traj, spec, 1024)
            assert same_bits(series.ts, ts) and same_bits(series.values, values), spec.name


def test_invariant_value_raises_outside_the_domain():
    spec = leaving_spec()
    assert spec_value(spec, 0.0, 1.0, 0.0, [0.0]) == pytest.approx(2.0)
    with pytest.raises(ex.DomainError, match="ln of non-positive value"):
        spec_value(spec, 0.0, -1.0, 0.0, [0.0])


def test_prefix_simpson_matches_running_loop():
    rng = random.Random(3)
    for n in list(range(8, 40)) + [1025, 4096]:
        fs = np.array([rng.uniform(-2.0, 2.0) for _ in range(n)])
        h = rng.uniform(1e-4, 0.1)
        assert same_bits(_prefix_simpson(fs, h), ref.prefix_simpson(fs, h)), n
    zeros = np.full(9, -0.0)
    assert same_bits(_prefix_simpson(zeros, 0.5), ref.prefix_simpson(zeros, 0.5))


def test_oracle_constant_matches_pointwise_loop(loaded, trajectories, families):
    for fid, fx in loaded.items():
        traj = trajectories[fid]
        series = oracle_constant(fx.problem, fx.lagrangian, families[fid], traj, 1024)
        want = ref.oracle_constant(fx.problem, fx.lagrangian, families[fid], traj, 1024)
        assert same_bits(series.values, want), fid
        assert same_bits(series.ts, np.linspace(traj.t0, traj.t_last, 1024))
