import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.interpolate import PchipInterpolator

from ptone import modelspace, radial
from ptone.modelspace import (c_c, cot_c, from_csv, perturbed, s_c,
                              space_form, tabulated, verify_curvature_bound)


@pytest.mark.parametrize("c,t,expected", [
    (0.0, 0.7, 0.7),
    (1.0, 0.7, math.sin(0.7)),
    (-1.0, 0.7, math.sinh(0.7)),
    (4.0, 0.5, math.sin(1.0) / 2.0),
    (-4.0, 0.5, math.sinh(1.0) / 2.0),
])
def test_s_c_closed_forms(c, t, expected):
    assert s_c(c, t) == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize("c", [-2.0, -1.0, 0.0, 1.0, 2.0])
def test_s_c_pole_conditions(c):
    # f(0) = 0, f'(0) = 1 for every model.
    assert s_c(c, 0.0) == 0.0
    assert c_c(c, 0.0) == 1.0


@pytest.mark.parametrize("c", [-1.0, -0.3, 0.0, 0.3, 1.0])
def test_taylor_branch_continuity(c):
    # The series branch below the cutoff must agree with the closed form
    # just above it.
    below = modelspace._TAYLOR_CUTOFF * 0.999
    above = modelspace._TAYLOR_CUTOFF * 1.001
    assert s_c(c, below) == pytest.approx(s_c(c, above) * below / above,
                                          rel=1e-12)
    assert cot_c(c, below) * below == pytest.approx(
        cot_c(c, above) * above, rel=1e-9)


def test_cot_c_argument_order_and_values():
    # cot_c(c, t), curvature first: spherical is cot, hyperbolic is coth.
    assert cot_c(1.0, 1.0) == pytest.approx(1.0 / math.tan(1.0), rel=1e-15)
    assert cot_c(-1.0, 1.0) == pytest.approx(1.0 / math.tanh(1.0), rel=1e-15)
    assert cot_c(0.0, 0.25) == pytest.approx(4.0, rel=1e-15)


def test_cot_c_monotone_decreasing():
    t = np.linspace(0.05, 3.0, 200)
    for c in (-1.0, 0.0, 1.0):
        tt = t[t < (math.pi if c <= 0 else math.pi / math.sqrt(c)) - 0.05]
        vals = cot_c(c, tt)
        assert np.all(np.diff(vals) < 0)


def test_conjugate_point_guards():
    with pytest.raises(ValueError):
        s_c(1.0, math.pi)
    with pytest.raises(ValueError):
        cot_c(4.0, math.pi / 2.0)
    with pytest.raises(ValueError):
        space_form(1.0, r_max=math.pi)
    with pytest.raises(ValueError):
        cot_c(0.0, 0.0)


@pytest.mark.parametrize("c", [-1.0, 0.0, 1.0])
def test_space_form_eval_consistency(c):
    prof = space_form(c)
    t = np.linspace(0.0, 1.5, 7)
    f, f1, f2 = prof.eval(t)
    assert_allclose(f, s_c(c, t), rtol=1e-14)
    assert_allclose(f1, c_c(c, t), rtol=1e-14)
    assert_allclose(f2, -c * s_c(c, t), rtol=1e-14, atol=1e-16)


def test_space_form_curvature_verified():
    for c in (-1.0, 0.0, 1.0):
        rep = verify_curvature_bound(space_form(c), c)
        assert rep.ok and rep.worst_excess <= modelspace.TOL_CURV
    # Hyperbolic warping satisfies the flat bound but not vice versa.
    assert verify_curvature_bound(space_form(-1.0), 0.0).ok
    assert not verify_curvature_bound(space_form(0.0), -1.0).ok


def test_perturbed_profile_pole_and_curvature():
    prof = perturbed(0.0, 0.1, r_max=2.0)
    f, f1, f2 = prof.eval(0.0)
    assert f == 0.0 and f1 == 1.0
    t = 0.8
    f, f1, f2 = prof.eval(t)
    assert f == pytest.approx(t * (1.0 + 0.1 * t * t), rel=1e-15)
    assert verify_curvature_bound(prof, 0.0).ok
    with pytest.raises(ValueError):
        perturbed(0.0, -0.5)


def test_tabulated_matches_sampled_function():
    t = np.linspace(0.0, 2.0, 2001)
    prof = tabulated(t, np.sinh(t))
    tt = np.linspace(0.05, 1.95, 41)
    f, f1, f2 = prof.eval(tt)
    assert_allclose(f, np.sinh(tt), rtol=1e-9)
    assert_allclose(f1, np.cosh(tt), rtol=1e-5)
    assert verify_curvature_bound(prof, 0.0).ok


def test_tabulated_validation_errors():
    t = np.linspace(0.0, 1.0, 50)
    with pytest.raises(ValueError):
        tabulated(t, t + 0.1)               # f(0) != 0
    with pytest.raises(ValueError):
        tabulated(t + 0.5, t + 0.5)         # does not start at 0
    with pytest.raises(ValueError):
        tabulated(t, 2.0 * t)               # f'(0) != 1
    with pytest.raises(ValueError):
        tabulated([0.0, 0.1, 0.2], [0.0, 0.1, 0.2])   # too few samples
    shuffled = t.copy()
    shuffled[10], shuffled[11] = shuffled[11], shuffled[10]
    with pytest.raises(ValueError):
        tabulated(shuffled, shuffled)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["t", "f"])
def test_tabulated_rejects_non_finite_samples(bad, where):
    # The last sample: a NaN there passes the ordering and positivity
    # checks (comparisons with NaN are False), and so does an inf.
    t = np.linspace(0.0, 1.0, 50)
    f = np.sinh(t)
    (t if where == "t" else f)[-1] = bad
    with pytest.raises(ValueError, match="finite"):
        tabulated(t, f)


def test_tabulated_coefficients_are_read_only():
    # Profiles are shared through the solver cache; callers must not be
    # able to change one in place.  The caller's own arrays stay writable.
    t = np.linspace(0.0, 1.0, 2001)
    f = np.sinh(t)
    x, table = tabulated(t, f)._pchip
    for a in (x, table, table[4:7], table[7:]):
        with pytest.raises(ValueError):
            a[0] = 1.0
    assert t.flags.writeable and f.flags.writeable


def test_curvature_check_flags_violations():
    # f = sin has -f''/f = +1 > 0: inadmissible against the flat bound.
    t = np.linspace(0.0, 1.05, 2001)
    prof = tabulated(t, np.sin(t))
    rep = verify_curvature_bound(prof, 0.0)
    assert not rep.ok and rep.worst_excess > 0.9
    # Away from the pole (where the C^1 interpolant's second derivative
    # is noisy relative to tiny f) the measured excess is the true +1.
    inner = verify_curvature_bound(prof, 0.0,
                                   nodes=np.linspace(0.1, 1.0, 500))
    assert not inner.ok
    assert inner.worst_excess == pytest.approx(1.0, abs=1e-2)


def test_from_csv_round_trip(tmp_path):
    t = np.linspace(0.0, 1.5, 2001)
    path = tmp_path / "profile.csv"
    rows = "\n".join("%.17g,%.17g" % (a, b) for a, b in zip(t, np.sinh(t)))
    path.write_text("t,f\n" + rows + "\n")
    prof = from_csv(path)
    f, _, _ = prof.eval(1.0)
    assert f == pytest.approx(math.sinh(1.0), rel=1e-9)
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n0,0\n")
    with pytest.raises(ValueError):
        from_csv(bad)


def test_profile_domain_guard():
    prof = space_form(0.0, r_max=1.0)
    with pytest.raises(ValueError):
        prof.eval(1.5)


# the scalar evaluator of tabulated profiles


def _tabulated_profiles(tmp_path):
    """(profile, scipy PchipInterpolator of the same samples) pairs."""
    t = np.linspace(0.0, 1.05, 2001)
    samples = [(t, np.sinh(t), "tab-sinh"),
               (t, t * (1.0 + t * t / 10.0), "tab-cubic"),
               (t, np.sin(t), "inadmissible-sin")]
    pairs = [(tabulated(a, b, label=name), PchipInterpolator(a, b))
             for a, b, name in samples]
    tc = np.linspace(0.0, 1.5, 2001)
    path = tmp_path / "profile.csv"
    rows = "\n".join("%.17g,%.17g" % (a, b) for a, b in zip(tc, np.sinh(tc)))
    path.write_text("t,f\n" + rows + "\n")
    data = np.loadtxt(path, delimiter=",", skiprows=1).T
    return pairs + [(from_csv(path), PchipInterpolator(*data))]


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def _pchip_datasets():
    """Samples that reach every branch of the PCHIP slope rule."""
    rng = np.random.default_rng(20261019)
    t = np.linspace(0.0, 1.05, 2001)
    k = np.arange(6.0)
    sets = [
        (t, np.sinh(t)),                          # harmonic mean, plain ends
        (k, np.array([0.0, 1.0, 1.0, 2.0, 4.0, 5.0])),    # zero secant
        (k, np.array([0.0, 1.0, 0.5, 2.0, 1.5, 3.0])),    # sign changes
        (k[:5], np.array([0.0, 0.1, 5.1, 6.0, 6.1])),     # ends flipped to 0
        (k[:5], np.array([0.0, 1.0, -4.0, 1.0, 0.0])),    # ends clamped to 3 m
        (np.array([0.0, 0.3, 1.0, 1.2]), np.array([0.0, 0.4, 0.5, 2.0])),
    ]
    for n in (4, 5, 17, 300):                     # non-uniform spacing
        x = np.concatenate(([0.0], np.cumsum(rng.uniform(0.01, 1.0, n - 1))))
        sets += [(x, np.cumsum(rng.uniform(0.0, 1.0, n))),
                 (x, rng.normal(size=n))]
    return sets


def test_pchip_matches_scipy_bitwise():
    sets = _pchip_datasets()
    # Knot slopes show that the first five samples reach their branches.
    d = [PchipInterpolator(x, y).derivative(1)(x) for x, y in sets[:5]]
    assert np.all(d[0] > 0)
    assert d[1][1] == d[1][2] == 0.0
    assert np.all(d[2][1:-1] == 0.0)
    assert d[3][0] == d[3][-1] == 0.0
    assert d[4][0] == 3.0 and d[4][-1] == -3.0
    rng = np.random.default_rng(20261020)
    for x, y in sets:
        ref = PchipInterpolator(x, y)
        refs = (ref, ref.derivative(1), ref.derivative(2))
        pchip = modelspace._pchip(x, y)
        rows = (pchip[1][:4], pchip[1][4:7], pchip[1][7:])
        span = x[-1] - x[0]
        q = np.concatenate([x, np.nextafter(x, -np.inf),
                            np.nextafter(x, np.inf),
                            rng.uniform(x[0] - 0.1 * span, x[-1] + 0.1 * span,
                                        5000)])
        for c, v, r in zip(rows, modelspace._pchip_eval(pchip, q), refs):
            assert np.array_equal(_bits(c), _bits(r.c)), (x.size, y[:3])
            assert np.array_equal(_bits(v), _bits(r(q))), (x.size, y[:3])


def test_tabulated_f_scalar_equals_interpolant_bitwise(tmp_path):
    rng = np.random.default_rng(20261018)
    for prof, interp in _tabulated_profiles(tmp_path):
        r = prof.r_max
        pts = np.concatenate([interp.x, rng.uniform(0.0, r, 10000),
                              [0.0, r, r * (1 + 1e-12), r * (1 + 1e-3),
                               -1e-3]])
        for t in pts.tolist():
            assert prof.f_scalar(t) == float(interp(t)), (prof.label, t)


@pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
def test_tabulated_solve_unchanged_by_scalar_evaluator(p, monkeypatch):
    t = np.linspace(0.0, 1.05, 2001)
    fast = tabulated(t, np.sinh(t))
    ref = tabulated(t, np.sinh(t))
    interp = PchipInterpolator(t, np.sinh(t))
    monkeypatch.setattr(ref, "f_scalar", lambda s: float(interp(s)))
    sols = [radial.solve_ball_eigenvalue(
                radial.RadialProblem(p, 2, prof, radial.Ball(1.0)),
                use_cache=False)
            for prof in (fast, ref)]
    assert sols[0].lam == sols[1].lam
    assert np.array_equal(sols[0].omega, sols[1].omega)
    assert np.array_equal(sols[0].omega_prime, sols[1].omega_prime)
    assert sols[0].residual == sols[1].residual
