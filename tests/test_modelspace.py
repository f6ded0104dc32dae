import math
import re
from types import MappingProxyType

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


def test_cot_c_small_t_series_matches_closed_forms():
    # Below the Taylor cutoff, cot_c reads 1/t - c t/3 - c^2 t^3/45.  At
    # |c| = 1e4 and t = 9e-7 the c t/3 term is 2.7e-9 of the value, so a
    # flipped sign misses the closed forms by 5e-9, far past 1e-13.
    t = 9e-7
    rc = 100.0
    assert cot_c(1e4, t) == pytest.approx(rc / math.tan(rc * t), rel=1e-13)
    assert cot_c(-1e4, t) == pytest.approx(rc / math.tanh(rc * t),
                                           rel=1e-13)


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


def test_space_form_default_domain_stops_short_of_the_conjugate_point():
    # The conjugate point of S_c is pi/sqrt(c): pi/2 at c = 4, where
    # pi*sqrt(c) would read 2 pi.
    assert space_form(4.0).r_max == 0.999999 * math.pi / 2
    assert space_form(0.01).r_max == 8.0
    assert space_form(-1.0).r_max == 8.0


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


def test_closed_forms_reject_non_finite_parameters():
    # Refused when the profile is built, naming the parameter.
    for x in (math.nan, math.inf, -math.inf):
        for build, name in ((lambda: space_form(x), "c"),
                            (lambda: perturbed(x, 0.1, r_max=1.0), "c"),
                            (lambda: perturbed(-1.0, x, r_max=1.0), "eps")):
            with pytest.raises(ValueError, match="%s must be finite" % name):
                build()


def test_perturbed_positive_curvature_names_the_failing_radius():
    # For c > 0 the bound of S_c fails beyond the zero t* = 1.8366 of
    # 2 t cos t + sin t (c = 1), whatever eps > 0; the default r_max,
    # just short of pi, always raises.
    t_star = 1.836597203152173
    with pytest.raises(ValueError) as err:
        perturbed(1.0, 0.1)
    first = float(re.search(r"first fails at t=([0-9.]+)",
                            str(err.value)).group(1))
    assert t_star < first < t_star + 1e-3
    prof = perturbed(1.0, 0.1, r_max=1.5)
    assert verify_curvature_bound(prof, 1.0).ok


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
    # A profile is shared by every solve on it; callers must not be
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
    # is noisy relative to tiny f) the excess the check measures,
    # -f''/f - c with c = 0 from the profile's eval, is the true +1.
    f, _, f2 = prof.eval(np.linspace(0.1, 1.0, 500))
    assert np.max(-f2 / f) == pytest.approx(1.0, abs=1e-2)


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_eval_rejects_non_finite_points(bad):
    # NaN compares False both ways, so a check of "t < 0 or t > r_max"
    # let it through; every kind must reject it, scalar or in an array.
    t = np.linspace(0.0, 1.0, 2001)
    for prof in (space_form(-1.0), space_form(0.0), space_form(1.0),
                 perturbed(0.0, 0.1, r_max=2.0), tabulated(t, np.sinh(t))):
        with pytest.raises(ValueError, match="profile domain"):
            prof.eval(bad)
        with pytest.raises(ValueError, match="profile domain"):
            prof.eval(np.array([0.25, bad, 0.5]))


def _reference_warpings():
    """The closed-form f_scalar lambdas of the package before each closed
    form was written once, as (profile, lambda) pairs."""
    out = []
    for c in (-2.0, -1.0, -0.3, 0.0, 0.5, 1.0, 2.0):
        if c > 0:
            rc = math.sqrt(c)
            base = (lambda rc: lambda t: math.sin(rc * t) / rc)(rc)
        elif c == 0:
            base = lambda t: t
        else:
            rc = math.sqrt(-c)
            base = (lambda rc: lambda t: math.sinh(rc * t) / rc)(rc)
        out.append((space_form(c), base))
        for eps in (0.05, 0.1):
            out.append((perturbed(c, eps, r_max=1.0),
                        (lambda b, e: lambda t: b(t) * (1.0 + e * t * t))(
                            base, eps)))
    return out


def test_closed_form_f_scalar_keeps_its_bits():
    # f_scalar is compiled from the profile's one expression of f; it
    # must equal the lambdas it replaced bit for bit, also below the
    # 1e-6 where s_c switches to its Taylor series.
    rng = np.random.default_rng(4)
    pts = np.concatenate([[0.0, 1e-300, 5e-324], 10.0 ** rng.uniform(
        -12, -6, 2000), rng.uniform(0.0, 1.0, 8000)]).tolist()
    for prof, ref in _reference_warpings():
        got = [prof.f_scalar(t).hex() for t in pts]
        assert got == [ref(t).hex() for t in pts], prof.label


def test_warping_names_are_read_only():
    # The solver binds f_names into the forms it compiles for each solve,
    # and cached solutions are keyed by c and eps, so the names of a
    # profile must not change after it is built.
    for prof in (space_form(1.0), perturbed(-1.0, 0.1, r_max=1.0),
                 tabulated(np.linspace(0.0, 1.0, 2001),
                           np.sinh(np.linspace(0.0, 1.0, 2001)))):
        with pytest.raises(TypeError):
            prof.f_names["rc"] = 2.0
    # A tabulated profile's knots and coefficients are tuples.
    for name in ("knots", "c0", "c1", "c2", "c3"):
        with pytest.raises(TypeError):
            prof.f_names[name][0] = 0.0


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

    def scipy_f(s):
        return float(interp(s))
    # The stages read the warping as source, f_expr over f_names.
    monkeypatch.setattr(ref, "f_scalar", scipy_f)
    monkeypatch.setattr(ref, "f_expr", "scipy_f(s)")
    monkeypatch.setattr(ref, "f_names", MappingProxyType({"scipy_f": scipy_f}))
    sols = [radial.solve_ball_eigenvalue(
                radial.RadialProblem(p, 2, prof, radial.Ball(1.0)),
                use_cache=False)
            for prof in (fast, ref)]
    assert sols[0].lam == sols[1].lam
    assert np.array_equal(sols[0].omega, sols[1].omega)
    assert np.array_equal(sols[0].omega_prime, sols[1].omega_prime)
    assert sols[0].residual == sols[1].residual
