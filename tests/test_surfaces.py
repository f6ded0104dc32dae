import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ptone import radial, surfaces
from ptone.radial import ball_problem
from ptone.surfaces import (SurfaceBand, angle_cos, band_report,
                            extrinsic_distance, get_surface,
                            modelcontrol_check, plap_intrinsic, plap_jk,
                            route_agreement, shape_operator_numeric,
                            transplant)


def flat_solution(p, r):
    return radial.solve_ball_eigenvalue(ball_problem(p, 2, 0.0, r))


# catalog geometry


def test_get_surface_and_validation():
    assert get_surface("plane").kind == "plane"
    assert get_surface("catenoid").kind == "catenoid"
    with pytest.raises(ValueError):
        get_surface("helicoid")


def test_catenoid_profile_closed_forms():
    cat = get_surface("catenoid")
    s = 0.7
    w = 1.0 + s * s
    rho, rho1, rho2, z1, z2 = cat.profile(s)
    assert rho == pytest.approx(math.sqrt(w), rel=1e-15)
    assert rho1 == pytest.approx(s / math.sqrt(w), rel=1e-15)
    assert rho2 == pytest.approx(1.0 / math.sqrt(w) ** 3, rel=1e-14)
    assert z1 == pytest.approx(1.0 / math.sqrt(w), rel=1e-15)
    # arclength parametrization: rho'^2 + z'^2 = 1
    assert rho1 ** 2 + z1 ** 2 == pytest.approx(1.0, abs=1e-15)
    x, y, z = cat.embedding(s)
    assert x == pytest.approx(rho) and y == 0.0
    assert z == pytest.approx(math.asinh(s), rel=1e-15)


def test_catenoid_is_minimal_with_known_second_form():
    cat = get_surface("catenoid")
    s = np.linspace(-3.0, 3.0, 101)
    k1, k2 = cat.principal_curvatures(s)
    assert_allclose(k1 + k2, 0.0, atol=1e-14)          # minimality
    assert_allclose(cat.mean_curvature(s), 0.0, atol=1e-14)
    assert_allclose(cat.second_form_norm(s),
                    math.sqrt(2.0) / (1.0 + s ** 2), rtol=1e-12)


def test_plane_is_flat():
    plane = get_surface("plane")
    s = np.linspace(0.1, 2.0, 17)
    k1, k2 = plane.principal_curvatures(s)
    assert_allclose(k1, 0.0, atol=1e-15)
    assert_allclose(k2, 0.0, atol=1e-15)
    assert_allclose(plane.second_form_norm(s), 0.0, atol=1e-15)


@pytest.mark.parametrize("kind", ["plane", "catenoid"])
def test_shape_operator_numeric_agrees(kind):
    surf = get_surface(kind)
    s = np.linspace(-2.5, 2.5, 101) if kind == "catenoid" \
        else np.linspace(0.1, 2.5, 101)
    k1c, k2c = surf.principal_curvatures(s)
    num = [shape_operator_numeric(surf, float(si)) for si in s]
    k1n = np.array([x[0] for x in num])
    k2n = np.array([x[1] for x in num])
    assert float(np.max(np.abs(k1n - k1c))) <= 1e-6
    assert float(np.max(np.abs(k2n - k2c))) <= 1e-6


# extrinsic distance and contact angle


def test_extrinsic_distance_closed_forms():
    plane = get_surface("plane")
    cat = get_surface("catenoid")
    assert extrinsic_distance(plane, 1.3) == pytest.approx(1.3)
    assert extrinsic_distance(cat, 0.0) == 1.0        # the neck circle
    assert extrinsic_distance(cat, 1.0) == pytest.approx(
        1.6663791284985827, rel=1e-12)


def test_angle_cos_fixtures():
    cat = get_surface("catenoid")
    assert angle_cos(cat, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert angle_cos(cat, 2.0) == pytest.approx(0.9939958042878607,
                                                rel=1e-12)
    assert angle_cos(get_surface("plane"), 0.5) == 1.0
    with pytest.raises(ValueError):
        angle_cos(get_surface("plane"), 0.0)          # pole point


# bands


def test_band_from_radius_plane():
    band = SurfaceBand.from_radius(get_surface("plane"), 1.2)
    assert band.s_range == (0.0, 1.2)
    assert band.k == 1.0


@pytest.mark.parametrize("r,smax_ref", [(1.1, 0.3268021687),
                                        (1.2, 0.4772063114)])
def test_band_from_radius_catenoid(r, smax_ref):
    band = SurfaceBand.from_radius(get_surface("catenoid"), r)
    lo, hi = band.s_range
    assert lo == -hi
    assert hi == pytest.approx(smax_ref, rel=1e-9)
    assert band.k == 0.0                              # neck is orthogonal
    assert extrinsic_distance(band.surface, hi) == pytest.approx(r,
                                                                 abs=1e-12)


@pytest.mark.parametrize("r", [1.05, 1.1, 1.2, 2.0, 5.0])
def test_band_end_matches_scipy_brentq(r):
    from scipy.optimize import brentq

    surface = get_surface("catenoid")
    ref = brentq(lambda s: float(extrinsic_distance(surface, s)) - r,
                 0.0, r, xtol=1e-14, rtol=8.9e-16)
    assert abs(SurfaceBand.from_radius(surface, r).s_range[1] - ref) <= 1e-14


def test_band_requires_radius_beyond_neck():
    with pytest.raises(ValueError):
        SurfaceBand.from_radius(get_surface("catenoid"), 0.9)
    with pytest.raises(ValueError):
        SurfaceBand(get_surface("catenoid"), 1.2, (-0.3, 0.3), 0.0)


# transplants and the two p-Laplacian routes


def test_plane_transplant_is_exact_restriction():
    sol = flat_solution(2.0, 1.2)
    tr = transplant(sol, get_surface("plane"))
    w_direct, _ = sol.evaluate(np.abs(tr.s))
    assert np.array_equal(tr.psi, w_direct)
    assert abs(tr.psi[-1]) <= 1e-8                    # Dirichlet end
    assert_allclose(tr.cos_alpha, 1.0, atol=1e-15)


def test_catenoid_transplant_band_values():
    sol = flat_solution(2.0, 1.2)
    tr = transplant(sol, get_surface("catenoid"))
    assert abs(tr.psi[0]) <= 1e-8 and abs(tr.psi[-1]) <= 1e-8
    mid = tr.n // 2
    assert tr.t[mid] == pytest.approx(1.0)            # neck hits t = 1
    w_neck, _ = sol.evaluate(1.0)
    assert tr.psi[mid] == pytest.approx(w_neck, rel=1e-12)
    assert np.all(tr.t <= 1.2 + 1e-12)


def test_transplant_validates_model():
    sol_m3 = radial.solve_ball_eigenvalue(ball_problem(2.0, 3, 0.0, 1.2))
    with pytest.raises(ValueError):
        transplant(sol_m3, get_surface("catenoid"))
    sol_curved = radial.solve_ball_eigenvalue(ball_problem(2.0, 2, 1.0, 1.2))
    with pytest.raises(ValueError):
        transplant(sol_curved, get_surface("catenoid"))
    sol_small = flat_solution(2.0, 1.1)
    band = SurfaceBand.from_radius(get_surface("catenoid"), 1.2)
    with pytest.raises(ValueError):
        transplant(sol_small, get_surface("catenoid"), band=band)


@pytest.mark.parametrize("kind,p", [("plane", 3.0), ("catenoid", 2.5)])
def test_route_agreement(kind, p):
    ra = route_agreement(get_surface(kind), p, 1.2)
    assert ra["sup_scaled"] <= 1e-6
    assert ra["count"] > 1000


def test_plap_jk_requires_transplant_fields():
    sol = flat_solution(2.0, 1.2)
    tr = transplant(sol, get_surface("catenoid"))
    vals = plap_jk(tr)
    assert vals.shape == tr.s.shape
    assert np.isnan(vals[tr.n // 2])                  # neck: grad = 0 there
    with pytest.raises(TypeError):
        plap_jk(tr.psi)


# model-control inequality and band reports


@pytest.mark.parametrize("r,rel_ref", [(1.1, 3.3235), (1.2, 1.5965)])
def test_modelcontrol_catenoid_margins(r, rel_ref):
    sol = flat_solution(2.0, r)
    chk = modelcontrol_check(get_surface("catenoid"), sol)
    assert chk["pass"]
    assert chk["min_margin"] / sol.lam == pytest.approx(rel_ref, rel=1e-3)


def test_modelcontrol_plane_is_tight():
    sol = flat_solution(2.0, 1.2)
    chk = modelcontrol_check(get_surface("plane"), sol)
    assert chk["pass"]
    assert abs(chk["min_margin"]) <= 1e-7 * sol.lam


def test_modelcontrol_requires_p_at_least_two():
    sol = radial.solve_ball_eigenvalue(ball_problem(1.5, 2, 0.0, 1.2))
    with pytest.raises(ValueError):
        modelcontrol_check(get_surface("catenoid"), sol)


def test_band_report_catenoid_frozen():
    rep = band_report(get_surface("catenoid"), 1.2, 2.0)
    assert rep.k == 0.0
    assert rep.lambda_model == pytest.approx(4.0161013631552, rel=1e-10)
    assert rep.rhs == pytest.approx(rep.lambda_model)  # p = 2: k drops out
    assert rep.lambda_band_upper == pytest.approx(11.301498329927336,
                                                  rel=1e-6)
    assert rep.lambda_band_upper > rep.lambda_model
    assert rep.modelcontrol_margin == pytest.approx(6.411594475746857,
                                                    rel=1e-6)
    assert rep.cor13 is True        # ||A||^2 = 2 <= lambda_model
    assert rep.cor15 is False       # sqrt(2) > 1/(p r) = 1/2.4
    assert not rep.vacuous


def test_band_report_catenoid_p3_vacuous():
    rep = band_report(get_surface("catenoid"), 1.2, 3.0)
    assert rep.vacuous                                # k = 0 kills k^{p-2}
    assert rep.rhs == 0.0
    assert rep.cor13 is False
    assert rep.lambda_band_upper == pytest.approx(33.867722, rel=1e-4)


def test_band_report_plane_rigidity():
    rep = band_report(get_surface("plane"), 1.2, 2.0)
    assert rep.k == 1.0
    assert rep.lambda_band_upper == pytest.approx(rep.lambda_model,
                                                  rel=1e-4)
    assert rep.cor13 is True and rep.cor15 is True    # ||A|| = 0
    assert abs(rep.modelcontrol_margin) <= 1e-7 * rep.lambda_model


def test_band_report_csv_round_trip():
    rep = band_report(get_surface("plane"), 1.1, 2.0)
    row = rep.csv_row()
    assert len(row) == len(surfaces.BandReport.CSV_FIELDS)
    d = rep.to_json()
    assert d["surface"] == "plane" and d["p"] == 2.0
