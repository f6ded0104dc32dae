"""Discrete weighted p-Rayleigh quotients on 1-d grids.

The quotient

    R(u) = int w |u'|^p dt / int w |u|^p dt,    w = f^{m-1},

discretized with midpoint gradient weights, gives an independent
variational estimate of the first Dirichlet p-eigenvalue: its minimum
over fields vanishing at the Dirichlet endpoints converges to lambda as
the grid refines.  It is not an upper bound: the node-quadrature mass
can pull the discrete minimum below lambda (m = 1, p = 2, n = 2000 gives
2.4674009733 against (pi/2)^2 = 2.4674011003).  A certified upper bound
would take the continuous quotient of the minimizer as a P1 function
(ROADMAP, open item 5).  The minimizer here is a projected
preconditioned gradient descent: plain gradient steps on the p-energy
contract like 1 - lambda h^2 per sweep and would need millions of
iterations at n = 2000, so the descent direction is preconditioned by
the frozen-coefficient stiffness matrix (the linearization of the
p-Laplacian around the current iterate), solved as a banded system.
"""

import numpy as np
from scipy.linalg import solveh_banded

from .radial import signed_power

_GRAD_FLOOR = 1e-3   # relative floor on |u'| inside the preconditioner
_ARMIJO = 1e-4
_SHRINK = 0.5
_STALL_WINDOW = 20


class Grid1D:
    """Nodes, positive weight w = f^{m-1}, and Dirichlet endpoint flags.

    The weight may vanish only at a pole endpoint (t = 0); midpoint
    quadrature keeps the energy finite there without special cases.
    """

    def __init__(self, nodes, weight, bc):
        nodes = np.asarray(nodes, dtype=float)
        weight = np.asarray(weight, dtype=float)
        if nodes.ndim != 1 or nodes.size < 3:
            raise ValueError("need at least 3 nodes")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        if weight.shape != nodes.shape:
            raise ValueError("weight and nodes must have the same length")
        interior = weight[1:-1]
        if np.any(interior <= 0):
            raise ValueError("weight must be positive on interior nodes")
        if weight[0] < 0 or weight[-1] < 0:
            raise ValueError("weight must be nonnegative")
        if weight[0] == 0 and nodes[0] != 0:
            raise ValueError("weight may vanish only at a pole endpoint t=0")
        self.nodes = nodes
        self.weight = weight
        self.bc = (bool(bc[0]), bool(bc[1]))
        # The quadrature geometry, read by every energy, mass and
        # preconditioner evaluation of the minimizer.
        h = np.diff(nodes)
        dual = np.empty(nodes.size)
        dual[0] = h[0] / 2
        dual[-1] = h[-1] / 2
        dual[1:-1] = (h[:-1] + h[1:]) / 2
        wmid = 0.5 * (weight[:-1] + weight[1:])
        for arr in (h, dual, wmid):
            arr.setflags(write=False)
        self._cells, self._duals, self._wmid = h, dual, wmid

    @classmethod
    def from_problem(cls, problem, n=2000):
        """Uniform grid over a RadialProblem domain with weight f^{m-1}."""
        d = problem.domain
        if d.kind == "ball":
            left, right, bc = 0.0, d.r, (False, True)
        else:
            left, right, bc = d.a, d.b, (True, True)
        nodes = np.linspace(left, right, n)
        f = problem.profile.eval(nodes)[0]
        weight = f ** (problem.m - 1) if problem.m > 1 else np.ones_like(nodes)
        return cls(nodes, weight, bc)

    @property
    def n(self):
        return self.nodes.size

    def cell_sizes(self):
        """Cell lengths (read-only)."""
        return self._cells

    def dual_sizes(self):
        """Node-centered quadrature lengths, half cells at the ends
        (read-only)."""
        return self._duals

    def boundary_profile(self):
        """Distance-to-Dirichlet-boundary field, the default initializer."""
        t = self.nodes
        vals = np.full(t.shape, np.inf)
        if self.bc[0]:
            vals = np.minimum(vals, t - t[0])
        if self.bc[1]:
            vals = np.minimum(vals, t[-1] - t)
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid has no Dirichlet endpoint")
        return DiscreteField(vals)


class DiscreteField:
    """Node values of a test function (zero at Dirichlet endpoints)."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def __array__(self, dtype=None, copy=None):
        if dtype is not None:
            return self.values.astype(dtype)
        return self.values


def _values(u):
    return u.values if isinstance(u, DiscreteField) else np.asarray(u, dtype=float)


def _check_bc(vals, grid):
    if grid.bc[0] and vals[0] != 0.0:
        raise ValueError("field must vanish at the left Dirichlet endpoint")
    if grid.bc[1] and vals[-1] != 0.0:
        raise ValueError("field must vanish at the right Dirichlet endpoint")


def p_energy(u, grid, p):
    """Midpoint-weighted discrete energy sum_i w_{i+1/2} |du/h|^p h."""
    vals = _values(u)
    _check_bc(vals, grid)
    h = grid.cell_sizes()
    wmid = grid._wmid
    d = np.diff(vals) / h
    return float(np.sum(wmid * np.abs(d) ** p * h))


def p_norm_mass(u, grid, p):
    """Node quadrature sum_i w_i |u_i|^p h_i of the p-th power."""
    vals = _values(u)
    return float(np.sum(grid.weight * np.abs(vals) ** p * grid.dual_sizes()))


def rayleigh_quotient(u, grid, p):
    """p-energy over p-mass; 0-homogeneous in u."""
    mass = p_norm_mass(u, grid, p)
    if mass <= 0.0:
        raise ValueError("field has zero p-norm")
    return p_energy(u, grid, p) / mass


def _energy_gradient(vals, grid, p):
    h = grid.cell_sizes()
    wmid = grid._wmid
    d = np.diff(vals) / h
    phi = wmid * signed_power(d, p - 1.0)
    g = np.zeros_like(vals)
    g[:-1] -= p * phi
    g[1:] += p * phi
    return g


def _mass_gradient(vals, grid, p):
    return p * grid.weight * signed_power(vals, p - 1.0) * grid.dual_sizes()


def _precondition(vals, grid, p, free):
    """Solve T d = rhs with T the frozen-coefficient stiffness matrix."""
    h = grid.cell_sizes()
    wmid = grid._wmid
    d = np.diff(vals) / h
    floor = _GRAD_FLOOR * max(float(np.max(np.abs(d))), 1e-300)
    c = wmid * np.maximum(np.abs(d), floor) ** (p - 2.0) / h
    n = vals.size
    diag = np.zeros(n)
    diag[:-1] += c
    diag[1:] += c
    upper = -c
    # restrict to free nodes (Dirichlet nodes pinned to zero)
    idx = np.flatnonzero(free)
    sub = np.zeros((2, idx.size))
    sub[1] = diag[idx]
    # couplings survive only between adjacent free nodes
    adj = idx[1:] == idx[:-1] + 1
    sub[0, 1:][adj] = upper[idx[:-1]][adj]
    return idx, sub


def minimize_rayleigh(grid, p, init=None, tol=1e-10, max_iter=200000):
    """Minimize the discrete quotient over the unit p-norm sphere.

    Projected preconditioned descent with Armijo backtracking; iterates
    are replaced by their absolute value (never energy-increasing) so the
    minimizer is the positive ground state.  Stops when the quotient has
    decreased by less than tol*quotient over 20 successive iterations.
    Returns {"lambda_est", "u_min", "iterations"}.
    """
    if init is None:
        init = grid.boundary_profile()
    vals = np.abs(_values(init)).astype(float).copy()
    _check_bc(vals, grid)
    if not np.any(vals > 0):
        raise ValueError("initial field is identically zero")
    free = np.ones(vals.size, dtype=bool)
    if grid.bc[0]:
        free[0] = False
    if grid.bc[1]:
        free[-1] = False

    vals /= p_norm_mass(vals, grid, p) ** (1.0 / p)
    quot = rayleigh_quotient(vals, grid, p)
    stall = 0
    iterations = 0
    while iterations < max_iter:
        iterations += 1
        g = _energy_gradient(vals, grid, p) - quot * _mass_gradient(vals, grid, p)
        g[~free] = 0.0
        idx, banded = _precondition(vals, grid, p, free)
        step = np.zeros_like(vals)
        step[idx] = solveh_banded(banded, -g[idx])
        slope = float(np.dot(g, step))
        if slope >= 0.0:
            step = -g
            slope = -float(np.dot(g, g))
        def _trial(a):
            t = np.abs(vals + a * step)
            mass = p_norm_mass(t, grid, p)
            if mass <= 0:
                return None, np.inf
            t /= mass ** (1.0 / p)
            return t, rayleigh_quotient(t, grid, p)

        alpha = 1.0
        new_quot = quot
        for _ in range(60):
            trial, q = _trial(alpha)
            if trial is not None and q <= quot + _ARMIJO * alpha * slope:
                # the full step can leave high modes marginally damped
                # (factor -> -1 as the mode eigenvalue grows); probing
                # halved steps recovers inverse-iteration behavior
                for _ in range(6):
                    trial2, q2 = _trial(alpha * _SHRINK)
                    if q2 >= q:
                        break
                    alpha *= _SHRINK
                    trial, q = trial2, q2
                new_quot, vals = q, trial
                break
            alpha *= _SHRINK
        if quot - new_quot < tol * quot:
            stall += 1
            if stall >= _STALL_WINDOW:
                quot = min(quot, new_quot)
                break
        else:
            stall = 0
        quot = new_quot
    else:
        raise RuntimeError("minimize_rayleigh hit the iteration cap %d"
                           % max_iter)
    return {"lambda_est": quot, "u_min": DiscreteField(vals),
            "iterations": iterations}
