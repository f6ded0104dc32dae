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
(ROADMAP, open item 5).

The minimizer is nonlinear inverse power iteration (Biezuner, Ercole
and Martins 2009): each step solves the discrete Euler-Lagrange system
-Delta_p v = w |u_k|^{p-2} u_k for the next iterate.  On a 1-d grid that
system telescopes: the equation at each free node says the cell flux
w_mid |v'|^{p-2} v' drops by the node's load across it, so the fluxes
are one cumulative sum of the loads, the slopes follow pointwise, and v
is a second cumulative sum from a Dirichlet end.  No linear solve is
needed.  A free end (the pole of a ball) fixes the flux constant; with
two Dirichlet ends (an annulus, a catenoid band) the constant is the
root of a monotone scalar miss, found by `_ode.brent`.
"""

import numpy as np

from ._ode import NonConvergenceError, brent
from .radial import signed_power

#: relative fall of the quotient at which `minimize_rayleigh` stops
STOP_RTOL = 1e-13


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
        # inverse-iteration step of the minimizer (all read-only): cell
        # lengths, node-centered lengths with half cells at the ends,
        # and the weight at cell midpoints.
        h = np.diff(nodes)
        dual = np.empty(nodes.size)
        dual[0] = h[0] / 2
        dual[-1] = h[-1] / 2
        dual[1:-1] = (h[:-1] + h[1:]) / 2
        wmid = 0.5 * (weight[:-1] + weight[1:])
        for arr in (h, dual, wmid):
            arr.setflags(write=False)
        self.cells, self.duals, self.wmid = h, dual, wmid

    @classmethod
    def from_problem(cls, problem, n=2000):
        """Uniform grid over a RadialProblem domain with weight f^{m-1}
        and the domain's Dirichlet flags."""
        d = problem.domain
        nodes = np.linspace(d.left, d.right, n)
        return cls(nodes, problem.weight(nodes), d.bc)

    @property
    def n(self):
        return self.nodes.size

    def boundary_profile(self):
        """Distance-to-Dirichlet-boundary field, the default initializer
        (a float array on the nodes)."""
        t = self.nodes
        vals = np.full(t.shape, np.inf)
        if self.bc[0]:
            vals = np.minimum(vals, t - t[0])
        if self.bc[1]:
            vals = np.minimum(vals, t[-1] - t)
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid has no Dirichlet endpoint")
        return vals


def _check_bc(vals, grid):
    if grid.bc[0] and vals[0] != 0.0:
        raise ValueError("field must vanish at the left Dirichlet endpoint")
    if grid.bc[1] and vals[-1] != 0.0:
        raise ValueError("field must vanish at the right Dirichlet endpoint")


def p_energy(u, grid, p):
    """Midpoint-weighted discrete energy sum_i w_{i+1/2} |du/h|^p h."""
    vals = np.asarray(u, dtype=float)
    _check_bc(vals, grid)
    h = grid.cells
    d = np.diff(vals) / h
    return float(np.sum(grid.wmid * np.abs(d) ** p * h))


def p_norm_mass(u, grid, p):
    """Node quadrature sum_i w_i |u_i|^p h_i of the p-th power."""
    vals = np.asarray(u, dtype=float)
    return float(np.sum(grid.weight * np.abs(vals) ** p * grid.duals))


def rayleigh_quotient(u, grid, p):
    """p-energy over p-mass; 0-homogeneous in u."""
    mass = p_norm_mass(u, grid, p)
    if mass <= 0.0:
        raise ValueError("field has zero p-norm")
    return p_energy(u, grid, p) / mass


def _inverse_step(vals, grid, p):
    """One inverse-iteration step: the v with -Delta_p v = w |u|^{p-2} u.

    The discrete equations at the free nodes telescope into the cell
    fluxes F = w_mid |d|^{p-2} d of the slopes d = diff(v)/h:
    F_j = C - sum_{0<i<=j} b_i with b = w dual |u|^{p-2} u.  A free end
    fixes C; with two Dirichlet ends C is the root of the miss
    sum_j d_j h_j = v[-1] - v[0], increasing in C, which changes sign
    on [0, sum of the interior b].
    """
    h, wmid = grid.cells, grid.wmid
    q = 1.0 / (p - 1.0)
    b = grid.weight * grid.duals * signed_power(vals, p - 1.0)
    if not grid.bc[0]:
        flux = -np.cumsum(b[:-1])
    else:
        load = np.concatenate(([0.0], np.cumsum(b[1:-1])))
        if grid.bc[1]:
            def miss(c):
                return float(np.dot(signed_power((c - load) / wmid, q), h))
            c = brent(miss, 0.0, float(load[-1]), 0.0)[0]
        else:
            c = load[-1] + b[-1]
        flux = c - load
    dh = signed_power(flux / wmid, q) * h
    down = np.append(-np.cumsum(dh[::-1])[::-1], 0.0)    # from the right
    if not grid.bc[0]:
        return down
    up = np.concatenate(([0.0], np.cumsum(dh)))          # from the left
    if not grid.bc[1]:
        return up
    # The root leaves a miss, far above rounding at large p: the iterates
    # drive one cell's flux to zero, where the slope is its (p-1)-th
    # root and one ulp of C moves it by about ulp^{1/(p-1)}.  Leave the
    # miss in that cell, whose energy is nil, not in a wall cell, which
    # carries the most.
    peak = int(np.argmin(np.abs(flux)))
    return np.concatenate((up[:peak + 1], down[peak + 1:]))


def minimize_rayleigh(grid, p, init=None, max_iter=1000):
    """Minimize the discrete quotient over the unit p-norm sphere.

    Inverse power iteration (Biezuner, Ercole and Martins 2009): each
    step solves the discrete Euler-Lagrange system -Delta_p v =
    w |u_k|^{p-2} u_k (`_inverse_step`) and normalizes v to unit
    p-mass.  The quotient of the iterates decreases toward the discrete
    minimum; the iteration stops at the first step that lowers it by no
    more than STOP_RTOL times its value, a step that raises it by
    rounding included, and returns the iterate with the lower quotient,
    which is positive (the ground state).  init, an array of node values
    (default `Grid1D.boundary_profile`), starts the iteration.  Returns
    {"lambda_est", "u_min", "iterations"} with u_min a float array of
    node values; raises ValueError for a grid without a Dirichlet end or
    a zero initial field, and NonConvergenceError after max_iter steps.
    """
    if not any(grid.bc):
        raise ValueError("grid has no Dirichlet endpoint")
    if init is None:
        init = grid.boundary_profile()
    vals = np.abs(np.asarray(init, dtype=float))
    _check_bc(vals, grid)
    if not np.any(vals > 0):
        raise ValueError("initial field is identically zero")
    vals /= p_norm_mass(vals, grid, p) ** (1.0 / p)
    quot = last = rayleigh_quotient(vals, grid, p)
    for iterations in range(1, max_iter + 1):
        new = _inverse_step(vals, grid, p)
        new /= p_norm_mass(new, grid, p) ** (1.0 / p)
        new_quot = rayleigh_quotient(new, grid, p)
        if quot - new_quot <= STOP_RTOL * quot:
            if new_quot < quot:
                vals, quot = new, new_quot
            return {"lambda_est": quot, "u_min": vals,
                    "iterations": iterations}
        vals, quot, last = new, new_quot, quot
    raise NonConvergenceError(
        "minimize_rayleigh: quotient still falling after %d steps "
        "(p=%g, n=%d, Dirichlet ends %s; quotients %.17g then %.17g)"
        % (max_iter, p, grid.n, grid.bc, last, quot))
