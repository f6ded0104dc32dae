"""Dormand-Prince 5(4) integration for two-state systems, per form.

The radial eigenvalue ODE is a smooth two-dimensional first-order system
away from the pole, so an embedded 5(4) Runge-Kutta pair with proportional
step control is enough.  The module is private: it hardcodes the state as
a pair of floats because the shooting loop integrates (omega, flux) states
millions of times and tuple arithmetic beats tiny numpy arrays by a wide
margin there.

A form has two loops: the adaptive `integrate` of the shots, generated
in Python, and the fixed-step `walk` of the grid march, compiled C.

`integrate` is generated per right-hand-side form, not written once
over a callable f: `compile_form` writes the form's slopes, and the
weight expression they read, into each stage of the one template of a
step (`_STAGES`), writes those stages into the adaptive loop
(`_INTEGRATE`), whose tolerance is an argument, and compiles the result
once per process.  The weight is source in the stages too: a closed
form as its formula (sinh(rc * s) / rc, say), a tabulated one as a
binary search of its knots and the cubic of the interval found.
Every operation and its operands are those of a step over f (seven
calls of f, each packing a tuple) driven by a loop that calls the step,
so every result keeps its bits; the tests keep those as the references.

`walk` is one C kernel for every form (`C_SOURCE`, `walker`).  Its step
is the same template (`_stage_lines`), each line a C statement, and its
slopes and warpings are spelled in C with the operand order of their
Python source, through functions that repeat CPython's float power,
division and math-module calls.  So every state it writes keeps the
bits of the Python step, and where that step would raise, the walk
raises the same exception.  The system C compiler builds the kernel
with C_FLAGS (no contraction to fused multiply-adds, no fast math, no
builtins) on the first import, and the library is kept in the package's
__pycache__, named by a sha256 of its source and flags (`_load`).  A
later import loads it from there, and a forked process inherits it.

The pair's coefficients exist once, as the tables `_C`, `_A`, `_B`, `_E`
(the error weights) and `_DENSE_P`.  `_STAGES` and `_ERROR` are written
from them, each coefficient as a float literal (its repr, which reads
back as the same float), with each sum's operands in the order of the
tables, so both loops read their coefficients as constants, not as
module globals; the C compiler reads each literal as the same float.

`walk` takes the fixed steps of a plan, a list of starts and lengths,
without error control: the fifth-order solution, six right-hand-side
evaluations per step.  Its callers build the plan: one step per gap
where the field is smooth, and `graded_steps` toward the points where it
is not, as close to each as the order of its singularity needs.  It can
record each step (`RECORD`): its start, length, state and the stages of
the pair's fourth-order dense output (Shampine, Some Practical
Runge-Kutta Formulas, Math. Comp. 46, 1986; Hairer, Norsett and Wanner,
Solving ODEs I, II.6), which answers any point inside the step with no
further right-hand-side evaluation.  A one-step plan from the accepted
mesh node before a zero of the state serves the zero refinement of a
shot and of an annulus's flux (one step per root-finder evaluation).

Every state of a shot's step (t, h and the states and slopes) is a
Python float, never a numpy scalar, whose arithmetic costs several
times a float's; callers cast once, where numpy values enter.  `walk`
returns Python floats too.

`brent` is the package's one root-finder: the eigenvalue miss, the zeros
of a state component inside one step, the catenoid band end, and the
flux constant of a Rayleigh inverse-iteration step.
"""

import contextlib
import ctypes
import errno
import functools
import hashlib
import math
import os
import shutil
import subprocess
import tempfile
from array import array

import numpy as np


class NonConvergenceError(RuntimeError):
    """A numerical iteration stopped short of its tolerance.

    Raised by `brent` when it runs out of steps, by a generated
    `integrate` (as IntegrationError), by the eigenvalue solver when it
    cannot bracket lam (it adds p, m, the domain, the profile and the
    final eigenvalue bracket to the message), and by the Rayleigh
    minimizer at its step cap (naming p, the grid size, the Dirichlet
    ends and its last two quotients).
    """


class IntegrationError(NonConvergenceError):
    """Step-size underflow, NaN propagation or step limit in a shot."""


# The Dormand-Prince 5(4) pair (the classic ode45 pair), the one copy of
# its coefficients: the nodes c1..c7, the rows of A (row i - 2 gives the
# state of stage i from k1..k(i-1)), the fifth-order weights b and the
# error weights e = b - bhat, bhat the fourth-order weights.  b is also
# the last row of A: k7 of an accepted step is taken at the new state and
# reused as k1 of the next (FSAL).  `compile_form` writes each entry into
# the generated source as a literal, its repr.
_C = (0.0, 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0, 1.0)
_A = (
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0,
     -5103.0 / 18656.0),
)
_B = (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0,
      11.0 / 84.0, 0.0)
_E = tuple(b - bhat for b, bhat in zip(_B, (
    5179.0 / 57600.0, 0.0, 7571.0 / 16695.0, 393.0 / 640.0,
    -92097.0 / 339200.0, 187.0 / 2100.0, 1.0 / 40.0)))
# Dense output of a step (Shampine 1986; Hairer, Norsett and Wanner,
# Solving ODEs I, II.6), the rows of scipy's RK45.P: the state at
# t + x h is u + x (a1 + x (a2 + x (a3 + x a4))), where a_k is h times
# the sum over the stages i of _DENSE_P[i - 1][k - 1] ki.  k2 has a zero
# row.  At x = 1 each stage's row sums to its fifth-order weight in _B
# (0 for k7), so the interpolant ends on the step's own end state.
_DENSE_P = (
    (1.0, -8048581381.0 / 2820520608.0, 8663915743.0 / 2820520608.0,
     -12715105075.0 / 11282082432.0),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 131558114200.0 / 32700410799.0, -68118460800.0 / 10900136933.0,
     87487479700.0 / 32700410799.0),
    (0.0, -1754552775.0 / 470086768.0, 14199869525.0 / 1410260304.0,
     -10690763975.0 / 1880347072.0),
    (0.0, 127303824393.0 / 49829197408.0, -318862633887.0 / 49829197408.0,
     701980252875.0 / 199316789632.0),
    (0.0, -282668133.0 / 205662961.0, 2019193451.0 / 616988883.0,
     -1453857185.0 / 822651844.0),
    (0.0, 40617522.0 / 29380423.0, -110615467.0 / 29380423.0,
     69997945.0 / 29380423.0),
)

# What a recording step stores (`compile_form`): its start t, length h
# and state (u, v), then the slopes of the stages whose `_DENSE_P` row is
# not zero (all but k2), u before v.  These give the step's dense output.
_DENSE_STAGES = tuple(i for i, row in enumerate(_DENSE_P, 1) if any(row))
RECORD = ("t", "h", "u", "v") + tuple(
    "k%d%s" % (i, y) for i in _DENSE_STAGES for y in "uv")

# Brent steps before giving up; the package's roots take 2 to 12.
_BRENT_STEPS = 100


def _weighted(coefs):
    """The sum of coefs[i - 1] * ki{y} over the nonzero coefs, as source,
    each coefficient a literal."""
    return " + ".join("%r * k%d{y}" % (a, i) for i, a in enumerate(coefs, 1)
                      if a)


def _increment(coefs):
    """h times the weighted stages of coefs, as source: h * a * k1{y} for
    a single term, h * (...) for a sum."""
    terms = _weighted(coefs)
    return "h * " + ("(%s)" % terms if " + " in terms else terms)


# One Dormand-Prince step as source, written from the tables: per stage
# 2..7, the point at which the slope is taken (None: the point of the
# stage before, which the stage shares) and the state there, with {y}
# standing for either component (u or v).  k7, the slope at the new
# state, is taken at t + h, the point of stage 6.
_STAGES = tuple(
    (None if c == c_prev else "t + h" if c == 1.0 else "t + %r * h" % c,
     "{y} + " + _increment(row))
    for c_prev, c, row in zip(_C, _C[1:], _A + (_B,)))
_ERROR = "h * (%s)" % _weighted(_E)

# The adaptive loop of the shots around a form's stages, as source.
# {stages} is one step from (t, h, u, v, k1u, k1v) to the new state
# (w, phi) and its slope (k7u, k7v), and {eu}, {ev} the error estimate
# of `_ERROR`.  Its error scales and step clamps select what abs, max and
# min would, without a call.
_INTEGRATE = """\
    def integrate(t0, t1, y0, tol):
        span = t1 - t0
        if span <= 0:
            raise ValueError("integrate requires t1 > t0")
        h = 0.01 * span
        hmin = 1e-15 * span
        t = t0
        u, v = float(y0[0]), float(y0[1])
        ts = [t]
        ys = [(u, v)]
        k1u, k1v = f(t, u, v)
        steps = 0
        while t < t1:
            if t + h > t1:
                h = t1 - t
            if h < hmin:
                raise IntegrationError("step-size underflow at t=%.12g" % t)
            steps += 1
            if steps > 1000000:
                raise IntegrationError("step limit exceeded at t=%.12g" % t)
{stages}
            eu = {eu}
            ev = {ev}
            au = u if u >= 0.0 else -u
            a = w if w >= 0.0 else -w
            su = tol + tol * (a if a > au else au)
            av = v if v >= 0.0 else -v
            a = phi if phi >= 0.0 else -phi
            sv = tol + tol * (a if a > av else av)
            err = ((eu / su) ** 2 + (ev / sv) ** 2) ** 0.5 * 0.7071067811865476
            if err != err:  # NaN
                raise IntegrationError(
                    "NaN in the error estimate at t=%.12g" % t)
            if err <= 1.0:
                t += h
                u, v = w, phi
                ts.append(t)
                ys.append((u, v))
                if u <= 0.0:
                    break
                k1u, k1v = k7u, k7v
                if err == 0.0:
                    h *= 5.0
                else:
                    factor = 0.9 * err ** -0.2
                    h *= factor if factor < 5.0 else 5.0
            else:
                factor = 0.9 * err ** -0.2
                h *= factor if factor > 0.2 else 0.2
        return ts, ys
"""


def _stage_lines(weight, dw, dphi, indent):
    """`_STAGES` with the slopes written out, as lines of source.

    Stage 6 and k7 share the weight at t + h.
    """
    pad = " " * indent
    lines = []
    for i, (s, y) in enumerate(_STAGES, 2):
        weighted = weight is not None and s is not None
        if weighted:
            lines.append(pad + "s = " + s)
        lines += [pad + "w = " + y.format(y="u"),
                  pad + "phi = " + y.format(y="v")]
        if weighted:
            lines.append(pad + "fm = " + weight)
        lines += [pad + "k%du = %s" % (i, dw), pad + "k%dv = %s" % (i, dphi)]
    return lines


def form_source(params, weight, dw, dphi):
    """The source of `compile_form`'s make for one form: `_INTEGRATE`
    around the stages of `_stage_lines`, every coefficient a float
    literal (the repr of its table entry), so no step reads a module
    global."""
    stages = "\n".join(_stage_lines(weight, dw, dphi, 12))
    lines = ["def make(%s):" % params, "    def f(s, w, phi):"]
    if weight is not None:
        lines.append("        fm = " + weight)
    lines += ["        return (%s), (%s)" % (dw, dphi),
              _INTEGRATE.format(stages=stages, eu=_ERROR.format(y="u"),
                                ev=_ERROR.format(y="v")),
              "    return f, integrate"]
    return "\n".join(lines) + "\n"


@functools.cache
def compile_form(params, weight, dw, dphi):
    """Compile one right-hand-side form; return make(*params).

    The form is source over the names in `params` (a comma list): the
    slopes `dw` and `dphi` of the state (w, phi), which may read the
    weight fm = `weight`, an expression of the point s (None: the form
    has no weight).  make binds the names and returns (f, integrate):

    f(s, w, phi) -> (dw, dphi) is the right-hand side.

    integrate(t0, t1, y0, tol) integrates from t0 to t1 > t0 with
    proportional step control at relative and absolute tolerance tol and
    returns (ts, ys): the accepted mesh nodes and states (u, v), starting
    at (t0, y0).  The shots pass tol = 1e-12, whose error scales
    tol + tol * |y| are the float operations of a literal 1e-12; the
    loose rungs of the eigenvalue bracket pass a larger one.  It ends at
    t1 or at the first accepted node where u <= 0, which the mesh still
    contains: a shot needs its trajectory only up to the first zero of
    omega.  It raises IntegrationError on step-size underflow, NaN
    propagation or more than 1000000 steps.

    Each form is compiled once per process, on its first use: the cache
    holds one entry per form its callers write, at most 30 for `radial`.
    """
    made = {}
    exec(compile(form_source(params, weight, dw, dphi), "<dp form>", "exec"),
         globals(), made)
    return made["make"]


# The fixed-step walk as C.  Its step is `_stage_lines` with the weight
# and the slopes as calls, each line a C statement: the stages of the
# tables, every coefficient the same literal.  The slopes are those of
# `radial._SLOPES` and the warpings those of `modelspace`, each spelled
# with the operand order of its Python source, and every operation that
# raises in Python (a power, sin or sinh, a division) goes through a
# function that does what CPython's does (Objects/floatobject.c,
# float_pow and float_div; Modules/mathmodule.c, math_1) and records
# what it would have raised.  So every result keeps its bits, and a
# walk stops where the Python loop raised, saying what it raised
# (`_FAULTS`).
C_SOURCE = r"""
#include <errno.h>
#include <math.h>

enum { FINE, POW_RANGE, POW_DOMAIN, MATH_RANGE, MATH_DOMAIN, DIVISION,
       ZERO_POWER, COMPLEX };
enum { FLAT, SINE, SINH, PCHIP };

/* A right-hand-side form and its numbers (`_Form`). */
struct form {
    int p2;            /* p == 2 */
    int weight;        /* 0: none, 1: f, 2: f ** mm1 */
    int warping;       /* FLAT (s), SINE, SINH or PCHIP */
    int perturbed;     /* times (1.0 + eps * s * s) */
    long top;          /* PCHIP: the number of knots less one */
    double lam, nlam, em1, pm1, mm1, rc, eps;
    const double *knots;   /* PCHIP: top + 1 knots */
    const double *table;   /* PCHIP: rows c0, c1, c2, c3 of top each */
};

static void fail(int *err, int code)
{
    if (!*err)
        *err = code;
}

static int odd(double y)
{
    return fmod(fabs(y), 2.0) == 1.0;
}

/* x ** y, as float_pow: its special cases, then pow of |x|. */
static double power(double x, double y, int *err)
{
    int negate = 0;
    double r;

    if (y == 0.0)
        return 1.0;
    if (isnan(x))
        return x;
    if (isnan(y))
        return x == 1.0 ? 1.0 : y;
    if (isinf(y)) {
        x = fabs(x);
        if (x == 1.0)
            return 1.0;
        return (y > 0.0) == (x > 1.0) ? fabs(y) : 0.0;
    }
    if (isinf(x)) {
        if (y > 0.0)
            return odd(y) ? x : fabs(x);
        return odd(y) ? copysign(0.0, x) : 0.0;
    }
    if (x == 0.0) {
        if (y < 0.0)
            fail(err, ZERO_POWER);
        return odd(y) ? x : 0.0;
    }
    if (x < 0.0) {
        if (y != floor(y)) {
            fail(err, COMPLEX);
            return NAN;
        }
        x = -x;
        negate = odd(y);
    }
    if (x == 1.0)
        return negate ? -1.0 : 1.0;
    errno = 0;
    r = pow(x, y);
    if (errno == 0 && isinf(r))
        errno = ERANGE;
    else if (errno == ERANGE && r == 0.0)
        errno = 0;
    if (errno)
        fail(err, errno == ERANGE ? POW_RANGE : POW_DOMAIN);
    return negate ? -r : r;
}

/* a / b, as float_div. */
static double divide(double a, double b, int *err)
{
    if (b == 0.0) {
        fail(err, DIVISION);
        return NAN;
    }
    return a / b;
}

/* fn(x), as math_1 (glibc's sin and sinh set no errno but EDOM and
   ERANGE). */
static double math1(double (*fn)(double), double x, int can_overflow,
                    int *err)
{
    double r;

    errno = 0;
    r = fn(x);
    if (isnan(r) && !isnan(x))
        fail(err, MATH_DOMAIN);
    else if (isinf(r) && isfinite(x))
        fail(err, can_overflow ? MATH_RANGE : MATH_DOMAIN);
    else if (isfinite(r) && errno && !(errno == ERANGE && fabs(r) < 1.5))
        fail(err, errno == ERANGE ? MATH_RANGE : MATH_DOMAIN);
    return r;
}

/* The PCHIP cubic of the interval bisect_right(knots, s, 1, top) - 1. */
static double pchip(const struct form *f, double s)
{
    const double *c0 = f->table, *c1 = c0 + f->top, *c2 = c1 + f->top,
        *c3 = c2 + f->top;
    long lo = 1, hi = f->top, mid;
    double ds, ds2;

    while (lo < hi) {
        mid = (lo + hi) / 2;
        if (s < f->knots[mid])
            hi = mid;
        else
            lo = mid + 1;
    }
    lo -= 1;
    ds = s - f->knots[lo];
    ds2 = ds * ds;
    return c3[lo] + c2[lo] * ds + c1[lo] * ds2 + c0[lo] * (ds2 * ds);
}

/* The weight fm at the point s: f, or f ** mm1. */
static double weight(const struct form *f, double s, int *err)
{
    double x;

    if (!f->weight)
        return 1.0;
    if (f->warping == PCHIP)
        x = pchip(f, s);
    else if (f->warping == FLAT)
        x = s;
    else if (f->warping == SINE)
        x = divide(math1(sin, f->rc * s, 0, err), f->rc, err);
    else
        x = divide(math1(sinh, f->rc * s, 1, err), f->rc, err);
    if (f->perturbed)
        x = x * (1.0 + f->eps * s * s);
    return f->weight == 1 ? x : power(x, f->mm1, err);
}

/* omega' and Phi' (`radial._SLOPES`). */
static double dw(const struct form *f, double phi, double fm, int *err)
{
    if (f->p2)
        return f->weight ? divide(phi, fm, err) : phi;
    if (f->weight)
        return phi >= 0.0 ? power(divide(phi, fm, err), f->em1, err)
                          : -power(divide(-phi, fm, err), f->em1, err);
    return phi >= 0.0 ? power(phi, f->em1, err)
                      : -power(-phi, f->em1, err);
}

static double dphi(const struct form *f, double w, double fm, int *err)
{
    if (f->p2)
        return f->weight ? f->nlam * fm * w : f->nlam * w;
    if (f->weight)
        return w >= 0.0 ? f->nlam * fm * power(w, f->pm1, err)
                        : f->lam * fm * power(-w, f->pm1, err);
    return w >= 0.0 ? f->nlam * power(w, f->pm1, err)
                    : f->lam * power(-w, f->pm1, err);
}

/* The n steps (ts[j], hs[j]) from the state and slope in state, as
   `walker` describes them; returns FINE, or the fault of the first step
   that meets one, before that step writes anything. */
int walk(const struct form *f, long n, const double *ts, const double *hs,
         double *state, double *out_w, double *out_phi, double *rec)
{
    double t, h, s, fm, w, phi, u = state[0], v = state[1],
        k1u = state[2], k1v = state[3], k2u, k2v, k3u, k3v, k4u, k4v,
        k5u, k5v, k6u, k6v, k7u, k7v;
    int err = FINE;
    long j;

    for (j = 0; j < n; j++) {
        t = ts[j];
        h = hs[j];
@STAGES@
        if (err)
            return err;
        if (rec) {
@RECORD@
            rec += @WIDTH@;
        }
        u = w;
        v = phi;
        k1u = k7u;
        k1v = k7v;
        out_w[j] = w;
        out_phi[j] = phi;
    }
    state[0] = u;
    state[1] = v;
    state[2] = k1u;
    state[3] = k1v;
    return FINE;
}
""".replace("@STAGES@", "\n".join(
    line + ";" for line in _stage_lines("weight(f, s, &err)",
                                        "dw(f, phi, fm, &err)",
                                        "dphi(f, w, fm, &err)", 8))).replace(
    "@RECORD@", "\n".join("            rec[%d] = %s;" % item
                          for item in enumerate(RECORD))).replace(
    "@WIDTH@", str(len(RECORD)))
C_FLAGS = ("-std=c99", "-O2", "-fPIC", "-shared", "-ffp-contract=off",
           "-fno-fast-math", "-fno-builtin")

# The warpings of the kernel, numbered as its enum numbers them: S_c at
# c = 0, c > 0 and c < 0, and a PCHIP.
FLAT, SINE, SINH, PCHIP = range(4)

# What each fault of the kernel raises, in the order of its enum: what
# CPython raises there, with its message.  A negative number to a
# fractional power is a complex number in Python, and the next
# comparison of the state it enters raises.
_FAULTS = (None,
           (OverflowError, errno.ERANGE, os.strerror(errno.ERANGE)),
           (ValueError, errno.EDOM, os.strerror(errno.EDOM)),
           (OverflowError, "math range error"),
           (ValueError, "math domain error"),
           (ZeroDivisionError, "float division by zero"),
           (ZeroDivisionError, "0.0 cannot be raised to a negative power"),
           (TypeError, "'>=' not supported between instances of 'complex' "
                       "and 'float'"))


def _load(directory):
    """The kernel of C_SOURCE, built with C_FLAGS, loaded from directory.

    The library's name carries a sha256 of the source and flags and one
    of its own bytes; a library of this source whose bytes match its name
    is loaded as it is.  Otherwise the system C compiler builds one to a
    temporary name in directory, which is then renamed into place, so a
    process never sees a partly written library, and two processes that
    build at once each load a whole one.  Libraries of other sources are
    removed.  Raises OSError when directory cannot be written, and
    ImportError, with the compiler's message, when the compiler cannot
    run or fails.
    """
    key = hashlib.sha256("\0".join(C_FLAGS + (C_SOURCE,)).encode())
    stem = "_walk.%s." % key.hexdigest()[:20]
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if name.startswith(stem) and name.endswith(".so"):
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()[:20]
            if name == stem + digest + ".so":
                return ctypes.CDLL(path)
    fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=directory)
    os.close(fd)
    try:
        try:
            built = subprocess.run(
                ("cc",) + C_FLAGS + ("-o", tmp, "-x", "c", "-", "-lm"),
                input=C_SOURCE.encode(), capture_output=True)
        except OSError as exc:
            raise ImportError("ptone._ode needs a C compiler, cc: %s"
                              % exc) from exc
        if built.returncode:
            raise ImportError("cc could not build ptone._ode's walk:\n"
                              + built.stderr.decode(errors="replace"))
        with open(tmp, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()[:20]
        # readable by whoever may read the source, as a .pyc is
        os.chmod(tmp, os.stat(__file__).st_mode & 0o777 | 0o200)
        path = os.path.join(directory, stem + digest + ".so")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    for name in os.listdir(directory):
        if name.startswith("_walk.") and not name.startswith(stem):
            with contextlib.suppress(OSError):
                os.remove(os.path.join(directory, name))
    return ctypes.CDLL(path)


def _library():
    """The kernel, kept in the package's __pycache__ beside the .pyc
    files, or built in a private temporary directory, removed once
    loaded, where that cannot be written."""
    cache = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "__pycache__")
    try:
        os.makedirs(cache, exist_ok=True)
        return _load(cache)
    except OSError:
        private = tempfile.mkdtemp()
        try:
            return _load(private)
        finally:
            shutil.rmtree(private, ignore_errors=True)


class _Form(ctypes.Structure):
    _fields_ = [("p2", ctypes.c_int), ("weight", ctypes.c_int),
                ("warping", ctypes.c_int), ("perturbed", ctypes.c_int),
                ("top", ctypes.c_long)] + [
        (name, ctypes.c_double)
        for name in ("lam", "nlam", "em1", "pm1", "mm1", "rc", "eps")] + [
        ("knots", ctypes.c_void_p), ("table", ctypes.c_void_p)]


_c_walk = _library().walk
_c_walk.argtypes = (ctypes.POINTER(_Form), ctypes.c_long) + (
    ctypes.c_void_p,) * 6
_c_walk.restype = ctypes.c_int


def walker(p2, weight, numbers, warping):
    """The fixed-step walk of one right-hand-side form, compiled.

    The form is that of `radial._make_rhs`: p2 says p == 2, weight is
    0 (none), 1 (f) or 2 (f ** mm1), numbers are (lam, nlam, em1, pm1,
    mm1), and warping is f as (kind, perturbed, rc, eps, knots, table),
    a profile's `f_walk`: kind is FLAT, SINE or SINH, for S_c at c = 0,
    c > 0 and c < 0, times (1.0 + eps * s * s) if perturbed, or PCHIP,
    whose knots and table are the float64 arrays of a tabulated
    profile's interpolant (`modelspace._pchip`), read by address.

    walk(ts, hs, u, v, k1u, k1v, out_w, out_phi, rec) takes, for each j
    in order, the fixed step of length hs[j] from ts[j], starting from
    the state (u, v) with k1 = f(ts[0], u, v) and each later step from
    the state and slope (FSAL) the one before ends on.  ts and hs are
    sequences of floats of one length.  It writes step j's end state to
    out_w[j] and out_phi[j] (lists or float64 arrays), appends each
    step's `RECORD` to rec (an array('d')) unless rec is None, and
    returns the last end state and its slope (u, v, k1u, k1v) as Python
    floats.  Where the Python arithmetic of a step would raise, it
    raises the same exception, and writes and appends nothing.  (A
    negative weight, which no profile has on its domain, makes a Python
    slope complex; the walk raises the TypeError of the comparison the
    complex state meets next, where the Python step could meet another
    error on the way.)
    """
    kind, perturbed, rc, eps, knots, table = warping
    top, addresses = 0, (None, None)
    if kind == PCHIP:
        top = len(knots) - 1
        if not all(a.dtype == np.float64 and a.flags.c_contiguous
                   for a in (knots, table)) or table.shape[1:] != (top,) \
                or len(table) < 4:
            raise ValueError("walker: a PCHIP needs C-contiguous float64 "
                             "knots and a table of at least 4 rows, one "
                             "column per interval")
        addresses = knots.ctypes.data, table.ctypes.data
    form = _Form(p2, weight, kind, perturbed, top, *numbers, rc, eps,
                 *addresses)
    width = len(RECORD)

    def walk(ts, hs, u, v, k1u, k1v, out_w, out_phi, rec):
        n = len(ts)
        if len(hs) != n:
            raise ValueError("walk: %d starts but %d lengths"
                             % (n, len(hs)))
        ts, hs = array("d", ts), array("d", hs)
        state = array("d", (u, v, k1u, k1v))
        w, phi = array("d", bytes(8 * n)), array("d", bytes(8 * n))
        at = None
        if rec is not None:
            base = len(rec)
            rec.frombytes(bytes(8 * width * n))
            at = rec.buffer_info()[0] + 8 * base
        fault = _c_walk(form, n, ts.buffer_info()[0], hs.buffer_info()[0],
                        state.buffer_info()[0], w.buffer_info()[0],
                        phi.buffer_info()[0], at)
        if fault:
            if rec is not None:
                del rec[base:]
            exc, *args = _FAULTS[fault]
            raise exc(*args)
        out_w[:n] = w
        out_phi[:n] = phi
        return tuple(state)

    walk.tables = knots, table      # the kernel reads them by address
    return walk


def dense_steps(rec):
    """The steps recorded in rec (an array('d') of `RECORD` rows) as
    read-only arrays (t, h, cu, cv).

    Step i is the step of length h[i] from t[i].  Column i of cu holds
    its start state u and the coefficients a1..a4 of its dense output
    u + x (a1 + x (a2 + x (a3 + x a4))) at t[i] + x h[i], x in [0, 1], and
    column i of cv the same for v; a_k is h times the recorded slopes
    weighted by column k of their `_DENSE_P` rows.  A row of zero slopes
    has zero coefficients: its u and v hold for every x.  (cu and cv are
    5 x steps, so that the five values of a gathered set of steps come
    out as five contiguous rows.)
    """
    steps = np.frombuffer(rec).reshape(-1, len(RECORD))
    weights = np.array([_DENSE_P[i - 1] for i in _DENSE_STAGES])
    t, h = steps[:, 0].copy(), steps[:, 1].copy()
    out = [t, h]
    for y in (0, 1):
        coef = np.empty((5, len(h)))
        coef[0] = steps[:, 2 + y]
        coef[1:] = (h[:, None] * (steps[:, 4 + y::2] @ weights)).T
        out.append(coef)
    for arr in out:
        arr.setflags(write=False)
    return tuple(out)


def _graded_cuts(t_from, t_to, points, width):
    """The sorted cuts of (t_from, t_to] for `graded_steps`, t_to included.

    Each point (s, ratio, order) adds itself and s + sign (t_to - t_from)
    2^-j, j < 40, where they fall inside, up to the first level j whose
    piece next to s, (t_to - t_from) 2^-j, is no longer than
    width u^(1/order), u = 2^-53: the part of the field that is not
    smooth at s grows like the distance to s to the power order, so
    across that piece it changes by less than rounding.  A width of 0
    takes all 40 levels.  As j grows the candidate moves toward s, so a
    side skips the candidates beyond its far end and stops at the first
    short of its near end; a side whose s lies at or beyond its far end
    adds nothing.
    """
    span = t_to - t_from
    cuts = {t_to}
    for s, _, order in points:
        if t_from < s < t_to:
            cuts.add(s)
        finest = width * 0.5 ** (53.0 / order)
        for sign in (-1.0, 1.0):
            if (s <= t_from) if sign < 0.0 else (s >= t_to):
                continue
            for j in range(40):
                piece = span * 0.5 ** j
                c = s + sign * piece
                if t_from < c < t_to:
                    cuts.add(c)
                elif (c >= t_to) if sign < 0.0 else (c <= t_from):
                    break
                if piece <= finest:
                    break
    return sorted(cuts)


def graded_steps(ts, hs, t_from, t_to, nsub, points, width):
    """Append the steps (start, length) from t_from to t_to to ts and hs.

    The interval takes nsub equal steps, refined toward each
    (s, ratio, order) in `points`, a point where the field is not smooth:
    it is cut at s and at s +- (t_to - t_from) 2^-j for the levels j of
    `_graded_cuts`, and a piece at distance d > 0 from s takes at least
    ratio * length / d steps, so no step is longer than d / ratio.  A
    piece that ends at s is no longer than width 2^(-53 / order), width
    the length of the domain, or than 2^-39 of the interval where the 40
    levels run out (width 0 takes them all), and takes one step.  No
    piece takes more than ratio steps for one point.
    """
    span = t_to - t_from
    t = t_from
    for t_next in _graded_cuts(t_from, t_to, points, width):
        piece = t_next - t
        steps = nsub * piece / span
        for s, ratio, _ in points:
            d = max(s - t_next, t - s)
            if d > 0.0:
                steps = max(steps, ratio * piece / max(d, piece))
        steps = max(1, math.ceil(steps))
        h = piece / steps
        for i in range(steps - 1):
            ts.append(t + i * h)
            hs.append(h)
        t_last = t + (steps - 1) * h
        ts.append(t_last)
        hs.append(t_next - t_last)
        t = t_next


def brent(f, a, b, xtol, rtol=8.9e-16, fa=None, fb=None):
    """Root of f between a and b by Brent's method (Brent 1973, ch. 4).

    f(a) and f(b) (evaluated here unless given) must lie on opposite
    sides of zero; a value counts as one side if it is positive and as
    the other if not.  Each step interpolates (inverse quadratic, or
    secant when only two points are distinct) if the step lands inside
    the bracket and is less than half the step before last, and bisects
    otherwise: it converges on any bracket, and superlinearly near a
    simple root.  It stops once the bracket is no wider than
    xtol + rtol |x| or f(x) is exactly zero.

    Returns (x, y, steps): x is the best estimate, y the other end of the
    final bracket, f(x) and f(y) lie on opposite sides, and steps counts
    the evaluations of f after the two ends.  Raises ValueError when the
    ends do not bracket a root, and NonConvergenceError naming the final
    bracket after _BRENT_STEPS steps.
    """
    if fa is None:
        fa = f(a)
    if fb is None:
        fb = f(b)
    if (fa > 0.0) == (fb > 0.0):
        raise ValueError("brent: f(%.17g) = %.3g and f(%.17g) = %.3g do not "
                         "bracket a root" % (a, fa, b, fb))
    # b is the best estimate, c the other end of the bracket, a the
    # previous b; d is the last step and e the one before it.
    c, fc = a, fa
    d = e = b - a
    steps = 0
    while True:
        if abs(fc) < abs(fb):
            a, fa = b, fb
            b, fb = c, fc
            c, fc = a, fa
        tol = 0.5 * (xtol + rtol * abs(b))
        half = 0.5 * (c - b)
        if fb == 0.0 or abs(half) <= tol:
            return b, c, steps
        if steps == _BRENT_STEPS:
            raise NonConvergenceError(
                "brent: bracket [%.17g, %.17g] still wider than %.3g after "
                "%d steps" % (min(b, c), max(b, c), 2.0 * tol, steps))
        if abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                num, den = 2.0 * half * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                num = s * (2.0 * half * q * (q - r) - (b - a) * (r - 1.0))
                den = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if num > 0.0:
                den = -den
            else:
                num = -num
            # Accept the interpolated step if it lands well inside the
            # bracket and is less than half the step before last.
            if 2.0 * num < min(3.0 * half * den - abs(tol * den),
                               abs(e * den)):
                e, d = d, num / den
            else:
                d = e = half
        else:
            d = e = half
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, half)
        fb = f(b)
        steps += 1
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
