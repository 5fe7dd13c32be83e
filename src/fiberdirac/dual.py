"""Forward-mode dual numbers, nestable once for exact second derivatives.

A ``Dual`` carries a value ``re`` and a single directional derivative ``eps``.
Both slots may themselves hold ``Dual`` instances, which is how second
derivatives are produced: seed the outer level along direction *i*, the inner
level along direction *j*, and read ``result.eps.eps``.

All arithmetic is written against generic scalars so the same evaluator
code runs on floats, on duals, and on duals-of-duals.  A numpy array counts
as a scalar too: a ``Dual`` whose slots hold arrays evaluates a function at a
whole grid of points in one pass (forward mode over arrays).  Every entry of
``FUNCTIONS`` calls ``math``, and the numpy ufunc when ``math`` refuses an
array; on arrays numpy returns NaN or ±inf where ``math`` raises, and the
derivative there is NaN.  No Dual has an order: comparisons and ``abs``
raise ``TypeError``; a check that branches compares ``value_of``.  No
Dual converts to a float: ``float()``, a ``math`` function and
``np.asarray(…, dtype=float)`` raise ``TypeError`` rather than drop the
tangent, which only ``value_of`` does.
In `jacobian`, ``eps`` carries a leading direction axis: one seeded pass
differentiates along every coordinate, by the same elementwise operations
as one pass per coordinate.  Finite differences are deliberately *not*
used anywhere in this module; they exist only as an independent
cross-check in the test-suite.
"""

from __future__ import annotations

import math

import numpy as np

_SCALARS = (int, float, np.ndarray)


def _is_scalar(x):
    return isinstance(x, _SCALARS)


class Dual:
    """Value plus one directional derivative: re + eps·ε with ε² = 0."""

    __slots__ = ("re", "eps")

    # numpy defers every binary operator to Dual, so ``ndarray ∘ Dual`` runs
    # the reflected method below instead of building an object array
    __array_ufunc__ = None

    def __init__(self, re, eps=0.0):
        self.re = re
        self.eps = eps

    def __repr__(self):
        return f"Dual({self.re!r}, {self.eps!r})"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.re + other.re, self.eps + other.eps)
        if _is_scalar(other):
            return Dual(self.re + other, self.eps)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.re, -self.eps)

    def __pos__(self):
        return self

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.re - other.re, self.eps - other.eps)
        if _is_scalar(other):
            return Dual(self.re - other, self.eps)
        return NotImplemented

    def __rsub__(self, other):
        if _is_scalar(other):
            return Dual(other - self.re, -self.eps)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(self.re * other.re,
                        self.re * other.eps + self.eps * other.re)
        if _is_scalar(other):
            return Dual(self.re * other, self.eps * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            inv = 1.0 / other.re
            val = self.re * inv
            return Dual(val, (self.eps - val * other.eps) * inv)
        if _is_scalar(other):
            return Dual(self.re / other, self.eps / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if _is_scalar(other):
            inv = 1.0 / self.re
            val = other * inv
            return Dual(val, -val * inv * self.eps)
        return NotImplemented

    def __pow__(self, n):
        if isinstance(n, int):
            if n == 0:
                return Dual(self.re * 0 + 1.0, self.eps * 0)
            if n < 0:
                return 1.0 / (self ** (-n))
            return Dual(self.re ** n, n * self.re ** (n - 1) * self.eps)
        if _is_scalar(n):
            return Dual(self.re ** n, n * self.re ** (n - 1.0) * self.eps)
        if isinstance(n, Dual):
            return exp(n * log(self))
        return NotImplemented

    def __rpow__(self, base):
        if _is_scalar(base):
            return exp(self * log(base))
        return NotImplemented


def value_of(x):
    """Strip all dual layers, returning the underlying float (or array)."""
    while isinstance(x, Dual):
        x = x.re
    return x


def where(cond, a, b):
    """`np.where` through Dual layers: a where `cond` holds, else b."""
    if not (isinstance(a, Dual) or isinstance(b, Dual)):
        return np.where(cond, a, b)
    a, b = (x if isinstance(x, Dual) else Dual(x, 0.0) for x in (a, b))
    return Dual(where(cond, a.re, b.re), where(cond, a.eps, b.eps))


# -- elementary functions, generic over float / array / Dual ----------------

def _elementary(math_fn, numpy_fn, rule):
    """One function of the library: `math_fn` on numbers, `numpy_fn` when
    `math` refuses an array, and on a Dual the chain rule, with
    ``rule(x, fx, dx)`` giving the tangent of f at x (value fx) along dx."""

    def f(x):
        if isinstance(x, Dual):
            fx = f(x.re)
            dfx = rule(x.re, fx, x.eps)
            if isinstance(fx, np.ndarray):   # no derivative where math raises
                dfx = np.where(np.isfinite(fx), dfx, math.nan)
            return Dual(fx, dfx)
        try:
            return math_fn(x)
        except TypeError:   # an array: math takes scalars only
            return numpy_fn(x)

    f.__name__ = f.__qualname__ = math_fn.__name__
    return f


def _tan_rule(x, fx, dx):
    c = cos(x)
    return dx / (c * c)


sin = _elementary(math.sin, np.sin, lambda x, fx, dx: cos(x) * dx)
cos = _elementary(math.cos, np.cos, lambda x, fx, dx: -sin(x) * dx)
tan = _elementary(math.tan, np.tan, _tan_rule)
exp = _elementary(math.exp, np.exp, lambda x, fx, dx: fx * dx)
log = _elementary(math.log, np.log, lambda x, fx, dx: dx / x)
sqrt = _elementary(math.sqrt, np.sqrt, lambda x, fx, dx: dx / (2.0 * fx))
atan = _elementary(math.atan, np.arctan,
                   lambda x, fx, dx: dx / (1.0 + x * x))
asin = _elementary(math.asin, np.arcsin,
                   lambda x, fx, dx: dx / sqrt(1.0 - x * x))
acos = _elementary(math.acos, np.arccos,
                   lambda x, fx, dx: -dx / sqrt(1.0 - x * x))
sinh = _elementary(math.sinh, np.sinh, lambda x, fx, dx: cosh(x) * dx)
cosh = _elementary(math.cosh, np.cosh, lambda x, fx, dx: sinh(x) * dx)

#: name → callable, the function namespace shared with the expression grammar
FUNCTIONS = {f.__name__: f for f in (sin, cos, tan, exp, log, sqrt, atan,
                                     asin, acos, sinh, cosh)}


# -- derivative helpers ------------------------------------------------------

def tangent(out):
    """The ε-part of a result: of a scalar, or of each entry of a list or
    tuple; 0.0 for plain numbers (they do not depend on the seed)."""
    if isinstance(out, (list, tuple)):
        return [c.eps if isinstance(c, Dual) else 0.0 for c in out]
    return out.eps if isinstance(out, Dual) else 0.0


def _seeded_pass(f, point, direction):
    """The tangent of f at ``point`` along ``direction``.  Every coordinate
    is wrapped in a new Dual level, so a point whose entries are already
    duals nests correctly: the outer seed rides inside ``.re``."""
    return tangent(f([Dual(p, d) for p, d in zip(point, direction)]))


def unit(n, i):
    """The i-th coordinate unit vector of length n, as floats."""
    return [1.0 if k == i else 0.0 for k in range(n)]


def partial(f, point, i):
    """∂f/∂x_i at ``point`` (f scalar- or list-valued, point a sequence)."""
    return _seeded_pass(f, point, unit(len(point), i))


def gradient(f, point):
    """All first partials of a scalar function."""
    return [partial(f, point, i) for i in range(len(point))]


def jacobian(f, point):
    """Jacobian rows of a vector function: J[a][i] = ∂f_a/∂x_i, from one
    seeded pass.  Coordinate i carries row i of the identity as its
    tangent, with the point's shape appended, so every tangent has a
    leading direction axis, and slice i of it has the bits of the pass
    seeded along coordinate i alone.  f must broadcast its arrays against
    the point's (an array with more axes would meet the direction axis).

    At a point of float arrays J is one float array (m, n, …), each row
    its tangent broadcast to the point's shape; at a point of floats, m
    lists of n floats.  When a tangent is a Dual (the point's entries are
    duals), each row is a list of n entries, every Dual layer split along
    the direction axis.  A tangent divided by zero (the slope of √ at 0)
    is ±inf, or NaN where the direction's own tangent is 0, at a float
    point as at an array point, with numpy's RuntimeWarning unless an
    `np.errstate` silences it; it never raises `ZeroDivisionError`."""
    n = len(point)
    shapes = {np.shape(x) for p in point for x in _layers(p)}
    shape = shapes.pop() if len(shapes) == 1 else np.broadcast_shapes(*shapes)
    seeds = np.eye(n).reshape((n, n) + (1,) * len(shape))
    tangents = _seeded_pass(f, point, seeds)
    if any(isinstance(t, Dual) for t in tangents):
        return [_split(t, n, len(shape)) for t in tangents]
    out = np.empty((len(tangents), n) + shape)
    for a, t in enumerate(tangents):
        out[a] = t   # a tangent with no direction axis is the same along all
    return out if shape else out.tolist()


def _layers(x):
    """The plain numbers or arrays inside every Dual layer of x."""
    if isinstance(x, Dual):
        return _layers(x.re) + _layers(x.eps)
    return [x]


def _split(t, n, ndim):
    """The n entries of a `jacobian` row from its tangent t, at a point of
    ``ndim`` axes: an entry with more axes has the direction axis first,
    and any other entry is the same along every direction."""
    if isinstance(t, Dual):
        return [Dual(r, e) for r, e in zip(_split(t.re, n, ndim),
                                          _split(t.eps, n, ndim))]
    if np.ndim(t) <= ndim:
        return [t] * n
    return list(t) if ndim else t.tolist()


def directional(f, point, direction):
    """Derivative of f along ``direction`` (f may be vector-valued)."""
    return _seeded_pass(f, point, direction)


def second_partial(f, point, i, j):
    """∂²f/∂x_i∂x_j via one level of dual-number nesting."""
    n = len(point)
    seeded = [Dual(Dual(p, dj), Dual(di, 0.0))
              for p, di, dj in zip(point, unit(n, i), unit(n, j))]
    return value_of(tangent(tangent(f(seeded))))
