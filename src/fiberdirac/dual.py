"""Forward-mode dual numbers, nestable once for exact second derivatives.

A ``Dual`` carries a value ``re`` and a single directional derivative ``eps``.
Both slots may themselves hold ``Dual`` instances, which is how second
derivatives are produced: seed the outer level along direction *i*, the inner
level along direction *j*, and read ``result.eps.eps``.

All arithmetic is written against plain Python scalars so the same evaluator
code runs on floats, on duals, and on duals-of-duals.  Finite differences are
deliberately *not* used anywhere in this module; they exist only as an
independent cross-check in the test-suite.
"""

from __future__ import annotations

import math

_SCALARS = (int, float)


def _is_scalar(x):
    return isinstance(x, _SCALARS)


class Dual:
    """Value plus one directional derivative: re + eps·ε with ε² = 0."""

    __slots__ = ("re", "eps")

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
            return Dual(self.re * inv,
                        (self.eps - self.re * inv * other.eps) * inv)
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
            return exp(self * math.log(base))
        return NotImplemented

    # -- comparisons (on primal values; used by escape checks) -------------

    def __lt__(self, other):
        return value_of(self) < value_of(other)

    def __le__(self, other):
        return value_of(self) <= value_of(other)

    def __gt__(self, other):
        return value_of(self) > value_of(other)

    def __ge__(self, other):
        return value_of(self) >= value_of(other)

    def __abs__(self):
        s = 1.0 if value_of(self) >= 0.0 else -1.0
        return Dual(abs(self.re) if not isinstance(self.re, Dual) else self.re * s,
                    self.eps * s)

    def __float__(self):
        return float(value_of(self))


def value_of(x):
    """Strip all dual layers, returning the underlying float."""
    while isinstance(x, Dual):
        x = x.re
    return x


# -- elementary functions, generic over float / Dual ------------------------

def sin(x):
    if isinstance(x, Dual):
        return Dual(sin(x.re), cos(x.re) * x.eps)
    return math.sin(x)


def cos(x):
    if isinstance(x, Dual):
        return Dual(cos(x.re), -sin(x.re) * x.eps)
    return math.cos(x)


def tan(x):
    if isinstance(x, Dual):
        c = cos(x.re)
        return Dual(tan(x.re), x.eps / (c * c))
    return math.tan(x)


def exp(x):
    if isinstance(x, Dual):
        e = exp(x.re)
        return Dual(e, e * x.eps)
    return math.exp(x)


def log(x):
    if isinstance(x, Dual):
        return Dual(log(x.re), x.eps / x.re)
    return math.log(x)


def sqrt(x):
    if isinstance(x, Dual):
        s = sqrt(x.re)
        return Dual(s, x.eps / (2.0 * s))
    return math.sqrt(x)


def atan(x):
    if isinstance(x, Dual):
        return Dual(atan(x.re), x.eps / (1.0 + x.re * x.re))
    return math.atan(x)


def asin(x):
    if isinstance(x, Dual):
        return Dual(asin(x.re), x.eps / sqrt(1.0 - x.re * x.re))
    return math.asin(x)


def acos(x):
    if isinstance(x, Dual):
        return Dual(acos(x.re), -x.eps / sqrt(1.0 - x.re * x.re))
    return math.acos(x)


def sinh(x):
    if isinstance(x, Dual):
        return Dual(sinh(x.re), cosh(x.re) * x.eps)
    return math.sinh(x)


def cosh(x):
    if isinstance(x, Dual):
        return Dual(cosh(x.re), sinh(x.re) * x.eps)
    return math.cosh(x)


#: name → callable, the function namespace shared with the expression grammar
FUNCTIONS = {
    "sin": sin, "cos": cos, "tan": tan, "exp": exp, "log": log,
    "sqrt": sqrt, "atan": atan, "asin": asin, "acos": acos,
    "sinh": sinh, "cosh": cosh,
}


# -- derivative helpers ------------------------------------------------------

def tangent(out):
    """The ε-part of a result: of a scalar, or of each entry of a list or
    tuple; 0.0 for plain numbers (they do not depend on the seed)."""
    if isinstance(out, (list, tuple)):
        return [c.eps if isinstance(c, Dual) else 0.0 for c in out]
    return out.eps if isinstance(out, Dual) else 0.0


def partial(f, point, i):
    """∂f/∂x_i at ``point`` (f scalar-valued, point a sequence)."""
    seeded = [Dual(p, 1.0) if k == i else Dual(p, 0.0)
              for k, p in enumerate(point)]
    return tangent(f(seeded))


def gradient(f, point):
    """All first partials of a scalar function."""
    return [partial(f, point, i) for i in range(len(point))]


def jacobian(f, point):
    """Jacobian rows of a vector function: J[a][i] = ∂f_a/∂x_i."""
    n = len(point)
    cols = []
    for i in range(n):
        seeded = [Dual(p, 1.0) if k == i else Dual(p, 0.0)
                  for k, p in enumerate(point)]
        cols.append(tangent(f(seeded)))
    m = len(cols[0])
    return [[cols[i][a] for i in range(n)] for a in range(m)]


def directional(f, point, direction):
    """Derivative of f along ``direction`` (f may be vector-valued)."""
    return tangent(f([Dual(p, d) for p, d in zip(point, direction)]))


def second_partial(f, point, i, j):
    """∂²f/∂x_i∂x_j via one level of dual-number nesting."""
    seeded = []
    for k, p in enumerate(point):
        inner = Dual(p, 1.0 if k == j else 0.0)
        outer_eps = Dual(1.0 if k == i else 0.0, 0.0)
        seeded.append(Dual(inner, outer_eps))
    return value_of(tangent(tangent(f(seeded))))
