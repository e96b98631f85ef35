"""The three real division algebras with exact rational coordinates.

Elements are tuples of int or Fraction in the basis (1,), (1, i) or
(1, i, j, k); the units are int tuples, so the left/right multiplication
matrices of a unit are int lists.  They feed the matrix realizations: a
module over D is realified with the division coordinate innermost, D-linear
maps become real matrices commuting with the right-multiplication structures.
"""

from __future__ import annotations


class DivisionAlgebra:
    def __init__(self, name: str, dim: int, mul_fn):
        self.name = name
        self.dim = dim
        self._mul = mul_fn

    def unit(self, k: int) -> tuple:
        return tuple(int(i == k) for i in range(self.dim))

    def mul(self, x: tuple, y: tuple) -> tuple:
        return self._mul(x, y)

    def conj(self, x: tuple) -> tuple:
        return (x[0],) + tuple(-c for c in x[1:])

    def lmat(self, x: tuple) -> list:
        """Real matrix of y -> x*y: column b is x*e_b."""
        return [list(row) for row in
                zip(*(self._mul(x, self.unit(b)) for b in range(self.dim)))]

    def rmat(self, x: tuple) -> list:
        """Real matrix of y -> y*x: column b is e_b*x."""
        return [list(row) for row in
                zip(*(self._mul(self.unit(b), x) for b in range(self.dim)))]


def _mul_r(x, y):
    return (x[0] * y[0],)


def _mul_c(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _mul_h(x, y):
    x0, x1, x2, x3 = x
    y0, y1, y2, y3 = y
    return (
        x0 * y0 - x1 * y1 - x2 * y2 - x3 * y3,
        x0 * y1 + x1 * y0 + x2 * y3 - x3 * y2,
        x0 * y2 - x1 * y3 + x2 * y0 + x3 * y1,
        x0 * y3 + x1 * y2 - x2 * y1 + x3 * y0,
    )


REALS = DivisionAlgebra("R", 1, _mul_r)
COMPLEXES = DivisionAlgebra("C", 2, _mul_c)
QUATERNIONS = DivisionAlgebra("H", 4, _mul_h)

DIVISIONS = {"R": REALS, "C": COMPLEXES, "H": QUATERNIONS}
