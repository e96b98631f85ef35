"""Independent cross-checks shared by the test modules.

Graded dimensions of the isometry Lie algebra are recomputed here purely by
weight counting on the diagram: g = Sym^2(V) for symplectic-type forms,
Lambda^2(V) for orthogonal-type ones, and gl(V) = V (x) V* for unitary
groups.  None of this touches the matrix code under test.

Small dense matrix helpers that only tests need (sums, differences,
commutators, powers, the zero test) sit at the end, after them the
realization's sl2 triple assembled from Kronecker products, a reference for
the entry-by-entry one; `mul` and `kron` come from the kernel, which
test_rational checks against the textbook product.
"""

from collections import Counter

from dualpairs import complexify_tableau
from fractions import Fraction

from dualpairs.rational import block_diag, eye, kron, mul, zeros


def sl2_weights(t: int) -> list:
    return [t - 1 - 2 * r for r in range(t)]


def diagram_weights(diagram) -> list:
    out = []
    for t in diagram:
        out.extend(sl2_weights(t))
    return out


def graded_dims_by_counting(diagram, epsilon: int) -> dict:
    """dim g_j for g = Sym^2 V (epsilon=-1) or Lambda^2 V (epsilon=+1)."""
    w = diagram_weights(diagram)
    out = Counter()
    for i in range(len(w)):
        start = i if epsilon == -1 else i + 1
        for j in range(start, len(w)):
            out[w[i] + w[j]] += 1
    return {k: v for k, v in out.items() if v}


def unitary_graded_dims(diagram) -> dict:
    """dim_R u(V)_j = dim_C gl(V)_j, counted as weight differences."""
    w = diagram_weights(diagram)
    out = Counter()
    for wi in w:
        for wk in w:
            out[wi - wk] += 1
    return {k: v for k, v in out.items() if v}


def expected_grading(tab) -> dict:
    """Graded dims of g(V) for any admissible tableau, by counting alone."""
    space = tab.space
    if space.base == "C":
        return graded_dims_by_counting(tab.diagram(), space.epsilon)
    if space.division == "C":
        return unitary_graded_dims(tab.diagram())
    ct = complexify_tableau(tab)
    return graded_dims_by_counting(ct.diagram(), ct.space.epsilon)


def add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def commutator(a, b):
    return sub(mul(a, b), mul(b, a))


def matpow(a, k: int):
    out = eye(len(a))
    for _ in range(k):
        out = mul(out, a)
    return out


def is_zero_mat(a) -> bool:
    return all(not x for row in a for x in row)


def sl2_triple(t: int) -> tuple:
    """x, h, y on one string: X e_r = r e_(r-1), H e_r = (t-1-2r) e_r,
    Y e_r = (t-1-r) e_(r+1)."""
    x, h, y = zeros(t, t), zeros(t, t), zeros(t, t)
    for r in range(t):
        h[r][r] = Fraction(t - 1 - 2 * r)
        if r >= 1:
            x[r - 1][r] = Fraction(r)
        if r + 1 < t:
            y[r + 1][r] = Fraction(t - 1 - r)
    return x, h, y


def kron_triple(tab) -> tuple:
    """(x, h, y) of realize_triple(tab): per row, kron(eye(m), z) with the
    D-coordinate kron(., eye(dr)) innermost, the rows down the diagonal."""
    blocks = ([], [], [])
    for row in tab.rows:
        for out, z in zip(blocks, sl2_triple(row.t)):
            out.append(kron(kron(eye(row.mult.dim), z), eye(tab.space.d)))
    return tuple(block_diag(zs) for zs in blocks)
