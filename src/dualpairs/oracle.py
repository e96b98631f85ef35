"""Exact-rational matrix ground truth for the orbit combinatorics.

Every form and map is one rational matrix.  A base-C space is its Q-form:
the Gram matrices, sl2 triples and witnesses of the complex pairs are
rational, and ranks and kernel dimensions do not change under field
extension, so n_d x n_d rational matrices carry the complex algebra and D
acts as Q.  A base-R module over D in {R, C, H} is realified: a D-valued
entry z becomes the dr x dr block L_z of left multiplication by z, so a
D-valued form becomes its real part, and the space stores the
right-multiplication structure matrices alongside.  Division indices are
innermost: D-basis index a occupies coordinates a*dr .. a*dr+dr-1
(dr = dim_F D).  Each matrix is built once, in its final integer form,
and checked in it: Gram and D-structure matrices as monomials
(rational.Monomial) written entry by entry, never parsed from dense form
(rational.dense writes one out as its integer matrix), x, h, y as frozen
int tuples, maps and moment-map values as rational.Scaled, a raising map's
drawn integers written straight into T wherever dr = 1; identify reads
ranks off the image chain, the echelon bases of the row spaces of the
powers of x kept as sparse rows, and builds no power.  Over base R it reads
each multiplicity form on ker x^t itself, one kernel per row length t: as
x is skew for B, the form's radical there is ker x^(t-1) + x ker x^(t+1),
so no quotient basis is built.  classify_space checks a form's rank once:
from the signature, or by one elimination for a type without a signature.
Each equation of the isometry algebra, skewness for the monomial B or
commuting with a monomial D-structure J, ties two matrix entries, so the
algebra is read off its classes of tied entries with no elimination.
algebra_basis walks all n^2 entries once per AmbientSpace, which keeps the
classes; every class has one ad H-degree, so a realization counts them
for each dim g_j and takes dim M_X on the degree-0 ones, and keeps both.
Membership is checked on the nonzero entries alone, and a centralizer
eliminates only the commutators [b, x] of the classes.  _identify is the
one checked entry point for an orbit: it asserts that its value lies in
the algebra, then reads the orbit, and keeps the tableau in an LRU cache
keyed by the frozen value and ambient space, so a moment value met again
(T*T is a descent target's x, TT* a source's) is neither checked nor
identified twice; the moment values are asserted there, or by moment_maps
for callers outside the oracle.
Fractions are written only in rational, for callers outside the oracle
(moment_maps, random_isometry, the dense AmbientSpace.gram and
.structures).

Conventions for the sl2 blocks (fixed once, used by realize and identify):
  X e_r = r e_{r-1},  H e_r = (t-1-2r) e_r,  Y e_r = (t-1-r) e_{r+1};
  S_t[r][t-1-r] = (-1)^r r!(t-1-r)!/(t-1)! * sigma_t, where sigma_t = 1
  over base C and, over base R, sigma_t = (-1)^((t-1)/2) for odd t (making
  the signature of S_t equal (ceil(t/2), floor(t/2))) and 1 for even t.
  Row blocks additionally carry the twist s_t = (-1)^(t/2) for even t over
  base R (legal: those blocks are split or dimension-classified), chosen so
  that descent realizers transport multiplicity labels exactly on descent
  targets; the residual incoherence sits on source tableaux with an
  asymmetric signature on an even row, where construct_descent_element
  raises IdentityViolated rather than return a wrong witness.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from operator import mul

from .division import DIVISIONS, DivisionAlgebra
from .errors import IdentityViolated, NotInAlgebra, NotNilpotent
from .forms import SIG_KINDS, FormedSpace, formed_space, space_of
from .orbits import AdmissibleTableau, TableauRow, check_bound, validate
from .rational import (Mat, Monomial, Scaled, cayley, dense, echelon, eye,
                       fraction_mat, int_mul, int_rows, kernel, monomial_inv,
                       monomial_rows, sandwich, scaled, scaled_mul, shape,
                       sylvester_signature, transpose)
from .theta import _check_pair, generalized_descent, reduced_pair_dims


def sigma_t(t: int, base: str) -> int:
    if base == "C" or t % 2 == 0:
        return 1
    return (-1) ** ((t - 1) // 2)


def s_twist(t: int, base: str) -> int:
    if base == "C" or t % 2 == 1:
        return 1
    return (-1) ** (t // 2)


# -- reference forms ------------------------------------------------------


def coordinates(base: str, division: str) -> DivisionAlgebra:
    """The algebra whose L_z blocks are a space's matrix entries: Q itself
    over base C (the Q-form), D over base R (the realification)."""
    return DIVISIONS["R" if base == "C" else division]


def _monomial(blocks, den: int = 1) -> Monomial:
    """The monomial matrix over den with diagonal blocks kron(p, e), written
    entry by entry and reduced by the gcd: p a monomial pattern, given as the
    integer (column, value) of each of its rows, and e a signed permutation
    block such as L_u or R_u, an int matrix with one nonzero entry per row."""
    perm, vals = [], []
    for pattern, e in blocks:
        off, k = len(perm), len(e)
        units = [next((j, x) for j, x in enumerate(row) if x) for row in e]
        for col, c in pattern:
            for j, x in units:
                perm.append(off + col * k + j)
                vals.append(c * x)
    g = math.gcd(den, *vals)
    return Monomial(tuple(perm), tuple(v // g for v in vals), den // g)


def _pattern(space: FormedSpace) -> list:
    """(column, value) of each row of the reference form's pattern g of
    D-entries: +-1 on the diagonal by the signature, hyperbolic pairs for a
    symplectic form, the identity otherwise."""
    n = space.dim
    if space.kind == "sig":
        return [(a, 1 if a < space.p else -1) for a in range(n)]
    if space.epsilon == -1 and space.division != "H":  # symplectic
        return [(a + 1, 1) if a % 2 == 0 else (a - 1, -1) for a in range(n)]
    return [(a, 1) for a in range(n)]


def _gram(strings) -> Monomial:
    """Gram matrix of the blocks kron(g, s_t S_t, L_u) down the diagonal,
    one per (t, U) in strings: g the pattern of U's reference form, S_t the
    sl2 form of the module docstring and L_u left multiplication by u, the
    unit i for the (R, C, -1) and (R, H, -1) types and 1 otherwise, each
    coefficient over (T-1)!, T the longest string."""
    blocks, fact = [], math.factorial
    den = fact(max((t for t, _ in strings), default=1) - 1)
    for t, u_space in strings:
        base = u_space.base
        div = coordinates(base, u_space.division)
        u = 1 if u_space.tag() in (("R", "C", -1), ("R", "H", -1)) else 0
        scale = s_twist(t, base) * sigma_t(t, base) * (den // fact(t - 1))
        coeffs = [(-1) ** r * fact(r) * fact(t - 1 - r) * scale
                  for r in range(t)]
        blocks.append(([(ga * t + t - 1 - r, sa * c)
                        for ga, sa in _pattern(u_space)
                        for r, c in enumerate(coeffs)],
                       div.lmat(div.unit(u))))
    return _monomial(blocks, den)


def standard_gram(space: FormedSpace) -> Scaled:
    """Gram matrix of the reference form, as an integer matrix over its
    denominator: kron(g, L_u), the one string of length 1 of _gram."""
    return dense(_gram([(1, space)]))


def _structures(n_d: int, div: DivisionAlgebra) -> tuple:
    """The D-structures kron(I_{n_d}, R_e), right multiplication by each
    non-real unit e: signed permutations, so their denominator is 1."""
    ident = [(i, 1) for i in range(n_d)]
    return tuple(_monomial([(ident, div.rmat(div.unit(k)))])
                 for k in range(1, div.dim))


@dataclass(frozen=True)
class AmbientSpace:
    """Rational carrier of a formed space in monomial form: the Gram matrix
    B, its inverse and the D-structures (none over base C, where D acts as
    Q); gram and structures are fresh dense Fraction copies.  classes, the
    algebra's classes of tied entries from algebra_basis, is computed on
    first use from the frozen fields and kept outside equality, hashing
    and repr."""
    space: FormedSpace
    gram_mono: Monomial
    gram_inv_mono: Monomial
    structure_monos: tuple

    @functools.cached_property
    def classes(self) -> list:
        return algebra_basis(self)

    @property
    def gram(self) -> Mat:
        return fraction_mat(dense(self.gram_mono))

    @property
    def structures(self) -> list:
        return [fraction_mat(dense(j)) for j in self.structure_monos]

    @property
    def dr(self) -> int:
        return self.space.d

    @property
    def n_real(self) -> int:
        return len(self.gram_mono.perm)


@dataclass(frozen=True)
class MatrixRealization:
    """A realized sl2 triple.  grading (each dim g_j) and dim_m_x (dim M_X)
    are read off the ambient's classes on first use and kept: integers
    derived from the frozen fields, so they stay out of equality, hashing
    and repr, and a replace() computes its own."""
    ambient: AmbientSpace
    tableau: AdmissibleTableau
    x: tuple            # x, h, y: tuples of int tuples
    h: tuple
    y: tuple
    weights: tuple      # H-weight of each D-basis index
    row_offsets: tuple  # first D-index of each tableau row block

    def d_index(self, row_i: int, a: int, r: int) -> int:
        t = self.tableau.rows[row_i].t
        return self.row_offsets[row_i] + a * t + r

    def _degree(self, cls: dict) -> int:
        """ad H-degree wt(p) - wt(q) of a class, read at any one entry
        (p, q): a B-tie sends it to (perm q, perm p), and the weight-adapted
        B pairs weight w with -w, while a J-tie stays in its D-block."""
        (p, q), dr = next(iter(cls)), self.ambient.dr
        return self.weights[p // dr] - self.weights[q // dr]

    @functools.cached_property
    def grading(self) -> dict:
        """dim g_j for every j in the weight span of ad H: the ambient's
        classes counted by degree."""
        span = 2 * max(self.weights, default=-1)  # no j for the zero space
        dims = dict.fromkeys(range(-span, span + 1), 0)
        for cls in self.ambient.classes:
            dims[self._degree(cls)] += 1
        return dims

    @functools.cached_property
    def dim_m_x(self) -> int:
        """dim of M_X, the centralizer of x in g_0: the degree-0 classes over
        their own denominator, less the rank of their commutators with x."""
        g0 = [cls for cls in self.ambient.classes if not self._degree(cls)]
        return _centralizer_nullity(g0, self.x)


REALIZE_CACHE_SIZE = 256


def realize_triple(tab: AdmissibleTableau) -> MatrixRealization:
    """Weight-adapted block realization of the orbit's sl2 triple, from a
    least-recently-used cache of REALIZE_CACHE_SIZE realizations."""
    check_bound(tab.space)
    return _realize(tab)


@functools.lru_cache(maxsize=REALIZE_CACHE_SIZE)
def _realize(tab: AdmissibleTableau) -> MatrixRealization:
    """The Gram matrix written as a monomial, one string block per row, and
    x, h, y entry by entry from the weight strings as integer matrices,
    D-coordinate innermost: H = w = t-1-2r on the diagonal, X = r above it
    and Y = t-1-r = w + r below it, a string step being dr."""
    validate(tab)
    space = tab.space
    dr = space.d
    weights, string_pos, offsets = [], [], []
    for row in tab.rows:
        offsets.append(len(weights))
        t, m = row.t, row.mult.dim
        weights += [t - 1 - 2 * r for r in range(t)] * m
        string_pos += list(range(t)) * m
    gram = _gram([(row.t, row.mult) for row in tab.rows])
    amb = AmbientSpace(space, gram, monomial_inv(gram), _structures(
        space.dim, coordinates(space.base, space.division)))
    n = amb.n_real
    x, h, y = ([[0] * n for _ in range(n)] for _ in range(3))
    for i, (w, r) in enumerate(zip(weights, string_pos)):
        for c in range(i * dr, i * dr + dr):
            h[c][c] = w
            if r:
                x[c - dr][c] = r
            if w + r:
                y[c + dr][c] = w + r
    x, h, y = (tuple(map(tuple, z)) for z in (x, h, y))
    real = MatrixRealization(ambient=amb, tableau=tab, x=x, h=h, y=y,
                             weights=tuple(weights),
                             row_offsets=tuple(offsets))
    _check_triple(real)
    return real


def _check_triple(real: MatrixRealization):
    """The sl2 relations on the sparse rows of the integer x, h, y:
    [h, x] = 2x, [h, y] = -2y, [x, y] = h; then each matrix's membership in
    the algebra."""
    x, h, y = (int_rows(z) for z in (real.x, real.h, real.y))
    for a, b, k, c, msg in ((h, x, 2, x, "[H,X] != 2X"),
                            (h, y, -2, y, "[H,Y] != -2Y"),
                            (x, y, 1, h, "[X,Y] != H")):
        if not _bracket_is(a, b, k, c):
            raise IdentityViolated(msg)
    for z, nm in ((real.x, "X"), (real.h, "H"), (real.y, "Y")):
        if not in_algebra(Scaled(z, 1), real.ambient):
            raise IdentityViolated(f"{nm} is not in the isometry algebra")


def _bracket_is(a: list, b: list, k: int, c: list) -> bool:
    """ab - ba = k c for square integer matrices given as sparse rows."""
    for ra, rb, rc in zip(a, b, c):
        acc = {j: -k * v for j, v in rc.items()}
        for m, u in ra.items():
            for j, v in b[m].items():
                acc[j] = acc.get(j, 0) + u * v
        for m, u in rb.items():
            for j, v in a[m].items():
                acc[j] = acc.get(j, 0) - u * v
        if any(acc.values()):
            return False
    return True


def _intertwines(z: list, j_in, j_out) -> bool:
    """z J_in = J_out z for an integer matrix z and monomial J_in, J_out
    with scales a, b: entry [p][j_in.perm[k]] is z[p][k] a_k on the left
    and b_p z[j_out.perm[p]][j_in.perm[k]] on the right."""
    rows = [z[i] for i in j_out.perm]
    a = [x * j_out.den for x in j_in.num]
    for zp, bp, r in zip(z, j_out.num, rows):
        bp *= j_in.den
        if any(x * ak != bp * r[c] for x, ak, c in zip(zp, a, j_in.perm)):
            return False
    return True


def in_algebra(z: Scaled, amb: AmbientSpace) -> bool:
    """z^T B + B z = 0 and z J = J z for each D-structure J, exactly: every
    row of z's integer matrix has length n, and each nonzero entry meets
    its equations from _ties.  An equation listed from a zero entry is left
    unchecked; its other entry lists it back, so it is checked too or 0."""
    zi, n = z.ints, amb.n_real
    if len(zi) != n or any(len(row) != n for row in zi):
        return False
    nonzero = [(k, p) for k, row in enumerate(zi)
               for p, v in enumerate(row) if v]
    for k, p, q, r, a, b in _ties(amb.gram_mono, amb.structure_monos,
                                  nonzero):
        if a * zi[k][p] + b * zi[q][r]:
            return False
    return True


def _assert_in_algebra(z: Scaled, amb: AmbientSpace):
    if not in_algebra(z, amb):
        raise NotInAlgebra("matrix violates the form or D-linearity",
                           space=amb.space.render())


# -- maps between formed spaces ------------------------------------------


@dataclass(frozen=True)
class RationalMap:
    """A D-linear T: V -> V' and its adjoint T* = B^-1 T^T B', each kept as
    one scaled integer matrix."""
    source: AmbientSpace    # V
    target: AmbientSpace    # V'
    t: Scaled               # T: V -> V'
    t_star: Scaled          # T*: V' -> V


def make_map(source: AmbientSpace, target: AmbientSpace, t: Scaled) -> RationalMap:
    """T, a scaled integer matrix, between the spaces of a dual pair (else
    IncompatiblePair), checked for its shape and D-linearity,
    with T* written on integers from the monomial Gram forms B^-1 and B'."""
    _check_pair(target.space, source.space)
    n = source.n_real
    ti = t.ints
    if len(ti) != target.n_real or any(len(row) != n for row in ti):
        raise NotInAlgebra("map has wrong shape", shape=shape(ti))
    for js, jt in zip(source.structure_monos, target.structure_monos):
        if not _intertwines(ti, js, jt):
            raise NotInAlgebra("map is not D-linear")
    # T^T has n rows, empty ones when T has none
    t_t = tuple(zip(*ti)) or ((),) * n
    t_star = sandwich(source.gram_inv_mono, Scaled(t_t, t.den),
                      target.gram_mono)
    return RationalMap(source, target, t, t_star)


def _square_mul(a: Scaled, b: Scaled, n: int) -> Scaled:
    """The n x n product ab; over an inner dimension 0 it is zero, as b has
    no rows to carry its width."""
    return scaled_mul(a, b) if b.ints else Scaled(((0,) * n,) * n, 1)


def _moment_values(rm: RationalMap) -> tuple:
    """(T*T, TT*) as scaled integer matrices, unchecked: _identify asserts
    that each lies in g, g' before it reads its orbit."""
    return (_square_mul(rm.t_star, rm.t, rm.source.n_real),
            _square_mul(rm.t, rm.t_star, rm.target.n_real))


def moment_maps(rm: RationalMap) -> tuple:
    """(T*T, TT*): the two moment-map values as Fraction matrices, each
    asserted here to land in g, g'."""
    x, xp = _moment_values(rm)
    _assert_in_algebra(x, rm.source)
    _assert_in_algebra(xp, rm.target)
    return fraction_mat(x), fraction_mat(xp)


def kernel_form_nondegenerate(rm: RationalMap) -> bool:
    """B restricted to Ker T is non-degenerate, on integers: the Gram matrix
    bk of the integer kernel basis k under den * B has full rank."""
    n = rm.source.n_real
    k = kernel(int_rows(rm.t.ints), n).ints
    bk = int_mul(k, transpose(monomial_rows(rm.source.gram_mono, k)))
    return len(echelon(int_rows(bk))) == len(k)


# -- identification ------------------------------------------------------


def classify_space(br, base: str, division: str, epsilon: int,
                   dim: int | None = None) -> FormedSpace:
    """Isometry class of a D-valued epsilon-Hermitian form, given as a
    positive multiple of its Gram matrix on k D-lines with integer entries:
    blocks L_z for the D-entries z.  The form must be non-degenerate, or,
    when dim is given, have a non-degenerate part of D-dimension dim: the
    class of the form on the lines modulo its radical.  As
    L_conj(z) = L_z^T, the form is epsilon-Hermitian iff br^T = epsilon br.
    The checks, the rank and the signature all run on these integers.  A
    skew-Hermitian form over C (type (R, C, -1)) takes its signature from
    the symmetric J^T br, J the structure of right multiplication by i on
    the lines.  The rank is checked once: from the signature where the type
    has one, by one elimination where it has none."""
    div = coordinates(base, division)
    if list(zip(*br)) != [tuple(epsilon * x for x in row) for row in br]:
        raise IdentityViolated("form is not epsilon-Hermitian", epsilon=epsilon)
    k = len(br) // div.dim
    m = k if dim is None else dim
    tag = (base, division, epsilon)
    if tag in SIG_KINDS:
        if tag == ("R", "C", -1):
            # J = kron(I_k, R_i), R_i = [[0, -1], [1, 0]]: J^T br swaps
            # each pair of rows and negates the second
            br = [row for a in range(0, len(br), 2)
                  for row in (br[a + 1], [-x for x in br[a]])]
        pos, negc, _ = sylvester_signature(br)
        rank = pos + negc
    else:
        pos, rank = 0, len(echelon(int_rows(br)))
    if rank != m * div.dim:
        raise IdentityViolated("form is degenerate" if rank < m * div.dim
                               else "form rank exceeds its dimension",
                               dim=m, rank=rank)
    return space_of(tag, pos // div.dim, m)


def _ties(gram: Monomial, structures, entries):
    """The isometry algebra's equations listed from each entry (k, p) in
    entries, (k, p, q, r, a, b) for a z[k][p] + b z[q][r] = 0: z^T B + B z
    = 0 ties z[k][p] to z[perm_B p][perm_B k] by (b_k, b_p), and zJ = Jz,
    for each D-structure J, to z[perm_J k][perm_J p] by (j_p, -j_k).  As
    B^T = +-B and J^2 = -1, the other entry lists each equation back."""
    bperm, bnum = gram.perm, gram.num
    js = [(j.perm, j.num) for j in structures]
    for k, p in entries:
        yield k, p, bperm[p], bperm[k], bnum[k], bnum[p]
        for jperm, jnum in js:
            yield k, p, jperm[k], jperm[p], jnum[p], -jnum[k]


def _classes(gram: Monomial, structures) -> list:
    """The solutions of the ties' equations on all n^2 entries: one per live
    class of tied entries, in the order of its last entry, as
    {entry: (num, den)} with value 1 at that entry.  A class is dead, all 0,
    when the values walked from its last entry disagree around a cycle (as
    around a self-tie with a != -b).  A walk meets no entry of an earlier
    class: each tie is listed back from its other entry (_ties), so an
    earlier walk that reached such an entry would have walked on into this
    class."""
    n = len(gram.perm)
    entries = [(k, p) for k in range(n) for p in range(n)]
    ties = {}
    for k, p, q, r, a, b in _ties(gram, structures, entries):
        ties.setdefault((k, p), []).append(((q, r), a, b))
    live = []
    for e in reversed(entries):  # a class is met first at its last entry
        if e not in ties:
            continue
        vals, stack, ok = {e: (1, 1)}, [e], True
        for u in stack:
            un, ud = vals[u]
            for f, a, b in ties.pop(u):  # z_f = -a/b z_u
                if f in vals:
                    fn, fd = vals[f]
                    ok = ok and fn * b * ud == -a * un * fd
                else:
                    vals[f] = (-a * un, b * ud)
                    stack.append(f)
        if ok:
            live.append(vals)
    live.reverse()
    return live


def _over_one_den(classes: list) -> tuple:
    """The classes' vectors as integers {entry: int} over their least
    common denominator: rational.kernel's vectors of the ties' equations,
    one at the free column of each class's last entry."""
    den = math.lcm(*[d // math.gcd(num, d) for cls in classes
                     for num, d in cls.values()])
    return [{c: num * den // d for c, (num, d) in cls.items()}
            for cls in classes], den


def algebra_basis(amb: AmbientSpace) -> list:
    """Basis of the isometry Lie algebra in the space's coordinates, its
    size the dimension over F: _classes over all n^2 entries in one walk,
    which AmbientSpace.classes keeps.  No elimination: over one
    denominator (_over_one_den) the classes are rational.kernel's vectors
    of the ties' equations, in its order."""
    return _classes(amb.gram_mono, amb.structure_monos)


def _centralizer_nullity(classes: list, x) -> int:
    """dim of the centralizer of the integer matrix x in the span of the
    classes' vectors: their number less the rank of the commutators
    [b, x] = bx - xb, eliminated as sparse rows over the n^2 entries."""
    n = len(x)
    rows, cols = int_rows(x), int_rows(zip(*x))
    brackets = []
    for vec in _over_one_den(classes)[0]:
        acc = {}
        for (k, p), c in vec.items():
            for q, v in rows[p].items():  # (bx)[k][q] += b[k][p] x[p][q]
                acc[k * n + q] = acc.get(k * n + q, 0) + c * v
            for i, v in cols[k].items():  # (xb)[i][p] += x[i][k] b[k][p]
                acc[i * n + p] = acc.get(i * n + p, 0) - v * c
        brackets.append({e: v for e, v in acc.items() if v})
    return len(classes) - len(echelon(brackets))


def centralizer_dim(x: Mat, amb: AmbientSpace) -> int:
    """dim over the base field of the centralizer of x in the isometry
    algebra."""
    xs = scaled(x)
    _assert_in_algebra(xs, amb)
    return _centralizer_nullity(amb.classes, xs.ints)


def triple_centralizer_dim(real: MatrixRealization) -> int:
    """dim of the centralizer of the (X, H) pair: the reductive piece M_X."""
    return real.dim_m_x


def graded_dims(real: MatrixRealization) -> dict:
    """dim g_j (base field) for every j in the weight span of ad H, a copy
    of the realization's grading."""
    return dict(real.grading)


def identify(x: Mat, amb: AmbientSpace) -> AdmissibleTableau:
    """Orbit of a nilpotent x of the isometry algebra: x is cleared once,
    and _identify checks and identifies that integer form."""
    return _identify(scaled(x), amb)


@functools.lru_cache(maxsize=REALIZE_CACHE_SIZE)
def _identify(x: Scaled, amb: AmbientSpace) -> AdmissibleTableau:
    """Orbit of a nilpotent x, given as a scaled integer matrix, asserted
    first to lie in the isometry algebra (NotInAlgebra): diagram from the
    D-ranks along its image chain.  A least-recently-used cache of
    REALIZE_CACHE_SIZE frozen tableaux, keyed by the frozen x and amb, so
    each distinct value is checked and identified once; an error is raised
    on every call and never cached.

    x = xi / den, and R_s, the echelon basis of the rows of R_(s-1) xi (of
    xi for s = 1), spans the row space of xi^s: rank x^s = |R_s| and
    ker x^s = kernel(R_s), ker x^0 = 0.  R_s stays in echelon's sparse
    rows, and R_s xi is formed on the sparse rows of xi.  Three theorems
    stand in for checks on the chain.  x commutes with each D-structure J,
    so the row space of x^s is stable under right multiplication by J, a
    D-submodule, and |R_s| is a multiple of dr.  By Frobenius' rank
    inequality, rank x^(t-1) + rank x^(t+1) >= 2 rank x^t, so no
    multiplicity is negative.  The leads of R_t are leads of R_(t-1):
    echelon leaves each row a distinct smallest column, so its leads are
    the smallest columns of the nonzero vectors of its row space, a set
    that shrinks with the space, and row x^t lies in row x^(t-1).  So the
    lines below number dr (rank x^(t-1) - rank x^t).  Over base C a
    multiplicity space is classified by its dimension.  Over base R it is
    ker x^t / (ker x^(t-1) + x ker x^(t+1)), carrying the non-degenerate
    (-1)^(t-1) epsilon-Hermitian form (a, b) -> B(a, x^(t-1) b) of
    Burgoyne-Cushman, read on ker x^t itself: x is skew for B, so
    (ker x^t)^perp = im x^t, and the form's radical on ker x^t is
    {a : x^(t-1) a in im x^t} = ker x^(t-1) + x ker x^(t+1).  It is
    classified on the kernel vectors of ker x^t at the leads of R_(t-1):
    they span a complement of ker x^(t-1), which lies in the radical, so
    the form on them has the same rank, dr m, and signature.  They come in
    D-lines (v, v e_1, ...), as the free columns of a D-stable kernel fill
    whole D-blocks.  On a
    realized block x^(t-1) e_(t-1) = (t-1)! e_0 and S_t[t-1][0] =
    (-1)^(t-1) sigma_t, so the sign below makes the integer Gram matrix a
    positive multiple of the multiplicity Gram matrix of realize_triple,
    with (t-1)! and den^(t-1), xi^(t-1) = den^(t-1) x^(t-1), among its
    positive factors."""
    _assert_in_algebra(x, amb)
    dr, n, space, xi = amb.dr, amb.n_real, amb.space, x.ints
    base = space.base
    x_rows = int_rows(xi)
    ranks = [space.dim]
    chain = [None]  # chain[s] = R_s as sparse rows, for s >= 1
    prod = [dict(r) for r in x_rows]  # echelon consumes the rows it reduces
    while ranks[-1] > 0:
        if len(ranks) > space.dim + 1:
            raise NotNilpotent("power sequence does not reach zero")
        chain.append(list(echelon(prod).values()))
        ranks.append(len(chain[-1]) // dr)
        prod = _sparse_mul(chain[-1], x_rows)
    ranks.extend([0, 0])
    mults = {t: m for t in range(1, len(ranks) - 1)
             if (m := ranks[t - 1] - 2 * ranks[t] + ranks[t + 1])}
    if base == "R":
        # the lead columns of R_s; R_0, the identity, leads at every column
        leads = [range(n)] + [{min(r) for r in rows} for rows in chain[1:]]
    rows = []
    for t, m in sorted(mults.items(), reverse=True):
        eps_t = space.epsilon * (-1) ** (t - 1)
        if base == "C":
            rows.append(TableauRow(t, formed_space("C", "C", eps_t, dim=m)))
            continue
        # kernel's vector at free column j of R_t is den at j and 0 at the
        # other free columns.  Those at leads of R_(t-1) span a complement
        # of ker x^(t-1) in ker x^t: a sum of them in ker x^(t-1) is 0 at
        # every free column of R_(t-1), so it is 0.
        free = [j for j in range(n) if j not in leads[t]]
        lines = [v for j, v in zip(free, kernel(chain[t], n).ints)
                 if j in leads[t - 1]]
        images = lines
        for _ in range(t - 1):
            images = [[sum(map(mul, r, v)) for r in xi] for v in images]
        sign = s_twist(t, base) * (-1) ** (t - 1) * sigma_t(t, base)
        bimages = monomial_rows(amb.gram_mono, images)
        beta = [[sign * sum(map(mul, a, b)) for b in bimages] for a in lines]
        rows.append(TableauRow(t, classify_space(beta, base, space.division,
                                                 eps_t, dim=m)))
    tab = AdmissibleTableau(space, tuple(rows))
    validate(tab)
    return tab


def _sparse_mul(a: list, b: list) -> list:
    """The rows of ab as new sparse rows {column: nonzero int}, for integer
    matrices a and b given as sparse rows."""
    out = []
    for r in a:
        acc = {}
        for k, c in r.items():
            for j, v in b[k].items():
                acc[j] = acc.get(j, 0) + c * v
        out.append({j: v for j, v in acc.items() if v})
    return out


# -- descent realizers ---------------------------------------------------


def _embed_positions(u1: FormedSpace, u: FormedSpace) -> list:
    """Coordinates of the standard-gram embedding U1 -> U: U's first p(U1)
    vectors, then the dim U1 - p(U1) after its p(U) positive ones."""
    return list(range(u1.p)) + [u.p + i for i in range(u1.dim - u1.p)]


def construct_descent_element(src_real: MatrixRealization,
                              v: FormedSpace) -> RationalMap:
    """T: V -> V' realizing the generalized descent of src_real's orbit.

    Asserts identify(T*T) = descent target, identify(TT*) = source orbit
    (each value checked to lie in its algebra by _identify), and Ker T
    non-degenerate.  T(V_k) in V'_{k+1} holds by construction: T is 1
    exactly on the links, and a link pairs position r of a target row t
    (weight t - 1 - 2r) with position r of source row t + 1 (weight t - 2r),
    or a 1-row position (weight 0) with the head of a 2-row (weight 1).
    """
    op = src_real.tableau
    dres = generalized_descent(op, v)
    tgt_real = realize_triple(dres.target)
    links = []  # (source, target) D-indices of T's unit D-entries
    src_rows = {row.t: i for i, row in enumerate(op.rows)}
    for ti, trow in enumerate(dres.target.rows):
        t, m = trow.t, trow.mult.dim
        if t >= 2:
            si = src_rows[t + 1]
            links += [(src_real.d_index(si, a, r), tgt_real.d_index(ti, a, r))
                      for a in range(m) for r in range(t)]
        elif not dres.U1.is_zero:
            si = src_rows[2]
            positions = _embed_positions(dres.U1, dres.U)
            links += [(src_real.d_index(si, a, 0), tgt_real.d_index(ti, p, 0))
                      for a, p in enumerate(positions)]
    dr = src_real.ambient.dr
    t_real = [[0] * tgt_real.ambient.n_real
              for _ in range(src_real.ambient.n_real)]
    for i, j in links:
        for al in range(dr):
            t_real[i * dr + al][j * dr + al] = 1
    rm = make_map(tgt_real.ambient, src_real.ambient,
                  Scaled(tuple(map(tuple, t_real)), 1))
    x, xp = _moment_values(rm)
    got_target = _identify(x, tgt_real.ambient)
    if got_target != dres.target:
        raise IdentityViolated("moment map misses the descent target",
                               expected=dres.target.to_json(),
                               got=got_target.to_json())
    got_source = _identify(xp, src_real.ambient)
    if got_source != op:
        raise IdentityViolated(
            "descent witness does not recover the source orbit; its even "
            "rows carry an asymmetric signature that the moment map flips",
            expected=op.to_json(), got=got_source.to_json())
    if not kernel_form_nondegenerate(rm):
        raise IdentityViolated("kernel of the descent witness is degenerate")
    return rm


# -- random elements -----------------------------------------------------


def random_isometry(amb: AmbientSpace, rng) -> Mat:
    """Exact rational isometry: the Cayley transform (I + a)^-1 (I - a) of a
    random algebra element a.  a is drawn as ai / den, one integer in
    [-2, 2] per class of the ambient, den the classes' common denominator,
    and rational.cayley solves the integer matrix den I + ai against I; a
    singular draw is drawn again, up to 50 times."""
    vecs, den = _over_one_den(amb.classes)
    n = amb.n_real
    if not vecs:
        return eye(n)
    for _ in range(50):
        ai = [[0] * n for _ in range(n)]
        for vec in vecs:
            c = rng.randint(-2, 2)
            if c:
                for (i, j), x in vec.items():
                    ai[i][j] += c * x
        try:
            return cayley(ai, den)
        except ValueError:
            continue
    raise IdentityViolated("could not sample an invertible Cayley transform")


def sample_raising_map(v_real: MatrixRealization, vp_real: MatrixRealization,
                       rng) -> RationalMap:
    """Random D-linear T whose entries strictly raise reference weights, so
    that both moment-map values are nilpotent.  Each raising D-entry is
    drawn as dr integers in [-9, 9], row by row: over base C and over D = R
    the one integer is T's entry, over D = C, H the entry z is written as
    its block L_z."""
    space = v_real.ambient.space
    div = coordinates(space.base, space.division)
    dr, weights = div.dim, v_real.weights
    if dr == 1:
        rows = [tuple([rng.randint(-9, 9) if wp > wq else 0 for wq in weights])
                for wp in vp_real.weights]
    else:
        zero = [[0] * dr] * dr
        rows = []
        for wp in vp_real.weights:
            blocks = [div.lmat(tuple(rng.randint(-9, 9) for _ in range(dr)))
                      if wp > wq else zero for wq in weights]
            rows += [tuple(x for b in blocks for x in b[al])
                     for al in range(dr)]
    return make_map(v_real.ambient, vp_real.ambient, Scaled(tuple(rows), 1))


# -- reports -------------------------------------------------------------


@dataclass(frozen=True)
class DimIdentityReport:
    dim_g_minus1: int
    dim_gp_minus1: int
    dim_w0: int
    dim_ker_t: int
    dim_one_row: int
    lhs: int
    rhs: int

    def to_json(self) -> dict:
        return {"dim_g_minus1": self.dim_g_minus1,
                "dim_gp_minus1": self.dim_gp_minus1,
                "dim_W0": self.dim_w0, "dim_ker_T": self.dim_ker_t,
                "dim_one_row": self.dim_one_row,
                "lhs": self.lhs, "rhs": self.rhs}


def verify_dimension_identity(dres) -> DimIdentityReport:
    """dim g_{-1} + dim g'_{-1} = dim W_0 - d * dim Ker T * dim (V')^{gamma',1}_0,
    with the graded dimensions on the left computed from matrices and both
    terms on the right from theta.reduced_pair_dims."""
    tgt = realize_triple(dres.target)
    src = realize_triple(dres.source)
    g1 = tgt.grading.get(-1, 0)
    gp1 = src.grading.get(-1, 0)
    dim_w, w0 = reduced_pair_dims(dres)
    lhs = g1 + gp1
    rhs = w0 - dim_w
    report = DimIdentityReport(dim_g_minus1=g1, dim_gp_minus1=gp1, dim_w0=w0,
                               dim_ker_t=dres.b, dim_one_row=dres.s,
                               lhs=lhs, rhs=rhs)
    if lhs != rhs:
        raise IdentityViolated("graded dimension identity fails",
                               report=report.to_json())
    return report
