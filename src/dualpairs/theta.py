"""Descent and lift of nilpotent orbits along the moment maps of a dual pair.

For a dual pair (G(V), G(V')) with epsilon * epsilon' = -1, an orbit O' in
g' descends to the orbit O in g obtained by erasing the first column of its
diagram, keeping the multiplicity forms, and padding with 1-boxes; the lift
is the inverse operation, adding a first column.  The orbits that descend to
O differ only in the 2-row U1 they carve from O's 1-row U, and a larger U1
dominates a smaller one, so the largest U1 that fits is the closure maximum.

Descent is defined exactly on the moment image, so _descent decides both
at once: each distinct (O', V) is computed once, its frozen DescentResult,
or None outside the image, kept in a least-recently-used cache of
DESCENT_CACHE_SIZE verdicts.  generalized_descent raises NotInImage on
None, and in_moment_image, k_descent and the other callers in the package
read the cached verdict.  The lift is decided once per (O, V') the same
way: _lift keeps the lifted orbit, or None when V' has no room, in a cache
of DESCENT_CACHE_SIZE verdicts, and theta_lift raises EmptyLift on None.
An error (IncompatiblePair, NotInImage, EmptyLift, UnsupportedRealClosure,
BoundExceeded or one of validate's) is raised on every call; no exception
is cached.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import (EmptyLift, IncompatiblePair, NotInImage,
                     UnsupportedRealClosure)
from .forms import (FormedSpace, GroupDescriptor, direct_sum, embeds,
                    formed_space, group_factor, isometry_group,
                    orth_complement, tensor_with_sl2, zero_space)
from .orbits import (AdmissibleTableau, TableauRow, check_bound, validate,
                     weight_dims)

DESCENT_CACHE_SIZE = 2048


def _check_pair(op_space: FormedSpace, v: FormedSpace):
    if (op_space.base, op_space.division) != (v.base, v.division) \
            or op_space.epsilon * v.epsilon != -1:
        raise IncompatiblePair("spaces do not form a dual pair",
                               left=v.render(), right=op_space.render())


@dataclass(frozen=True)
class DescentResult:
    source: AdmissibleTableau
    target: AdmissibleTableau
    U: FormedSpace
    U1: FormedSpace
    a: int
    b: int
    s: int
    strict: bool

    def to_json(self) -> dict:
        return {"source": self.source.to_json(), "target": self.target.to_json(),
                "U": self.U.to_json(), "U1": self.U1.to_json(),
                "a": self.a, "b": self.b, "s": self.s, "strict": self.strict}


def generalized_descent(op: AdmissibleTableau, v: FormedSpace) -> DescentResult:
    """Erase the first column of op's diagram, pad with 1-boxes inside V;
    NotInImage unless the shortened rows t >= 3 and the 2-row embed in V."""
    dres = _descent(op, v)
    if dres is None:
        raise NotInImage("orbit is not in the moment-map image",
                         orbit=op.diagram(), space=v.render())
    return dres


@functools.lru_cache(maxsize=DESCENT_CACHE_SIZE)
def _descent(op: AdmissibleTableau, v: FormedSpace) -> DescentResult | None:
    """The descent of op to v, or None when op is outside the moment image."""
    _check_pair(op.space, v)
    validate(op)
    core = functools.reduce(direct_sum, (tensor_with_sl2(row.mult, row.t - 1)
                                         for row in op.rows if row.t >= 3),
                            zero_space(v.tag()))
    u1 = op.mult_of(2)
    if not embeds(direct_sum(core, u1), v):
        return None
    u = orth_complement(core, v)
    a = u1.dim
    b = u.dim - a
    rows = [TableauRow(row.t - 1, row.mult) for row in op.rows if row.t >= 3]
    if not u.is_zero:
        rows.append(TableauRow(1, u))
    target = AdmissibleTableau(v, tuple(rows))
    validate(target)
    return DescentResult(source=op, target=target, U=u, U1=u1, a=a, b=b,
                         s=op.mult_of(1).dim, strict=b == 0)


def in_moment_image(op: AdmissibleTableau, v: FormedSpace) -> bool:
    """Whether orbits in op lie in the image of the moment map from
    Hom(V, V'): whether the cached descent of op to v is defined."""
    return _descent(op, v) is not None


def add_column(o: AdmissibleTableau, vp: FormedSpace,
               u1: FormedSpace) -> AdmissibleTableau:
    """The orbit over vp that descends to o with 2-row u1 (inside o's 1-row):
    rows t >= 2 of o move to t + 1 and the Witt complement of the rest in vp
    is the 1-row.  NotEmbeddable when vp has no room."""
    rows = [TableauRow(row.t + 1, row.mult) for row in o.rows if row.t >= 2]
    rows.append(TableauRow(2, u1))
    used = functools.reduce(direct_sum, (tensor_with_sl2(r.mult, r.t) for r in rows))
    rows.append(TableauRow(1, orth_complement(used, vp)))
    return AdmissibleTableau(vp, tuple(r for r in rows if not r.mult.is_zero))


def theta_lift(o: AdmissibleTableau, vp: FormedSpace) -> AdmissibleTableau:
    """The closure-maximal orbit over vp whose descent to o.space equals o;
    EmptyLift when vp has no room for one."""
    lifted = _lift(o, vp)
    if lifted is None:
        raise EmptyLift("no orbit descends to the given one",
                        orbit=o.diagram(), space=vp.render())
    return lifted


@functools.lru_cache(maxsize=DESCENT_CACHE_SIZE)
def _lift(o: AdmissibleTableau, vp: FormedSpace) -> AdmissibleTableau | None:
    """The lift of o to vp, or None when vp has no room: add_column(o, vp,
    U1) with the largest U1 that fits, since over base C each dim U1 gives
    one candidate and a larger U1 dominates a smaller one (one 2-box in
    place of two 1-boxes): the largest dim U1 up to o's 1-row count, in
    steps of 2 for a symplectic U1, with core + 2 dim U1 <= dim vp, the core
    taking (t + 1) dim U_t for each row t >= 2 of o."""
    if o.space.base != "C" or vp.base != "C":
        raise UnsupportedRealClosure("orbit lift needs the complex closure order")
    _check_pair(vp, o.space)
    check_bound(o.space, vp)
    validate(o)
    step = 2 if o.space.epsilon == -1 else 1  # a symplectic U1 is even
    core = sum((row.t + 1) * row.mult.dim for row in o.rows if row.t >= 2)
    room, ones = (vp.dim - core) // 2, o.diagram().count(1)
    if room < 0:
        return None
    dim_u1 = ones if room >= ones else room - (ones - room) % step
    return add_column(o, vp, formed_space(*o.space.tag(), dim=dim_u1))


def k_descent(op_real: AdmissibleTableau, v_real: FormedSpace):
    """Real-form descent; None when the formed-space embedding fails over R."""
    if op_real.space.base != "R" or v_real.base != "R":
        raise IncompatiblePair("real descent needs base R on both sides",
                               left=v_real.render(), right=op_real.space.render())
    dres = _descent(op_real, v_real)
    return dres.target if dres is not None else None


@dataclass(frozen=True)
class PairFactorization:
    m_xxp: GroupDescriptor
    l: GroupDescriptor
    lp: GroupDescriptor
    l_space: FormedSpace
    lp_space: FormedSpace

    def to_json(self) -> dict:
        return {"M_XXp": self.m_xxp.to_json(), "L": self.l.to_json(),
                "Lp": self.lp.to_json(), "L_space": self.l_space.to_json(),
                "Lp_space": self.lp_space.to_json()}


def pair_factorization(dr: DescentResult) -> PairFactorization:
    """Common stabilizer M_{X,X'} plus the smaller dual pair (L, L')."""
    factors = tuple(group_factor(row.mult) for row in dr.source.rows if row.t >= 2)
    m_xxp = GroupDescriptor(factors)
    ker_t = orth_complement(dr.U1, dr.U)
    lp_space = dr.source.mult_of(1)
    return PairFactorization(m_xxp=m_xxp, l=isometry_group(ker_t),
                             lp=isometry_group(lp_space),
                             l_space=ker_t, lp_space=lp_space)


def reduced_pair_dims(dr: DescentResult) -> tuple:
    """(dim W_{gamma,gamma'}, dim W_0) over the base field.

    W_{gamma,gamma'} = Hom_D(Ker T, 1-row multiplicity of O'); W_0 pairs the
    matching weight spaces of the two sl2 gradings.
    """
    d = dr.target.space.d
    dim_w = d * dr.b * dr.s
    wv = weight_dims(dr.target.diagram())
    wvp = weight_dims(dr.source.diagram())
    dim_w0 = sum(d * wv[k] * wvp[k] for k in wv)
    return dim_w, dim_w0
