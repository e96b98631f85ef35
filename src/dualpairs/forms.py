"""Formed spaces over the real and complex base fields.

A formed space is a finite-dimensional right module over a division algebra
D in {R, C, H} carrying a non-degenerate epsilon-Hermitian form.  Over base
field R all three divisions occur; over base field C only D = C.  Isometry
classes are discrete: some types are classified by a signature (p, q), the
others by dimension alone (with a parity constraint for the symplectic
ones).  Everything here is invariant arithmetic; explicit Gram matrices
live in the matrix oracle.

Spaces are built from (type, p, n) by space_of, which reads the positive
index p only for a type with a signature; FormedSpace.p is 0 for the
others, so sums, complements, embeddings and tensors are one rule on (p, n).

formed_space shares one instance per distinct argument tuple, kept in a
least-recently-used cache of SPACE_CACHE_SIZE spaces, so a space built
again is not checked again.  The key is typed (an epsilon of True or 1.0,
which the constructor refuses, is not served the cached int space) and an
error is never cached.  A FormedSpace built directly equals the shared one
and hashes alike.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import BadShape, MismatchedType, NotEmbeddable

# classification: which (base, division, epsilon) triples carry a signature
SIG_KINDS = {("R", "R", 1), ("R", "C", 1), ("R", "C", -1), ("R", "H", 1)}
# dim-classified types whose dimension over D must be even
EVEN_DIM_KINDS = {("R", "R", -1), ("C", "C", -1)}

# dimension of D over the base field F, also the oracle's coordinate width
# (it realizes a base-C space on its Q-form, where D = C acts as Q)
_DIM_F_D = {("R", "R"): 1, ("R", "C"): 2, ("R", "H"): 4, ("C", "C"): 1}

SPACE_CACHE_SIZE = 1024


def json_int(value, what: str) -> int:
    """value if it is a JSON integer; floats, strings and bools are refused."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def json_object(obj, what: str, required, optional=()) -> dict:
    """obj if it is a JSON object with every required field and no field
    outside required + optional."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object")
    unknown = set(obj).difference(required, optional)
    if unknown:
        raise ValueError(f"unknown {what} fields {sorted(unknown)}")
    missing = [key for key in required if key not in obj]
    if missing:
        raise ValueError(f"{what} missing field {missing[0]!r}")
    return obj


def json_list(value, what: str) -> list:
    """value if it is a JSON list."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list")
    return value


def _check_signature(sig):
    """Refuse a signature other than a tuple (p, q) of ints: a list would
    make the space unhashable, and a bool, float or str is no int here."""
    if type(sig) is not tuple or len(sig) != 2 \
            or any(type(c) is not int for c in sig):
        raise BadShape("signature must be a tuple (p, q) of ints",
                       signature=sig)


def _check_dim(dim):
    """Refuse a dimension other than an int: a bool, float or str."""
    if type(dim) is not int:
        raise BadShape("dimension must be an int", dim=dim)


@dataclass(frozen=True)
class FormedSpace:
    base: str
    division: str
    epsilon: int
    signature: tuple | None
    dim: int

    def __post_init__(self):
        key = (self.base, self.division, self.epsilon)
        if (self.base, self.division) not in _DIM_F_D:
            raise BadShape(f"invalid base/division pair ({self.base},{self.division})")
        if type(self.epsilon) is not int:
            raise BadShape("epsilon must be an int", epsilon=self.epsilon)
        if self.epsilon not in (1, -1):
            raise BadShape(f"epsilon must be +1 or -1, got {self.epsilon}")
        _check_dim(self.dim)
        if key in SIG_KINDS:
            if self.signature is None:
                raise BadShape(f"type {key} is signature-classified", kind=key)
            _check_signature(self.signature)
            p, q = self.signature
            if p < 0 or q < 0 or p + q != self.dim:
                raise BadShape("signature must be non-negative and sum to dim",
                               signature=self.signature, dim=self.dim)
        else:
            if self.signature is not None:
                raise BadShape(f"type {key} is dimension-classified", kind=key)
            if self.dim < 0:
                raise BadShape("dimension must be non-negative", dim=self.dim)
            if key in EVEN_DIM_KINDS and self.dim % 2 != 0:
                raise BadShape("symplectic type requires even dimension",
                               kind=key, dim=self.dim)

    # -- invariants ------------------------------------------------------

    @property
    def kind(self) -> str:
        return "sig" if (self.base, self.division, self.epsilon) in SIG_KINDS else "dim"

    @property
    def p(self) -> int:
        """The positive index: signature[0], or 0 for a type classified by
        dimension."""
        return self.signature[0] if self.signature is not None else 0

    @property
    def d(self) -> int:
        """dim_F D for this space's base field."""
        return _DIM_F_D[(self.base, self.division)]

    @property
    def dim_f(self) -> int:
        """Dimension over the base field."""
        return self.d * self.dim

    @property
    def is_zero(self) -> bool:
        return self.dim == 0

    def tag(self) -> tuple:
        return (self.base, self.division, self.epsilon)

    # -- encoding --------------------------------------------------------

    def to_json(self) -> dict:
        out = {"base": self.base, "division": self.division, "epsilon": self.epsilon}
        if self.kind == "sig":
            out["signature"] = list(self.signature)
        else:
            out["dim"] = self.dim
        return out

    @staticmethod
    def from_json(obj: dict) -> "FormedSpace":
        obj = json_object(obj, "formed space", ("base", "division", "epsilon"),
                          ("signature", "dim"))
        base, division = obj["base"], obj["division"]
        eps = json_int(obj["epsilon"], "epsilon")
        if not isinstance(base, str) or not isinstance(division, str):
            raise ValueError("base and division must be strings")
        if ("signature" in obj) == ("dim" in obj):
            raise ValueError("exactly one of 'signature'/'dim' must be present")
        try:
            if "signature" in obj:
                sig = obj["signature"]
                if not isinstance(sig, list) or len(sig) != 2:
                    raise ValueError("signature must be a list [p, q]")
                return formed_space(base, division, eps, signature=tuple(
                    json_int(c, "signature entry") for c in sig))
            return formed_space(base, division, eps,
                                dim=json_int(obj["dim"], "dim"))
        except BadShape as exc:
            raise ValueError(str(exc)) from exc

    def render(self) -> str:
        sign = "+1" if self.epsilon > 0 else "-1"
        if self.kind == "sig":
            inv = f"sig=({self.signature[0]},{self.signature[1]})"
        else:
            inv = f"dim={self.dim}"
        return f"{self.base},{self.division},{sign} {inv}"


def formed_space(base: str, division: str, epsilon: int,
                 signature: tuple | None = None, dim: int | None = None) -> FormedSpace:
    """The shared space of these arguments, given exactly one of signature
    and dim.  A signature is a tuple or list of two ints, dim an int;
    nothing is coerced."""
    if (signature is None) == (dim is None):
        raise BadShape("exactly one of signature/dim is required")
    if signature is not None:
        sig = tuple(signature) if type(signature) is list else signature
        _check_signature(sig)
        return _space(base, division, epsilon, sig, sum(sig))
    _check_dim(dim)
    return _space(base, division, epsilon, None, dim)


@functools.lru_cache(maxsize=SPACE_CACHE_SIZE, typed=True)
def _space(base: str, division: str, epsilon: int, signature: tuple | None,
           dim: int) -> FormedSpace:
    """The shared FormedSpace of normalized arguments: signature an int
    pair or None, dim an int."""
    return FormedSpace(base, division, epsilon, signature, dim)


def space_of(tag: tuple, p: int, n: int) -> FormedSpace:
    """The space of type tag = (base, division, epsilon) with dimension n
    over D and positive index p, p read only when the type carries a
    signature."""
    if tag in SIG_KINDS:
        return formed_space(*tag, signature=(p, n - p))
    return formed_space(*tag, dim=n)


def zero_space(tag: tuple) -> FormedSpace:
    """The zero space of type tag = (base, division, epsilon)."""
    return space_of(tag, 0, 0)


# convenience constructors for the seven families

def orthogonal_space(p: int, q: int) -> FormedSpace:
    return formed_space("R", "R", 1, signature=(p, q))


def symplectic_space(dim: int) -> FormedSpace:
    return formed_space("R", "R", -1, dim=dim)


def hermitian_space(p: int, q: int) -> FormedSpace:
    return formed_space("R", "C", 1, signature=(p, q))


def skew_hermitian_space(p: int, q: int) -> FormedSpace:
    return formed_space("R", "C", -1, signature=(p, q))


def quaternionic_hermitian_space(p: int, q: int) -> FormedSpace:
    return formed_space("R", "H", 1, signature=(p, q))


def quaternionic_skew_space(dim: int) -> FormedSpace:
    return formed_space("R", "H", -1, dim=dim)


def complex_orthogonal_space(dim: int) -> FormedSpace:
    return formed_space("C", "C", 1, dim=dim)


def complex_symplectic_space(dim: int) -> FormedSpace:
    return formed_space("C", "C", -1, dim=dim)


# -- operations ----------------------------------------------------------


def _check_same_type(a: FormedSpace, b: FormedSpace):
    if a.tag() != b.tag():
        raise MismatchedType("spaces have different (base, division, epsilon)",
                             left=a.render(), right=b.render())


def direct_sum(a: FormedSpace, b: FormedSpace) -> FormedSpace:
    _check_same_type(a, b)
    return space_of(a.tag(), a.p + b.p, a.dim + b.dim)


def tensor_with_sl2(a: FormedSpace, m: int) -> FormedSpace:
    """Tensor with the m-dimensional irreducible and its (-1)^(m-1)-symmetric form.

    The form on F^m is normalized to signature (ceil(m/2), floor(m/2)) over R,
    so a (p, q) of dim n gives index p(m+1)/2 + q(m-1)/2 for odd m, nm/2 for even.
    """
    if m < 1:
        raise BadShape("tensor length must be positive", m=m)
    tag = (a.base, a.division, a.epsilon * (-1) ** (m - 1))
    return space_of(tag, a.dim * (m // 2) + a.p * (m % 2), a.dim * m)


def embeds(a: FormedSpace, b: FormedSpace) -> bool:
    _check_same_type(a, b)
    return a.p <= b.p and a.dim - a.p <= b.dim - b.p


def orth_complement(a: FormedSpace, b: FormedSpace) -> FormedSpace:
    """The unique C with a + C = b (Witt cancellation)."""
    if not embeds(a, b):
        raise NotEmbeddable("no isometric embedding", sub=a.render(), ambient=b.render())
    return space_of(a.tag(), b.p - a.p, b.dim - a.dim)


def complexify(v: FormedSpace) -> FormedSpace:
    """Extension of scalars to C for base-R spaces of division R or H.

    Division C over R would complexify to a general linear group, which has
    no epsilon-Hermitian encoding here, so it is rejected.
    """
    if v.base == "C":
        return v
    if v.division == "R":
        return formed_space("C", "C", v.epsilon, dim=v.dim)
    if v.division == "H":
        return formed_space("C", "C", -v.epsilon, dim=2 * v.dim)
    raise MismatchedType("division C spaces have no formed complexification",
                         space=v.render())


# -- isometry groups -----------------------------------------------------


@dataclass(frozen=True)
class GroupFactor:
    family: str
    name: str
    lie_dim: int

    def to_json(self) -> dict:
        return {"family": self.family, "name": self.name, "lie_dim": self.lie_dim}


@dataclass(frozen=True)
class GroupDescriptor:
    factors: tuple

    @property
    def lie_dim(self) -> int:
        return sum(f.lie_dim for f in self.factors)

    @property
    def name(self) -> str:
        if not self.factors:
            return "1"
        return " x ".join(f.name for f in self.factors)

    @property
    def is_real_symplectic(self) -> bool:
        return len(self.factors) == 1 and self.factors[0].family == "SpR"

    def to_json(self) -> dict:
        return {"name": self.name, "lie_dim": self.lie_dim,
                "factors": [f.to_json() for f in self.factors]}


def _pq_name(prefix: str, p: int, q: int) -> str:
    if p == 0 or q == 0:
        return f"{prefix}({p + q})"
    return f"{prefix}({p},{q})"


def group_factor(v: FormedSpace) -> GroupFactor:
    """The isometry group of a nonzero formed space, with its Lie dimension
    over the base field.  The last case needs no test: FormedSpace admits
    only the eight tags of _DIM_F_D's pairs with epsilon +1 or -1, the
    first seven here."""
    key = v.tag()
    n = v.dim
    if key == ("R", "R", 1):
        return GroupFactor("O", _pq_name("O", *v.signature), n * (n - 1) // 2)
    if key == ("R", "R", -1):
        return GroupFactor("SpR", f"Sp({n},R)", (n // 2) * (n + 1))
    if key in (("R", "C", 1), ("R", "C", -1)):
        return GroupFactor("U", _pq_name("U", *v.signature), n * n)
    if key == ("R", "H", 1):
        return GroupFactor("SpH", _pq_name("Sp", *v.signature), n * (2 * n + 1))
    if key == ("R", "H", -1):
        return GroupFactor("OstarH", f"O*({2 * n})", n * (2 * n - 1))
    if key == ("C", "C", 1):
        return GroupFactor("OC", f"O({n},C)", n * (n - 1) // 2)
    return GroupFactor("SpC", f"Sp({n},C)", (n // 2) * (n + 1))


def isometry_group(v: FormedSpace) -> GroupDescriptor:
    if v.is_zero:
        return GroupDescriptor(())
    return GroupDescriptor((group_factor(v),))


def iter_spaces(max_dim_f: int, bases=("R", "C"), include_zero: bool = False):
    """All formed spaces with 1 <= dim_F <= max_dim_f (0 included on request)."""
    combos = [(b, d) for (b, d) in _DIM_F_D if b in bases]
    for base, division in sorted(combos):
        d = _DIM_F_D[(base, division)]
        for eps in (1, -1):
            key = (base, division, eps)
            lo = 0 if include_zero else 1
            for n in range(lo, max_dim_f // d + 1):
                if key in EVEN_DIM_KINDS and n % 2 != 0:
                    continue
                for p in range(n + 1 if key in SIG_KINDS else 1):
                    yield space_of(key, p, n)
