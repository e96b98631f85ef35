"""Domain errors with stable machine-readable codes.

Every failure mode that a caller can trigger through legal API use raises a
subclass of DomainError.  The CLI maps these to exit code 2 and a JSON error
object; anything else (malformed input, bad flags) exits 1.
"""

from __future__ import annotations


class DomainError(Exception):
    """Base class for all domain-level failures."""

    code = "domain_error"

    def __init__(self, message: str, **context):
        super().__init__(message)
        self.message = message
        self.context = context

    def to_json(self) -> dict:
        ctx = {k: repr(v) if not isinstance(v, (str, int, bool, float, type(None))) else v
               for k, v in self.context.items()}
        return {"error": {"code": self.code, "message": self.message, "context": ctx}}


class MismatchedType(DomainError):
    """Operands live over different base fields, divisions or signs."""

    code = "mismatched_type"


class NotEmbeddable(DomainError):
    """No isometric embedding of the first space into the second."""

    code = "not_embeddable"


class BadSign(DomainError):
    """Sign epsilon incompatible with the requested base/division."""

    code = "bad_sign"


class NotAdmissible(DomainError):
    """Tableau fails admissibility for its ambient space."""

    code = "not_admissible"


class BadShape(DomainError):
    """Structurally invalid input (row order, empty rows, size mismatch)."""

    code = "bad_shape"


class BoundExceeded(DomainError):
    """A space's dim_F exceeds the fixed bound orbits.DEFAULT_DIM_BOUND."""

    code = "bound_exceeded"


class UnsupportedRealClosure(DomainError):
    """Closure order is only implemented over the complex base field."""

    code = "unsupported_real_closure"


class IncompatiblePair(DomainError):
    """The two spaces do not form a dual pair (wrong division or signs)."""

    code = "incompatible_pair"


class NotInImage(DomainError):
    """Orbit is not in the image of the relevant moment map."""

    code = "not_in_image"


class EmptyLift(DomainError):
    """No candidate orbit descends back to the given one."""

    code = "empty_lift"


class NotNilpotent(DomainError):
    """Matrix is not nilpotent."""

    code = "not_nilpotent"


class NotInAlgebra(DomainError):
    """Matrix does not lie in the expected isometry Lie algebra."""

    code = "not_in_algebra"


class IdentityViolated(DomainError):
    """A constructed witness failed its defining identity check."""

    code = "identity_violated"


class NotDescentPair(DomainError):
    """Cycle-level lift requested along a pair that is not a descent."""

    code = "not_descent_pair"


class IncomparableSupports(DomainError):
    """Cycle comparison between cycles with different support keys."""

    code = "incomparable_supports"


class NonpositiveDimCirc(DomainError):
    """Reduced dimension is nonpositive, convergence exponent undefined."""

    code = "nonpositive_dim_circ"
