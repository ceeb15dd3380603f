"""Exception types shared across the toolkit.

Every domain failure raises one of these instead of a bare ValueError so the
command-line layer can map them to structured error records.  Messages name
a caller's value through brief(), which never formats a huge integer.
"""

# values up to this width are printed in messages; a longer int may pass
# CPython's int-to-str limit, where formatting it raises ValueError
_BRIEF_BITS = 128


def brief(value) -> str:
    """repr(value) for a message, or the sign and width of a long int."""
    if isinstance(value, int) and value.bit_length() > _BRIEF_BITS:
        article = "a negative" if value < 0 else "an"
        return f"{article} integer of {value.bit_length()} bits"
    return repr(value)


class LfmomentsError(Exception):
    """Base class for all toolkit-specific failures."""


class DomainError(LfmomentsError):
    """An argument is outside the mathematical domain of the operation."""


class PreconditionError(LfmomentsError):
    """A documented calling precondition was violated."""


class IntegralityViolation(LfmomentsError):
    """An exact division that must come out integral left a remainder."""


class UnsupportedClass(LfmomentsError):
    """The requested symmetry class (or prime) is not covered by this formula."""


class OutOfRegime(LfmomentsError):
    """The prime is outside the regime where the zero-valuation test applies."""


class PoleError(LfmomentsError):
    """Evaluation was requested at (or numerically too close to) a pole."""


class NoConvergence(LfmomentsError):
    """An iterative scheme failed to reach the requested accuracy."""


class ConstraintError(LfmomentsError):
    """Polynomial inputs violate a structural constraint (parity, nonzero...)."""
