"""Exception types shared across the toolkit.

Every domain failure raises one of these instead of a bare ValueError so the
command-line layer can map them to structured error records.  require_int
checks every integer argument, require_rational every exact rational one
and require_mapping every mapping; messages name a caller's value through
brief(), which never formats a huge integer and cuts a long repr.
WorkBudget is the one cost bound charged as work runs.
"""

from fractions import Fraction

# values up to this width are printed in messages; a longer int may pass
# CPython's int-to-str limit, where formatting it raises ValueError
_BRIEF_BITS = 128
# a longer repr (of a str or anything else) is cut to its first characters
_BRIEF_CHARS = 64


def brief(value) -> str:
    """repr(value) for a message, or the sign and width of a long int or
    Fraction, or the start and length of any other repr past _BRIEF_CHARS."""
    if isinstance(value, (int, Fraction)):
        bits = max(value.numerator.bit_length(), value.denominator.bit_length())
        if bits > _BRIEF_BITS:
            noun = "integer" if isinstance(value, int) else "fraction"
            article = "a negative" if value < 0 else "an" if noun == "integer" else "a"
            return f"{article} {noun} of {bits} bits"
        return repr(value)
    text = repr(value)
    if len(text) > _BRIEF_CHARS:
        return f"{text[:32]}... (a repr of {len(text)} characters)"
    return text


def require_int(name: str, value, low, high=None) -> int:
    """value, once it is an int (bool is not) in [low, high], a None bound
    being no bound; otherwise a DomainError whose message states the bounds."""
    if (isinstance(value, int) and not isinstance(value, bool)
            and (low is None or low <= value) and (high is None or value <= high)):
        return value
    pairs = (("at least", low), ("at most", high))
    bounds = " and ".join(f"{word} {end}" for word, end in pairs if end is not None)
    of = f" of {bounds}" if bounds else ""
    raise DomainError(f"{name} must be an integer{of}, got {brief(value)}")


def require_rational(name: str, value) -> Fraction:
    """value as an exact Fraction: an int, a Fraction, a finite float or
    Decimal, or the text of a number; a DomainError for a bool, NaN, an
    infinity and anything else."""
    if isinstance(value, Fraction):
        return value
    if not isinstance(value, bool):
        try:
            return Fraction(value)
        except (TypeError, ValueError, OverflowError, ZeroDivisionError):
            pass
    raise DomainError(f"{name} must be a finite rational number, got {brief(value)}")


def require_mapping(name: str, value) -> dict:
    """value as a new dict: a mapping or an iterable of pairs; a DomainError
    for anything else."""
    try:
        return dict(value)
    except (TypeError, ValueError) as exc:
        raise DomainError(
            f"{name} must be a mapping or pairs, got {brief(value)}"
        ) from exc


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


class WorkBudget:
    """The work one request may do, in its caller's unit, checked before it runs."""

    def __init__(self, limit: int):
        self.limit, self.spent = limit, 0

    def check(self, amount: int, refusal, *args) -> None:
        """DomainError(refusal(*args)) once amount passes what is left."""
        if self.spent + amount > self.limit:
            raise DomainError(refusal(*args))

    def spend(self, amount: int, refusal, *args) -> None:
        self.check(amount, refusal, *args)
        self.spent += amount
