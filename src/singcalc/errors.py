"""Exception hierarchy shared by all singcalc modules.

The CLI maps these onto process exit codes: bad input data -> 1,
mathematically valid input outside the supported class -> 2, and
internal consistency failures (bugs, violated invariants) -> 3.
"""

__all__ = [
    "INDETERMINATE",
    "SingcalcError",
    "InputError",
    "NotPolynomial",
    "NonDivisible",
    "Unsupported",
    "NotReduced",
    "InternalError",
    "NonIntegralMultiplicity",
]


class _Indeterminate:
    """Singleton returned by predicates that cannot decide either way.

    Distinct from False: a test that lacks the data to run reports
    INDETERMINATE instead of guessing.  Serializes to "indeterminate".
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INDETERMINATE"

    def __bool__(self):
        raise TypeError("indeterminate result used in boolean context; compare identity instead")


INDETERMINATE = _Indeterminate()


class SingcalcError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 3


class InputError(SingcalcError):
    """The input data is malformed or violates a documented precondition."""

    exit_code = 1


class NotPolynomial(InputError):
    """A formal product prod (t^m - 1)^{e_m} is not a polynomial.

    Carries the smallest cyclotomic index with negative multiplicity
    as a witness.
    """

    def __init__(self, witness, message=None):
        self.witness = witness
        super().__init__(message or f"not a polynomial: Phi_{witness} has negative multiplicity")


class NonDivisible(InputError):
    """An exact division of cyclotomic products left a remainder."""

    def __init__(self, witness, message=None):
        self.witness = witness
        super().__init__(message or f"quotient is not a polynomial: Phi_{witness} deficient in the numerator")


class Unsupported(SingcalcError):
    """The input is valid mathematics but outside the implemented class."""

    exit_code = 2


class NotReduced(Unsupported):
    """A curve germ has a repeated component; invariants are undefined."""


class InternalError(SingcalcError):
    """A computed quantity violated an invariant that the algorithms
    guarantee; always a bug, never the caller's fault."""

    exit_code = 3


class NonIntegralMultiplicity(InternalError):
    """A Hirzebruch-Jung chain received boundary data admitting no
    positive integral solution; indicates inconsistent input or a bug."""
