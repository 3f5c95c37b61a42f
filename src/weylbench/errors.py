"""Exception hierarchy. InputError descendants map to CLI exit code 2,
MathIdentityError to exit code 1."""


class WorkbenchError(Exception):
    pass


class InputError(WorkbenchError):
    """Bad user input: malformed decks, unmet preconditions, exceeded caps."""


class FieldConstructionError(InputError):
    pass


class DivisionByZeroError(WorkbenchError):
    pass


class ReducibleModulusError(InputError):
    """An extension modulus is reducible: refused at construction over a
    finite base or Q, found during inversion over an extension of Q."""

    def __init__(self, factor):
        super().__init__("extension modulus is reducible, it has the factor %s" % factor)
        self.factor = factor


class InfiniteFieldError(InputError):
    pass


class RingAxiomError(InputError):
    pass


class GradingAxiomError(InputError):
    def __init__(self, witness, message=None):
        super().__init__(message or "grading axiom violated at %r" % (witness,))
        self.witness = witness


class FactorizationIncompleteError(WorkbenchError):
    """The partial factorization toolkit could not certify a splitting."""


class CapExceededError(InputError):
    pass


class NotEnumerableError(InputError):
    pass


class NonThinError(InputError):
    pass


class OrderViolationError(InputError):
    pass


class SingularMatrixError(WorkbenchError):
    pass


class UnknownSolvabilityError(WorkbenchError):
    """A root-existence question could not be decided over this field."""


class DeckError(InputError):
    def __init__(self, line_no, message):
        super().__init__("line %d: %s" % (line_no, message))
        self.line_no = line_no


class MathIdentityError(WorkbenchError):
    """A cross-asserted mathematical identity failed; signals a bug, exit code 1."""
