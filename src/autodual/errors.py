"""Exception hierarchy shared by the whole toolkit.

Exit-code mapping used by the CLI:
  1  usage / negative answer from a query command
  2  input could not be parsed
  3  a documented precondition of an operation was violated
  4  an internal invariant failed -- such a failure would contradict a
     mathematical fact the code relies on, so it always aborts loudly
"""


class ToolError(Exception):
    exit_code = 1


class InputParseError(ToolError):
    """Bad algebra file, term, or certificate text."""

    exit_code = 2

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ConflictingTransition(InputParseError):
    pass


class ReservedName(InputParseError):
    pass


class TermSyntaxError(InputParseError):
    def __init__(self, message, pos=None):
        self.pos = pos
        if pos is not None:
            message = f"position {pos}: {message}"
        super(InputParseError, self).__init__(message)
        self.line = None


class PreconditionViolated(ToolError):
    exit_code = 3


class UnknownName(PreconditionViolated):
    pass


class BadParams(PreconditionViolated):
    pass


class IndexOutOfRange(PreconditionViolated):
    pass


class CapExceeded(PreconditionViolated):
    """A size guard tripped; raise the cap explicitly to proceed."""


class NotAbelian(PreconditionViolated):
    pass


class NotSubgroup(PreconditionViolated):
    pass


class ExponentMismatch(PreconditionViolated):
    pass


class NotPermutational(PreconditionViolated):
    pass


class NotCommuting(PreconditionViolated):
    pass


class HypothesisFailed(PreconditionViolated):
    def __init__(self, which, witness):
        self.which = which
        self.witness = witness
        super().__init__(f"hypothesis {which} failed: {witness!r}")


class InternalInvariantViolation(ToolError):
    """Falsifies a fact the implementation is entitled to rely on."""

    exit_code = 4


class InternalInconsistency(InternalInvariantViolation):
    pass


class ConstructionFailed(InternalInvariantViolation):
    pass


class PropositionViolated(InternalInvariantViolation):
    pass


class ProofIdentityFailed(InternalInvariantViolation):
    def __init__(self, identity, indices):
        self.identity = identity
        self.indices = indices
        super().__init__(f"identity {identity} failed at indices {indices}")
