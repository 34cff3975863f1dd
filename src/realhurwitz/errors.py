"""Exception types shared across the library.

Every concrete error is a ValidationError (bad input), an InfraLimit
(budget, scale or tolerance trouble) or a PropertyFailure (a genuine bug or
a violated invariant).  The CLI maps the three onto distinct exit codes, and
a ``verify`` record that hits an InfraLimit is marked FAILED-INFRA.

Every concrete InfraLimit is raised by the solver or the real
classification in ``polysolve``; ScaleExceeded is also raised by ``series``.
"""

from __future__ import annotations


class HurwitzError(Exception):
    """Base class for all library errors."""


class ValidationError(HurwitzError, ValueError):
    """Malformed or inconsistent input data."""


class InfraLimit(HurwitzError):
    """A budget, scale or tolerance limit stopped the computation."""


class PropertyFailure(HurwitzError):
    """A consistency check failed: a genuine bug or a violated invariant."""


class IncompleteEnumeration(InfraLimit):
    """The multistart solver exhausted its budget before reaching the target count."""

    def __init__(self, found: int, target: int, partial=None):
        super().__init__(f"incomplete enumeration: found {found} of {target} solutions")
        self.found = found
        self.target = target
        self.partial = partial


class OvercountDetected(InfraLimit):
    """Deduplication produced more solutions than the combinatorial target.

    Signals a dedup tolerance misconfiguration or a degenerate spec; never
    silently truncated.
    """

    def __init__(self, found: int, target: int):
        super().__init__(f"overcount: {found} deduplicated solutions exceed target {target}")
        self.found = found
        self.target = target


class DegenerateConfiguration(InfraLimit):
    """Converged points persistently collapse preimage roots inside one branch."""


class AmbiguousRealness(InfraLimit):
    """The conjugation pairing is not an involution, or a real point's projection fails."""


class SignMismatch(PropertyFailure):
    """The two representatives of a covering class disagree where they must agree."""


class CoveringAssemblyError(PropertyFailure):
    """A real solution has no reflection partner in a supposedly complete set."""


class ScaleExceeded(InfraLimit):
    """Requested degree is beyond the desk-scale bound."""
