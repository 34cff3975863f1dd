"""Exception types shared across the library.

The CLI maps these onto distinct exit codes: bad input (ValidationError),
infrastructure limits (budget, scale, tolerance trouble), and consistency
failures that indicate a genuine bug or a violated invariant.
"""

from __future__ import annotations


class HurwitzError(Exception):
    """Base class for all library errors."""


class ValidationError(HurwitzError, ValueError):
    """Malformed or inconsistent input data."""


class IncompleteEnumeration(HurwitzError):
    """The multistart solver exhausted its budget before reaching the target count."""

    def __init__(self, found: int, target: int, partial=None):
        super().__init__(f"incomplete enumeration: found {found} of {target} solutions")
        self.found = found
        self.target = target
        self.partial = partial


class OvercountDetected(HurwitzError):
    """Deduplication produced more solutions than the combinatorial target.

    Signals a dedup tolerance misconfiguration or a degenerate spec; never
    silently truncated.
    """

    def __init__(self, found: int, target: int):
        super().__init__(f"overcount: {found} deduplicated solutions exceed target {target}")
        self.found = found
        self.target = target


class DegenerateConfiguration(HurwitzError):
    """Converged points persistently collapse preimage roots inside one branch."""


class AmbiguousRealness(HurwitzError):
    """A solution sits too close to the realness threshold to classify safely."""


class ClusterAmbiguity(HurwitzError):
    """Two real preimages of the same branch value are closer than the cluster tolerance."""


class SignMismatch(HurwitzError):
    """The two representatives of a covering class disagree where they must agree."""


class CoveringAssemblyError(HurwitzError):
    """A real solution has no reflection partner in a supposedly complete set."""


class ScaleExceeded(HurwitzError):
    """Requested degree is beyond the configured desk-scale bound."""
