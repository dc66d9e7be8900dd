"""Typed error hierarchy shared by all modules.

Every error carries a stable ``code`` (its class name) so that report
generation can map failures to exactly one row code.
"""

from __future__ import annotations


class QuasihermError(Exception):
    """Base class for every domain error raised by this package."""

    @property
    def code(self) -> str:
        return type(self).__name__


class DimensionMismatch(QuasihermError):
    """Operands have incompatible shapes."""


class SingularMetric(QuasihermError):
    """Metric is numerically singular or exceeds the condition cap."""


class NonHermitianMetric(QuasihermError):
    """Claimed metric deviates from Hermiticity beyond tolerance."""


class DegenerateSpectrum(QuasihermError):
    """Two eigenvalues lie closer than the eigensystem can resolve."""


class NonConvergence(QuasihermError):
    """The iterative eigenvalue reduction failed to converge."""


class SelfOrthogonal(QuasihermError):
    """A left/right eigenvector pair is (numerically) self-orthogonal,
    the standard signal of an exceptional point."""


class NonPositiveWeight(QuasihermError):
    """Metric weights must be strictly positive."""


class NotPositive(QuasihermError):
    """Positivity certificate failed for a candidate metric."""


class SingularPseudoMetric(QuasihermError):
    """Pseudometric has an eigenvalue too close to zero to invert."""


class BrokenPhase(QuasihermError):
    """Spectrum is not real: the antilinear symmetry is spontaneously broken."""

    def __init__(self, message: str, max_imag: float):
        super().__init__(message)
        self.max_imag = float(max_imag)


class ExceptionalPoint(QuasihermError):
    """A diagonal pairing degenerated; the construction is undefined there."""


class NotPTSymmetric(QuasihermError):
    """Hamiltonian is not pseudo-Hermitian with respect to the given
    pseudometric within tolerance."""


class InaccurateEigensystem(QuasihermError):
    """The eigensystem fails its own reconstruction or pairing check, so a
    quantity expanded in it carries no reliable digits."""


class NonFiniteResult(QuasihermError):
    """A computed state or trace overflowed to a non-finite value."""


class BadGrid(QuasihermError):
    """Grid parameters violate the symmetric-lattice contract."""


class SigmaVanishes(QuasihermError):
    """The inverse charge map degenerates where sigma vanishes but the odd
    imaginary potential component does not."""

    def __init__(self, message: str, indices=()):
        super().__init__(message)
        self.indices = tuple(int(i) for i in indices)


class ParseError(QuasihermError):
    """Expression text could not be parsed; ``position`` is 0-based."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = int(position)


class EvalError(QuasihermError):
    """Expression evaluation hit a domain violation at sample point ``x``."""

    def __init__(self, message: str, x: float):
        super().__init__(f"{message} (at x = {x!r})")
        self.x = float(x)


class SchemaError(QuasihermError):
    """Model document failed validation; ``path`` names the offending field."""

    def __init__(self, message: str, path: str = ""):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


class ParityViolation(QuasihermError):
    """A function tagged even or odd failed the symmetrization tolerance."""
