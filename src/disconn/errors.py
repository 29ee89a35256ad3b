"""Exception taxonomy shared by all modules."""


class DisconnError(Exception):
    """Base class for every error raised by this package."""


class NotSameFiber(DisconnError):
    """Two total-space points do not lie on the same fiber."""


class SectionUndefined(DisconnError):
    """A local section was evaluated outside its chart."""


class OutOfDomain(DisconnError):
    """A pair (or point/base pair) lies outside an operation's domain."""


class AntipodalPoints(OutOfDomain):
    """Two sphere points are antipodal, so no unique minimizing arc exists.

    Subclasses OutOfDomain: antipodality is how geodesic-built objects
    fall out of their domains.
    """


class InvalidC(DisconnError):
    """A base-pair function C fails its diagonal normalization C(r, r) = e."""


class ProbeFailed(DisconnError):
    """A numerical probe (root finding, finite differences) did not converge."""


class SolveFailed(DisconnError):
    """The horizontal lift produced a non-finite stage velocity or an
    endpoint off its target fiber."""


class OutOfRange(DisconnError):
    """A scalar argument lies outside its admissible interval."""


class EmptyDomainIntersection(DisconnError):
    """No sampled pair landed in the domains of both forms being compared."""


class InvalidConfig(DisconnError, ValueError):
    """A size or tolerance parameter would make a run vacuous or undefined."""
