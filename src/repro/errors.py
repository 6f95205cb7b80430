"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch a single base class.  Sub-hierarchies mirror the
package layout: the RDF data model, SPARQL parsing/evaluation, TGD/chase
machinery, peer-system validation and federation.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class RDFError(ReproError):
    """Base class for errors in the RDF data model."""


class TermError(RDFError):
    """An RDF term was constructed with an invalid value."""


class TripleError(RDFError):
    """A triple violates RDF positional constraints (e.g. literal subject)."""


class SparqlError(ReproError):
    """Base class for SPARQL front-end errors."""


class SparqlSyntaxError(SparqlError):
    """The SPARQL query text failed to parse."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        self.line = line
        self.column = column
        if line:
            message = f"line {line}, col {column}: {message}"
        super().__init__(message)


class SparqlEvaluationError(SparqlError):
    """The SPARQL algebra tree could not be evaluated."""


class UnsupportedSparqlError(SparqlError):
    """The query uses SPARQL features outside the conjunctive fragment."""


class QueryError(ReproError):
    """A graph pattern query is malformed (e.g. free variable not in body)."""


class TGDError(ReproError):
    """Base class for errors in the relational TGD machinery."""


class ChaseError(TGDError):
    """The chase failed or exceeded its configured bounds."""


class ChaseNonTerminationError(ChaseError):
    """The chase exceeded its step budget without reaching a fixpoint.

    Attributes:
        steps: number of chase steps performed before giving up.
    """

    def __init__(self, message: str, steps: int = 0) -> None:
        self.steps = steps
        super().__init__(message)


class RewritingError(TGDError):
    """Query rewriting failed (e.g. non-terminating TGD class)."""


class NotRewritableError(RewritingError):
    """The dependency set is provably outside the FO-rewritable classes.

    Raised when a perfect first-order rewriting is requested for a TGD set
    that is neither linear nor sticky nor sticky-join (Proposition 3 of the
    paper shows such sets exist for RPS mapping assertions).
    """


class PeerSystemError(ReproError):
    """Base class for RDF Peer System validation errors."""


class MappingError(PeerSystemError):
    """A graph mapping assertion or equivalence mapping is malformed."""


class FederationError(ReproError):
    """Base class for federated-execution errors."""


class EndpointError(FederationError):
    """A simulated endpoint rejected or failed a sub-query."""


class EndpointUnavailableError(EndpointError):
    """An endpoint (and every replica) exhausted its retry budget.

    Raised by the fault-aware request path
    (:func:`repro.federation.plan.issue_request`) when the primary
    endpoint and all of its replicas are marked down.  The federated
    interpreter catches it, drops the endpoint's contribution, and
    records the outage in the result's
    :class:`~repro.federation.faults.PartialAnswer` — so callers only
    ever see this exception when issuing requests outside the
    interpreter.

    Attributes:
        endpoint: the *primary* endpoint name (replica outages are
            attributed to the logical endpoint they replicate).
        attempts: total attempts charged before giving up (0 when the
            endpoint was already marked down and failed fast).
    """

    def __init__(
        self, message: str, endpoint: str = "", attempts: int = 0
    ) -> None:
        self.endpoint = endpoint
        self.attempts = attempts
        super().__init__(message)


class SimulationError(ReproError):
    """Base class for discrete-event runtime simulation errors.

    Raised by :mod:`repro.runtime` on misconfigured channels (zero
    concurrency, a window below the lane count) and on causality
    violations (an event scheduled before the current virtual instant).
    """
