"""Namespace utilities and well-known vocabularies.

A :class:`Namespace` mints IRIs under a common prefix with attribute or
item access (``FOAF.name`` / ``FOAF["name"]``), and a
:class:`NamespaceManager` maintains prefix bindings for SPARQL
prologues and for compact display of results (the paper prints answers
like ``DB1:Toby_Maguire``).
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

from repro.errors import TermError
from repro.rdf.terms import IRI

__all__ = [
    "Namespace",
    "NamespaceManager",
    "RDF_NS",
    "RDFS_NS",
    "OWL_NS",
    "XSD_NS",
    "FOAF_NS",
    "OWL_SAME_AS",
    "RDF_TYPE",
]


class Namespace:
    """A factory for IRIs sharing a prefix.

    Example:
        >>> FOAF = Namespace("http://xmlns.com/foaf/0.1/")
        >>> FOAF.name
        IRI('http://xmlns.com/foaf/0.1/name')
    """

    def __init__(self, base: str) -> None:
        if not base:
            raise TermError("namespace base must be non-empty")
        # Validate the base by attempting to build an IRI from it.
        IRI(base)
        self._base = base

    @property
    def base(self) -> str:
        return self._base

    def term(self, name: str) -> IRI:
        """Mint the IRI ``base + name``."""
        return IRI(self._base + name)

    def __getattr__(self, name: str) -> IRI:
        if name.startswith("_"):
            raise AttributeError(name)
        return self.term(name)

    def __getitem__(self, name: str) -> IRI:
        return self.term(name)

    def __contains__(self, iri: IRI) -> bool:
        return isinstance(iri, IRI) and iri.value.startswith(self._base)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Namespace) and other._base == self._base

    def __hash__(self) -> int:
        return hash(("Namespace", self._base))

    def __repr__(self) -> str:
        return f"Namespace({self._base!r})"


RDF_NS = Namespace("http://www.w3.org/1999/02/22-rdf-syntax-ns#")
RDFS_NS = Namespace("http://www.w3.org/2000/01/rdf-schema#")
OWL_NS = Namespace("http://www.w3.org/2002/07/owl#")
XSD_NS = Namespace("http://www.w3.org/2001/XMLSchema#")
FOAF_NS = Namespace("http://xmlns.com/foaf/0.1/")

#: ``owl:sameAs`` — the property the paper compiles into equivalence mappings.
OWL_SAME_AS = OWL_NS.sameAs
RDF_TYPE = RDF_NS.type


class NamespaceManager:
    """Bidirectional prefix <-> namespace registry.

    Used by the SPARQL parser and by result formatting.  The
    default manager binds the ubiquitous ``rdf``, ``rdfs``, ``owl``, ``xsd``
    and ``foaf`` prefixes.

    Args:
        bind_defaults: whether to pre-bind the well-known prefixes.
    """

    def __init__(self, bind_defaults: bool = True) -> None:
        self._prefix_to_ns: Dict[str, str] = {}
        #: The bindings longest base first, so that qname() picks the
        #: most specific namespace; None until qname() next needs it.
        self._sorted_bases: Optional[Tuple[Tuple[str, str], ...]] = None
        if bind_defaults:
            self.bind("rdf", RDF_NS.base)
            self.bind("rdfs", RDFS_NS.base)
            self.bind("owl", OWL_NS.base)
            self.bind("xsd", XSD_NS.base)
            self.bind("foaf", FOAF_NS.base)

    def bind(self, prefix: str, namespace: str) -> None:
        """Bind ``prefix`` to ``namespace``, replacing any previous binding."""
        if isinstance(namespace, Namespace):
            namespace = namespace.base
        IRI(namespace)  # validate
        self._prefix_to_ns[prefix] = namespace
        self._sorted_bases = None

    def expand(self, qname: str) -> IRI:
        """Expand a prefixed name ``prefix:local`` into an IRI.

        Raises:
            TermError: if the prefix is unbound or the input has no colon.
        """
        if ":" not in qname:
            raise TermError(f"{qname!r} is not a prefixed name")
        prefix, local = qname.split(":", 1)
        namespace = self._prefix_to_ns.get(prefix)
        if namespace is None:
            raise TermError(f"unbound namespace prefix {prefix!r}")
        return IRI(namespace + local)

    def qname(self, iri: IRI) -> Optional[str]:
        """Compact an IRI into ``prefix:local`` if a binding covers it."""
        bases = self._sorted_bases
        if bases is None:
            bases = self._sorted_bases = tuple(
                sorted(
                    self._prefix_to_ns.items(),
                    key=lambda item: len(item[1]),
                    reverse=True,
                )
            )
        for prefix, base in bases:
            if iri.value.startswith(base):
                local = iri.value[len(base):]
                if local and all(c not in local for c in "/#?"):
                    return f"{prefix}:{local}"
        return None

    def display(self, iri: IRI) -> str:
        """QName if available, otherwise the full ``<iri>`` form."""
        compact = self.qname(iri)
        return compact if compact is not None else iri.n3()

    def namespaces(self) -> Iterator[Tuple[str, str]]:
        """Iterate over ``(prefix, namespace)`` bindings, sorted by prefix."""
        return iter(sorted(self._prefix_to_ns.items()))

    def __contains__(self, prefix: str) -> bool:
        return prefix in self._prefix_to_ns

    def __len__(self) -> int:
        return len(self._prefix_to_ns)

    def copy(self) -> "NamespaceManager":
        """An independent manager with the same bindings.

        The bindings were validated when they were bound, so the clone
        takes them over without binding each again.
        """
        clone = NamespaceManager(bind_defaults=False)
        clone._prefix_to_ns = dict(self._prefix_to_ns)
        return clone
