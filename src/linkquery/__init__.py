"""Link-traversal query engine for webs of RDF documents.

Evaluates a SELECT/BGP/OPTIONAL query subset over hyperlinked documents,
expanding a seed set through link following. Traversal can run unguided
(seeds-only, follow-all, or query-match semantics) or guided by user-supplied
linking-structure descriptions (which links matter for which patterns) and
content policies (which triples from which sources count).
"""
from .rdf import (
    Graph,
    Term,
    Triple,
    TriplePattern,
    match_triple,
    resolve_iri,
    strip_fragment,
    to_ntriples,
)
from .turtle import TurtleParseError, parse_turtle
from .query import (
    Query,
    QueryParseError,
    UnsupportedFeatureError,
    evaluate,
    graph_match,
    parse_query,
    triple_patterns,
)
from .webfetch import (
    Dereferencer,
    Document,
    FetchLedger,
    FixtureError,
    FixtureSource,
    LiveHttpSource,
)
from .guidance import (
    ContentPolicy,
    GuidanceParseError,
    LinkingStructureRegistry,
    PolicyRule,
    StructureRule,
    apply_overrides,
    get_linking_structure,
    lambda_allows,
    parse_policy,
    parse_structure_registry,
    triple_relevant,
)
from .traversal import (
    CappedTraversalError,
    TraversalConfig,
    TraversalTrace,
    TriplePool,
    traverse_guided,
    traverse_unguided,
)

__version__ = "0.1.0"
