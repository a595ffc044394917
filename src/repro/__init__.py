"""repro — reproduction of "An Inflationary Fixed Point Operator in XQuery".

The package bundles a small but complete XQuery engine (data model, XML
parser, XQuery parser, interpreter), the paper's inflationary fixed point
operator with Naive and Delta evaluation, syntactic and algebraic
distributivity analyses, a Pathfinder-style relational algebra backend,
Regular XPath, workload generators and the ``repro-table2`` script that
regenerates the paper's Table 2 through :class:`Session`.

Quick start::

    from repro import parse_xml, evaluate

    doc = parse_xml(CURRICULUM_XML)
    result = evaluate(
        'with $x seeded by doc("c.xml")/curriculum/course[@code="c1"] '
        'recurse $x/id(./prerequisites/pre_code)',
        documents={"c.xml": doc},
    )

See :mod:`repro.api` for the full convenience API and the ``examples/``
directory of the repository for runnable scenarios.
"""

from repro.api import (
    BudgetExceeded,
    CancelToken,
    Engine,
    EvalSettings,
    PreparedQuery,
    QueryCancelled,
    QueryResult,
    QueryTimeout,
    ResourceLimits,
    Session,
    analyze_query_text,
    clear_query_caches,
    default_session,
    evaluate,
    evaluate_query,
    ifp,
    is_distributive_algebraic,
    is_distributive_static,
    is_distributive_syntactic,
    load_documents,
    parse_query,
    parse_query_text,
    query_cache_stats,
    transitive_closure,
)
from repro.xmlio.parser import parse_xml, parse_xml_file

__version__ = "1.1.0"

__all__ = [
    "BudgetExceeded",
    "CancelToken",
    "Engine",
    "EvalSettings",
    "PreparedQuery",
    "QueryCancelled",
    "QueryResult",
    "QueryTimeout",
    "ResourceLimits",
    "Session",
    "analyze_query_text",
    "clear_query_caches",
    "default_session",
    "evaluate",
    "evaluate_query",
    "ifp",
    "is_distributive_algebraic",
    "is_distributive_static",
    "is_distributive_syntactic",
    "load_documents",
    "parse_query",
    "parse_query_text",
    "query_cache_stats",
    "transitive_closure",
    "parse_xml",
    "parse_xml_file",
    "__version__",
]
