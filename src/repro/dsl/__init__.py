"""The Datalog-based domain-specific language for specifying graph extraction.

Typical usage::

    from repro.dsl import parse, validate

    spec = parse('''
        Nodes(ID, Name) :- Author(ID, Name).
        Edges(ID1, ID2) :- AuthorPub(ID1, PubID), AuthorPub(ID2, PubID).
    ''')
    report = validate(spec, db)
"""

from repro._lazy import lazy_exports

__all__ = [
    "AGGREGATE_FUNCTION_NAMES",
    "AggregateConstraint",
    "AggregateTerm",
    "Anonymous",
    "Atom",
    "ComparisonPredicate",
    "Constant",
    "GraphSpec",
    "Rule",
    "Term",
    "Variable",
    "make_variables",
    "Lexer",
    "Token",
    "tokenize",
    "Parser",
    "parse",
    "ChainLink",
    "EdgeChain",
    "ValidationReport",
    "derive_chain",
    "is_acyclic",
    "validate",
]

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.dsl.ast": (
            "AGGREGATE_FUNCTION_NAMES",
            "AggregateConstraint",
            "AggregateTerm",
            "Anonymous",
            "Atom",
            "ComparisonPredicate",
            "Constant",
            "GraphSpec",
            "Rule",
            "Term",
            "Variable",
            "make_variables",
        ),
        "repro.dsl.lexer": ("Lexer", "Token", "tokenize"),
        "repro.dsl.parser": ("Parser", "parse"),
        "repro.dsl.validator": (
            "ChainLink",
            "EdgeChain",
            "ValidationReport",
            "derive_chain",
            "is_acyclic",
            "validate",
        ),
    },
)
