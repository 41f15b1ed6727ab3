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

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "AGGREGATE_FUNCTION_NAMES": "repro.dsl.ast",
        "AggregateConstraint": "repro.dsl.ast",
        "AggregateTerm": "repro.dsl.ast",
        "Anonymous": "repro.dsl.ast",
        "Atom": "repro.dsl.ast",
        "ComparisonPredicate": "repro.dsl.ast",
        "Constant": "repro.dsl.ast",
        "GraphSpec": "repro.dsl.ast",
        "Rule": "repro.dsl.ast",
        "Term": "repro.dsl.ast",
        "Variable": "repro.dsl.ast",
        "make_variables": "repro.dsl.ast",
        "Lexer": "repro.dsl.lexer",
        "Token": "repro.dsl.lexer",
        "tokenize": "repro.dsl.lexer",
        "Parser": "repro.dsl.parser",
        "parse": "repro.dsl.parser",
        "ChainLink": "repro.dsl.validator",
        "EdgeChain": "repro.dsl.validator",
        "ValidationReport": "repro.dsl.validator",
        "derive_chain": "repro.dsl.validator",
        "is_acyclic": "repro.dsl.validator",
        "validate": "repro.dsl.validator",
    },
)
