"""XQuery front end and runtime.

The supported language is a LiXQuery-style subset of XQuery 1.0 — the
fragment the paper's Figure 5 inference rules are defined over — extended
with the paper's new syntactic form::

    with $x seeded by e_seed recurse e_rec [using naive|delta|auto]

The optional ``using`` clause is an engine extension that lets benchmarks
pin the evaluation algorithm; without it the processor picks Delta whenever
its distributivity analysis allows (Section 3/4 of the paper), falling back
to Naive otherwise.

Modules
-------
``tokens``/``lexer``
    Pull-based tokenizer — one compiled pattern per token, character-level
    scanners for what it declines — that the parser drives a token at a
    time (direct element constructors switch it into character mode).
``ast``
    Expression AST with free-variable computation, child traversal and the
    per-class child plan (``CHILD_FIELDS``) of the rebuilding walks.
``parser``
    Recursive-descent parser producing :class:`~repro.xquery.ast.Module`:
    one precedence-climbing loop over one operator table for the binary
    operators, keyword dispatch for everything else.
``optimizer``
    AST rewrites before evaluation: one local rule per node class, function
    pruning, invariant hoisting.
``pushdown``
    Predicate shape recognition and the batch filter kernels behind it.
``context``
    Static and dynamic evaluation contexts.
``functions``
    The built-in function library.
``evaluator``
    The tree-walking interpreter.
"""

from repro.xquery.parser import parse_query, parse_expression
from repro.xquery.evaluator import Evaluator
from repro.xquery.context import DynamicContext, StaticContext

__all__ = [
    "parse_query",
    "parse_expression",
    "Evaluator",
    "DynamicContext",
    "StaticContext",
]
