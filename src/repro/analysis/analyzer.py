"""The multi-pass static analyzer: one call, one :class:`AnalysisReport`.

Pass order (each pass consumes the previous one's facts):

1. **scopes** (:mod:`repro.analysis.scopes`) — symbol table; typed static
   errors for undefined variables/functions, wrong arity, duplicate
   declarations, with source positions.
2. **cardinality** (:mod:`repro.analysis.cardinality`) — occurrence
   classes for the prolog variables (in declaration order, so later
   declarations see earlier bounds) and the module body.
3. **distributivity** (:mod:`repro.analysis.distributivity`) — for every
   ``with … recurse`` site, the Figure-5 verdict and the strengthened
   cardinality-assisted proof.  Which of them (or the plan-based check)
   decides Naive or Delta is the run's settings' to say, so the report
   derives that, and the named-rule warning that lets ``--check`` explain
   *why* a fixpoint falls back to the Naive algorithm, when it is read
   (:mod:`repro.analysis.report`).

The analyzer is pure (AST in, report out): the session runs it once per
compiled module and caches the report alongside the plan; engines read the
same report, which is how all three report identical static errors.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from repro.xquery import ast
from repro.xquery.parser import parse_query

from repro.analysis import cardinality as card
from repro.analysis.distributivity import analyze_distributivity_static
from repro.analysis.report import AnalysisReport, FixpointFact
from repro.analysis.scopes import check_scopes


def analyze_module(module: ast.Module,
                   bound_variables: Iterable[str] = ()) -> AnalysisReport:
    """Run every static pass over *module*.

    *bound_variables* are names the caller will bind at evaluation time
    (``evaluate(..., variables={...})``) — they are in scope everywhere,
    exactly as the runtime binds them before the prolog runs.
    """
    bound = frozenset(bound_variables)
    findings = check_scopes(module, bound)

    environment: dict[str, card.Cardinality] = {name: card.STAR for name in bound}
    for declaration in module.variables:
        if declaration.value is not None:
            environment[declaration.name] = card.infer_cardinality(
                declaration.value, environment)
        else:
            environment[declaration.name] = card.STAR
    body_cardinality = card.infer_cardinality(module.body, environment)

    functions = module.function_map()
    fixpoints: list[FixpointFact] = []
    for site, env in _fixpoint_sites(module, environment):
        judgment = analyze_distributivity_static(
            site.body, site.var, functions=functions, seed=site.seed, env=env)
        line, column = _position(site)
        seed_cardinality = card.infer_cardinality(site.seed, env)
        figure5 = judgment.syntactic.deciding()
        fixpoints.append(FixpointFact(
            variable=site.var,
            declared_algorithm=site.algorithm,
            seed_cardinality=seed_cardinality.indicator,
            syntactic_safe=judgment.syntactic.safe,
            safe=judgment.safe,
            rule=judgment.rule,
            detail=judgment.detail,
            site=site,
            functions=functions,
            syntactic_rule=figure5.rule,
            syntactic_detail=figure5.detail,
            facts=judgment.facts,
            line=line,
            column=column,
        ))

    return AnalysisReport(
        findings=findings,
        fixpoints=tuple(fixpoints),
        body_cardinality=body_cardinality.indicator,
    )


def analyze_query(query: str,
                  bound_variables: Iterable[str] = ()) -> AnalysisReport:
    """Parse *query* and run :func:`analyze_module` (lint entry point).

    Parsing happens on the unoptimized AST so positions and diagnostics
    match the query text as written; syntax errors propagate as
    :class:`~repro.errors.XQuerySyntaxError`.
    """
    return analyze_module(parse_query(query), bound_variables)


def _position(node: object) -> tuple[int | None, int | None]:
    position = ast.get_position(node)
    if position is None:
        return None, None
    return position


def _fixpoint_sites(module: ast.Module,
                    environment: Mapping[str, card.Cardinality]
                    ) -> list[tuple[ast.WithExpr, dict[str, card.Cardinality]]]:
    """Every ``with`` expression of the module, paired with the variable
    cardinalities in scope at its position.

    Bindings introduced between the module root and the site (``for``/
    ``let`` variables) are tracked with their inferred classes; a ``for``
    variable is always ONE, which is what makes seeds like
    ``for $c in ... with $x seeded by $c ...`` provably non-empty.
    """
    sites: list[tuple[ast.WithExpr, dict[str, card.Cardinality]]] = []

    def walk(expr: ast.Expr, env: dict[str, card.Cardinality]) -> None:
        if isinstance(expr, ast.WithExpr):
            sites.append((expr, dict(env)))
        if isinstance(expr, ast.ForExpr):
            walk(expr.sequence, env)
            bound = dict(env)
            bound[expr.var] = card.ONE
            if expr.position_var:
                bound[expr.position_var] = card.ONE
            walk(expr.body, bound)
            return
        if isinstance(expr, ast.LetExpr):
            walk(expr.value, env)
            bound = dict(env)
            bound[expr.var] = card.infer_cardinality(expr.value, env)
            walk(expr.body, bound)
            return
        for field, is_tuple, binders in ast.SCOPED_FIELDS[type(expr)]:
            value = getattr(expr, field)
            if value is None:
                continue
            child_env = env
            if binders:  # rebinding shadows any outer bound for this subtree
                child_env = {**env, **dict.fromkeys(ast.bound_names(expr, binders), card.STAR)}
            for child in value if is_tuple else (value,):
                walk(child, child_env)

    base = dict(environment)
    for declaration in module.variables:
        if declaration.value is not None:
            walk(declaration.value, base)
    for function in module.functions:
        env = dict(base)
        for param in function.params:
            env[param.name] = card.STAR
        walk(function.body, env)
    walk(module.body, base)
    return sites


__all__ = ["analyze_module", "analyze_query"]
