"""The one-pass front end against the passes it replaced.

The parser now applies the local rewrites while it builds a module, notes
the hoisting and set-at-a-time gates and the scope check's references, and
keys each ``with`` body; :mod:`tests.previous_front_end` keeps the
``_Scout``-driven ``optimize_module``, the scope and fixpoint-site walks and
the ``substitute_variable``-based recognizer as they were.  On every query
string of the parser, optimizer and static-analysis tests, on the token
soup and on the ledger's six ``adhoc`` shapes:

* the optimized modules are ``==``;
* the reports have equal facts, and the findings are those of the text as
  written — what the previous scope walk said of the unoptimized parse;
* the recognizer takes the same bodies, and α-variant bodies share one
  memo key while other bodies do not.
"""

from __future__ import annotations

import ast as python_ast
import functools
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.analysis import analyze_module
from repro.errors import XQueryStaticError, XQuerySyntaxError
from repro.xquery import pushdown
from repro.xquery.optimizer import optimize_module
from repro.xquery.parser import parse_query
from tests.conftest import benchmark_modules
from tests.previous_front_end import (
    previous_analyze_module,
    previous_check_scopes,
    previous_optimize_module,
    previous_recognize_step_relation,
)
from tests.test_xquery_parser import TestAgainstThePreviousFrontEnd

TESTS = Path(__file__).resolve().parent

#: A start node per closure class (the texts need not answer anything).
STARTS = {"curriculum": "c1", "bidder": "person0", "hospital": "p1", "dialogs": (1, 1, 1)}


def adhoc_texts(serials=(1, 2)) -> dict[str, list[str]]:
    """The ledger's ``adhoc`` shapes, each written with *serials*."""
    _, ops, _ = benchmark_modules()
    return {shape: [ops.adhoc_text(shape, serial, STARTS.get(shape, "c1"), 3)
                    for serial in serials]
            for shape in ops.ADHOC_SHAPES}


#: What the parser notes and a rewrite may take away or move: ``with``
#: sites under a dead branch, an unused ``let``, hoisted and set-at-a-time
#: scopes, declarations named twice; bindings of every kind around a site.
SITES = (
    "if (false()) then with $x seeded by . recurse $x/a else 1",
    "if (true()) then 1 else (with $x seeded by . recurse $x/a, $y)",
    'let $u := 1 return with $x seeded by doc("d.xml")//a recurse $x/b',
    "declare variable $a := 1; declare variable $a := with $x seeded by () recurse $x; $a",
    "declare function f($p) { 1 }; declare function f($p) { with $x seeded by $p recurse $x/a };"
    " f(1)",
    'declare variable $d := doc("d.xml"); declare function f($p) { for $i in $p return '
    '$d//a[@k = $i/@k] }; with $x seeded by $d//a recurse f($x)',
    'declare variable $d := doc("d.xml"); for $i in (1, 2) return '
    '(with $x seeded by $d//a recurse $x/b, $d//c)',
    "for $i at $p in (1, 2) let $j := ($i, $i) return some $q in $j satisfies "
    "typeswitch ($q) case $c as xs:integer return (with $x seeded by ($c, $p) recurse $x/a) "
    "default $e return with $y seeded by (with $z seeded by $e recurse $z/b) recurse $y/c",
    "let $v := (with $x seeded by . recurse $x/a) return with $y seeded by $v recurse $y/b",
)


@functools.lru_cache(maxsize=None)
def query_strings() -> tuple[str, ...]:
    """Every string constant of the three test modules (queries, prose and
    all), the six ``adhoc`` shapes and :data:`SITES`."""
    texts: dict[str, None] = dict.fromkeys(SITES)
    for name in ("test_xquery_parser.py", "test_optimizer_rewrites.py",
                 "test_static_analysis.py"):
        for node in python_ast.walk(python_ast.parse((TESTS / name).read_text())):
            if isinstance(node, python_ast.Constant) and isinstance(node.value, str):
                texts[node.value] = None
    for shape_texts in adhoc_texts().values():
        texts.update(dict.fromkeys(shape_texts))
    return tuple(texts)


def assert_same_front_end(text: str) -> bool:
    """The new front end against the previous one on *text*; whether it parses."""
    try:
        as_written = parse_query(text)
    except XQuerySyntaxError as error:
        with pytest.raises(XQuerySyntaxError) as raised:
            parse_query(text, optimize=True)
        assert str(raised.value) == str(error)
        return False
    built = parse_query(text, optimize=True)
    for hoist in (True, False):
        expected = previous_optimize_module(as_written, hoist)
        assert optimize_module(built, hoist) == expected
        assert optimize_module(as_written, hoist) == expected
    optimized = optimize_module(built)
    for bound in ((), ("a", "x")):
        written = previous_check_scopes(as_written, frozenset(bound))
        for module in (as_written, optimized):
            report = analyze_module(module, bound)
            previous = previous_analyze_module(module, bound)
            assert report.findings == written
            assert [finding.format() for finding in report.findings] \
                == [finding.format() for finding in written]
            assert report.fixpoints == previous.fixpoints
            assert report.body_cardinality == previous.body_cardinality
    return True


def relations(module):
    """What the recognizer makes of each fixpoint of *module*, new and previous."""
    functions = module.function_map()
    variables = pushdown.prolog_variables(module)
    for fact in analyze_module(module).fixpoints:
        yield (pushdown.recognize_step_relation(fact.site.body, fact.site.var, functions,
                                                variables=variables, fact=fact),
               previous_recognize_step_relation(fact.site.body, fact.site.var, functions,
                                                variables=variables, fact=fact))


class TestAgainstThePreviousFrontEnd:
    def test_every_query_string_of_the_tests(self):
        parsed = [text for text in query_strings() if assert_same_front_end(text)]
        assert len(parsed) > 450

    @settings(derandomize=True, deadline=None, max_examples=250)
    @given(st.lists(st.tuples(st.sampled_from(TestAgainstThePreviousFrontEnd.SOUP)
                              | st.text(TestAgainstThePreviousFrontEnd.CHARACTERS,
                                        min_size=1, max_size=5),
                              st.sampled_from(("", " ", " ", "\n"))),
                    min_size=1, max_size=9))
    def test_token_soup(self, pieces):
        assert_same_front_end("".join(piece + blank for piece, blank in pieces))

    def test_the_recognizer_takes_the_same_bodies(self):
        taken = 0
        for text in query_strings():
            try:
                module = optimize_module(parse_query(text, optimize=True))
            except XQuerySyntaxError:
                continue
            for new, previous in relations(module):
                assert (new is None) == (previous is None), text
                if new is not None:
                    taken += 1
                    assert (new.engine, new.documents, new.ids) \
                        == (previous.engine, previous.documents, previous.ids)
        assert taken >= 10


def key_of(text: str):
    """The memo key of the relation of *text*'s one fixpoint, as a session
    builds the module."""
    module = optimize_module(parse_query(text, optimize=True))
    (relation, _previous), = relations(module)
    assert relation is not None, text
    return relation.key


class TestTheMemoKey:
    def test_alpha_variant_texts_share_it_and_no_other_shape_does(self):
        keys = {shape: {key_of(text) for text in texts}
                for shape, texts in adhoc_texts((1, 2, 3)).items() if shape != "q2"}
        assert all(len(shape_keys) == 1 for shape_keys in keys.values())
        assert len(set.union(*keys.values())) == len(keys)
        for shape, texts in adhoc_texts((1, 2)).items():
            module = parse_query(texts[0], optimize=True)
            previous = [prior for _new, prior in relations(optimize_module(module))]
            if shape != "q2":  # (the previous key shared these too)
                assert previous[0].key == next(iter(
                    prior for _new, prior in relations(optimize_module(
                        parse_query(texts[1], optimize=True))))).key

    SEED = 'doc("d.xml")//n[@id = "n0"]'

    @pytest.mark.parametrize("first, second", [
        ("let $a := $x/m return $a/n", "let $b := $x/m return $b/n"),
        ("$x/m | (let $a := $x/k return $a/n)", "$x/m | (let $z := $x/k return $z/n)"),
        ("(let $a := $x/m return $a/n) | (let $b := $x/k return $b/n)",
         "(let $a := $x/m return $a/n) | (let $a := $x/k return $a/n)"),
    ])
    def test_bound_variables_are_read_by_position(self, first, second):
        texts = [f"with $x seeded by {self.SEED} recurse {body}" for body in (first, second)]
        assert key_of(texts[0]) == key_of(texts[1].replace("$x", "$y"))

    @pytest.mark.parametrize("first, second", [
        ("let $a := $x/m return $a/n", "let $a := $x/m return $a/k"),
        ("$x/m", "$x/n"),
        ("$x/m", "$x/m/n"),
        ("$x/m[1]", "$x/m[1.0]"),
        ('$x/m[@k = "a"]', '$x/m[@k = "$x"]'),
    ])
    def test_other_bodies_do_not_share_it(self, first, second):
        texts = [f"with $x seeded by {self.SEED} recurse {body}" for body in (first, second)]
        assert key_of(texts[0]) != key_of(texts[1])


#: Static errors the optimizer deletes — a dead branch, a function nothing
#: calls — with the code every engine must report under every setting.
HIDDEN_ERRORS = [
    ("if (false()) then $undefined else 1", "XPST0008"),
    ("declare function local:f() { $undefined }; 1", "XPST0008"),
    ("if (false()) then local:g() else 1", "XPST0017"),
    ("declare function local:f() { local:g() }; 1", "XPST0017"),
    ("if (false()) then count(1, 2) else 1", "XPST0017"),
    ("declare function local:f() { count(1, 2) }; 1", "XPST0017"),
]


@pytest.mark.parametrize("query, code", HIDDEN_ERRORS)
@pytest.mark.parametrize("optimize", (True, False))
@pytest.mark.parametrize("engine", ("interpreter", "algebra", "sql"))
def test_a_static_error_the_optimizer_deletes_is_still_reported(query, code, optimize, engine):
    with pytest.raises(XQueryStaticError) as raised:
        repro.evaluate(query, engine=engine, optimize=optimize)
    assert raised.value.code == code
    assert [finding.code for finding in repro.analyze_query_text(query).errors()] == [code]
