"""Exception hierarchy for the ``repro`` XQuery/IFP engine.

The hierarchy mirrors the places errors can arise in the pipeline:

* :class:`XMLSyntaxError` — the hand-written XML parser rejected a document.
* :class:`XQuerySyntaxError` — the XQuery lexer/parser rejected a query.
* :class:`XQueryStaticError` — the query is syntactically well-formed but
  statically wrong (unknown variable, unknown function, wrong arity, ...).
* :class:`XQueryDynamicError` — a runtime error during evaluation (bad
  argument types, division by zero, undefined fixed point, ...).
* :class:`XQueryTypeError` — a dynamic type error (e.g. atomizing a
  function item, comparing incomparable values).
* :class:`FixpointError` — IFP-specific failures such as exceeding the
  iteration bound (a stand-in for the "IFP is undefined" case of
  Definition 2.1).
* :class:`AlgebraError` — problems while compiling to or evaluating the
  relational algebra backend.
* :class:`SqlBackendError` — problems in the SQLite execution backend
  (shredding, SQL emission, result decoding).
* :class:`GovernanceError` — the resource-governance layer stopped a query
  (:class:`QueryTimeout`, :class:`BudgetExceeded`, :class:`QueryCancelled`).

All of these derive from :class:`ReproError` so callers can install a single
``except`` clause around the whole engine.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` package."""


class XMLSyntaxError(ReproError):
    """Raised by :mod:`repro.xmlio` when an XML document is not well-formed."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class XQueryError(ReproError):
    """Common base for all XQuery processing errors.

    Each error carries an ``err_code`` loosely modelled on the W3C error
    codes (``XPST0003`` and friends) so tests can assert on the class of
    failure rather than on message text.
    """

    default_code = "FORG0001"

    def __init__(self, message: str, code: str | None = None):
        self.code = code or self.default_code
        #: the message without the ``[code]`` prefix (diagnostics reuse it)
        self.bare_message = message
        super().__init__(f"[{self.code}] {message}")


class XQuerySyntaxError(XQueryError):
    """A query could not be tokenized or parsed."""

    default_code = "XPST0003"


class XQueryStaticError(XQueryError):
    """A query refers to an unknown variable/function or misuses syntax."""

    default_code = "XPST0008"


class XQueryDynamicError(XQueryError):
    """A runtime error raised while evaluating a query."""

    default_code = "FORG0001"


def _at(message: str, line: int | None, column: int | None) -> str:
    if line is None:
        return message
    return f"{message} (line {line}, column {column})"


class UndefinedVariableError(XQueryStaticError, XQueryDynamicError):
    """A query references a variable that is bound nowhere in scope.

    Per the W3C rules this is the static error ``XPST0008``; the static
    analyzer (:mod:`repro.analysis`) raises it before any engine runs, so
    the class, code and message are identical across interpreter, algebra
    and SQL evaluations.  Historically the engines surfaced the condition
    mid-evaluation as a *dynamic* error, so the class also keeps
    :class:`XQueryDynamicError` in its bases for compatibility with callers
    that catch the old type.
    """

    default_code = "XPST0008"

    def __init__(self, name: str, line: int | None = None,
                 column: int | None = None):
        self.name = name
        self.line = line
        self.column = column
        self.plain_message = f"undefined variable ${name}"
        super().__init__(_at(self.plain_message, line, column), code="XPST0008")


class UndefinedFunctionError(XQueryStaticError):
    """A query calls a function that is neither declared nor built in."""

    default_code = "XPST0017"

    def __init__(self, name: str, arity: int, line: int | None = None,
                 column: int | None = None):
        self.name = name
        self.arity = arity
        self.line = line
        self.column = column
        self.plain_message = f"unknown function {name}#{arity}"
        super().__init__(_at(self.plain_message, line, column), code="XPST0017")


class WrongArityError(XQueryStaticError):
    """A known function is called with an argument count it does not accept."""

    default_code = "XPST0017"

    def __init__(self, name: str, arity: int, expected: str,
                 line: int | None = None, column: int | None = None):
        self.name = name
        self.arity = arity
        self.expected = expected
        self.line = line
        self.column = column
        self.plain_message = (f"function {name} called with {arity} argument(s), "
                              f"expected {expected}")
        super().__init__(_at(self.plain_message, line, column), code="XPST0017")


class DuplicateDeclarationError(XQueryStaticError):
    """The prolog declares the same variable or function (name, arity) twice."""

    default_code = "XQST0049"

    def __init__(self, kind: str, name: str, line: int | None = None,
                 column: int | None = None, code: str | None = None):
        self.kind = kind
        self.name = name
        self.line = line
        self.column = column
        self.plain_message = f"duplicate {kind} declaration: {name}"
        super().__init__(_at(self.plain_message, line, column),
                         code=code or ("XQST0034" if kind == "function" else "XQST0049"))


class XQueryTypeError(XQueryDynamicError):
    """A dynamic type error (XPTY-style)."""

    default_code = "XPTY0004"


class FixpointError(XQueryDynamicError):
    """The inflationary fixed point is undefined or diverged.

    Definition 2.1 leaves the IFP undefined when the iteration never reaches
    a fixed point (possible when the recursion body constructs new nodes).
    The engine converts that situation into this error once the configured
    iteration bound is exceeded.
    """

    default_code = "REPR0001"


class AlgebraError(ReproError):
    """Raised by the relational algebra backend (compiler or evaluator)."""


class SqlBackendError(ReproError):
    """Raised by the SQLite execution backend (shredding, emission, decode)."""


class GovernanceError(ReproError):
    """Common base of every error raised by the resource-governance layer.

    Governance errors carry the engine-independent reason a query was
    stopped; the service layer maps each subclass onto an HTTP status
    (timeout → 408, budget → 429, cancellation → 503).
    """


class QueryTimeout(GovernanceError):
    """The query's wall-clock deadline (``ResourceLimits.timeout_s``) passed.

    Raised cooperatively: the interpreter checks at FLWOR-iteration and
    function-call boundaries, the fixpoint drivers and algebra µ/µ∆ loops
    at round boundaries, and the SQLite backend through a progress handler
    — so even a single ``WITH RECURSIVE`` statement honours the deadline.
    """

    def __init__(self, message: str | None = None, *, timeout_s: float | None = None):
        self.timeout_s = timeout_s
        if message is None:
            message = "query exceeded its deadline"
            if timeout_s is not None:
                message = f"query exceeded its {timeout_s:g}s deadline"
        super().__init__(message)


class BudgetExceeded(GovernanceError):
    """A non-time resource budget of :class:`ResourceLimits` was exhausted.

    ``budget`` names which bound tripped (``max_fixpoint_rounds``,
    ``max_frontier_nodes``, ``max_result_items`` or ``max_memory_kb``) so
    callers can distinguish divergence from merely-large results.
    """

    def __init__(self, message: str, *, budget: str | None = None,
                 limit: int | None = None, observed: int | None = None):
        self.budget = budget
        self.limit = limit
        self.observed = observed
        super().__init__(message)


class QueryCancelled(GovernanceError):
    """The query's :class:`CancelToken` was triggered mid-evaluation.

    Cancellation arrives from outside the evaluating thread — a client
    disconnect, a graceful service drain, or an explicit
    ``CancelToken.cancel()`` — and is observed at the same cooperative
    checkpoints as the deadline.
    """

    def __init__(self, message: str | None = None, *, reason: str | None = None):
        self.reason = reason
        if message is None:
            message = "query was cancelled"
            if reason:
                message = f"query was cancelled ({reason})"
        super().__init__(message)


class InjectedFault(ReproError):
    """An error raised on purpose by the fault-injection harness.

    Chaos tests activate named fault points (:mod:`repro.faults`) and assert
    that every injected failure surfaces as a typed :class:`ReproError` —
    this class marks the generic injections so tests can tell deliberate
    faults from real bugs.
    """

    def __init__(self, point: str, message: str | None = None):
        self.point = point
        super().__init__(message or f"injected fault at point '{point}'")
