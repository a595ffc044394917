"""Atomic values and item-level helpers of the XQuery Data Model.

The engine represents atomic values with native Python types wherever the
mapping is unambiguous:

===================  ==========================================
XDM type             Python representation
===================  ==========================================
``xs:string``        :class:`str`
``xs:integer``       :class:`int` (not ``bool``)
``xs:double``        :class:`float`
``xs:decimal``       :class:`float` (collapsed onto double)
``xs:boolean``       :class:`bool`
``xs:untypedAtomic`` :class:`UntypedAtomic` (a ``str`` subclass)
``xs:QName``         :class:`QName`
===================  ==========================================

Collapsing ``xs:decimal`` onto ``float`` loses the distinction between exact
and approximate numerics; none of the paper's queries depend on it and the
simplification keeps arithmetic rules short.  ``xs:untypedAtomic`` must stay
distinguishable from ``xs:string`` because general comparisons promote
untyped values to the type of the other operand (e.g. ``@code = 42`` compares
numerically), which drives the curriculum and bidder-network joins.
"""

from __future__ import annotations

from typing import Any

from repro.errors import XQueryTypeError


class UntypedAtomic(str):
    """An ``xs:untypedAtomic`` value.

    Behaves as a string for most purposes, but general comparisons detect the
    type and apply the promotion rules of XQuery 1.0 (untyped compares
    numerically against numbers, as string against strings).
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"UntypedAtomic({str.__repr__(self)})"


class QName:
    """A (prefix, local name) pair.

    The engine is namespace-light: prefixes are carried around verbatim and
    compared literally, which is all the paper's queries need.
    """

    __slots__ = ("prefix", "local")

    def __init__(self, local: str, prefix: str | None = None):
        self.prefix = prefix
        self.local = local

    @classmethod
    def parse(cls, lexical: str) -> "QName":
        """Parse a lexical QName such as ``fn:count`` or ``person``."""
        if ":" in lexical:
            prefix, local = lexical.split(":", 1)
            return cls(local, prefix)
        return cls(lexical)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QName):
            return NotImplemented
        return self.prefix == other.prefix and self.local == other.local

    def __hash__(self) -> int:
        return hash((self.prefix, self.local))

    def __str__(self) -> str:
        if self.prefix:
            return f"{self.prefix}:{self.local}"
        return self.local

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"QName({str(self)!r})"


#: Types accepted as atomic values throughout the engine.
_ATOMIC_TYPES = (str, int, float, bool, QName)


def is_atomic(item: Any) -> bool:
    """Return ``True`` if *item* is an XDM atomic value."""
    return isinstance(item, _ATOMIC_TYPES)


def is_node(item: Any) -> bool:
    """Return ``True`` if *item* is an XDM node.

    Implemented here (rather than with ``isinstance(item, Node)``) via duck
    typing on the ``node_kind`` attribute to avoid a circular import between
    :mod:`repro.xdm.items` and :mod:`repro.xdm.node`.
    """
    return hasattr(item, "node_kind")


def is_numeric(item: Any) -> bool:
    """Return ``True`` for ``xs:integer``/``xs:double`` values (not booleans)."""
    return isinstance(item, (int, float)) and not isinstance(item, bool)


def atomize_item(item: Any) -> Any:
    """Atomize a single item (nodes yield their typed value)."""
    if is_node(item):
        return item.typed_value()
    if is_atomic(item):
        return item
    raise XQueryTypeError(f"cannot atomize item of type {type(item).__name__}")


def string_value_of_item(item: Any) -> str:
    """The string value of an item (``fn:string`` on a single item)."""
    if is_node(item):
        return item.string_value()
    return format_atomic(item)


def format_atomic(value: Any) -> str:
    """Serialize an atomic value using XQuery's canonical lexical forms."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if value != value:  # NaN
            return "NaN"
        if value == float("inf"):
            return "INF"
        if value == float("-inf"):
            return "-INF"
        if value == int(value) and abs(value) < 1e16:
            return str(int(value))
        return repr(value)
    if isinstance(value, (str, int)):
        return str(value)
    if isinstance(value, QName):
        return str(value)
    raise XQueryTypeError(f"cannot convert {type(value).__name__} to xs:string")


def xs_string(value: Any) -> str:
    """Cast an atomic value to ``xs:string``."""
    return format_atomic(value)


def xs_boolean(value: Any) -> bool:
    """Cast an atomic value to ``xs:boolean`` (XQuery casting rules)."""
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return value != 0 and value == value
    if isinstance(value, str):
        lexical = value.strip()
        if lexical in ("true", "1"):
            return True
        if lexical in ("false", "0"):
            return False
        raise XQueryTypeError(f"cannot cast {value!r} to xs:boolean", code="FORG0001")
    raise XQueryTypeError(f"cannot cast {type(value).__name__} to xs:boolean")


def xs_double(value: Any) -> float:
    """Cast an atomic value to ``xs:double``."""
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        lexical = value.strip()
        try:
            if lexical == "INF":
                return float("inf")
            if lexical == "-INF":
                return float("-inf")
            if lexical == "NaN":
                return float("nan")
            return float(lexical)
        except ValueError as exc:
            raise XQueryTypeError(f"cannot cast {value!r} to xs:double", code="FORG0001") from exc
    raise XQueryTypeError(f"cannot cast {type(value).__name__} to xs:double")


def xs_integer(value: Any) -> int:
    """Cast an atomic value to ``xs:integer``."""
    if isinstance(value, bool):
        return 1 if value else 0
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise XQueryTypeError(f"cannot cast {value!r} to xs:integer", code="FOCA0002")
        return int(value)
    if isinstance(value, str):
        try:
            return int(value.strip())
        except ValueError as exc:
            raise XQueryTypeError(f"cannot cast {value!r} to xs:integer", code="FORG0001") from exc
    raise XQueryTypeError(f"cannot cast {type(value).__name__} to xs:integer")
