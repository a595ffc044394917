"""Plan-level utilities: traversal, rendering and simple statistics.

Plans are DAGs of :class:`~repro.algebra.operators.Operator`; these helpers
render them in the style of Figure 9 (indented text or Graphviz ``dot``).
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.algebra.operators import Operator, RecursionInput


def iter_plan(root: Operator) -> Iterable[Operator]:
    """Iterate over all operators of the plan DAG (each exactly once)."""
    return root.iter_operators()


def plan_size(root: Operator) -> int:
    """Number of distinct operators in the plan."""
    return sum(1 for _ in iter_plan(root))


def find_recursion_inputs(root: Operator) -> list[RecursionInput]:
    """All recursion-input leaves contained in the plan."""
    return [op for op in iter_plan(root) if isinstance(op, RecursionInput)]


def render_plan(root: Operator, indent: str = "  ") -> str:
    """Render the plan as an indented tree (shared subplans are marked)."""
    lines: list[str] = []
    seen: set[int] = set()

    def visit(operator: Operator, depth: int) -> None:
        prefix = indent * depth
        shared = " (shared)" if id(operator) in seen else ""
        lines.append(f"{prefix}{operator.label()}{shared}")
        if id(operator) in seen:
            return
        seen.add(id(operator))
        for child in operator.children:
            visit(child, depth + 1)

    visit(root, 0)
    return "\n".join(lines)


def render_dot(root: Operator) -> str:
    """Render the plan DAG in Graphviz ``dot`` syntax."""
    lines = ["digraph plan {", "  node [shape=box, fontname=\"monospace\"];"]
    for operator in iter_plan(root):
        label = operator.label().replace('"', '\\"')
        lines.append(f'  n{operator.operator_id} [label="{label}"];')
    for operator in iter_plan(root):
        for child in operator.children:
            lines.append(f"  n{operator.operator_id} -> n{child.operator_id};")
    lines.append("}")
    return "\n".join(lines)
