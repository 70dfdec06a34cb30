"""EXPLAIN-style plan rendering.

Produces indented plan trees in the visual style of PostgreSQL's
``EXPLAIN`` statement, which the paper shows in Figure 13 for the rewriting
of query Q2.  Works for both logical and physical plans.

Example output::

    Hash Join  (rows=224865665)
      Hash Cond: (u_l_shipdate.tid = u_l_quantity.tid)
      Join Filter: ((u_l_quantity.c1 <> u_l_shipdate.c1) OR ...)
      ->  Seq Scan on u_l_shipdate  (rows=2088896)
            Filter: ((l_shipdate > '1994-01-01') AND ...)
      ->  Seq Scan on u_l_quantity  (rows=2362101)

:func:`explain_analyze` additionally *runs* the plan through the
executor and annotates every operator with the rows and batches it actually
produced (the analogue of ``EXPLAIN ANALYZE``)::

    Hash Join  (rows=240) (actual rows=182 batches=1)
"""

from __future__ import annotations

from typing import List, Tuple, Union

from .algebra import Plan
from .physical import BATCH_SIZE, PhysicalPlan, execute
from .relation import Relation

__all__ = ["explain", "explain_logical", "explain_analyze"]


def explain(plan: Union[PhysicalPlan, Plan]) -> str:
    """Render a plan tree as an indented EXPLAIN string."""
    if isinstance(plan, Plan):
        return explain_logical(plan)
    lines: List[str] = []
    _render_physical(plan, lines, depth=0, arrow=False)
    return "\n".join(lines)


def explain_analyze(
    plan: PhysicalPlan,
    batch_size: int = BATCH_SIZE,
    mode: str = "columns",
    trace: bool = False,
):
    """Execute a physical plan and render it with actual row counts.

    Returns ``(result, text)`` where every operator line carries the rows
    and batch count it produced during this execution.  The counters
    belong to the executor, so ``mode="rows"`` (whose reference iterators
    keep none) runs the executor over the given tree as well; for a fused
    plan the counts are *per pipeline* — a ``Fused Pipeline`` line reports
    the rows surviving its entire scan→filter→project chain, and a join
    with a folded ``Output:`` projection reports post-projection rows —
    because the fused-away operators no longer exist to count separately.

    With ``trace=True`` returns ``(result, text, data)`` where ``data`` is
    the structured span/operator form the observability layer uses: the
    execution's span tree (``{"name": "explain_analyze", "children":
    [...], ...}``) plus an ``operators`` entry — the nested
    estimate-vs-actual dict of :meth:`PhysicalPlan.actuals` — instead of
    only the rendered text.
    """
    from ..obs import span as obs_span
    from ..obs import start_trace

    if mode == "rows":
        mode = "columns"  # rows() keeps no counters; the executor does
    if trace:
        with start_trace("explain_analyze", force=True) as trace_obj:
            with obs_span("execute") as exec_span:
                result = execute(plan, mode=mode, batch_size=batch_size)
                exec_span.set(operators=plan.actuals())
        lines: List[str] = []
        _render_physical(plan, lines, depth=0, arrow=False, analyze=True)
        data = trace_obj.to_dict()
        data["operators"] = plan.actuals()
        return result, "\n".join(lines), data
    result = execute(plan, mode=mode, batch_size=batch_size)
    lines: List[str] = []
    _render_physical(plan, lines, depth=0, arrow=False, analyze=True)
    return result, "\n".join(lines)


def _render_physical(
    node: PhysicalPlan, lines: List[str], depth: int, arrow: bool, analyze: bool = False
) -> None:
    indent = "  " * depth
    prefix = f"{indent}->  " if arrow else indent
    rows = int(node.estimated_rows)
    header = f"{prefix}{node.explain_label()}  (rows={rows})"
    if analyze and node.actual_rows is not None:
        header += f" (actual rows={node.actual_rows} batches={node.actual_batches})"
    lines.append(header)
    detail_indent = "  " * depth + ("      " if arrow else "  ")
    for detail in node.explain_details():
        lines.append(f"{detail_indent}{detail}")
    for child in node.children:
        _render_physical(child, lines, depth + (2 if arrow else 1), arrow=True, analyze=analyze)


def explain_logical(plan: Plan) -> str:
    """Render a logical plan tree (operator labels, no cost estimates)."""
    lines: List[str] = []

    def render(node: Plan, depth: int) -> None:
        indent = "  " * depth
        lines.append(f"{indent}{node.node_label()}")
        for child in node.children:
            render(child, depth + 1)

    render(plan, 0)
    return "\n".join(lines)
