"""JSON serialisation of analysis results.

Significance analysis is an *offline* step; its results need to travel —
into build systems, dashboards, or the runtime configuration of a
deployed application.  This module renders a
:class:`~repro.scorpio.report.SignificanceReport` (and DynDFG graphs) as
plain JSON-compatible dictionaries and back-of-the-envelope round-trips
the graph structure.

:func:`report_to_json` writes reports of the compiled pipeline straight
from their columns, without building the report's graph objects: a
served ``/analyse`` body is exactly that text.  The output is byte-for-
byte ``json.dumps(report_to_dict(report), indent=2)``, which stays the
reference every other report and indent goes through.
"""

from __future__ import annotations

import json
from itertools import compress
from json.encoder import encode_basestring_ascii as _string
from math import isfinite
from operator import le
from typing import Any

from repro.intervals import Interval

from .compiled import _CompiledReport, _LazyDynDFG
from .dyndfg import DFGNode, DynDFG
from .report import SignificanceReport

__all__ = [
    "interval_to_json",
    "graph_to_dict",
    "graph_from_dict",
    "report_to_dict",
    "report_to_json",
]


def interval_to_json(value: Any) -> Any:
    """Interval -> ``{"lo":…, "hi":…}``; scalars pass through."""
    if isinstance(value, Interval):
        return {"lo": value.lo, "hi": value.hi}
    if value is None or isinstance(value, (int, float, str, bool)):
        return value
    return repr(value)


def _interval_from_json(value: Any) -> Any:
    if isinstance(value, dict) and set(value) == {"lo", "hi"}:
        return Interval(value["lo"], value["hi"])
    return value


def graph_to_dict(graph: DynDFG) -> dict:
    """DynDFG -> JSON-compatible dict (values/adjoints as interval dicts)."""
    return {
        "outputs": list(graph.outputs),
        "nodes": [
            {
                "id": node.id,
                "op": node.op,
                "label": node.label,
                "value": interval_to_json(node.value),
                "adjoint": interval_to_json(node.adjoint),
                "significance": node.significance,
                "parents": list(node.parents),
                "level": node.level,
                "merged": list(node.merged),
            }
            for node in graph
        ],
    }


def graph_from_dict(data: dict) -> DynDFG:
    """Inverse of :func:`graph_to_dict`."""
    nodes = [
        DFGNode(
            id=entry["id"],
            op=entry["op"],
            label=entry["label"],
            value=_interval_from_json(entry["value"]),
            adjoint=_interval_from_json(entry["adjoint"]),
            significance=entry["significance"],
            parents=tuple(entry["parents"]),
            merged=tuple(entry.get("merged", ())),
        )
        for entry in data["nodes"]
    ]
    return DynDFG(nodes, data["outputs"])


def report_to_dict(report: SignificanceReport) -> dict:
    """SignificanceReport -> JSON-compatible dict."""
    return {
        "partition_level": report.partition_level,
        "delta": report.scan.delta,
        "level_variances": {
            str(level): var for level, var in report.scan.variances.items()
        },
        "labelled_significances": report.labelled_significances(),
        "normalised_significances": report.normalised_significances(),
        "input_significances": report.input_significances(),
        "graph": graph_to_dict(report.graph),
        "raw_graph_size": len(report.raw_graph),
        "simplified_graph_size": len(report.simplified_graph),
    }


def report_to_json(report: SignificanceReport, indent: int | None = 2) -> str:
    """SignificanceReport -> JSON string.

    A compiled report at ``indent=2`` is written from its columns
    (:func:`_write_compiled`); the text is identical to the
    ``json.dumps`` path below, which serves every other case.
    """
    if indent == 2 and isinstance(report, _CompiledReport):
        text = _write_compiled(report)
        if text is not None:
            return text
    return json.dumps(report_to_dict(report), indent=indent)


# ----------------------------------------------------------------------
# Columnar writer: json.dumps(report_to_dict(report), indent=2), unrolled
# ----------------------------------------------------------------------
class _Unwritable(Exception):
    """A value the writer leaves to ``json.dumps``."""


_SPECIAL_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float(value: float) -> str:
    """``json``'s float text: ``float.__repr__``, NaN and infinities
    spelled as JavaScript does."""
    text = float.__repr__(value)
    return _SPECIAL_FLOATS.get(text, text)


def _scalar(value: Any) -> str:
    """``json``'s text for one scalar, in its own type-test order."""
    if isinstance(value, str):
        return _string(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float(value)
    raise _Unwritable(value)


def _flat_dict(mapping: dict, pad: str) -> str:
    """A ``{str: scalar}`` dict whose closing brace sits at ``pad``."""
    if not mapping:
        return "{}"
    if set(map(type, mapping)) != {str}:
        raise _Unwritable(mapping)
    values = list(mapping.values())
    if set(map(type, values)) == {float}:
        texts = _floats(values)
    else:
        texts = list(map(_scalar, values))
    inner = "\n" + pad + "  "
    items = map("{}: {}".format, map(_string, mapping), texts)
    return "{" + inner + ("," + inner).join(items) + "\n" + pad + "}"


def _int_list(values, pad: str) -> str:
    """A list of ints whose closing bracket sits at ``pad``."""
    if not values:
        return "[]"
    inner = ",\n" + pad + "  "
    return "[" + inner[1:] + inner.join(map(str, values)) + "\n" + pad + "]"


def _write_compiled(report: _CompiledReport) -> str | None:
    """The reference text of a compiled report, or None to defer to it.

    Reads the scan graph's ids, parents, levels and merged lists, the
    value snapshots and the adjoint columns the report was assembled
    from.  The reference path builds an :class:`Interval` per node and
    raises on a NaN or inverted bound; such reports, reports whose graph
    was already built (its nodes may have been edited) and values the
    writer has no rule for all defer to it, so its output or error
    stands.
    """
    graph = report.graph
    if not isinstance(graph, _LazyDynDFG) or graph._materialized is not None:
        return None
    vlo, vhi, is_iv = report._values
    alo, ahi = report._adjoint_columns()
    if not all(map(le, compress(vlo, is_iv), compress(vhi, is_iv))):
        return None
    if not all(map(le, alo, ahi)):
        return None
    try:
        return _compose(report, graph)
    except (_Unwritable, TypeError):
        return None


def _floats(values: list) -> list[str]:
    """:func:`_float` over a column, at C speed when all are finite."""
    texts = list(map(float.__repr__, values))
    if all(map(isfinite, values)):
        return texts
    return [_SPECIAL_FLOATS.get(text, text) for text in texts]


def _intervals(lo: list[str], hi: list[str], pad: str) -> list[str]:
    """Interval dicts from endpoint texts, closing brace at ``pad``."""
    head = "{\n" + pad + '  "lo": '
    mid = ",\n" + pad + '  "hi": '
    tail = "\n" + pad + "}"
    return [head + a + mid + b + tail for a, b in zip(lo, hi)]


def _compose(report: _CompiledReport, graph: _LazyDynDFG) -> str:
    ids, parents, merged, levels = graph.columns
    if callable(levels):
        levels = levels()
    pad = " " * 8
    vlo, vhi, is_iv = report._values
    alo, ahi = report._adjoint_columns()
    ops, labels = report._ops, report._labels

    def pick(column: list) -> list:
        return [column[i] for i in ids]

    value_lo = _floats(pick(vlo))
    values = [
        text if flag else lo
        for text, lo, flag in zip(
            _intervals(value_lo, _floats(pick(vhi)), pad),
            value_lo,
            pick(is_iv),
        )
    ]
    adjoints = _intervals(_floats(pick(alo)), _floats(pick(ahi)), pad)
    nodes = []
    for i, value, adjoint, significance in zip(
        ids, values, adjoints, _floats(pick(report._sig))
    ):
        label = labels.get(i)
        level = levels.get(i)
        nodes.append(
            f'      {{\n        "id": {i},\n'
            f'        "op": {_string(ops[i])},\n'
            f'        "label": {"null" if label is None else _scalar(label)},\n'
            f'        "value": {value},\n'
            f'        "adjoint": {adjoint},\n'
            f'        "significance": {significance},\n'
            f'        "parents": {_int_list(parents[i], pad)},\n'
            f'        "level": {"null" if level is None else int.__repr__(level)},\n'
            f'        "merged": {_int_list(merged[i] if merged is not None else (), pad)}\n'
            "      }"
        )
    node_list = "[\n" + ",\n".join(nodes) + "\n    ]" if nodes else "[]"
    scan = report.scan
    return (
        "{\n"
        f'  "partition_level": {_scalar(scan.found_level)},\n'
        f'  "delta": {_scalar(scan.delta)},\n'
        '  "level_variances": '
        + _flat_dict(
            {str(level): var for level, var in scan.variances.items()}, "  "
        )
        + ',\n  "labelled_significances": '
        + _flat_dict(report.labelled_significances(), "  ")
        + ',\n  "normalised_significances": '
        + _flat_dict(report.normalised_significances(), "  ")
        + ',\n  "input_significances": '
        + _flat_dict(report.input_significances(), "  ")
        + ',\n  "graph": {\n    "outputs": '
        + _int_list(graph.outputs, "    ")
        + ',\n    "nodes": '
        + node_list
        + "\n  },\n"
        f'  "raw_graph_size": {report._n},\n'
        f'  "simplified_graph_size": {report._simplified_n}\n'
        "}"
    )
