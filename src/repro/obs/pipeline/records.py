"""Uniform accessors over live :class:`Span` objects and exported dicts.

The pipeline runs in two modes: live (a tracer sink receiving ``Span``
objects) and offline (``python -m repro.obs health`` replaying a JSONL
export, where each span is already a plain dict).  The sampling and
rollup logic is identical in both, so these accessors normalize the two
shapes instead of forcing an up-front conversion — the live fast path
must not pay ``to_dict`` for the ~99% of traces sampling drops.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Union

from repro.obs.span import Span

SpanLike = Union[Span, Dict[str, Any]]


def span_name(span: SpanLike) -> str:
    return span["name"] if isinstance(span, dict) else span.name


def span_trace_id(span: SpanLike) -> int:
    return span["trace_id"] if isinstance(span, dict) else span.trace_id


def span_parent_id(span: SpanLike) -> Optional[int]:
    return span.get("parent_id") if isinstance(span, dict) else span.parent_id


def span_status(span: SpanLike) -> str:
    if isinstance(span, dict):
        return span.get("status", "ok")
    return span.status


def span_attributes(span: SpanLike) -> Dict[str, Any]:
    if isinstance(span, dict):
        return span.get("attributes") or {}
    return span.attributes


def span_duration_ms(span: SpanLike) -> float:
    """Virtual duration (0.0 for unfinished spans)."""
    if isinstance(span, dict):
        start = span.get("start_virtual_ms") or 0.0
        end = span.get("end_virtual_ms")
        return (end - start) if end is not None else 0.0
    return span.duration_virtual_ms


def record_from_span(
    span: SpanLike, *, source: Optional[str] = None
) -> Dict[str, Any]:
    """The retained dict form (deterministic: virtual time only), with
    the pipeline's ``source`` tag when one was attached."""
    record = dict(span) if isinstance(span, dict) else span.to_dict()
    if source is not None and "source" not in record:
        record["source"] = source
    return record
