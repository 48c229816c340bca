"""The two span shapes the pipeline handles, and the retained form.

The pipeline runs in two modes: live (a tracer sink receiving ``Span``
objects) and offline (``python -m repro.obs health`` replaying a JSONL
export, where each span is already a plain dict).  Both feed one
decision with the root's fields read out, and only a kept trace is
converted — the live path must not pay ``to_dict`` for the ~99% of
traces sampling drops.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Union

from repro.obs.span import Span

SpanLike = Union[Span, Dict[str, Any]]


def record_from_span(
    span: SpanLike, *, source: Optional[str] = None
) -> Dict[str, Any]:
    """The retained dict form (deterministic: virtual time only), with
    the pipeline's ``source`` tag when one was attached."""
    record = dict(span) if isinstance(span, dict) else span.to_dict()
    if source is not None and "source" not in record:
        record["source"] = source
    return record
