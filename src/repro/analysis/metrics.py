"""Static code metrics over Python sources.

They quantify the paper's *complexity* argument: the with-proxy
application is smaller (LoC), touches a narrower platform API surface,
and concentrates its business logic rather than scattering it across
callback plumbing.
"""

from __future__ import annotations

import ast
import inspect
import io
import re
import textwrap
import tokenize
from dataclasses import dataclass
from typing import Dict, FrozenSet, Set

#: Identifiers that mark direct coupling to a specific platform's API.
#: Names shared with the uniform proxy API (``add_proximity_alert``,
#: ``send_text_message``, ``proximity_event``) are deliberately excluded —
#: they would count the proxied app as platform-coupled when it is not.
PLATFORM_MARKERS: Dict[str, FrozenSet[str]] = {
    "android": frozenset(
        {
            "Intent",
            "IntentFilter",
            "IntentReceiver",
            "PendingIntent",
            "get_system_service",
            "register_receiver",
            "unregister_receiver",
            "get_boolean_extra",
            "get_current_location",
            "sms_manager",
            "http_client",
            "HttpPost",
            "HttpGet",
            "get_status_line",
            "get_entity",
            "AndroidRuntimeException",
            "LOCATION_SERVICE",
            "NO_EXPIRATION",
            "EXTRA_ENTERING",
        }
    ),
    "s60": frozenset(
        {
            "Criteria",
            "LocationProvider",
            "location_provider",
            "add_proximity_listener",
            "remove_proximity_listener",
            "set_location_listener",
            "get_instance",
            "get_qualified_coordinates",
            "location_updated",
            "monitoring_state_changed",
            "provider_state_changed",
            "Coordinates",
            "connector",
            "new_message",
            "set_payload_text",
            "set_request_method",
            "write_body",
            "get_response_code",
            "open_input_stream",
            "J2meException",
            "IOException",
            "TEXT_MESSAGE",
        }
    ),
    "webview": frozenset(
        {
            "bridge_object",
            "add_javascript_interface",
            "set_interval",
            "get_location_json",
            "set_global",
            "get_global",
            "LocationManager",
            "SmsManager",
        }
    ),
}

#: Callback entry-point names: where business logic gets scattered.
CALLBACK_ENTRY_POINTS = frozenset(
    {
        "on_receive_intent",
        "proximity_event",
        "location_updated",
        "monitoring_state_changed",
        "provider_state_changed",
        "notify_incoming_message",
        "poll_proximity",
    }
)


@dataclass(frozen=True)
class CodeMetrics:
    """Static measurements of one source body."""

    loc: int
    platform_marker_kinds: int
    platform_marker_uses: int
    cyclomatic: int
    callback_entry_points: int
    try_blocks: int


def source_of(obj) -> str:
    """Dedented source of a class/function/module."""
    return textwrap.dedent(inspect.getsource(obj))


def count_loc(source: str) -> int:
    """Logical lines of code: non-blank, non-comment, non-docstring."""
    docstring_lines = _docstring_lines(source)
    code_lines: Set[int] = set()
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    skip = {
        tokenize.COMMENT,
        tokenize.NL,
        tokenize.NEWLINE,
        tokenize.INDENT,
        tokenize.DEDENT,
        tokenize.ENDMARKER,
    }
    for token in tokens:
        if token.type in skip:
            continue
        for line in range(token.start[0], token.end[0] + 1):
            if line not in docstring_lines:
                code_lines.add(line)
    return len(code_lines)


def _docstring_lines(source: str) -> Set[int]:
    lines: Set[int] = set()
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = getattr(node, "body", [])
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                expr = body[0]
                for line in range(expr.lineno, expr.end_lineno + 1):
                    lines.add(line)
    return lines


def platform_api_surface(source: str, platform: str) -> Dict[str, int]:
    """Occurrences of each platform marker present in the source."""
    markers = PLATFORM_MARKERS[platform]
    words = re.findall(r"[A-Za-z_][A-Za-z_0-9]*", source)
    counts: Dict[str, int] = {}
    for word in words:
        if word in markers:
            counts[word] = counts.get(word, 0) + 1
    return counts


def cyclomatic_complexity(source: str) -> int:
    """McCabe-style count: 1 + decision points."""
    tree = ast.parse(source)
    decisions = 0
    for node in ast.walk(tree):
        if isinstance(
            node,
            (ast.If, ast.For, ast.While, ast.ExceptHandler, ast.IfExp, ast.Assert),
        ):
            decisions += 1
        elif isinstance(node, ast.BoolOp):
            decisions += len(node.values) - 1
        elif isinstance(node, (ast.comprehension,)):
            decisions += 1 + len(node.ifs)
    return 1 + decisions


def _count_callback_entries(source: str) -> int:
    tree = ast.parse(source)
    return sum(
        1
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name in CALLBACK_ENTRY_POINTS
    )


def _count_try_blocks(source: str) -> int:
    tree = ast.parse(source)
    return sum(1 for node in ast.walk(tree) if isinstance(node, ast.Try))


def measure(obj_or_source, platform: str) -> CodeMetrics:
    """Full metric set for a class/function or a source string."""
    source = obj_or_source if isinstance(obj_or_source, str) else source_of(obj_or_source)
    surface = platform_api_surface(source, platform)
    return CodeMetrics(
        loc=count_loc(source),
        platform_marker_kinds=len(surface),
        platform_marker_uses=sum(surface.values()),
        cyclomatic=cyclomatic_complexity(source),
        callback_entry_points=_count_callback_entries(source),
        try_blocks=_count_try_blocks(source),
    )


__all__ = [
    "CodeMetrics",
    "PLATFORM_MARKERS",
    "CALLBACK_ENTRY_POINTS",
    "count_loc",
    "cyclomatic_complexity",
    "measure",
    "platform_api_surface",
    "source_of",
]
