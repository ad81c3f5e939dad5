"""Hand-rolled HTTP/1.1 over asyncio streams.

The repo's zero-heavy-deps rule extends to the daemon: no aiohttp, no
tornado — the service speaks just enough RFC 9112 for its five routes,
implemented directly on :class:`asyncio.StreamReader`/``Writer``.
What "just enough" means here:

* request line + headers + ``Content-Length`` bodies (no chunked
  uploads — a 501 tells the client to re-send measured);
* persistent connections (HTTP/1.1 default keep-alive, ``Connection:
  close`` honoured both ways) — the load bench replays thousands of
  requests per connection, so this is a throughput feature, not a
  nicety;
* hard limits on request-line, header block, and body sizes, each with
  its proper 4xx, so a confused or hostile peer cannot balloon server
  memory;
* Server-Sent Events framing for the trace-tail route.

Parsing is strict where sloppiness would hide bugs (method/target/
version shape, all-digit Content-Length) and tolerant where the spec
says to be (header case, optional whitespace).
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from urllib.parse import parse_qsl, unquote, urlsplit

__all__ = [
    "HttpError",
    "Request",
    "read_request",
    "response",
    "json_response",
    "error_response",
    "sse_preamble",
    "sse_event",
    "REASONS",
]

#: Reason phrases for every status the service emits.
REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    411: "Length Required",
    413: "Payload Too Large",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}

MAX_REQUEST_LINE = 8192
MAX_HEADER_BYTES = 32768
_CRLF = b"\r\n"


class HttpError(Exception):
    """A malformed or oversized request; maps to one 4xx/5xx response."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class Request:
    """One parsed request."""

    method: str
    target: str
    path: str
    query: dict[str, str]
    version: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        """Connection persistence per HTTP/1.0 and /1.1 defaults."""
        token = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return token == "keep-alive"
        return token != "close"

    def json(self) -> dict:
        """The body as a JSON object, or a 400 :class:`HttpError`."""
        if not self.body:
            raise HttpError(400, "expected a JSON body")
        try:
            doc = json.loads(self.body)
        except ValueError as exc:
            raise HttpError(400, f"body is not valid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise HttpError(400, "JSON body must be an object")
        return doc


async def _read_line(reader: asyncio.StreamReader, limit: int) -> bytes:
    """One CRLF-terminated line, or an :class:`HttpError` on overflow."""
    try:
        line = await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:
        # EOF mid-line: treat whatever arrived as the (final) line.
        line = exc.partial
    except asyncio.LimitOverrunError:
        raise HttpError(431, "header line exceeds the stream limit") from None
    if len(line) > limit:
        raise HttpError(431, f"line longer than {limit} bytes")
    return line.rstrip(b"\r\n")


def _parse_request_line(raw: bytes) -> tuple[str, str, str]:
    try:
        text = raw.decode("ascii")
    except UnicodeDecodeError:
        raise HttpError(400, "request line is not ASCII") from None
    parts = text.split(" ")
    if len(parts) != 3:
        raise HttpError(400, f"malformed request line: {text!r}")
    method, target, version = parts
    if not method.isalpha() or method != method.upper():
        raise HttpError(400, f"malformed method: {method!r}")
    if version not in ("HTTP/1.0", "HTTP/1.1"):
        raise HttpError(400, f"unsupported protocol version {version!r}")
    return method, target, version


async def read_request(
    reader: asyncio.StreamReader, max_body: int = 1 << 20
) -> Request | None:
    """Parse one request off the stream; ``None`` on a clean EOF.

    Raises :class:`HttpError` for anything malformed or oversized; the
    caller turns that into the matching 4xx and closes the connection
    (a parse error leaves the stream position undefined, so the
    connection is never reusable afterwards).
    """
    raw_line = await _read_line(reader, MAX_REQUEST_LINE)
    if not raw_line:
        return None
    method, target, version = _parse_request_line(raw_line)

    headers: dict[str, str] = {}
    total = 0
    while True:
        line = await _read_line(reader, MAX_HEADER_BYTES)
        if not line:
            break
        total += len(line)
        if total > MAX_HEADER_BYTES:
            raise HttpError(431, "header block too large")
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep or not name.strip():
            raise HttpError(400, f"malformed header line: {line!r}")
        # Later duplicates join with a comma, per RFC 9110 §5.2.
        key = name.strip().lower()
        value = value.strip()
        headers[key] = (
            f"{headers[key]}, {value}" if key in headers else value
        )

    if "transfer-encoding" in headers:
        raise HttpError(501, "chunked request bodies are not supported")

    body = b""
    if "content-length" in headers:
        # RFC 9110 §8.6: 1*DIGIT.  int() would also take "+3", "1_0"
        # and non-ASCII digits.
        raw_length = headers["content-length"]
        if not (raw_length.isascii() and raw_length.isdigit()):
            raise HttpError(400, "Content-Length is not a decimal integer")
        length = int(raw_length)
        if length > max_body:
            raise HttpError(413, f"body exceeds {max_body} bytes")
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise HttpError(400, "connection closed mid-body") from None
    elif method in ("POST", "PUT", "PATCH"):
        raise HttpError(411, f"{method} requires a Content-Length")

    try:
        split = urlsplit(target)
    except ValueError as exc:  # e.g. an unbalanced IPv6 bracket: "//[x"
        raise HttpError(400, f"malformed request target: {exc}") from None
    query = dict(parse_qsl(split.query, keep_blank_values=True))
    return Request(
        method=method,
        target=target,
        path=unquote(split.path) or "/",
        query=query,
        version=version,
        headers=headers,
        body=body,
    )


def response(
    status: int,
    body: bytes = b"",
    content_type: str = "application/json",
    keep_alive: bool = True,
    extra_headers: dict[str, str] | None = None,
) -> bytes:
    """A complete response as bytes, ready for one ``writer.write``."""
    reason = REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    head = "\r\n".join(lines).encode("ascii") + _CRLF + _CRLF
    return head + body


def json_response(status: int, doc: dict, keep_alive: bool = True) -> bytes:
    """A JSON response; keys sorted so identical answers are identical
    bytes (the bench diffs hit responses across the replay)."""
    body = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    ) + b"\n"
    return response(status, body, keep_alive=keep_alive)


def error_response(status: int, message: str, keep_alive: bool = False) -> bytes:
    return json_response(
        status, {"error": message, "status": status}, keep_alive=keep_alive
    )


def sse_preamble() -> bytes:
    """Headers opening a Server-Sent Events stream.

    SSE responses have no Content-Length; the stream ends when the
    server closes the connection, so keep-alive is necessarily off.
    """
    return (
        b"HTTP/1.1 200 OK\r\n"
        b"Content-Type: text/event-stream\r\n"
        b"Cache-Control: no-cache\r\n"
        b"Connection: close\r\n"
        b"\r\n"
    )


def sse_event(data: str, event: str | None = None) -> bytes:
    """One SSE frame; multi-line data becomes multiple ``data:`` lines."""
    lines = []
    if event is not None:
        lines.append(f"event: {event}")
    for chunk in data.split("\n"):
        lines.append(f"data: {chunk}")
    return ("\n".join(lines) + "\n\n").encode("utf-8")
