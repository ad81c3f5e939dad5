"""Unit tests for the hand-rolled HTTP/1.1 layer under ``repro serve``."""

from __future__ import annotations

import asyncio
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.serve.http import (
    MAX_REQUEST_LINE,
    HttpError,
    error_response,
    json_response,
    read_request,
    response,
    sse_event,
    sse_preamble,
)


def parse(raw: bytes, max_body: int = 1 << 20):
    """Feed ``raw`` to the parser as one closed stream."""

    async def _go():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader, max_body=max_body)

    return asyncio.run(_go())


def parse_error(raw: bytes, max_body: int = 1 << 20) -> HttpError:
    with pytest.raises(HttpError) as caught:
        parse(raw, max_body=max_body)
    return caught.value


class TestRequestParsing:
    def test_simple_get(self):
        req = parse(b"GET /stats HTTP/1.1\r\nHost: x\r\n\r\n")
        assert req.method == "GET"
        assert req.path == "/stats"
        assert req.query == {}
        assert req.version == "HTTP/1.1"
        assert req.headers["host"] == "x"
        assert req.body == b""

    def test_query_string_and_percent_decoding(self):
        req = parse(b"GET /traces/a%2Fb/tail?limit=5&flag= HTTP/1.1\r\n\r\n")
        assert req.path == "/traces/a/b/tail"
        assert req.query == {"limit": "5", "flag": ""}

    def test_post_body_roundtrip(self):
        doc = {"exp_id": "fig09"}
        body = json.dumps(doc).encode()
        raw = (
            b"POST /experiments HTTP/1.1\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode()
            + body
        )
        req = parse(raw)
        assert req.body == body
        assert req.json() == doc

    def test_clean_eof_returns_none(self):
        assert parse(b"") is None

    def test_duplicate_headers_join_with_comma(self):
        req = parse(b"GET / HTTP/1.1\r\nX-A: 1\r\nX-A: 2\r\n\r\n")
        assert req.headers["x-a"] == "1, 2"

    def test_empty_target_path_normalizes_to_slash(self):
        req = parse(b"GET ?q=1 HTTP/1.1\r\n\r\n")
        assert req.path == "/"


class TestKeepAlive:
    def test_http11_defaults_on(self):
        assert parse(b"GET / HTTP/1.1\r\n\r\n").keep_alive is True

    def test_http11_close_honoured(self):
        raw = b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n"
        assert parse(raw).keep_alive is False

    def test_http10_defaults_off(self):
        assert parse(b"GET / HTTP/1.0\r\n\r\n").keep_alive is False

    def test_http10_opt_in(self):
        raw = b"GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n"
        assert parse(raw).keep_alive is True


class TestParseErrors:
    def test_malformed_request_line_is_400(self):
        assert parse_error(b"GET /\r\n\r\n").status == 400

    def test_unknown_version_is_400(self):
        assert parse_error(b"GET / HTTP/2.0\r\n\r\n").status == 400

    def test_lowercase_method_is_400(self):
        assert parse_error(b"get / HTTP/1.1\r\n\r\n").status == 400

    def test_malformed_header_line_is_400(self):
        assert parse_error(b"GET / HTTP/1.1\r\nnocolon\r\n\r\n").status == 400

    def test_post_without_length_is_411(self):
        assert parse_error(b"POST /x HTTP/1.1\r\n\r\n").status == 411

    def test_get_without_length_has_no_body_requirement(self):
        assert parse(b"GET /x HTTP/1.1\r\n\r\n").body == b""

    def test_oversized_body_is_413(self):
        raw = b"POST /x HTTP/1.1\r\nContent-Length: 100\r\n\r\n" + b"a" * 100
        assert parse_error(raw, max_body=10).status == 413

    def test_non_integer_length_is_400(self):
        raw = b"POST /x HTTP/1.1\r\nContent-Length: ten\r\n\r\n"
        assert parse_error(raw).status == 400

    def test_negative_length_is_400(self):
        raw = b"POST /x HTTP/1.1\r\nContent-Length: -5\r\n\r\n"
        assert parse_error(raw).status == 400

    @pytest.mark.parametrize("spelling", [b"1_0", b"+3", b"0x5", b"3.0"])
    def test_only_decimal_digits_are_a_length(self, spelling):
        # int() accepts "1_0" (as 10) and "+3"; RFC 9110 allows 1*DIGIT.
        raw = b"POST /x HTTP/1.1\r\nContent-Length: " + spelling + b"\r\n\r\n"
        assert parse_error(raw + b"a" * 10).status == 400

    def test_unbalanced_ipv6_bracket_in_target_is_400(self):
        # urlsplit raises a bare ValueError for "//[x"; the daemon would
        # drop the connection instead of answering.
        assert parse_error(b"GET //[x HTTP/1.1\r\n\r\n").status == 400

    def test_truncated_body_is_400(self):
        raw = b"POST /x HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort"
        assert parse_error(raw).status == 400

    def test_chunked_upload_is_501(self):
        raw = b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
        assert parse_error(raw).status == 501

    def test_huge_request_line_is_431(self):
        raw = b"GET /" + b"a" * (MAX_REQUEST_LINE + 10) + b" HTTP/1.1\r\n\r\n"
        assert parse_error(raw).status == 431

    def test_huge_header_block_is_431(self):
        filler = b"".join(
            b"X-Pad-%d: %s\r\n" % (i, b"v" * 4000) for i in range(10)
        )
        raw = b"GET / HTTP/1.1\r\n" + filler + b"\r\n"
        assert parse_error(raw).status == 431


#: Request-line and header material: arbitrary bytes, plus the URL and
#: framing characters the parser's corner cases are made of.
_PIECE = st.one_of(
    st.binary(max_size=24),
    st.text(alphabet="/[]:@?#%&=.;x0-9 +_\t\r\n", max_size=16).map(str.encode),
)


class TestParserFuzz:
    @settings(max_examples=300, deadline=None)
    @given(
        method=st.one_of(st.sampled_from([b"GET", b"POST", b"get"]), _PIECE),
        target=st.one_of(st.just(b"/"), _PIECE),
        version=st.one_of(st.sampled_from([b"HTTP/1.1", b"HTTP/1.0"]), _PIECE),
        headers=st.lists(st.tuples(_PIECE, _PIECE), max_size=4),
        length=st.one_of(
            st.none(),
            st.integers(min_value=-3, max_value=40).map(lambda n: str(n).encode()),
            _PIECE,
        ),
        body=st.binary(max_size=48),
    )
    @example(
        method=b"GET", target=b"//[x", version=b"HTTP/1.1", headers=[],
        length=None, body=b"",
    )
    @example(
        method=b"POST", target=b"/x", version=b"HTTP/1.1", headers=[],
        length=b"1_0", body=b"a" * 10,
    )
    def test_parser_answers_or_rejects(
        self, method, target, version, headers, length, body
    ):
        """Any input gives a Request or an HttpError, never another
        exception, and an accepted body is exactly 1*DIGIT long."""
        lines = [method + b" " + target + b" " + version]
        lines += [name + b": " + value for name, value in headers]
        if length is not None:
            lines.append(b"Content-Length: " + length)
        raw = b"\r\n".join(lines) + b"\r\n\r\n" + body
        try:
            req = parse(raw)
        except HttpError as exc:
            assert 400 <= exc.status < 600
            return
        if req is not None and "content-length" in req.headers:
            declared = req.headers["content-length"]
            assert declared.isascii() and declared.isdigit()
            assert len(req.body) == int(declared)


class TestRequestJson:
    def test_empty_body_is_400(self):
        req = parse(b"GET / HTTP/1.1\r\n\r\n")
        with pytest.raises(HttpError) as caught:
            req.json()
        assert caught.value.status == 400

    def test_invalid_json_is_400(self):
        raw = b"POST /x HTTP/1.1\r\nContent-Length: 4\r\n\r\n{not"
        req = parse(raw)
        with pytest.raises(HttpError) as caught:
            req.json()
        assert caught.value.status == 400

    def test_non_object_json_is_400(self):
        raw = b"POST /x HTTP/1.1\r\nContent-Length: 7\r\n\r\n[1,2,3]"
        req = parse(raw)
        with pytest.raises(HttpError) as caught:
            req.json()
        assert caught.value.status == 400


class TestResponses:
    def test_response_shape(self):
        raw = response(200, b"hi", content_type="text/plain")
        head, _, body = raw.partition(b"\r\n\r\n")
        assert body == b"hi"
        lines = head.decode().split("\r\n")
        assert lines[0] == "HTTP/1.1 200 OK"
        assert "Content-Length: 2" in lines
        assert "Connection: keep-alive" in lines

    def test_json_response_is_canonical_bytes(self):
        # Identical documents must serialize to identical bytes — the
        # bench diffs hit responses across its replay.
        a = json_response(200, {"b": 1, "a": 2})
        b = json_response(200, {"a": 2, "b": 1})
        assert a == b
        assert b'"a":2,"b":1' in a

    def test_error_response_defaults_to_close(self):
        raw = error_response(404, "nope")
        assert b"Connection: close" in raw
        assert b'"status":404' in raw

    def test_sse_preamble_has_no_length_and_closes(self):
        raw = sse_preamble()
        assert b"Content-Type: text/event-stream" in raw
        assert b"Content-Length" not in raw
        assert b"Connection: close" in raw

    def test_sse_event_framing(self):
        assert sse_event("x") == b"data: x\n\n"
        assert sse_event("x", event="end") == b"event: end\ndata: x\n\n"
        assert sse_event("a\nb") == b"data: a\ndata: b\n\n"
