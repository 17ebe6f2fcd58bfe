"""The wire codec: roundtrips, legacy-frame rejection, and torn-frame
resilience.

Every ZHT message on every wire is one struct-packed fixed header (magic
0xF7) followed by the raw field bytes.  These tests are the
property-style contract: every opcode and status through both the bare
message API and the length-prefixed stream framing, zero-length and
maximal fields, span decode against whole-buffer decode, incremental
framing torn at every byte offset, and rejection of the legacy varint
(protobuf-style) encoding older peers spoke.
"""

from __future__ import annotations

import pytest

from repro.core.errors import ProtocolError, Status
from repro.core.protocol import (
    FIXED_MAGIC,
    OpCode,
    Request,
    Response,
    decode_request_span,
    decode_response_span,
    deframe_span,
    encode_framed_request,
    encode_framed_response,
    frame,
)
from repro.novoht.wal import encode_varint

ALL_OPS = list(OpCode)
ALL_STATUSES = list(Status)

#: How a message is carried: ``fixed`` is the bare message (a UDP
#: datagram, a BATCH sub-message body); ``framed`` is the same message
#: behind a stream transport's length prefix, decoded in place.
PATHS = ("fixed", "framed")


def _request(op: OpCode, *, key=b"key-7", value=b"value-11") -> Request:
    return Request(
        op=op,
        key=key,
        value=value,
        request_id=2**63 + 17,
        epoch=2**31 + 3,
        partition=1023,
        replica_index=2,
        inner_op=int(OpCode.APPEND),
        payload=b"payload-13",
        deadline_us=2**53 + 5,
    )


def _response(status: Status) -> Response:
    return Response(
        status=status,
        value=b"v" * 37,
        request_id=2**40 + 1,
        epoch=7,
        redirect=b"127.0.0.1:5000",
        membership=b"{}" * 9,
        op=int(OpCode.LOOKUP),
    )


def _carry_request(path: str, request: Request) -> Request:
    if path == "fixed":
        return Request.decode(request.encode())
    wire = encode_framed_request(request)
    start, end, offset = deframe_span(wire, 0)
    assert offset == len(wire)
    return decode_request_span(wire, start, end)


def _carry_response(path: str, response: Response) -> Response:
    if path == "fixed":
        return Response.decode(response.encode())
    wire = encode_framed_response(response)
    start, end, offset = deframe_span(wire, 0)
    assert offset == len(wire)
    return decode_response_span(wire, start, end)


# ---------------------------------------------------------------------------
# The legacy varint encoding (protobuf wire format), as older peers sent it
# ---------------------------------------------------------------------------


def _legacy_varint(fields: list[tuple[int, int | bytes]]) -> bytes:
    out = bytearray()
    for num, value in fields:
        if isinstance(value, bytes):
            if value:
                out += encode_varint(num << 3 | 2) + encode_varint(len(value)) + value
        elif value:
            out += encode_varint(num << 3) + encode_varint(value)
    return bytes(out)


def legacy_varint_request(r: Request) -> bytes:
    """*r* in the retired varint message encoding (field numbers 1-10)."""
    return _legacy_varint(
        [
            (1, int(r.op)), (2, r.key), (3, r.value), (4, r.request_id),
            (5, r.epoch), (6, r.partition), (7, r.replica_index),
            (8, r.inner_op), (9, r.payload), (10, r.deadline_us),
        ]
    )


def legacy_varint_response(r: Response) -> bytes:
    """*r* in the retired varint message encoding (field numbers 1-7)."""
    return _legacy_varint(
        [
            (1, int(r.status)), (2, r.value), (3, r.request_id), (4, r.epoch),
            (5, r.redirect), (6, r.membership), (7, r.op),
        ]
    )


# ---------------------------------------------------------------------------
# Roundtrips: every opcode and status, bare and framed
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("op", ALL_OPS, ids=lambda op: op.name)
def test_request_roundtrip_every_op(path, op):
    request = _request(op)
    assert _carry_request(path, request) == request


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("status", ALL_STATUSES, ids=lambda s: s.name)
def test_response_roundtrip_every_status(path, status):
    response = _response(status)
    assert _carry_response(path, response) == response


def test_zero_length_fields():
    request = Request(op=OpCode.PING)
    response = Response()
    for path in PATHS:
        assert _carry_request(path, request) == request
        assert _carry_response(path, response) == response


def test_maximal_fields():
    big = bytes(range(256)) * 512  # 128 KiB each
    request = Request(
        op=OpCode.INSERT,
        key=big,
        value=big,
        payload=big,
        request_id=2**64 - 1,
        epoch=2**32 - 1,
        partition=2**32 - 1,
        replica_index=2**16 - 1,
        inner_op=int(OpCode.BATCH),
        deadline_us=2**64 - 1,
    )
    response = Response(
        status=Status.OK,
        value=big,
        request_id=2**64 - 1,
        epoch=2**32 - 1,
        redirect=big,
        membership=big,
        op=2**8 - 1,
    )
    for path in PATHS:
        assert _carry_request(path, request) == request
        assert _carry_response(path, response) == response


# ---------------------------------------------------------------------------
# Legacy varint messages are decode errors, never misparsed
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("op", ALL_OPS, ids=lambda op: op.name)
def test_varint_bodies_never_collide_with_magic(op):
    """A varint body never starts with 0xF7 (wire type 7 does not
    exist), so a legacy peer's message fails the magic check cleanly
    instead of being read as a fixed header."""
    wire = legacy_varint_request(_request(op))
    assert wire[:1] != bytes([FIXED_MAGIC])
    with pytest.raises(ProtocolError):
        Request.decode(wire)
    wire = legacy_varint_response(_response(Status.OK))
    assert wire[:1] != bytes([FIXED_MAGIC])
    with pytest.raises(ProtocolError):
        Response.decode(wire)


# ---------------------------------------------------------------------------
# Torn frames: feed the stream one byte at a time, tear at every offset
# ---------------------------------------------------------------------------


def test_torn_request_frames_at_every_byte_offset():
    requests = [
        _request(OpCode.INSERT),
        Request(op=OpCode.PING),
        _request(OpCode.BATCH, key=b"", value=b"x" * 300),
    ]
    stream = bytearray()
    for request in requests:
        stream += encode_framed_request(request)
    for tear in range(len(stream) + 1):
        buffer = bytearray(stream[:tear])
        decoded = []
        offset = 0
        while True:
            start, end, offset = deframe_span(buffer, offset)
            if start < 0:
                break
            decoded.append(decode_request_span(buffer, start, end))
        # Only complete frames decode; nothing raises mid-frame.
        assert decoded == requests[: len(decoded)]
        # Feeding the rest completes the stream.
        buffer += stream[tear:]
        while True:
            start, end, offset = deframe_span(buffer, offset)
            if start < 0:
                break
            decoded.append(decode_request_span(buffer, start, end))
        assert decoded == requests


def test_torn_response_frames_at_every_byte_offset():
    responses = [
        _response(Status.OK),
        Response(),
        _response(Status.REDIRECT),
    ]
    stream = bytearray()
    for response in responses:
        stream += encode_framed_response(response)
    for tear in range(len(stream) + 1):
        buffer = bytearray(stream[:tear])
        offset = 0
        decoded = []
        while True:
            start, end, offset = deframe_span(buffer, offset)
            if start < 0:
                break
            decoded.append(decode_response_span(buffer, start, end))
        assert decoded == responses[: len(decoded)]


def test_span_decode_matches_whole_buffer_decode():
    request = _request(OpCode.APPEND)
    framed = encode_framed_request(request)
    # Surround with garbage to prove span decoding reads only its slice.
    buffer = bytearray(b"\xff" * 3) + framed + bytearray(b"\xee" * 5)
    start, end, _ = deframe_span(buffer, 3)
    assert decode_request_span(buffer, start, end) == request
    assert decode_request_span(buffer, start, end) == Request.decode(
        bytes(buffer[start:end])
    )
    response = _response(Status.MIGRATING)
    buffer = bytearray(b"\xff" * 2) + encode_framed_response(response)
    start, end, _ = deframe_span(buffer, 2)
    assert decode_response_span(buffer, start, end) == Response.decode(
        bytes(buffer[start:end])
    )


def test_corrupt_fixed_header_raises():
    request = _request(OpCode.INSERT)
    wire = bytearray(request.encode())
    wire[2] = 255  # invalid opcode
    with pytest.raises(ProtocolError):
        Request.decode(bytes(wire))
    truncated = bytes(request.encode())[:10]
    with pytest.raises(ProtocolError):
        Request.decode(truncated)
    with pytest.raises(ProtocolError):
        Request.decode(b"")
    # A response is not a request (and vice versa).
    with pytest.raises(ProtocolError):
        Request.decode(Response().encode())
    with pytest.raises(ProtocolError):
        Response.decode(Request(op=OpCode.PING).encode())


def test_frame_compat_with_legacy_frame():
    """encode_framed_* must produce exactly frame(encode()) — the
    one-buffer fast path is an optimization, not a format change."""
    request = _request(OpCode.INSERT)
    response = _response(Status.OK)
    assert bytes(encode_framed_request(request)) == frame(request.encode())
    assert bytes(encode_framed_response(response)) == frame(response.encode())
