"""Wire codec micro-benchmark: struct-packed fixed vs varint headers.

In a zero-hop DHT the per-request server overhead *is* the latency
budget, so the codec sits on every hot path (wire framing and the WAL).
This gates the point of the fixed codec: encode+decode of a typical
request/response pair must be at least 1.5x faster than the varint
(protobuf wire format) codec it replaced.  The varint codec is no
longer on any wire, so this file keeps a minimal reference encoder and
decoder of its own for the comparison.
"""

import time

from _util import emit_json, fmt, fmt_int, print_table, scales

from repro.core.errors import ProtocolError, Status
from repro.core.protocol import (
    OpCode,
    Request,
    Response,
    decode_request_span,
    decode_response_span,
    deframe_span,
    encode_framed_request,
    encode_framed_response,
)
from repro.novoht.wal import decode_varint, encode_varint

N = scales(small=(20_000,), paper=(200_000,))[0]

#: The paper's benchmark op shape: short key, 132-byte value.
REQUEST = Request(
    op=OpCode.INSERT,
    key=b"key-00001234",
    value=b"v" * 132,
    request_id=123_456_789,
    epoch=7,
)
RESPONSE = Response(value=b"v" * 132, request_id=123_456_789, epoch=7)


# -- reference varint codec (tag = field << 3 | wire type; 0 varint, 2 bytes)


def _varint_message(fields) -> bytearray:
    out = bytearray()
    for num, value in fields:
        if isinstance(value, bytes):
            if value:
                out += encode_varint(num << 3 | 2)
                out += encode_varint(len(value))
                out += value
        elif value:
            out += encode_varint(num << 3)
            out += encode_varint(value)
    return out


def _varint_framed(fields) -> bytearray:
    body = _varint_message(fields)
    return bytearray(encode_varint(len(body))) + body


def _varint_fields(data: bytes) -> dict:
    fields = {}
    pos = 0
    try:
        while pos < len(data):
            tag, pos = decode_varint(data, pos)
            num, wire_type = tag >> 3, tag & 0x7
            if wire_type == 0:
                fields[num], pos = decode_varint(data, pos)
            elif wire_type == 2:
                length, pos = decode_varint(data, pos)
                if pos + length > len(data):
                    raise ValueError("length-delimited field overruns buffer")
                fields[num] = data[pos : pos + length]
                pos += length
            else:
                raise ValueError(f"unsupported wire type {wire_type}")
    except ValueError as exc:
        raise ProtocolError(f"malformed message: {exc}") from exc
    return fields


def _int(fields: dict, num: int) -> int:
    value = fields.get(num, 0)
    if not isinstance(value, int):
        raise ProtocolError(f"field {num} has wrong wire type")
    return value


def _bytes(fields: dict, num: int) -> bytes:
    value = fields.get(num, b"")
    if not isinstance(value, bytes):
        raise ProtocolError(f"field {num} has wrong wire type")
    return value


def varint_encode_request(r: Request) -> bytearray:
    return _varint_framed(
        [
            (1, int(r.op)), (2, r.key), (3, r.value), (4, r.request_id),
            (5, r.epoch), (6, r.partition), (7, r.replica_index),
            (8, r.inner_op), (9, r.payload), (10, r.deadline_us),
        ]
    )


def varint_decode_request(buf, start: int, end: int) -> Request:
    fields = _varint_fields(bytes(buf[start:end]))
    return Request(
        op=OpCode(_int(fields, 1)),
        key=_bytes(fields, 2),
        value=_bytes(fields, 3),
        request_id=_int(fields, 4),
        epoch=_int(fields, 5),
        partition=_int(fields, 6),
        replica_index=_int(fields, 7),
        inner_op=_int(fields, 8),
        payload=_bytes(fields, 9),
        deadline_us=_int(fields, 10),
    )


def varint_encode_response(r: Response) -> bytearray:
    return _varint_framed(
        [
            (1, int(r.status)), (2, r.value), (3, r.request_id), (4, r.epoch),
            (5, r.redirect), (6, r.membership), (7, r.op),
        ]
    )


def varint_decode_response(buf, start: int, end: int) -> Response:
    fields = _varint_fields(bytes(buf[start:end]))
    return Response(
        status=Status(_int(fields, 1)),
        value=_bytes(fields, 2),
        request_id=_int(fields, 3),
        epoch=_int(fields, 4),
        redirect=_bytes(fields, 5),
        membership=_bytes(fields, 6),
        op=_int(fields, 7),
    )


CODECS = {
    "fixed": (
        encode_framed_request,
        decode_request_span,
        encode_framed_response,
        decode_response_span,
    ),
    "varint": (
        varint_encode_request,
        varint_decode_request,
        varint_encode_response,
        varint_decode_response,
    ),
}


def _roundtrip(codec: str) -> float:
    """Seconds for N framed encode+decode request/response pairs."""
    encode_request, decode_request, encode_response, decode_response = CODECS[codec]
    start = time.perf_counter()
    for _ in range(N):
        wire = encode_request(REQUEST)
        s, e, _ = deframe_span(wire, 0)
        decode_request(wire, s, e)
        wire = encode_response(RESPONSE)
        s, e, _ = deframe_span(wire, 0)
        decode_response(wire, s, e)
    return time.perf_counter() - start


def test_reference_varint_codec_roundtrips():
    """The reference varint codec carries the same messages, so the
    speed comparison is like for like."""
    wire = varint_encode_request(REQUEST)
    s, e, _ = deframe_span(wire, 0)
    assert varint_decode_request(wire, s, e) == REQUEST
    wire = varint_encode_response(RESPONSE)
    s, e, _ = deframe_span(wire, 0)
    assert varint_decode_response(wire, s, e) == RESPONSE


def generate_series():
    _roundtrip("fixed")  # warm both paths
    _roundtrip("varint")
    varint = _roundtrip("varint")
    fixed = _roundtrip("fixed")
    speedup = varint / fixed
    rows = [
        ("varint", fmt_int(N / varint), "1.00"),
        ("fixed", fmt_int(N / fixed), fmt(speedup, 2)),
    ]
    return rows, speedup


def test_codec_speedup(benchmark):
    rows, speedup = generate_series()
    print_table(
        "Wire codec: framed encode+decode (request+response pairs/s)",
        ["codec", "pairs/s", "relative"],
        rows,
        note=f"fixed must be >= 1.5x varint; measured {speedup:.2f}x",
    )
    emit_json("codec", ["codec", "pairs_per_s", "relative"], rows)
    assert speedup >= 1.5
    benchmark(lambda: _roundtrip("fixed"))
