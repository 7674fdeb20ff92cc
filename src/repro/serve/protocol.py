"""Wire protocol for the resampling service: length-prefixed JSON.

One message is a 4-byte big-endian payload length followed by that many
bytes of UTF-8 JSON.  The framing is deliberately the same shape as the
pool's result pipes (:mod:`repro.parallel.pool`): length prefixes make
torn messages detectable (a peer that dies mid-write leaves a short
read, never a half-parsed object), and JSON keeps every payload
inspectable from the journal and the trace.

Requests are ``{"verb": ..., ...}`` objects; responses always carry a
``"status"`` field from :data:`STATUSES`:

``ok``
    The request succeeded; the rest of the object is verb-specific.
``retry_after``
    Admission control shed the request.  ``retry_after`` (seconds) and
    ``reason`` say when and why to come back — the daemon has *not*
    accepted the work (see :mod:`repro.serve.admission`).
``pending``
    A ``result`` query for a job that is accepted but not yet settled.
    A long-poll query (``wait`` seconds set) gets it when the wait
    elapsed, the daemon's parked-connection cap was full, or the daemon
    began to stop before the job settled.
``done`` / ``failed``
    A ``result`` query for a settled job.  ``done`` carries the
    handler's ``result``; ``failed`` carries the typed ``reason`` and
    ``message``.  :meth:`repro.serve.client.ServeClient.wait` treats
    either as settlement.
``not_found``
    A ``result`` query for an unknown job id.
``error``
    The request was malformed or the daemon is stopping, or a
    ``result`` query named a settled job whose journal line no longer
    verifies (the daemon never answers with unverified bytes; the
    response carries the ``job_id``).

A float64 matrix travels packed (:func:`pack_array`) in both
directions: the base64 of its C-order little-endian bytes, with its
``"<f8"`` dtype and shape; exact, and far cheaper to write and read
than decimal text.  A ``resample`` result carries its ``x`` packed, and
the shipped client sends a ``resample`` payload's ``x`` packed
(:func:`pack_payload`, :data:`PACKED_FIELDS`).  :func:`unpack_array`
reads it, and the nested lists of older results.
"""

from __future__ import annotations

import base64
import json
import struct

import numpy as np

__all__ = [
    "MAX_FRAME",
    "PACKED_FIELDS",
    "STATUSES",
    "ProtocolError",
    "error_response",
    "ok_response",
    "pack_array",
    "pack_payload",
    "read_message",
    "retry_after_response",
    "unpack_array",
    "write_message",
]

#: Length prefix: 4-byte big-endian payload size (same as the pool pipes).
_FRAME_HEADER = struct.Struct(">I")

#: Upper bound on one message; a corrupt length prefix must not make the
#: reader try to allocate gigabytes.
MAX_FRAME = 64 << 20

STATUSES = (
    "ok", "retry_after", "pending", "done", "failed", "not_found", "error",
)

#: The payload field of a job kind that the shipped client sends packed.
PACKED_FIELDS = {"resample": "x"}


class ProtocolError(RuntimeError):
    """A malformed frame: oversized, torn, or undecodable payload."""


def _recv_exact(sock, size):
    """Read exactly ``size`` bytes, or None on a clean EOF at a frame
    boundary; a torn frame (EOF mid-payload) raises ProtocolError."""
    chunks = []
    remaining = size
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 16))
        if not chunk:
            if remaining == size:
                return None
            raise ProtocolError(
                "peer closed mid-frame (%d of %d bytes missing)"
                % (remaining, size)
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_message(sock):
    """Read one JSON message; None when the peer closed cleanly."""
    header = _recv_exact(sock, _FRAME_HEADER.size)
    if header is None:
        return None
    (size,) = _FRAME_HEADER.unpack(header)
    if size > MAX_FRAME:
        raise ProtocolError(
            "frame of %d bytes exceeds the %d-byte limit" % (size, MAX_FRAME)
        )
    payload = _recv_exact(sock, size)
    if payload is None:
        raise ProtocolError("peer closed between header and payload")
    try:
        return json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError("undecodable frame payload: %s" % exc) from exc


def write_message(sock, obj):
    """Serialize ``obj`` as one length-prefixed JSON frame.

    The payload is ``obj`` with sorted keys and no whitespace.  ``bytes``
    are taken as an already-encoded payload (a response spliced around
    JSON text the daemon encoded once) and framed as they are.
    """
    if isinstance(obj, bytes):
        payload = obj
    else:
        payload = json.dumps(obj, sort_keys=True,
                             separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME:
        raise ProtocolError(
            "refusing to send a %d-byte frame (limit %d)"
            % (len(payload), MAX_FRAME)
        )
    sock.sendall(_FRAME_HEADER.pack(len(payload)) + payload)


def ok_response(**fields):
    """An ``ok`` response with verb-specific fields merged in."""
    return {"status": "ok", **fields}


def retry_after_response(retry_after, reason, **fields):
    """The structured load-shed response (work was NOT accepted)."""
    return {
        "status": "retry_after",
        "retry_after": round(float(retry_after), 3),
        "reason": reason,
        **fields,
    }


def error_response(message, **fields):
    return {"status": "error", "message": message, **fields}


def pack_array(array):
    """``array`` as float64 for a JSON result: ``{"data", "dtype",
    "shape"}``, ``data`` the base64 of its C-order little-endian bytes."""
    array = np.ascontiguousarray(array, dtype="<f8")
    return {"data": base64.b64encode(array).decode("ascii"),
            "dtype": "<f8", "shape": list(array.shape)}


def unpack_array(packed):
    """The writable float64 array :func:`pack_array` packed, or a nested
    list read as one.  ``ValueError`` on anything else: a dtype other
    than ``"<f8"``, a shape not a list of non-negative ints, data not
    base64, or a byte count other than 8 times the shape's product."""
    if isinstance(packed, list):
        try:
            return np.asarray(packed, dtype=np.float64)
        except (TypeError, OverflowError) as exc:
            raise ValueError("not a float matrix: %s" % exc) from exc
    shape = packed.get("shape") if isinstance(packed, dict) else None
    if (not isinstance(shape, list) or packed.get("dtype") != "<f8"
            or not isinstance(packed.get("data"), str)
            or not all(type(size) is int and size >= 0 for size in shape)):
        raise ValueError("not a packed <f8 array: %.80r" % (packed,))
    # binascii.Error and a size that does not fit are ValueErrors too.
    raw = base64.b64decode(packed["data"], validate=True)
    return np.frombuffer(raw, dtype="<f8").reshape(shape).copy()


def pack_payload(kind, payload):
    """``payload`` as the client sends a ``kind`` job: a copy with its
    :data:`PACKED_FIELDS` list packed (:func:`pack_array`), or, when
    there is none or it does not convert to float64, ``payload`` itself,
    which the handler then fails as it always did."""
    field = PACKED_FIELDS.get(kind)
    matrix = payload.get(field) if isinstance(payload, dict) else None
    if not isinstance(matrix, list):
        return payload
    try:
        matrix = np.asarray(matrix, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        return payload
    return {**payload, field: pack_array(matrix)}
