"""The one wire both TCP stacks speak: frames, refusals, dump fields.

The campaign fabric (:mod:`repro.campaign.runtime.fabric`) and the
analysis daemon (:mod:`repro.service.daemon`) carry different ops over
the same wire, defined here once:

- **Frames.**  One JSON object per line: sorted keys, UTF-8, ``\\n``
  at the end (:func:`encode`, :func:`decode`).  Servers skip blank
  lines and read at most :data:`MAX_LINE_BYTES` per request; a torn,
  unparseable or over-long line gets one ``bad-request`` refusal and
  the connection is dropped, with server state untouched —
  resynchronizing inside a corrupt stream is not worth guessing at.
- **Refusals.**  Requests carry ``op``; a response is
  ``{"ok": true, ...}`` or ``{"ok": false, "code": ..., "error": ...}``,
  plus ``retry_after`` seconds for ``quota`` and ``backpressure``.
  :func:`dispatch` runs a server's op table and answers each error in
  :data:`REFUSAL_CODES` with its code; the connection stays up.
- **Dumps.**  Dump bytes travel as standard base64 beside their sha256
  (:func:`dump_fields`); the receiver decodes strictly and re-hashes
  (:func:`decode_dump`), and files the bytes under the digest that
  hash gave, so bytes are never filed under a digest they do not
  match.
- **Listening.**  The threaded servers (the fabric coordinator and the
  chaos proxy) accept on an :class:`AcceptLoop`, which stops at once.

>>> frame = encode({"op": "put_dump", **dump_fields(b"residue", "data")})
>>> request = decode(frame)
>>> data, digest = decode_dump(request["data"], request["sha256"])
>>> data, digest == request["sha256"]
(b'residue', True)
>>> dispatch({}, None, {"op": "frobnicate"})["code"]
'bad-request'
"""

from __future__ import annotations

import base64
import hashlib
import json
import socket
import threading
from typing import TYPE_CHECKING, BinaryIO, Callable, Mapping

from repro.errors import (
    BackpressureError,
    DumpTransferError,
    ProtocolError,
    QuotaExceededError,
    ReproError,
    ServiceDrainingError,
    StaleLeaseError,
    UnknownDatabaseError,
    UnknownJobError,
)

if TYPE_CHECKING:
    import asyncio

MAX_LINE_BYTES = 64 * 1024 * 1024
"""Upper bound on one request line — caps a hostile upload at read
time rather than buffering an unbounded stream."""

REFUSAL_CODES: dict[type[BaseException], str] = {
    ProtocolError: "bad-request",
    KeyError: "bad-request",
    TypeError: "bad-request",
    ValueError: "bad-request",
    StaleLeaseError: "stale-lease",
    DumpTransferError: "digest-mismatch",
    FileNotFoundError: "unknown-digest",
    QuotaExceededError: "quota",
    BackpressureError: "backpressure",
    UnknownJobError: "unknown-job",
    UnknownDatabaseError: "unknown-database",
    ServiceDrainingError: "draining",
}
"""The errors a server answers rather than raises, each with its wire
code; an error takes the code of its most specific listed class."""


def encode(message: Mapping) -> bytes:
    """One frame: *message* as sorted-key JSON, UTF-8, ``\\n``-ended."""
    return json.dumps(message, sort_keys=True).encode("utf-8") + b"\n"


def decode(line: bytes) -> dict:
    """The JSON object one frame carries; anything else raises."""
    try:
        message = json.loads(line)
    except ValueError as exc:  # UnicodeDecodeError included
        raise ProtocolError("unparseable frame") from exc
    if not isinstance(message, dict):
        raise ProtocolError("frame is not a JSON object")
    return message


def _too_long() -> ProtocolError:
    return ProtocolError(f"request line exceeds {MAX_LINE_BYTES} bytes")


def read_request(stream: BinaryIO) -> dict | None:
    """The next request on a blocking stream, ``None`` at EOF; raises
    :class:`ProtocolError` for an over-long or unparseable line."""
    while True:
        line = stream.readline(MAX_LINE_BYTES + 1)
        if len(line) > MAX_LINE_BYTES and not line.endswith(b"\n"):
            raise _too_long()
        if not line:
            return None
        if not line.isspace():
            return decode(line)


async def read_request_async(reader: "asyncio.StreamReader") -> dict | None:
    """:func:`read_request` for a reader limited to MAX_LINE_BYTES."""
    while True:
        try:
            line = await reader.readline()
        except ValueError as exc:  # the line overran the reader's limit
            raise _too_long() from exc
        if not line:
            return None
        if not line.isspace():
            return decode(line)


def refusal(exc: BaseException) -> dict:
    """The ``{"ok": false, ...}`` answer to an error in REFUSAL_CODES."""
    code = next(
        REFUSAL_CODES[cls] for cls in type(exc).__mro__ if cls in REFUSAL_CODES
    )
    error = str(exc)
    if not isinstance(exc, ReproError):
        error = f"{type(exc).__name__}: {error}"
    answer = {"ok": False, "code": code, "error": error}
    if getattr(exc, "retry_after", None) is not None:
        answer["retry_after"] = exc.retry_after
    return answer


def dispatch(
    ops: Mapping[str, Callable[..., dict]], server: object, request: dict
) -> dict:
    """``ops[op](server, request)`` marked ``ok``, or the refusal for
    the error it raised; errors outside REFUSAL_CODES are bugs and
    propagate."""
    op = request.get("op")
    try:
        handler = ops.get(op)
        if handler is None:
            raise ProtocolError(f"unknown op {op!r}")
        response = handler(server, request)
    except tuple(REFUSAL_CODES) as exc:
        return refusal(exc)
    response["ok"] = True
    return response


def encode_dump(data) -> str:
    """The base64 text dump bytes travel as."""
    return base64.b64encode(data).decode("ascii")


def dump_fields(data, field: str) -> dict:
    """The ``sha256`` and base64 *field* that upload *data*."""
    digest = hashlib.sha256(data).hexdigest()
    return {"sha256": digest, field: encode_dump(data)}


def decode_dump(text, sha256: str | None) -> tuple[bytes, str]:
    """Dump bytes from strict base64 *text* and the SHA-256 they hash
    to, checked against *sha256* (``None`` skips the check).

    Bad base64 raises ``ValueError``; bytes that hash elsewhere raise
    :class:`DumpTransferError`.  The digest returned is the one
    computed here, never the claim, so a receiver files the bytes
    under it without hashing them again.
    """
    data = base64.b64decode(text, validate=True)
    digest = hashlib.sha256(data).hexdigest()
    if sha256 is not None and digest != sha256:
        raise DumpTransferError(
            f"payload hashes to {digest[:12]}… but claims to be "
            f"{str(sha256)[:12]}…"
        )
    return data, digest


class AcceptLoop:
    """A listening TCP socket whose accept loop runs on a daemon thread.

    Every accepted connection goes to *on_accept* on the loop's thread,
    so anything slow belongs on a thread of its own.  :meth:`close`
    stops the loop at once: ``close(2)`` does not wake a thread blocked
    in ``accept(2)`` but ``shutdown(2)`` does, so no timer is involved.
    :func:`socket.create_server` sets ``SO_REUSEADDR``, so a restarted
    server can bind the same port straight away.
    """

    def __init__(
        self,
        address: tuple[str, int],
        on_accept: Callable[[socket.socket], None],
        *,
        name: str,
    ) -> None:
        self._socket = socket.create_server(address)
        host, port = self._socket.getsockname()[:2]
        self.address = (str(host), int(port))
        self._on_accept = on_accept
        self._thread = threading.Thread(
            target=self._run, name=name, daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        while True:
            try:
                conn, _ = self._socket.accept()
            except OSError:
                return  # shut down by close()
            self._on_accept(conn)

    def close(self) -> None:
        """Stop listening; returns once the loop's thread has exited."""
        try:
            self._socket.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._socket.close()
        self._thread.join()
