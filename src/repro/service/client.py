"""Asyncio client for the analysis daemon's newline-JSON protocol.

Deliberately thin: :meth:`AsyncServiceClient.request` returns the
server's response dict *verbatim* — quota and backpressure refusals
come back as ``{"ok": False, "code": ..., "retry_after": ...}``
answers for the caller to pace on, not as exceptions.  Only transport
failures (dead socket, torn frame, non-JSON bytes) raise
:class:`~repro.errors.ProtocolError`, because those mean the answer is
unknowable, not "no".  Framing and dump fields come from
:mod:`repro.wire`.

One client is one connection.  :meth:`subscribe` dedicates the
connection to the delta stream — open a second client for control
traffic while a subscription is live.
"""

from __future__ import annotations

import asyncio
from typing import AsyncIterator

from repro import wire
from repro.errors import ProtocolError


class AsyncServiceClient:
    """One newline-JSON connection to an :class:`AnalysisService`.

    >>> # client = await AsyncServiceClient.connect("127.0.0.1", 4100)
    >>> # await client.put_dump("tenant-a", b"residue...")
    >>> # await client.request("submit", tenant="tenant-a", sha256=digest)
    """

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer

    @classmethod
    async def connect(cls, host: str, port: int) -> "AsyncServiceClient":
        """Dial the daemon."""
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def request(self, op: str, **fields) -> dict:
        """Send one op, await one response dict (refusals included)."""
        self._writer.write(wire.encode({"op": op, **fields}))
        await self._writer.drain()
        line = await self._reader.readline()
        if not line:
            raise ProtocolError(
                f"connection closed before a response to {op!r}"
            )
        return wire.decode(line)

    async def put_dump(self, tenant: str, data: bytes) -> dict:
        """Upload raw dump bytes, self-attesting the sha256."""
        return await self.request(
            "put_dump", tenant=tenant, **wire.dump_fields(data, "data_b64")
        )

    async def subscribe(self) -> AsyncIterator[dict]:
        """Dedicate this connection to the delta stream.

        Yields every ``{"event": ...}`` line the daemon pushes —
        the backlog of already-completed jobs first, then live deltas
        — and returns after the terminal ``drained`` event (which is
        also yielded).  The connection is unusable for further ops.
        """
        response = await self.request("subscribe")
        if not response.get("ok"):
            raise ProtocolError(
                f"subscription refused: {response.get('error')}"
            )
        while True:
            line = await self._reader.readline()
            if not line:
                return
            event = wire.decode(line)
            yield event
            if event.get("event") == "drained":
                return

    async def close(self) -> None:
        """Close the connection.  Idempotent."""
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def __aenter__(self) -> "AsyncServiceClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()
