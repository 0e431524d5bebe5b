"""The shared wire (:mod:`repro.wire`): frame codec, refusal table,
dump fields, and the bytes the fabric and the analysis daemon put on
the socket through it."""

from __future__ import annotations

import asyncio
import base64
import hashlib
import json
import socket
import threading

import pytest

from fabric_chaos import build_coordinator
from repro import wire
from repro.campaign import CampaignSpec
from repro.campaign.runtime.fabric import FabricClient
from repro.errors import (
    BackpressureError,
    DumpTransferError,
    FabricProtocolError,
    ProtocolError,
    QuotaExceededError,
    ServiceDrainingError,
    StaleLeaseError,
    UnknownDatabaseError,
    UnknownJobError,
)
from repro.service.client import AsyncServiceClient
from repro.service.daemon import AnalysisService

DUMP = bytes(range(256)) * 3 + b"residue"


class TestFrames:
    def test_encode_writes_one_sorted_key_json_line(self):
        assert wire.encode({"op": "hello", "b": [1], "a": None}) == (
            b'{"a": null, "b": [1], "op": "hello"}\n'
        )

    def test_decode_round_trips_an_object(self):
        message = {"op": "status", "job_id": 3}
        assert wire.decode(wire.encode(message)) == message

    @pytest.mark.parametrize(
        "line", [b'{"op": "wa\n', b"[1, 2]\n", b"\xff\xfe\xfd\n", b"\n"]
    )
    def test_decode_refuses_anything_but_one_json_object(self, line):
        with pytest.raises(ProtocolError):
            wire.decode(line)

    def test_fabric_protocol_error_is_a_protocol_error(self):
        assert issubclass(FabricProtocolError, ProtocolError)


def _raise(exc):
    def handler(server, request):
        raise exc

    return handler


class TestDispatch:
    @pytest.mark.parametrize(
        "exc, code",
        [
            (KeyError("lease"), "bad-request"),
            (TypeError("unhashable"), "bad-request"),
            (ValueError("invalid literal"), "bad-request"),
            (StaleLeaseError("b0e1"), "stale-lease"),
            (DumpTransferError("hash"), "digest-mismatch"),
            (FileNotFoundError("no object"), "unknown-digest"),
            (UnknownJobError(9), "unknown-job"),
            (UnknownDatabaseError("nope"), "unknown-database"),
            (ServiceDrainingError("draining"), "draining"),
        ],
    )
    def test_each_typed_error_answers_its_code(self, exc, code):
        answer = wire.dispatch({"op": _raise(exc)}, None, {"op": "op"})
        assert answer.pop("error")
        assert answer == {"ok": False, "code": code}

    @pytest.mark.parametrize(
        "exc",
        [QuotaExceededError("t", "upload", 2.5), BackpressureError(2.5)],
    )
    def test_pacing_refusals_carry_retry_after(self, exc):
        answer = wire.dispatch({"op": _raise(exc)}, None, {"op": "op"})
        assert answer["retry_after"] == 2.5

    @pytest.mark.parametrize("op", ["frobnicate", None, ["op"]])
    def test_unknown_or_unhashable_op_is_bad_request(self, op):
        ops = {"hello": _raise(KeyError())}
        answer = wire.dispatch(ops, None, {"op": op})
        assert answer["code"] == "bad-request"

    def test_success_is_marked_ok_and_unlisted_errors_propagate(self):
        ops = {
            "echo": lambda server, request: {"x": request["x"], "by": server},
            "bug": _raise(RuntimeError("a bug, not an answer")),
        }
        assert wire.dispatch(ops, "s", {"op": "echo", "x": 1}) == {
            "x": 1, "by": "s", "ok": True,
        }
        with pytest.raises(RuntimeError):
            wire.dispatch(ops, "s", {"op": "bug"})


class TestDumpFields:
    def test_fields_round_trip_through_a_strict_decode(self):
        fields = wire.dump_fields(DUMP, "data")
        assert fields["sha256"] == hashlib.sha256(DUMP).hexdigest()
        assert wire.decode_dump(fields["data"], fields["sha256"]) == (
            DUMP, fields["sha256"]
        )

    def test_malformed_base64_is_a_value_error(self):
        with pytest.raises(ValueError):
            wire.decode_dump("!!!not-base64!!!", None)
        with pytest.raises(ValueError):
            wire.decode_dump("cmVzaWR1ZQ==\n", None)  # strict: no newline

    def test_bytes_that_hash_elsewhere_are_refused(self):
        text = wire.encode_dump(b"residue")
        with pytest.raises(DumpTransferError):
            wire.decode_dump(text, hashlib.sha256(b"other").hexdigest())
        assert wire.decode_dump(text, None) == (
            b"residue", hashlib.sha256(b"residue").hexdigest()
        )


# ---------------------------------------------------------------------------
# the bytes on the socket


class _OneShotServer:
    """A listener that records one request line and answers *reply*."""

    def __init__(self, reply: dict) -> None:
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.address = self._listener.getsockname()[:2]
        self.line = b""
        self._thread = threading.Thread(
            target=self._serve, args=(wire.encode(reply),), daemon=True
        )
        self._thread.start()

    def _serve(self, reply: bytes) -> None:
        conn, _ = self._listener.accept()
        with conn, conn.makefile("rwb") as stream:
            self.line = stream.readline()
            stream.write(reply)
            stream.flush()

    def close(self) -> None:
        self._thread.join(timeout=10)
        self._listener.close()


class TestBytesOnTheWire:
    def test_fabric_put_dump_frame(self):
        server = _OneShotServer({"ok": True, "deduplicated": False})
        with FabricClient(*server.address, timeout=10) as client:
            client.put_dump(DUMP)
        server.close()
        expected = {
            "op": "put_dump",
            "sha256": hashlib.sha256(DUMP).hexdigest(),
            "data": base64.b64encode(DUMP).decode("ascii"),
        }
        assert server.line == (
            json.dumps(expected, sort_keys=True).encode("utf-8") + b"\n"
        )

    def test_service_put_dump_frame(self):
        server = _OneShotServer({"ok": True, "deduplicated": False})

        async def upload():
            client = await AsyncServiceClient.connect(*server.address)
            async with client:
                await client.put_dump("tenant-a", DUMP)

        asyncio.run(upload())
        server.close()
        expected = {
            "op": "put_dump",
            "tenant": "tenant-a",
            "sha256": hashlib.sha256(DUMP).hexdigest(),
            "data_b64": base64.b64encode(DUMP).decode("ascii"),
        }
        assert server.line == (
            json.dumps(expected, sort_keys=True).encode("utf-8") + b"\n"
        )

    @pytest.mark.parametrize(
        "line",
        [
            b'{"op": "wave", "lease": "b0e1", "outc\n',
            b"[1]\n",
            b"x" * 80 + b"\n",
        ],
        ids=["torn", "not-an-object", "over-long"],
    )
    def test_both_servers_refuse_a_bad_line_with_the_same_bytes(
        self, line, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(wire, "MAX_LINE_BYTES", 64)
        coordinator, _ = build_coordinator(
            CampaignSpec(boards=1, victims=1, seed=9), tmp_path
        )
        try:
            with socket.create_connection(
                coordinator.address, timeout=10
            ) as sock:
                sock.sendall(line)
                stream = sock.makefile("rb")
                fabric_reply = stream.readline()
                fabric_after = stream.readline()
                stream.close()
        finally:
            coordinator.close()

        async def ask_daemon():
            service = AnalysisService(
                tmp_path / "spool", ("resnet50_pt",), 16, workers=1
            )
            host, port = await service.start()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(line)
            await writer.drain()
            reply, after = await reader.readline(), await reader.readline()
            writer.close()
            await writer.wait_closed()
            await service.close()
            return reply, after

        daemon_reply, daemon_after = asyncio.run(ask_daemon())
        assert fabric_reply == daemon_reply
        assert wire.decode(fabric_reply)["code"] == "bad-request"
        assert fabric_after == daemon_after == b""  # both hung up

    def test_subscribe_raises_protocol_error_on_a_garbled_event(self):
        async def scenario():
            async def handle(reader, writer):
                await reader.readline()
                writer.write(wire.encode({"ok": True, "subscribed": True}))
                writer.write(b'{"event": "del\n')
                await writer.drain()
                writer.close()

            server = await asyncio.start_server(handle, "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            client = await AsyncServiceClient.connect(host, port)
            try:
                with pytest.raises(ProtocolError):
                    async for _ in client.subscribe():
                        pass
            finally:
                await client.close()
                server.close()
                await server.wait_closed()

        asyncio.run(scenario())
