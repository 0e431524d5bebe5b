"""Each dump upload is hashed once, by both TCP servers.

``wire.decode_dump`` hashes the uploaded bytes (and checks the digest
the sender claims, if any) and returns the digest it computed; the
spool files the bytes under that digest instead of hashing them
again.  A counting stand-in for ``hashlib``, installed in both modules
that hash (``repro.wire`` and the spool), counts the calls one
``put_dump`` request makes.
"""

from __future__ import annotations

import asyncio
import hashlib
import os

import pytest
from fabric_chaos import build_coordinator

from repro import wire
from repro.campaign import CampaignSpec
from repro.campaign.runtime import spool as spool_module
from repro.service.daemon import AnalysisService


class _CountingHashlib:
    """``hashlib`` with a call counter on ``sha256``."""

    def __init__(self) -> None:
        self.calls = 0

    def sha256(self, *args):
        self.calls += 1
        return hashlib.sha256(*args)


@pytest.fixture
def counter(monkeypatch) -> _CountingHashlib:
    counting = _CountingHashlib()
    monkeypatch.setattr(wire, "hashlib", counting)
    monkeypatch.setattr(spool_module, "hashlib", counting)
    return counting


@pytest.fixture
def coordinator(tmp_path):
    coord, _ = build_coordinator(
        CampaignSpec(boards=1, victims=1, seed=9), tmp_path
    )
    try:
        yield coord
    finally:
        coord.close()


@pytest.fixture
def service(tmp_path):
    daemon = AnalysisService(
        tmp_path / "spool", ("resnet50_pt", "squeezenet_pt"), 32, workers=1
    )
    try:
        yield daemon
    finally:
        asyncio.run(daemon.close())


PAYLOAD = os.urandom(4096) + bytes(512)


class TestFabricCoordinator:
    def test_upload_hashed_once_and_filed_under_its_digest(
        self, coordinator, counter
    ):
        fields = {"sha256": hashlib.sha256(PAYLOAD).hexdigest(),
                  "data": wire.encode_dump(PAYLOAD)}
        answer = coordinator.handle_request({"op": "put_dump", **fields})
        assert answer["ok"] and answer["deduplicated"] is False
        assert counter.calls == 1
        assert coordinator.run_dir.spool.read(fields["sha256"]) == PAYLOAD

    def test_mismatch_refused_before_anything_is_filed(
        self, coordinator, counter
    ):
        lie = hashlib.sha256(b"other bytes").hexdigest()
        answer = coordinator.handle_request(
            {"op": "put_dump", "sha256": lie, "data": wire.encode_dump(PAYLOAD)}
        )
        assert answer["code"] == "digest-mismatch"
        assert counter.calls == 1
        assert coordinator.run_dir.spool.digests() == []


class TestAnalysisDaemon:
    def _put(self, service, **fields) -> dict:
        return wire.dispatch(
            service._OPS, service,
            {"op": "put_dump", "tenant": "t",
             "data_b64": wire.encode_dump(PAYLOAD), **fields},
        )

    def test_attested_upload_hashed_once(self, service, counter):
        digest = hashlib.sha256(PAYLOAD).hexdigest()
        answer = self._put(service, sha256=digest)
        assert answer["ok"] and answer["sha256"] == digest
        assert counter.calls == 1

    def test_upload_without_digest_hashed_once(self, service, counter):
        answer = self._put(service)
        assert answer["ok"]
        assert answer["sha256"] == hashlib.sha256(PAYLOAD).hexdigest()
        assert counter.calls == 1

    def test_mismatch_refused_before_anything_is_filed(
        self, service, counter, tmp_path
    ):
        answer = self._put(
            service, sha256=hashlib.sha256(b"other bytes").hexdigest()
        )
        assert answer["code"] == "digest-mismatch"
        assert counter.calls == 1
        assert spool_module.DumpSpool(tmp_path / "spool").digests() == []
