"""The segment spool against the per-file writer it replaced.

- old-layout run directories (``objects/<aa>/<sha256>.bin``) resume
  under segments to the same ``report.json`` and manifest;
- a torn trailing record is skipped and its digest reads as missing;
- both writers file the same dumps to the same bytes, digests, sizes
  and dedup counters (:class:`~repro.analysis.reference.ReferenceDumpSpool`
  is the old writer, kept verbatim);
- threads sharing a handle and forked processes with handles of their
  own never lose, tear or double-count an object;
- digests that are not 64 lowercase hex characters never reach a path.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import random
import sys
import threading

import pytest

from repro.analysis.reference import ReferenceDumpSpool
from repro.attack.extraction import ScrapedDump
from repro.campaign import CampaignRuntime, CampaignSpec, DumpSpool, RunDirectory
from repro.campaign.runtime import InProcessExecutor, checkpoint
from repro.errors import CampaignInterrupted

SPEC = CampaignSpec(boards=3, victims=9, seed=5)


def _dump(data: bytes) -> ScrapedDump:
    return ScrapedDump(
        pid=1, heap_start=0, data=data,
        pages_read=1, pages_skipped=0, devmem_reads=1,
    )


def _payloads(seed: int, count: int) -> list[bytes]:
    rng = random.Random(seed)
    return [rng.randbytes(rng.randrange(1, 16 * 1024)) for _ in range(count)]


def _segments(spool: DumpSpool) -> list:
    return sorted((spool.root / "segments").glob("*.seg"))


class TestOldLayoutResume:
    def test_interrupted_per_file_run_resumes_under_segments(
        self, tmp_path, monkeypatch
    ):
        sequential = InProcessExecutor(max_workers=1)
        CampaignRuntime(SPEC, tmp_path / "fresh", executor=sequential).run()
        crashed = tmp_path / "crashed"
        with monkeypatch.context() as patch:
            # The run directory files its dumps one file per object,
            # as every run did before segments.
            patch.setattr(checkpoint, "DumpSpool", ReferenceDumpSpool)
            with pytest.raises(CampaignInterrupted):
                CampaignRuntime(
                    SPEC, crashed, executor=sequential, interrupt_after=4
                ).run()
        journal = RunDirectory.open(crashed).load_journal()
        assert journal.complete_boards  # some board is reused from it
        legacy = sorted((crashed / "spool" / "objects").glob("*/*.bin"))
        assert legacy
        assert not list((crashed / "spool" / "segments").glob("*.seg"))

        resumed = CampaignRuntime.resume(crashed, executor=sequential)
        assert isinstance(resumed.run_dir.spool, DumpSpool)
        assert not isinstance(resumed.run_dir.spool, ReferenceDumpSpool)
        resumed.run()
        for name in ("report.json", "spool/manifest.json"):
            assert (crashed / name).read_bytes() == (
                tmp_path / "fresh" / name
            ).read_bytes(), name

        spool = DumpSpool(crashed / "spool")
        cited = {record["sha256"] for record in spool.load_manifest()}
        reused = {
            outcome.dump_sha256
            for outcome in journal.reusable_outcomes()
            if outcome.dump_sha256 is not None
        }
        assert reused and reused <= cited
        assert reused <= {path.stem for path in legacy}
        for digest in cited:
            assert hashlib.sha256(spool.read(digest)).hexdigest() == digest
            with spool.open(digest) as mapped:
                assert hashlib.sha256(mapped.data).hexdigest() == digest
        assert set(spool.digests()) >= cited
        assert len(spool.digests()) == len(set(spool.digests()))

    def test_run_directory_keeps_one_handle(self, tmp_path):
        run = RunDirectory.create(tmp_path / "run", SPEC)
        assert run.spool is run.spool


class TestTornTail:
    @pytest.mark.parametrize("cut", [1, 100, 4096, 4096 + 20, 4096 + 43])
    def test_truncated_last_record_reads_as_missing(self, tmp_path, cut):
        # The last record is a 44-byte header and a 4096-byte body:
        # the cuts land inside the body, at the header's end, and
        # inside the header.
        spool = DumpSpool(tmp_path / "spool")
        payloads = [b"first record", bytes(100), os.urandom(4096)]
        digests = [spool.put_bytes(data).sha256 for data in payloads]
        (segment,) = _segments(spool)
        os.truncate(segment, segment.stat().st_size - cut)

        reopened = DumpSpool(tmp_path / "spool")
        for data, digest in zip(payloads[:2], digests[:2]):
            assert reopened.read(digest) == data
        torn = digests[2]
        assert torn not in reopened
        with pytest.raises(FileNotFoundError):
            reopened.read(torn)
        with pytest.raises(FileNotFoundError):
            reopened.open(torn)
        assert reopened.digests() == sorted(digests[:2])
        assert reopened.total_bytes() == len(payloads[0]) + len(payloads[1])

        # A resumed board files the torn object again, in a segment of
        # its own, and it reads back whole.
        assert reopened.put_bytes(payloads[2]).deduplicated is False
        assert len(_segments(reopened)) == 2
        assert DumpSpool(tmp_path / "spool").read(torn) == payloads[2]

    def test_failed_append_retires_the_segment(self, tmp_path):
        class NotABuffer:
            """Sized like a dump, but its body cannot be written: the
            append fails after the record's header went out."""

            def __len__(self) -> int:
                return 64

        spool = DumpSpool(tmp_path / "spool")
        spool.put_bytes(b"before")
        with pytest.raises(TypeError):
            spool._store("ab" * 32, NotABuffer(), 64)
        (first,) = _segments(spool)
        spool.put_bytes(b"after")
        assert len(_segments(spool)) == 2
        reopened = DumpSpool(tmp_path / "spool")
        assert reopened.read(hashlib.sha256(b"after").hexdigest()) == b"after"
        assert "ab" * 32 not in reopened
        assert first in _segments(spool)


class TestWriterDifferential:
    def test_both_writers_store_the_same_objects(self, tmp_path):
        rng = random.Random(20)
        payloads = _payloads(21, 24) + [b"", bytes(4096), bytes(4096)]
        payloads += [payloads[rng.randrange(24)] for _ in range(12)]
        rng.shuffle(payloads)
        segment = DumpSpool(tmp_path / "segment")
        reference = ReferenceDumpSpool(tmp_path / "reference")
        for index, data in enumerate(payloads):
            if index % 2:
                entries = [spool.put(_dump(data)) for spool in (segment, reference)]
            else:
                entries = [spool.put_bytes(data) for spool in (segment, reference)]
            assert entries[0] == entries[1]
        assert segment.digests() == reference.digests()
        assert segment.total_bytes() == reference.total_bytes()
        assert segment.put_stats() == reference.put_stats()
        assert segment.put_stats()["misses"] == len(set(payloads))
        for data in payloads:
            digest = hashlib.sha256(data).hexdigest()
            assert segment.read(digest) == reference.read(digest) == data
            with segment.open(digest) as left, reference.open(digest) as right:
                assert bytes(left.data) == bytes(right.data) == data
        # One segment and no per-file objects; reading the per-file
        # layout creates no segment directory.
        assert len(_segments(segment)) == 1
        assert not (segment.root / "objects").exists()
        assert not (reference.root / "segments").exists()

    def test_a_spool_reads_both_layouts_at_once(self, tmp_path):
        old, new = _payloads(30, 2)
        ReferenceDumpSpool(tmp_path / "spool").put_bytes(old)
        DumpSpool(tmp_path / "spool").put_bytes(new)
        ReferenceDumpSpool(tmp_path / "spool").put_bytes(new)  # both layouts
        spool = DumpSpool(tmp_path / "spool")
        digests = sorted(hashlib.sha256(d).hexdigest() for d in (old, new))
        assert spool.digests() == digests
        assert spool.total_bytes() == len(old) + len(new)
        for data in (old, new):
            assert spool.read(hashlib.sha256(data).hexdigest()) == data


def _process_writer(root: str, payloads: list[bytes], ready) -> None:
    ready.wait()
    spool = DumpSpool(root)
    for data in payloads:
        spool.put_bytes(data)


class TestConcurrentWriters:
    THREADS = 8
    PROCESSES = 2
    DEADLINE = 60.0

    def test_threads_and_processes_never_lose_or_duplicate(self, tmp_path):
        distinct = _payloads(40, 64)
        shared = _payloads(41, 16)
        owners = self.THREADS + self.PROCESSES
        shares = [distinct[index::owners] for index in range(owners)]
        root = tmp_path / "spool"
        spool = DumpSpool(root)
        context = multiprocessing.get_context("fork")
        ready = context.Event()
        processes = [
            context.Process(
                target=_process_writer,
                args=(str(root), shares[self.THREADS + index] + shared, ready),
            )
            for index in range(self.PROCESSES)
        ]
        for process in processes:
            process.start()
        errors: list[BaseException] = []
        start = threading.Barrier(self.THREADS)

        def writer(index: int) -> None:
            try:
                start.wait()
                mine = shares[index] + shared
                random.Random(index).shuffle(mine)
                for data in mine:
                    spool.put(_dump(data))
            except BaseException as exc:  # pragma: no cover - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=writer, args=(index,))
                for index in range(self.THREADS)
            ]
            for thread in threads:
                thread.start()
            ready.set()
            for thread in threads:
                thread.join(self.DEADLINE)
        finally:
            sys.setswitchinterval(interval)
        for process in processes:
            process.join(self.DEADLINE)
        assert not any(thread.is_alive() for thread in threads)
        assert [process.exitcode for process in processes] == [0, 0]
        assert not errors

        expected = {hashlib.sha256(d).hexdigest(): d for d in distinct + shared}
        assert len(expected) == 80
        # Exact dedup within the shared handle: each of its digests
        # was written once, every other put was a hit.
        stats = spool.put_stats()
        thread_digests = sum(len(share) for share in shares[: self.THREADS])
        assert stats["misses"] == thread_digests + len(shared)
        assert stats["hits"] + stats["misses"] == (
            thread_digests + self.THREADS * len(shared)
        )
        assert len(_segments(spool)) == 1 + self.PROCESSES
        for reader in (spool, DumpSpool(root)):
            listed = reader.digests()
            assert listed == sorted(expected)
            assert reader.total_bytes() == sum(map(len, expected.values()))
            for digest, data in expected.items():
                assert reader.read(digest) == data
                with reader.open(digest) as mapped:
                    assert bytes(mapped.data) == data

    def test_inherited_handle_writes_its_own_segment_after_fork(self, tmp_path):
        parent_data, child_data = _payloads(50, 2)
        spool = DumpSpool(tmp_path / "spool")
        spool.put_bytes(parent_data)
        process = multiprocessing.get_context("fork").Process(
            target=spool.put_bytes, args=(child_data,)
        )
        process.start()
        process.join(self.DEADLINE)
        assert process.exitcode == 0
        spool.put_bytes(os.urandom(64))
        assert len(_segments(spool)) == 2
        assert spool.read(hashlib.sha256(child_data).hexdigest()) == child_data
        assert spool.read(hashlib.sha256(parent_data).hexdigest()) == parent_data


class TestDigestBoundary:
    @pytest.mark.parametrize(
        "bad",
        ["../../secret", "../secret", "A" * 64, "0" * 63, "0" * 65,
         "0" * 63 + "\n", "", None, 7],
    )
    def test_malformed_digests_are_refused(self, tmp_path, bad):
        (tmp_path / "secret.bin").write_bytes(b"secret")
        spool = DumpSpool(tmp_path / "spool")
        for probe in (spool.read, spool.open, spool.__contains__):
            with pytest.raises(ValueError, match="not a SHA-256"):
                probe(bad)

    def test_no_descriptor_is_held_between_puts(self, tmp_path):
        spool = DumpSpool(tmp_path / "spool")
        spool.put_bytes(b"warm")
        baseline = len(os.listdir("/proc/self/fd"))
        for data in _payloads(60, 8):
            spool.put(_dump(data))
            assert len(os.listdir("/proc/self/fd")) == baseline
