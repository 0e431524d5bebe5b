"""Zero-copy dump pipeline: backing equivalence and buffer lifecycle.

The acceptance claims, pinned:

- every analysis path (region carving, nonzero counting, signature
  matching, entropy/printable scoring) produces **identical results**
  whether a dump is backed by ``bytes``, ``bytearray``, or an mmap of
  a spool object — including the empty, all-zero, unaligned-tail, and
  multi-page-boundary edges;
- :class:`~repro.campaign.runtime.spool.MappedDump` has an explicit
  lifecycle: the file descriptor is provably released on close (and on
  garbage collection), a closed handle raises
  :class:`~repro.errors.SpoolClosedError` instead of touching a stale
  mapping, and closing under a live buffer export raises
  ``BufferError`` rather than invalidating the export;
- pooled (coalesced + :class:`~repro.utils.buffers.BufferPool`) and
  unpooled extraction scrape byte-identical dumps, and a released
  pooled dump can never be read again;
- the multiprocess executor's shard processes live for one run only:
  none outlives a completed or interrupted run, and a shard that
  exited cleanly is never mistaken for a dead one.
"""

import gc
import multiprocessing
import os
import queue as queue_module
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.analysis.scan import as_uint8, nonzero_count
from repro.attack.addressing import AddressHarvester
from repro.attack.carving import (
    DumpCartographer,
    printable_fraction,
    shannon_entropy,
)
from repro.attack.config import AttackConfig
from repro.attack.extraction import MemoryScraper, ScrapedDump
from repro.attack.identify import ModelSignature, SignatureDatabase
from repro.campaign import CampaignRuntime, CampaignSpec, DumpSpool
from repro.campaign.runtime import MappedDump, executors
from repro.errors import (
    CampaignInterrupted,
    ExtractionError,
    SpoolClosedError,
)
from repro.mmu.paging import PAGE_SIZE
from repro.utils.buffers import BufferPool

TOKEN = b"/usr/share/vitis_ai_library/models/resnet50_pt\x00"


def _payloads() -> dict[str, bytes]:
    """The edge-case corpus every backing must agree on."""
    rng = np.random.default_rng(20240315)
    return {
        "empty": b"",
        "all_zero": bytes(PAGE_SIZE),
        "unaligned_tail": rng.integers(
            0, 256, size=777, dtype=np.uint8
        ).tobytes(),
        "page_boundary": (
            bytes(512)
            + TOKEN * 8
            + rng.integers(
                0, 256, size=2 * PAGE_SIZE + 333, dtype=np.uint8
            ).tobytes()
        ),
        "composite": b"".join(
            [
                bytes(1024),
                rng.integers(-10, 11, size=2048, dtype=np.int8).tobytes(),
                TOKEN * 16,
                rng.integers(0, 256, size=1536, dtype=np.uint8).tobytes(),
                b"\xff" * 512,
                rng.integers(0, 256, size=333, dtype=np.uint8).tobytes(),
            ]
        ),
    }


PAYLOADS = _payloads()


def _dump(data) -> ScrapedDump:
    return ScrapedDump(
        pid=871,
        heap_start=0,
        data=data,
        pages_read=1,
        pages_skipped=0,
        devmem_reads=1,
    )


def _database() -> SignatureDatabase:
    return SignatureDatabase(
        [
            ModelSignature(
                "resnet50_pt",
                frozenset({"resnet50_pt", "vitis_ai_library"}),
            ),
            ModelSignature(
                "squeezenet_pt", frozenset({"squeezenet_pt"})
            ),
        ]
    )


class TestBackingEquivalence:
    """bytes, bytearray, and mmap backings must analyze identically."""

    @pytest.mark.parametrize("name", sorted(PAYLOADS))
    def test_all_backings_agree(self, name, tmp_path):
        payload = PAYLOADS[name]
        spool = DumpSpool(tmp_path / "spool")
        entry = spool.put(_dump(payload))
        cartographer = DumpCartographer(window=256)
        database = _database()
        with spool.open(entry.sha256) as mapped:
            backings = {
                "bytes": payload,
                "bytearray": bytearray(payload),
                "mmap": mapped.data,
            }
            reference = {
                "regions": cartographer.map_dump(payload),
                "nonzero": nonzero_count(payload),
                "matches": database.match(payload),
                "entropy": shannon_entropy(payload),
                "printable": printable_fraction(payload),
            }
            for backing, data in backings.items():
                assert cartographer.map_dump(data) == reference["regions"], backing
                assert nonzero_count(data) == reference["nonzero"], backing
                assert database.match(data) == reference["matches"], backing
                assert shannon_entropy(data) == reference["entropy"], backing
                assert (
                    printable_fraction(data) == reference["printable"]
                ), backing

    @pytest.mark.parametrize("name", sorted(PAYLOADS))
    def test_mapped_dump_rehydrates_byte_identical(self, name, tmp_path):
        payload = PAYLOADS[name]
        spool = DumpSpool(tmp_path / "spool")
        entry = spool.put(_dump(payload))
        with spool.open(entry.sha256) as mapped:
            dump = mapped.to_dump(pid=871)
            assert dump.nbytes == len(payload)
            assert bytes(dump.data) == payload
            assert dump.sha256 == entry.sha256

    def test_token_match_straddling_a_page_boundary(self, tmp_path):
        # A signature token split across the mmap's page boundary must
        # still be found — the scan must treat the map as one buffer.
        payload = bytes(PAGE_SIZE - len(TOKEN) // 2) + TOKEN + bytes(64)
        spool = DumpSpool(tmp_path / "spool")
        entry = spool.put(_dump(payload))
        with spool.open(entry.sha256) as mapped:
            scores = _database().match(mapped.data)
        score, matched = scores["resnet50_pt"]
        assert score > 0
        assert "resnet50_pt" in matched


class TestMappedDumpLifecycle:
    def _spooled(self, tmp_path, payload=b"residue" * 1024):
        spool = DumpSpool(tmp_path / "spool")
        entry = spool.put(_dump(payload))
        return spool, entry.sha256, payload

    def test_open_is_zero_copy_for_nonempty_objects(self, tmp_path):
        import mmap as mmap_module

        spool, digest, payload = self._spooled(tmp_path)
        with spool.open(digest) as mapped:
            assert isinstance(mapped, MappedDump)
            # A read-only view straight onto the segment's mapping.
            assert isinstance(mapped.data, memoryview)
            assert mapped.data.readonly
            assert isinstance(mapped.data.obj, mmap_module.mmap)
            assert bytes(mapped.data) == payload
            assert mapped.nbytes == len(payload)
            assert mapped.sha256 == digest

    def test_empty_object_falls_back_to_bytes(self, tmp_path):
        spool, digest, _ = self._spooled(tmp_path, payload=b"")
        mapped = spool.open(digest)
        assert mapped.data == b""
        assert mapped.nbytes == 0
        mapped.close()
        assert mapped.closed

    def test_closed_handle_raises_clearly(self, tmp_path):
        spool, digest, _ = self._spooled(tmp_path)
        mapped = spool.open(digest)
        mapped.close()
        with pytest.raises(SpoolClosedError, match="was closed"):
            mapped.data
        # Size survives close; re-opening by digest recovers the bytes.
        assert mapped.nbytes > 0
        with spool.open(digest) as reopened:
            assert bytes(reopened.data)[:7] == b"residue"

    def test_close_is_idempotent(self, tmp_path):
        spool, digest, _ = self._spooled(tmp_path)
        mapped = spool.open(digest)
        mapped.close()
        mapped.close()
        assert mapped.closed

    def test_unknown_digest_raises_file_not_found(self, tmp_path):
        spool = DumpSpool(tmp_path / "spool")
        with pytest.raises(FileNotFoundError, match="no spooled object"):
            spool.open("0" * 64)

    def test_close_releases_the_file_descriptor(self, tmp_path):
        spool, digest, _ = self._spooled(tmp_path)
        baseline = len(os.listdir("/proc/self/fd"))
        mapped = spool.open(digest)
        assert len(os.listdir("/proc/self/fd")) > baseline
        mapped.close()
        assert len(os.listdir("/proc/self/fd")) == baseline

    def test_collection_releases_the_file_descriptor(self, tmp_path):
        # __del__ is the last-resort cleanup; dropping the handle must
        # not leak the fd even when close() was never called.  The
        # baseline is taken after a put: the spool itself holds none.
        spool, digest, _ = self._spooled(tmp_path)
        baseline = len(os.listdir("/proc/self/fd"))
        mapped = spool.open(digest)
        del mapped
        gc.collect()
        assert len(os.listdir("/proc/self/fd")) == baseline

    def test_close_under_live_export_raises_buffer_error(self, tmp_path):
        spool, digest, _ = self._spooled(tmp_path)
        mapped = spool.open(digest)
        exported = as_uint8(mapped.data)
        with pytest.raises(BufferError):
            mapped.close()
        # The export stayed valid; dropping it unblocks the close.
        assert int(exported[0]) == ord("r")
        del exported
        mapped.close()
        assert mapped.closed

    def test_handle_is_shareable_across_thread_boundaries(self, tmp_path):
        spool, digest, payload = self._spooled(
            tmp_path, payload=PAYLOADS["composite"]
        )
        cartographer = DumpCartographer(window=256)
        expected = (
            nonzero_count(payload),
            len(cartographer.map_dump(payload)),
        )
        with spool.open(digest) as mapped:
            def scan(_):
                return (
                    nonzero_count(mapped.data),
                    len(cartographer.map_dump(mapped.data)),
                )

            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(scan, range(8)))
        assert results == [expected] * 8

    def test_second_spool_instance_rehydrates_same_object(self, tmp_path):
        # What a multiprocess worker does: a fresh DumpSpool over the
        # same root, open by digest, scan zero-copy.
        spool, digest, payload = self._spooled(tmp_path)
        worker_view = DumpSpool(spool.root)
        with worker_view.open(digest) as mapped:
            assert bytes(mapped.data) == payload


class TestPooledExtraction:
    INPUT_HW = 32

    def _harvest_and_kill(self, shells):
        attacker_shell, victim_shell = shells
        from repro.vitis.app import VictimApplication

        app = VictimApplication(victim_shell, input_hw=self.INPUT_HW)
        run = app.launch("resnet50_pt")
        harvester = AddressHarvester(
            attacker_shell.procfs, caller=attacker_shell.user
        )
        harvested = harvester.harvest(run.pid)
        run.terminate()
        return attacker_shell, harvested

    def test_pooled_scrape_matches_unpooled_and_recycles(self, shells):
        attacker_shell, harvested = self._harvest_and_kill(shells)
        reference = MemoryScraper(
            attacker_shell.devmem_tool,
            attacker_shell.user,
            AttackConfig(bulk_reads=True),
        ).scrape(harvested)
        pool = BufferPool()
        pooled_scraper = MemoryScraper(
            attacker_shell.devmem_tool,
            attacker_shell.user,
            AttackConfig(coalesce_reads=True),
            buffer_pool=pool,
        )
        first = pooled_scraper.scrape(harvested)
        assert bytes(first.data) == reference.data
        assert pool.allocations == 1
        first.release()
        # The next victim of the same heap size reuses the buffer.
        second = pooled_scraper.scrape(harvested)
        assert bytes(second.data) == reference.data
        assert pool.reuses == 1
        assert pool.allocations == 1

    def test_released_dump_refuses_every_access(self, shells):
        attacker_shell, harvested = self._harvest_and_kill(shells)
        pool = BufferPool()
        dump = MemoryScraper(
            attacker_shell.devmem_tool,
            attacker_shell.user,
            AttackConfig(coalesce_reads=True),
            buffer_pool=pool,
        ).scrape(harvested)
        digest = dump.sha256  # cached before release, by contract
        dump.release()
        assert dump.released
        assert dump.sha256 == digest
        with pytest.raises(ExtractionError, match="released"):
            dump.nbytes
        with pytest.raises(ExtractionError, match="released"):
            bytes(dump.data)
        dump.release()  # idempotent
        assert pool.free_buffers == 1

    def test_release_without_prior_hash_cannot_hash(self, shells):
        attacker_shell, harvested = self._harvest_and_kill(shells)
        dump = MemoryScraper(
            attacker_shell.devmem_tool,
            attacker_shell.user,
            AttackConfig(coalesce_reads=True),
            buffer_pool=BufferPool(),
        ).scrape(harvested)
        dump.release()
        with pytest.raises(ExtractionError, match="released"):
            dump.sha256


class TestBufferPool:
    def test_acquire_release_reuses_by_size(self):
        pool = BufferPool()
        buffer = pool.acquire(4096)
        pool.release(buffer)
        assert pool.acquire(4096) is buffer
        assert (pool.allocations, pool.reuses) == (1, 1)

    def test_different_sizes_never_share(self):
        pool = BufferPool()
        pool.release(pool.acquire(100))
        assert len(pool.acquire(200)) == 200
        assert pool.reuses == 0

    def test_per_size_bound_caps_hoarding(self):
        pool = BufferPool(max_buffers_per_size=2)
        buffers = [bytearray(64) for _ in range(5)]
        for buffer in buffers:
            pool.release(buffer)
        assert pool.free_buffers == 2

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError, match="max_buffers_per_size"):
            BufferPool(max_buffers_per_size=0)
        with pytest.raises(ValueError, match="nbytes"):
            BufferPool().acquire(-1)


class _FirstPollFindsNothing:
    """A results queue whose first poll times out only once every shard
    process has exited, with all of their messages still unread."""

    def __init__(self, results) -> None:
        self._results = results
        self._stalled = False

    def put(self, message) -> None:
        self._results.put(message)

    def get(self, timeout: float):
        if not self._stalled:
            self._stalled = True
            deadline = time.monotonic() + 60
            while multiprocessing.active_children():
                assert time.monotonic() < deadline, "shards never exited"
                time.sleep(0.01)
            raise queue_module.Empty
        return self._results.get(timeout=timeout)

    def close(self) -> None:
        self._results.close()


class TestForkPerRun:
    """A multiprocess run starts its shard processes and reaps them."""

    SPEC = CampaignSpec(boards=3, victims=6, seed=5)
    """Three boards on two processes: one shard finishes a whole board
    before the other, so the parent polls past a cleanly exited shard."""

    def _report(self, run_dir, **kwargs) -> bytes:
        CampaignRuntime(self.SPEC, run_dir, **kwargs).run()
        return (run_dir / "report.json").read_bytes()

    def _threads_and_processes(self, tmp_path) -> tuple[bytes, bytes]:
        threads = self._report(tmp_path / "threads", executor="inprocess")
        processes = self._report(
            tmp_path / "processes", executor="multiprocess", processes=2
        )
        return threads, processes

    def test_no_child_outlives_a_completed_run(self, tmp_path):
        self._report(tmp_path / "run", executor="multiprocess", processes=2)
        assert multiprocessing.active_children() == []

    def test_no_child_outlives_an_interrupted_run(self, tmp_path):
        with pytest.raises(CampaignInterrupted):
            self._report(
                tmp_path / "run",
                executor="multiprocess",
                processes=2,
                interrupt_after=1,
            )
        assert multiprocessing.active_children() == []

    def test_clean_exits_are_never_reported_dead(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(executors, "_QUEUE_POLL_SECONDS", 0.001)
        threads, processes = self._threads_and_processes(tmp_path)
        assert processes == threads

    def test_exited_shards_messages_are_still_drained(
        self, tmp_path, monkeypatch
    ):
        """Exit code 0 means the last messages are already in the pipe."""
        context = executors._CONTEXT

        class StallingContext:
            Process = context.Process

            @staticmethod
            def Queue():
                return _FirstPollFindsNothing(context.Queue())

        monkeypatch.setattr(executors, "_CONTEXT", StallingContext)
        threads, processes = self._threads_and_processes(tmp_path)
        assert processes == threads

    def test_spawned_shards_unpickle_the_prep(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            executors, "_CONTEXT", multiprocessing.get_context("spawn")
        )
        threads, processes = self._threads_and_processes(tmp_path)
        assert processes == threads
        assert multiprocessing.active_children() == []
