"""Extension — fleet campaign throughput and batched extraction.

Three questions, benchmarked:

1. Does coalescing contiguous physical ranges into bulk devmem reads
   beat the paper's word-at-a-time automation on dump throughput?
   (It must: a heap that costs tens of thousands of word reads
   collapses into a handful of range reads.)
2. What does a whole multi-board campaign sustain end-to-end, offline
   prep and board boots included?
3. What does the same fleet sustain on the multiprocess executor,
   worker startup and prep shipping included — and does sharding
   change any outcome?  (It must not: the canonical outcomes are
   executor-invariant.)

Artifacts land in ``benchmarks/out/ext_campaign_*.txt``; the
throughput lines there come from this file's own timing of each
campaign, since a report records no wall clock.
"""

import statistics
import time

from conftest import INPUT_HW, OUT_DIR, VICTIM_MODEL

import pytest

from repro.attack.addressing import AddressHarvester
from repro.attack.config import AttackConfig
from repro.attack.extraction import MemoryScraper
from repro.campaign import CampaignSpec, run_campaign
from repro.evaluation.metrics import ThroughputStats
from repro.evaluation.scenarios import BoardSession


@pytest.fixture(scope="module")
def harvested_board():
    """A terminated victim with translations snapshotted, ready to scrape."""
    session = BoardSession.boot(input_hw=INPUT_HW)
    run = session.victim_application().launch(VICTIM_MODEL)
    harvester = AddressHarvester(
        session.attacker_shell.procfs, caller=session.attacker_shell.user
    )
    harvested = harvester.harvest(run.pid)
    run.terminate()
    return session, harvested


def _scraper(session, **config_kwargs):
    return MemoryScraper(
        session.attacker_shell.devmem_tool,
        session.attacker_shell.user,
        AttackConfig(**config_kwargs),
    )


def test_campaign_scrape_word_mode(benchmark, harvested_board):
    session, harvested = harvested_board
    dump = benchmark(_scraper(session).scrape, harvested)
    assert dump.nbytes == harvested.length


def test_campaign_scrape_coalesced_mode(benchmark, harvested_board):
    session, harvested = harvested_board
    dump = benchmark(
        _scraper(session, coalesce_reads=True).scrape, harvested
    )
    assert dump.nbytes == harvested.length


def test_batched_beats_word_mode(harvested_board):
    """The acceptance claim: batched extraction wins on dump throughput."""
    session, harvested = harvested_board
    word_scraper = _scraper(session)
    coalesced_scraper = _scraper(session, coalesce_reads=True)

    started = time.perf_counter()
    word_dump = word_scraper.scrape(harvested)
    word_seconds = time.perf_counter() - started

    started = time.perf_counter()
    coalesced_dump = coalesced_scraper.scrape(harvested)
    coalesced_seconds = time.perf_counter() - started

    assert coalesced_dump.data == word_dump.data
    assert coalesced_dump.devmem_reads < word_dump.devmem_reads
    assert coalesced_seconds < word_seconds

    word_mibps = word_dump.nbytes / word_seconds / 1024**2
    coalesced_mibps = coalesced_dump.nbytes / coalesced_seconds / 1024**2
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "ext_campaign_batching.txt").write_text(
        f"word mode:      {word_dump.devmem_reads} devmem reads, "
        f"{word_mibps:.1f} MiB/s\n"
        f"coalesced mode: {coalesced_dump.devmem_reads} devmem reads, "
        f"{coalesced_mibps:.1f} MiB/s\n"
        f"speedup: {word_seconds / coalesced_seconds:.1f}x\n"
    )


def _timed_campaign():
    """``run_campaign`` that appends each call's wall time to a list."""
    walls: list[float] = []

    def timed(*args, **kwargs):
        started = time.perf_counter()
        report = run_campaign(*args, **kwargs)
        walls.append(time.perf_counter() - started)
        return report

    return timed, walls


def _write_throughput(name: str, report, walls: list[float]) -> None:
    throughput = ThroughputStats(
        report.total_bytes, report.victims, statistics.median(walls)
    )
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / name).write_text(throughput.describe() + "\n")


def test_campaign_end_to_end_throughput(benchmark):
    """A full 4-board, 8-victim campaign, boots and prep included."""
    spec = CampaignSpec(boards=4, victims=8, seed=11)
    timed, walls = _timed_campaign()

    report = benchmark(timed, spec)

    assert report.success_rate == 1.0
    _write_throughput("ext_campaign_throughput.txt", report, walls)


def test_campaign_end_to_end_multiprocess(benchmark):
    """The same fleet sharded across worker processes."""
    spec = CampaignSpec(boards=4, victims=8, seed=11)
    timed, walls = _timed_campaign()

    report = benchmark(timed, spec, executor="multiprocess", processes=4)

    assert report.success_rate == 1.0
    _write_throughput("ext_campaign_multiprocess.txt", report, walls)
