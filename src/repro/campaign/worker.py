"""The per-board campaign worker — waves of co-resident victims.

One :class:`BoardWorker` owns one provisioned board and plays its
schedule wave by wave:

1. **launch** every victim of the wave (different tenants, secret
   images seeded by the scheduler) so they are co-resident;
2. **claim + snapshot** each victim while all are alive: observe it
   in ``ps`` (claimed pids are excluded from later sightings, so two
   victims running the same model never collide) and harvest its
   translations immediately — the earliest possible snapshot, stored
   in the board's translation cache;
3. **re-harvest** through the attack pipeline right before the wave
   ends — served from the cache, since the snapshot is still valid;
4. **terminate** the whole wave (the kernel's sanitize policy runs
   here; its sync-scrub work is attributed per victim), then let
   *scrape_delay_ticks* scheduler ticks pass — the attacker's latency,
   during which an asynchronous scrub daemon gets to shrink the window
   of vulnerability (zero by default, which ticks nothing);
5. **extract + analyze** each victim's residue, scoring the recovered
   image against the ground truth the worker launched with.

Workers share the campaign-wide :class:`ProfileStore` and
:class:`SignatureDatabase` (built once, offline — and carrying the
compiled Aho–Corasick signature automaton, so identification is one
pass per dump fleet-wide) and reuse the board's translation cache
across every attack they mount.  Dump analysis routes through the
shared scan core of :mod:`repro.analysis`, whose scratch tables warm
once per process and serve every wave of every board.  Boards are
fully independent simulations, so the executors run workers one after
another on a thread or side by side in shard processes without any
cross-board locking.  After the last wave, :meth:`BoardWorker.end`
reads the kernel's end-of-run counters into a :class:`BoardEnd`, plain
data that crosses a process boundary as outcomes do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from repro.attack.addressing import AddressHarvester
from repro.attack.config import AttackConfig
from repro.attack.identify import SignatureDatabase
from repro.attack.pipeline import MemoryScrapingAttack
from repro.attack.profiling import ProfileStore
from repro.campaign.fleet import ProvisionedBoard
from repro.campaign.schedule import VictimJob
from repro.errors import (
    AttackError,
    IdentificationError,
    PermissionDeniedError,
)
from repro.evaluation.metrics import image_fidelity, nonzero_bytes
from repro.utils.buffers import BufferPool
from repro.vitis.app import VictimApplication, VictimRun
from repro.vitis.image import Image

if TYPE_CHECKING:
    from repro.campaign.runtime.spool import DumpSpool


@dataclass(frozen=True)
class BoardEnd:
    """A board kernel's scrub counters once its last wave ended.

    A board the schedule gave no victims never boots and ends all
    zeros.  ``teardown_seconds`` is host time, not simulated work.
    """

    frames_scrubbed_async: int = 0
    """Frames the background scrub daemon scrubbed."""
    scrub_backlog: int = 0
    """Frames still queued for the daemon when the board ended."""
    teardown_seconds: float = 0.0
    """Host seconds the kernel spent terminating victims."""


@dataclass(frozen=True)
class VictimOutcome:
    """Everything one victim attack produced, plus ground truth."""

    job_id: int
    board_index: int
    board_name: str
    model_name: str
    tenant_index: int
    launch_wave: int
    pid: int
    identified_model: str | None
    pixel_match_rate: float | None
    nbytes: int
    devmem_reads: int
    pages_read: int
    failed_step: str | None = None
    detail: str = ""
    residue_nbytes: int = 0
    """Nonzero bytes in the scraped dump — the residue that actually
    leaked.  A zero-on-free kernel scrapes the same page count but
    this drops to 0; it is the defense matrix's leakage axis."""
    frames_scrubbed_sync: int = 0
    """Frames scrubbed synchronously during this victim's teardown."""
    dump_sha256: str | None = None
    """Content digest of the scraped dump when a spool filed it —
    the key to read the raw residue back from the run directory's
    content-addressed store.  ``None`` for unspooled runs and for
    victims whose attack failed before extraction."""

    @property
    def identified_correctly(self) -> bool:
        """Whether step 4a attributed the model the victim ran."""
        return self.identified_model == self.model_name

    @property
    def image_recovered(self) -> bool:
        """Whether step 4b recovered the input essentially intact."""
        return (
            self.pixel_match_rate is not None and self.pixel_match_rate > 0.99
        )

    @property
    def succeeded(self) -> bool:
        """Success = private data leaked (model name or input image)."""
        return self.identified_correctly or self.image_recovered


def outcome_from_dict(payload: dict) -> VictimOutcome:
    """Rebuild an outcome from its ``asdict`` record (or its JSON).

    The ``wall_seconds`` and ``teardown_seconds`` keys of older journals
    and reports, from when outcomes timed the host, are dropped so those
    load as-is; any other unknown key still raises ``TypeError``.
    """
    fields = dict(payload)
    fields.pop("wall_seconds", None)
    fields.pop("teardown_seconds", None)
    return VictimOutcome(**fields)


@dataclass
class _WaveAttack:
    """Bookkeeping for one victim between harvest and analysis."""

    job: VictimJob
    run: VictimRun
    secret: Image
    attack: MemoryScrapingAttack
    pid: int = -1
    frames_scrubbed_sync: int = 0


class BoardWorker:
    """Runs one board's share of the campaign schedule."""

    def __init__(
        self,
        board: ProvisionedBoard,
        profiles: ProfileStore,
        database: SignatureDatabase,
        config: AttackConfig,
        scrape_delay_ticks: int = 0,
        spool: "DumpSpool | None" = None,
    ) -> None:
        self._board = board
        self._profiles = profiles
        self._database = database
        self._config = config
        self._scrape_delay_ticks = scrape_delay_ticks
        self._spool = spool
        self._claimed_pids: set[int] = set()
        # One extraction-buffer pool per board: victims of the same
        # model have identical heap sizes, so after the first wave
        # scraping recycles buffers instead of allocating per victim.
        self._buffer_pool = BufferPool()
        # Early-snapshot harvester: shares the board cache with every
        # attack pipeline, so the pipeline's own harvest is a hit.
        self._harvester = AddressHarvester(
            board.session.attacker_shell.procfs,
            caller=board.session.attacker_shell.user,
            cache=board.translation_cache,
        )

    def iter_waves(
        self, jobs: list[VictimJob]
    ) -> Iterator[tuple[int, list[VictimOutcome]]]:
        """Play the schedule wave by wave, yielding each wave's outcomes.

        This is the campaign runtime's streaming interface: outcomes
        reach the journal as soon as their wave completes, and the dump
        bytes behind them are already spooled to disk — nothing
        accumulates in the worker between waves.
        """
        waves: dict[int, list[VictimJob]] = {}
        for job in jobs:
            waves.setdefault(job.launch_wave, []).append(job)
        for wave in sorted(waves):
            yield wave, self._run_wave(waves[wave])

    def end(self) -> BoardEnd:
        """The board kernel's scrub counters as they stand now."""
        kernel = self._board.session.kernel
        return BoardEnd(
            frames_scrubbed_async=kernel.sanitizer.stats.frames_scrubbed_async,
            scrub_backlog=kernel.sanitizer.pending,
            teardown_seconds=kernel.teardown_seconds,
        )

    def _run_wave(self, jobs: list[VictimJob]) -> list[VictimOutcome]:
        session = self._board.session
        in_flight: list[_WaveAttack] = []
        for job in jobs:
            secret = Image.test_pattern(
                session.input_hw, session.input_hw, seed=job.image_seed
            )
            # A zero fraction schedules an *uncorrupted* secret;
            # Image.corrupted rejects it because corrupting zero rows
            # is not a corruption.  (Found by the fuzzlab shrinker:
            # CampaignSpec allows 0.0 but this call used to crash the
            # whole board worker on it.)
            if job.corruption_fraction > 0.0:
                secret = secret.corrupted(job.corruption_fraction)
            run = VictimApplication(
                self._board.tenant(job.tenant_index),
                input_hw=session.input_hw,
            ).launch(job.model_name, image=secret)
            attack = MemoryScrapingAttack(
                session.attacker_shell,
                self._profiles,
                config=self._config,
                database=self._database,
                translation_cache=self._board.translation_cache,
                buffer_pool=self._buffer_pool,
            )
            in_flight.append(
                _WaveAttack(job=job, run=run, secret=secret, attack=attack)
            )

        # Failed entries are recorded *after* the wave terminates, so
        # their outcomes still carry real scrub work (a victim that
        # dodged observation is torn down — and scrubbed — all the same).
        failed: list[tuple[_WaveAttack, str, Exception]] = []
        claimed: list[_WaveAttack] = []
        for entry in in_flight:
            try:
                sighting = entry.attack.observe_victim(
                    entry.job.model_name,
                    exclude_pids=frozenset(self._claimed_pids),
                )
                entry.pid = sighting.pid
                self._claimed_pids.add(sighting.pid)
                # Snapshot translations as early as possible; the
                # board cache keeps them for the pipeline's step 2.
                self._harvester.harvest(sighting.pid)
            except (AttackError, PermissionDeniedError) as error:
                failed.append((entry, "step 1-2 (observe/harvest)", error))
                continue
            claimed.append(entry)

        live: list[_WaveAttack] = []
        for entry in claimed:
            try:
                entry.attack.harvest_addresses()
            except (AttackError, PermissionDeniedError) as error:
                failed.append((entry, "step 1-2 (observe/harvest)", error))
                continue
            live.append(entry)

        sanitizer = session.kernel.sanitizer
        for entry in in_flight:
            if entry.run.alive:
                scrubbed_before = sanitizer.stats.frames_scrubbed_sync
                entry.run.terminate()
                entry.frames_scrubbed_sync = (
                    sanitizer.stats.frames_scrubbed_sync - scrubbed_before
                )
        if self._scrape_delay_ticks:
            session.kernel.tick(self._scrape_delay_ticks)

        outcomes = [
            self._failed(entry, step, error) for entry, step, error in failed
        ]
        for entry in live:
            outcomes.append(self._extract_and_analyze(entry))
        return outcomes

    def _extract_and_analyze(self, entry: _WaveAttack) -> VictimOutcome:
        try:
            dump = entry.attack.extract()
        except (AttackError, PermissionDeniedError) as error:
            return self._failed(entry, "step 3 (extract)", error)
        identification = None
        fidelity = None
        detail = ""
        try:
            report = entry.attack.analyze()
        except (IdentificationError, AttackError) as error:
            # The dump was scraped but attributes to no model (e.g. a
            # scrub defense): not a machinery failure — record the
            # real extraction stats with an empty attribution.
            detail = str(error)
        else:
            identification = report.identification
            if report.reconstruction is not None:
                fidelity = image_fidelity(
                    report.reconstruction.image, entry.secret
                )
        # Spool handoff: the dump's bytes go to the content-addressed
        # store now, so the outcome (a few scalars) is all that stays
        # resident once this wave ends.
        dump_sha256 = (
            self._spool.put(dump).sha256 if self._spool is not None else None
        )
        residue_nbytes = nonzero_bytes(dump.data)
        nbytes = dump.nbytes
        # Everything the outcome needs has been read; hand the
        # extraction buffer back for the next victim.  Any later
        # access to dump.data raises instead of aliasing a recycled
        # buffer; the raw residue lives on in the spool.
        dump.release()
        return VictimOutcome(
            job_id=entry.job.job_id,
            board_index=self._board.index,
            board_name=self._board.name,
            model_name=entry.job.model_name,
            tenant_index=entry.job.tenant_index,
            launch_wave=entry.job.launch_wave,
            pid=entry.pid,
            identified_model=(
                identification.best_model if identification else None
            ),
            pixel_match_rate=(
                fidelity.pixel_match_rate if fidelity is not None else None
            ),
            nbytes=nbytes,
            devmem_reads=dump.devmem_reads,
            pages_read=dump.pages_read,
            detail=detail,
            residue_nbytes=residue_nbytes,
            frames_scrubbed_sync=entry.frames_scrubbed_sync,
            dump_sha256=dump_sha256,
        )

    def _failed(
        self, entry: _WaveAttack, step: str, error: Exception
    ) -> VictimOutcome:
        return VictimOutcome(
            job_id=entry.job.job_id,
            board_index=self._board.index,
            board_name=self._board.name,
            model_name=entry.job.model_name,
            tenant_index=entry.job.tenant_index,
            launch_wave=entry.job.launch_wave,
            pid=entry.pid,
            identified_model=None,
            pixel_match_rate=None,
            nbytes=0,
            devmem_reads=0,
            pages_read=0,
            failed_step=step,
            detail=str(error),
            frames_scrubbed_sync=entry.frames_scrubbed_sync,
        )
