"""Exception hierarchy for the repro package.

Every error raised by the simulation or the attack pipeline derives from
:class:`ReproError`, so callers can catch one base class.  The hierarchy
mirrors the layers of the system: hardware bus faults, MMU translation
faults, OS-level errors (bad pid, permission), and attack-stage failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class HardwareError(ReproError):
    """Base class for hardware-layer errors."""


class BusError(HardwareError):
    """A physical address does not decode to any device on the SoC bus."""

    def __init__(self, address: int, message: str | None = None) -> None:
        self.address = address
        super().__init__(message or f"bus error at physical address {address:#x}")


class DramAddressError(HardwareError):
    """A DRAM-relative offset is outside the device's capacity."""

    def __init__(self, offset: int, capacity: int) -> None:
        self.offset = offset
        self.capacity = capacity
        super().__init__(
            f"DRAM offset {offset:#x} out of range (capacity {capacity:#x})"
        )


class MmuError(ReproError):
    """Base class for memory-management errors."""


class OutOfMemoryError(MmuError):
    """The physical frame allocator has no free frames left."""


class TranslationFault(MmuError):
    """A virtual address has no mapping in the page table."""

    def __init__(self, virtual_address: int, pid: int | None = None) -> None:
        self.virtual_address = virtual_address
        self.pid = pid
        detail = f" (pid {pid})" if pid is not None else ""
        super().__init__(
            f"no translation for virtual address {virtual_address:#x}{detail}"
        )


class VmaError(MmuError):
    """An operation on a virtual memory area is invalid (overlap, bad range)."""


class OsError(ReproError):
    """Base class for PetaLinux (simulated OS) errors."""


class NoSuchProcessError(OsError):
    """The referenced pid does not exist (``ESRCH``)."""

    def __init__(self, pid: int) -> None:
        self.pid = pid
        super().__init__(f"no such process: pid {pid}")


class PermissionDeniedError(OsError):
    """The calling user may not perform the operation (``EACCES``).

    Raised only when the kernel is configured with hardened isolation;
    the paper's insecure default never raises this for procfs reads.
    """


class ProcessStateError(OsError):
    """The process is in the wrong state for the operation."""


class VitisError(ReproError):
    """Base class for Vitis-AI-runtime errors."""


class XModelFormatError(VitisError):
    """An xmodel blob fails to parse (bad magic, truncated, corrupt)."""


class UnknownModelError(VitisError):
    """The requested model name is not in the zoo."""

    def __init__(self, name: str) -> None:
        self.name = name
        super().__init__(f"unknown model: {name!r}")


class ImageFormatError(VitisError):
    """An image blob fails to parse or has inconsistent dimensions."""


class AttackError(ReproError):
    """Base class for attack-stage failures."""


class VictimNotFoundError(AttackError):
    """Step 1 polling never observed the victim process."""


class AddressHarvestError(AttackError):
    """Step 2 could not obtain the heap range or translate it."""


class ExtractionError(AttackError):
    """Step 3 failed to read physical memory (e.g. devmem blocked)."""


class IdentificationError(AttackError):
    """Step 4a could not attribute the dump to any profiled model."""


class ReconstructionError(AttackError):
    """Step 4b could not recover the input image from the dump."""


class ProfilingError(AttackError):
    """Offline profiling failed to locate the marker in the dump."""


class SpoolClosedError(ReproError):
    """A closed mmap-backed spool handle was used after ``close()``.

    The campaign spool memory-maps dump objects on read
    (``DumpSpool.open``); once the handle is closed the mapping is
    gone, and any further access raises this instead of handing out a
    segfault-adjacent stale view.
    """


class ProtocolError(ReproError):
    """A frame on the newline-JSON wire (:mod:`repro.wire`) that cannot
    be understood — torn, not a JSON object, over-long, an unknown op,
    or a stream closed before the answer.  Both stacks share it."""


class FabricError(ReproError):
    """Base class for distributed-campaign-fabric failures.

    The fabric (:mod:`repro.campaign.runtime.fabric`) runs one
    campaign across many hosts: a coordinator leases board shards to
    remote workers over a line-delimited JSON protocol.  Everything
    that can go wrong *between* hosts — protocol violations, fenced-off
    leases, corrupted dump transfers — derives from this class so a
    worker loop can catch one base and keep the board simulation's own
    error taxonomy (:class:`AttackError` and friends) untouched.
    """


class FabricProtocolError(FabricError, ProtocolError):
    """A malformed or unanswerable fabric message (torn stream, bad
    JSON, unknown op, missing field, or a connection that died
    mid-exchange)."""


class FabricConnectionError(FabricProtocolError):
    """The transport under a fabric exchange died — the connection was
    refused, reset, timed out, or closed mid-frame.

    Distinguished from its parent because this class is *retryable*:
    the request may never have reached the coordinator (or its reply
    was lost), so a :class:`~repro.utils.resilience.RetryPolicy`-driven
    client can redial, re-handshake, and replay the op.  Every fabric
    op is safe to replay — the journal dedups by ``job_id`` and leases
    fence by epoch — so reconnect-and-replay can never corrupt state.
    """


class FabricTimeoutError(FabricError):
    """``run_until_complete`` gave up waiting for the campaign.

    A *clean* timeout: the coordinator's journal, spool, and lease
    table are untouched — outstanding leases simply keep expiring —
    and ``close()`` remains safe to call.  The run directory stays
    resumable via :meth:`FabricCoordinator.resume
    <repro.campaign.runtime.fabric.FabricCoordinator.resume>`.
    """


class RetryExhaustedError(ReproError):
    """A retried operation ran out of attempts or deadline budget.

    Raised by :meth:`RetryPolicy.call
    <repro.utils.resilience.RetryPolicy.call>` (and the fabric's
    reconnect-and-replay client built on it) with the final underlying
    failure chained as ``__cause__``.  A fabric worker that surfaces
    this has deliberately given up on an unreachable coordinator —
    ``repro campaign work`` maps it to the documented exit code 4.
    """

    def __init__(self, op: str, attempts: int, elapsed: float) -> None:
        self.op = op
        self.attempts = attempts
        self.elapsed = elapsed
        super().__init__(
            f"{op}: retry budget exhausted after {attempts} attempt(s) "
            f"over {elapsed:.3f}s"
        )


class StaleLeaseError(FabricError):
    """An operation arrived under a lease that is no longer current.

    Leases are fencing tokens: when a worker misses its heartbeat
    deadline the coordinator reclaims the board and re-issues it under
    a new token, and every late message from the old holder — waves,
    heartbeats, completion markers — is rejected with this error so a
    partitioned-then-healed worker can never corrupt the journal.
    """

    def __init__(self, token: str, detail: str = "") -> None:
        self.token = token
        suffix = f" ({detail})" if detail else ""
        super().__init__(f"lease {token!r} is not current{suffix}")


class DumpTransferError(FabricError):
    """A dump shipped over the wire failed content verification.

    Spool objects travel by digest; the receiving end re-hashes the
    payload (:func:`repro.wire.decode_dump`, in the fabric and the
    analysis daemon alike) and refuses bytes that do not hash to the
    digest they claim, so a corrupted or tampered transfer can never be
    filed under a name it does not match.
    """


class ServiceError(ReproError):
    """Base class for analysis-service failures.

    The serving layer (:mod:`repro.service`) accepts dump uploads and
    analysis jobs from external clients over a newline-JSON protocol.
    Admission refusals and unknown references derive from this class
    so service loops can catch one base while the analysis itself
    keeps the :class:`AttackError` taxonomy; malformed frames raise the
    neutral :class:`ProtocolError` both wire stacks share.
    """


class QuotaExceededError(ServiceError):
    """A tenant's token bucket refused the request.

    Carries ``retry_after`` — the seconds until the bucket will have
    refilled enough to admit the identical request (``inf`` when the
    request is larger than the bucket's burst capacity and can never
    pass).  The daemon maps this to a ``quota`` wire response instead
    of buffering the work, so a hot tenant is throttled without
    degrading anyone else.
    """

    def __init__(self, tenant: str, what: str, retry_after: float) -> None:
        self.tenant = tenant
        self.what = what
        self.retry_after = retry_after
        super().__init__(
            f"tenant {tenant!r} exceeded its {what} quota; "
            f"retry in {retry_after:.3f}s"
        )


class BackpressureError(ServiceError):
    """The analysis queue is full; the daemon refuses to buffer more.

    Explicit backpressure: a bounded queue answers ``retry-after``
    instead of growing without bound.  Carries the advisory
    ``retry_after`` hint the wire response forwards.
    """

    def __init__(self, retry_after: float) -> None:
        self.retry_after = retry_after
        super().__init__(
            f"analysis queue is full; retry in {retry_after:.3f}s"
        )


class UnknownJobError(ServiceError):
    """A ``status`` request referenced a job id never issued."""

    def __init__(self, job_id: int) -> None:
        self.job_id = job_id
        super().__init__(f"unknown job id {job_id}")


class UnknownDatabaseError(ServiceError):
    """A ``submit`` request named a signature database never loaded."""

    def __init__(self, name: str) -> None:
        self.name = name
        super().__init__(f"no signature database named {name!r}")


class ServiceDrainingError(ServiceError):
    """The daemon is draining (SIGTERM received); no new work is
    admitted.  Jobs accepted before the drain began still complete and
    stream their deltas — drain loses nothing, it only closes the
    door."""


class MetricsError(ReproError):
    """Base class for evaluation-metric failures.

    Metrics are pure functions over campaign artifacts; everything that
    can make one undefined — an empty sample, mismatched inputs —
    derives from this class so summarizers can catch one base instead
    of a bare ``ValueError`` they cannot tell apart from a programming
    mistake.
    """


class EmptyMetricError(MetricsError, ValueError):
    """A metric was asked to summarize an empty sample.

    Zero-victim runs are legal inputs now that explored scenarios and
    degenerate sweeps can produce them, so rate metrics raise this
    *typed* error instead of a bare ``ValueError``; callers that have a
    defined answer for "no victims" (``summarize_run`` reports 0.0)
    catch it explicitly.  Subclasses ``ValueError`` too, so pre-typed
    ``except ValueError`` call sites keep working unchanged.
    """

    def __init__(self, metric: str, what: str) -> None:
        self.metric = metric
        self.what = what
        super().__init__(f"{metric}: {what} is empty; the rate is undefined")


class CampaignInterrupted(ReproError):
    """A checkpointable campaign stopped before finishing every board.

    Raised by the campaign runtime when its configured fault-injection
    point (``interrupt_after``) fires — the simulated equivalent of the
    operator's process dying mid-run.  The run directory's journal and
    spool survive; ``repro campaign run --resume <dir>`` continues the
    campaign deterministically.
    """

    def __init__(self, run_dir: str, outcomes_journaled: int) -> None:
        self.run_dir = run_dir
        self.outcomes_journaled = outcomes_journaled
        super().__init__(
            f"campaign interrupted after {outcomes_journaled} journaled "
            f"outcome(s); resume from {run_dir}"
        )
