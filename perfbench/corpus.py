"""Workload inputs, generated from the seed.

:func:`balanced_spec` picks every campaign the workloads run.  The rest
of the module builds the analysis_service corpus; three kinds of dump
go up the wire:

- ``residue``: what a vulnerable-kernel campaign scrapes from one
  terminated victim (about 80-140 KiB); it attributes to a model;
- ``zeros``: what the same victim leaves under ``zero_on_free``, all
  zero bytes, which attributes to nothing;
- ``concat``: several residues back to back (0.5-0.88 MiB), the large
  mode of the latency distribution.  They stay under the daemon's
  default 1 MiB per-tenant upload burst, above which admission refuses
  for good (``retry_after = inf``).

New uploads cycle through the three kinds.  Half the requests upload
new bytes (a spool write and a new report row); the other half
re-upload the bytes of an earlier request (a dedup hit).  Carve presets cycle ``default``, ``fine``, ``coarse``, and
tenants rotate through :data:`TENANTS` names, so that even at four
times today's request rate no tenant's 2 jobs/s or 256 KiB/s bucket
refuses: a 0.88 MiB upload needs 3.5 s to refill, and a tenant's turn
comes round every ``TENANTS / rate`` seconds.

A request holds only indices and lengths; its bytes are rebuilt on
demand by :meth:`Corpus.data`, so the plan costs no memory and the
output check can regenerate exactly what was sent.
"""

from __future__ import annotations

import bisect
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from repro.campaign import CampaignSpec, build_schedule, run_campaign
from repro.campaign.runtime import DumpSpool

RESIDUE_VICTIMS = 12
"""Victims of the corpus campaign; each leaves one base residue."""

KINDS = ("residue", "zeros", "concat")
"""New uploads cycle through the kinds; re-uploads pick earlier ones."""
PRESETS = ("default", "fine", "coarse")
TENANTS = 2048
ZERO_BYTES = (80 * 1024, 140 * 1024)
CONCAT_BYTES = (512 * 1024, 900 * 1024)


def balanced_spec(seed: int, **fields) -> CampaignSpec:
    """The campaign for *seed*: every model of the mix gets a fair share.

    The spec's own seed is the first of ``seed * 100_000``, ``+ 1``,
    ... whose schedule gives each model of the mix within one victim
    of every other.  Models differ in cost (resnet50_pt victims take
    about a quarter longer), so without this the seed would move the
    measured speed; with it, the seed still chooses every victim's
    model, board slot and secret image.
    """
    for offset in range(100_000):
        spec = CampaignSpec(seed=seed * 100_000 + offset, **fields)
        counts = Counter(job.model_name for job in build_schedule(spec))
        shares = [counts[model] for model in set(spec.model_mix)]
        if max(shares) - min(shares) <= 1:
            return spec
    raise ValueError(f"no balanced schedule for seed {seed}")


@dataclass(frozen=True)
class Request:
    """One planned op: upload the bytes of request ``source``, submit."""

    index: int
    source: int
    """Index of the request whose bytes are uploaded (itself if new)."""
    kind: str
    parts: tuple[int, ...]
    """Base residues concatenated (one for ``residue``)."""
    length: int
    """Byte count of a ``zeros`` dump."""
    preset: str
    tenant: str


def base_residues(seed: int, spool_dir: Path) -> list[bytes]:
    """Residues a small vulnerable campaign scrapes, in job order."""
    spec = balanced_spec(seed, boards=2, victims=RESIDUE_VICTIMS)
    spool = DumpSpool(spool_dir)
    report = run_campaign(spec, executor="inprocess", spool=spool)
    residues = [
        spool.read(outcome.dump_sha256)
        for outcome in report.outcomes
        if outcome.dump_sha256 is not None and outcome.identified_model
    ]
    if not residues:
        raise RuntimeError("the corpus campaign leaked no residue")
    return residues


def build_plan(seed: int, residue_sizes: list[int], count: int) -> list[Request]:
    """*count* requests, a pure function of the seed and residue sizes."""
    rng = random.Random(seed * 1_000_003 + 17)
    tenants = [f"t{seed}-{index:04d}" for index in range(TENANTS)]
    rng.shuffle(tenants)
    zero_lengths = iter(rng.sample(range(*ZERO_BYTES), count))
    new_indices: list[int] = []
    plan: list[Request] = []
    for index in range(count):
        preset = PRESETS[index % len(PRESETS)]
        tenant = tenants[index % TENANTS]
        # At most two ops are in flight, so every request up to
        # index - 2 has finished uploading when this one starts.
        eligible = bisect.bisect_right(new_indices, index - 2)
        if eligible and rng.random() < 0.5:
            source = plan[new_indices[rng.randrange(eligible)]]
            plan.append(
                Request(index, source.index, source.kind, source.parts,
                        source.length, preset, tenant)
            )
            continue
        kind = KINDS[len(new_indices) % len(KINDS)]
        parts: tuple[int, ...] = ()
        length = 0
        if kind == "residue":
            parts = (rng.randrange(len(residue_sizes)),)
        elif kind == "zeros":
            length = next(zero_lengths)
        else:
            parts = _concat_parts(rng, residue_sizes)
        new_indices.append(index)
        plan.append(Request(index, index, kind, parts, length, preset, tenant))
    return plan


def _concat_parts(rng: random.Random, sizes: list[int]) -> tuple[int, ...]:
    low, high = CONCAT_BYTES
    target = rng.uniform(low, high)
    parts: list[int] = []
    total = 0
    for _ in range(64):
        if total >= target:
            break
        part = rng.randrange(len(sizes))
        if total + sizes[part] <= high:
            parts.append(part)
            total += sizes[part]
    if total < low:
        raise ValueError("residues too large to concatenate under the burst")
    return tuple(parts)


class Corpus:
    """The base residues plus the request plan built over them."""

    def __init__(self, residues: list[bytes], plan: list[Request]) -> None:
        self.residues = residues
        self.plan = plan

    def data(self, request: Request) -> bytes:
        """The exact bytes *request* uploads."""
        if request.kind == "zeros":
            return bytes(request.length)
        body = bytearray(b"".join(self.residues[part] for part in request.parts))
        # New bytes: XOR an 8-byte mark, unique to the request that
        # first uploaded them and never zero, into the body.
        source = request.source
        offset = (source * 2654435761) % (len(body) - 8)
        for position in range(8):
            body[offset + position] ^= 1 + (source // 255**position) % 255
        return bytes(body)
