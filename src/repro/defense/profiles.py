"""Named hardening profiles — composable countermeasure bundles.

A :class:`DefenseConfig` composes the three defense axes the paper's
related work discusses into one named profile:

- **sanitize policy** (+ scrub-daemon rate) — what happens to a dead
  process's frames (:mod:`repro.petalinux.sanitizer`);
- **ASLR strength** — physical and/or virtual layout randomization
  (:mod:`repro.petalinux.aslr`);
- **Xen domain pinning** — whether a hypervisor confines each user's
  physical reads to their own domain, or passes ``/dev/mem`` through
  like the PetaLinux-generated default (:mod:`repro.petalinux.xen`).

Elementary profiles (``none``, ``zero_on_free``, ``scrub_pool``,
``aslr``, ``pinned_xen``, ``passthrough_xen``) compose with ``+``:
``defense_profile("scrub_pool+pinned_xen")`` is a board that both
scrubs asynchronously and pins domains.  ``full`` is the everything-on
bundle.  :meth:`DefenseConfig.kernel_config` lowers a profile onto the
:class:`~repro.petalinux.kernel.KernelConfig` every fleet board boots
with — the provisioning-time half of a defended campaign.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from repro.campaign.fleet import tenant_uids
from repro.campaign.schedule import CampaignSpec
from repro.hw.board import BOARDS
from repro.hw.dram import PAGE_SIZE
from repro.petalinux.aslr import LayoutRandomization
from repro.petalinux.kernel import DEFAULT_RESERVED_FRAMES, KernelConfig
from repro.petalinux.sanitizer import SanitizePolicy
from repro.petalinux.xen import XenDeployment, XenDomain

ATTACKER_UID = 1001
"""The standard attacker account (``pts/0``) every session logs in."""

MAX_FRAMES_PER_DOMAIN = 0x4000
"""Upper bound on a guest domain's window (64 MiB) so a fleet of
mixed-tenant boards always fits below the smallest board's DRAM."""


class XenPolicy(enum.Enum):
    """How (whether) the hypervisor partitions physical memory."""

    NONE = "none"
    """Bare PetaLinux — no hypervisor at all (the paper's testbed)."""
    PASSTHROUGH = "passthrough"
    """Xen present but the user-generated default config passes
    ``/dev/mem`` through — domains exist, nothing is enforced.  The
    "gaping security hole" of paper §I and the Resurrection Attack's
    starting point."""
    PINNED = "pinned"
    """A properly administered deployment: every domain pinned to its
    physical window, cross-domain reads rejected."""


@dataclass(frozen=True)
class DefenseConfig:
    """One named bundle of countermeasures for the defense arena."""

    name: str
    sanitize_policy: SanitizePolicy = SanitizePolicy.NONE
    scrub_rate_per_tick: int = 64
    """Frames the background daemon scrubs per scheduler tick (only
    meaningful under ``SCRUB_POOL``)."""
    physical_aslr: bool = False
    virtual_aslr: bool = False
    aslr_seed: int = 3
    xen: XenPolicy = XenPolicy.NONE
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("profile name must be non-empty")
        if self.scrub_rate_per_tick <= 0:
            raise ValueError(
                f"scrub_rate_per_tick must be positive, "
                f"got {self.scrub_rate_per_tick}"
            )

    # -- composition ---------------------------------------------------------

    def compose(self, other: "DefenseConfig") -> "DefenseConfig":
        """Merge two profiles into one (``a+b`` in profile syntax).

        Axes must not conflict: two different non-``NONE`` sanitize
        policies, or pinned vs passthrough Xen, cannot be combined.
        """
        if (
            self.sanitize_policy is not SanitizePolicy.NONE
            and other.sanitize_policy is not SanitizePolicy.NONE
            and self.sanitize_policy is not other.sanitize_policy
        ):
            raise ValueError(
                f"profiles {self.name!r} and {other.name!r} set "
                f"conflicting sanitize policies"
            )
        if (
            self.sanitize_policy is SanitizePolicy.SCRUB_POOL
            and other.sanitize_policy is SanitizePolicy.SCRUB_POOL
            and self.scrub_rate_per_tick != other.scrub_rate_per_tick
        ):
            raise ValueError(
                f"profiles {self.name!r} and {other.name!r} set "
                f"conflicting scrub rates"
            )
        if (
            self.xen is not XenPolicy.NONE
            and other.xen is not XenPolicy.NONE
            and self.xen is not other.xen
        ):
            raise ValueError(
                f"profiles {self.name!r} and {other.name!r} set "
                f"conflicting Xen policies"
            )
        self_aslr = self.physical_aslr or self.virtual_aslr
        other_aslr = other.physical_aslr or other.virtual_aslr
        if self_aslr and other_aslr and self.aslr_seed != other.aslr_seed:
            raise ValueError(
                f"profiles {self.name!r} and {other.name!r} set "
                f"conflicting ASLR seeds"
            )
        sanitize = (
            other.sanitize_policy
            if self.sanitize_policy is SanitizePolicy.NONE
            else self.sanitize_policy
        )
        # The scrub rate and the ASLR seed follow whichever side owns
        # the axis, so a custom rate/seed survives composition with a
        # profile that leaves that axis alone.
        scrub_rate = (
            self.scrub_rate_per_tick
            if self.sanitize_policy is SanitizePolicy.SCRUB_POOL
            else other.scrub_rate_per_tick
            if other.sanitize_policy is SanitizePolicy.SCRUB_POOL
            else self.scrub_rate_per_tick
        )
        aslr_seed = other.aslr_seed if other_aslr and not self_aslr else self.aslr_seed
        return DefenseConfig(
            name=f"{self.name}+{other.name}",
            sanitize_policy=sanitize,
            scrub_rate_per_tick=scrub_rate,
            physical_aslr=self.physical_aslr or other.physical_aslr,
            virtual_aslr=self.virtual_aslr or other.virtual_aslr,
            aslr_seed=aslr_seed,
            xen=other.xen if self.xen is XenPolicy.NONE else self.xen,
            description="; ".join(
                part for part in (self.description, other.description) if part
            ),
        )

    # -- lowering ------------------------------------------------------------

    def kernel_config(self, spec: CampaignSpec) -> KernelConfig:
        """The :class:`KernelConfig` every board of *spec*'s fleet boots.

        Only the axes this profile owns are hardened; the paper's
        procfs/pagemap/devmem holes stay open so the arena measures
        what sanitization, ASLR, and domain pinning achieve *on their
        own* against the full four-step attack.
        """
        return KernelConfig(
            sanitize_policy=self.sanitize_policy,
            scrub_rate_per_tick=self.scrub_rate_per_tick,
            randomization=LayoutRandomization(
                physical=self.physical_aslr,
                virtual=self.virtual_aslr,
                seed=self.aslr_seed,
            ),
            xen=self._deployment(spec),
        )

    def _deployment(self, spec: CampaignSpec) -> XenDeployment | None:
        if self.xen is XenPolicy.NONE:
            return None
        return campaign_deployment(
            tenant_uids(spec),
            dev_mem_passthrough=self.xen is XenPolicy.PASSTHROUGH,
            total_frames=_min_fleet_frames(spec),
        )

    def describe(self) -> str:
        """Short human-readable summary for matrix rows."""
        parts = [f"sanitize={self.sanitize_policy.value}"]
        if self.sanitize_policy is SanitizePolicy.SCRUB_POOL:
            parts.append(f"rate={self.scrub_rate_per_tick}/tick")
        aslr = []
        if self.physical_aslr:
            aslr.append("phys")
        if self.virtual_aslr:
            aslr.append("virt")
        parts.append("aslr=" + ("+".join(aslr) if aslr else "off"))
        parts.append(f"xen={self.xen.value}")
        return ", ".join(parts)


def _min_fleet_frames(spec: CampaignSpec) -> int:
    """Frame count of the smallest board the fleet mixes in."""
    return min(
        BOARDS[name].dram_size // PAGE_SIZE for name in spec.board_names
    )


def campaign_deployment(
    victim_uids: tuple[int, ...],
    dev_mem_passthrough: bool,
    total_frames: int,
    base_frame: int = DEFAULT_RESERVED_FRAMES,
    attacker_uid: int = ATTACKER_UID,
) -> XenDeployment:
    """A Xen deployment sized for one campaign board.

    One domain for the attacker's login plus one per victim tenant,
    side by side above the kernel-reserved frames.  Windows shrink to
    fit *total_frames* (the smallest board in the fleet mix) so the
    same deployment boots on every fleet member.
    """
    domain_count = 1 + len(victim_uids)
    available = total_frames - base_frame
    frames_per_domain = min(MAX_FRAMES_PER_DOMAIN, available // domain_count)
    if frames_per_domain <= 0:
        raise ValueError(
            f"{domain_count} domains do not fit in {available:#x} frames"
        )
    domains = [
        XenDomain(
            name="domU-attacker",
            uids=frozenset({attacker_uid}),
            frame_start=base_frame,
            frame_end=base_frame + frames_per_domain,
        )
    ]
    for index, uid in enumerate(victim_uids):
        start = base_frame + (1 + index) * frames_per_domain
        domains.append(
            XenDomain(
                name=f"domU-tenant{index}",
                uids=frozenset({uid}),
                frame_start=start,
                frame_end=start + frames_per_domain,
            )
        )
    return XenDeployment(
        domains=domains, dev_mem_passthrough=dev_mem_passthrough
    )


# -- the named profile registry -----------------------------------------------

_ELEMENTARY = {
    "none": DefenseConfig(
        name="none",
        description="the vulnerable PetaLinux default the paper measured",
    ),
    "zero_on_free": DefenseConfig(
        name="zero_on_free",
        sanitize_policy=SanitizePolicy.ZERO_ON_FREE,
        description="synchronous per-page scrub at teardown",
    ),
    "scrub_pool": DefenseConfig(
        name="scrub_pool",
        sanitize_policy=SanitizePolicy.SCRUB_POOL,
        description="asynchronous background scrubber (window of "
        "vulnerability)",
    ),
    "aslr": DefenseConfig(
        name="aslr",
        physical_aslr=True,
        virtual_aslr=True,
        description="physical + virtual layout randomization",
    ),
    "pinned_xen": DefenseConfig(
        name="pinned_xen",
        xen=XenPolicy.PINNED,
        description="Xen domains pinned to physical windows, "
        "cross-domain reads rejected",
    ),
    "passthrough_xen": DefenseConfig(
        name="passthrough_xen",
        xen=XenPolicy.PASSTHROUGH,
        description="Xen present but /dev/mem passed through — the "
        "misconfiguration the paper found",
    ),
}

PROFILE_NAMES = tuple(sorted(_ELEMENTARY)) + ("full",)
"""Every predefined profile name (``+``-compositions not enumerated)."""

DEFAULT_SWEEP = ("none", "zero_on_free", "scrub_pool", "aslr", "pinned_xen")
"""The profiles ``repro defense sweep`` runs by default."""


DEFAULT_SCRUB_RATES = (16, 64, 256)
"""Scrub-daemon rates (frames/tick) :func:`defense_config_space`
enumerates for the asynchronous scrubber axis."""


def defense_config_space(
    scrub_rates: tuple[int, ...] = DEFAULT_SCRUB_RATES,
) -> tuple[DefenseConfig, ...]:
    """Every combination of the defense axes, as concrete configs.

    The named-profile list (:data:`DEFAULT_SWEEP`) samples a few
    hand-picked points; the Pareto sweep (:mod:`repro.explore.pareto`)
    instead walks this full cross product — sanitize policy (off,
    synchronous zero-on-free, or the background scrubber at each of
    *scrub_rates*) × ASLR (off / physical+virtual) × Xen (absent /
    pinned) — and keeps only the non-dominated frontier.  Names are
    canonical ``+``-joined axis labels (``scrub_pool@16+aslr``), with
    the all-off corner named ``none``, and the enumeration order is
    deterministic so downstream reports stay byte-stable.

    >>> len(defense_config_space((16, 64)))
    16
    >>> defense_config_space()[0].name
    'none'
    """
    if not scrub_rates:
        raise ValueError("scrub_rates must be non-empty")
    if any(rate <= 0 for rate in scrub_rates):
        raise ValueError(f"scrub rates must be positive, got {scrub_rates}")
    if len(set(scrub_rates)) != len(scrub_rates):
        raise ValueError(f"duplicate scrub rates: {scrub_rates}")
    sanitize_axis: list[tuple[str, SanitizePolicy, int]] = [
        ("", SanitizePolicy.NONE, 64),
        ("zero_on_free", SanitizePolicy.ZERO_ON_FREE, 64),
    ] + [
        (f"scrub_pool@{rate}", SanitizePolicy.SCRUB_POOL, rate)
        for rate in scrub_rates
    ]
    configs = []
    for label, policy, rate in sanitize_axis:
        for aslr in (False, True):
            for xen in (XenPolicy.NONE, XenPolicy.PINNED):
                parts = [
                    part
                    for part in (
                        label,
                        "aslr" if aslr else "",
                        "pinned_xen" if xen is XenPolicy.PINNED else "",
                    )
                    if part
                ]
                configs.append(
                    DefenseConfig(
                        name="+".join(parts) or "none",
                        sanitize_policy=policy,
                        scrub_rate_per_tick=rate,
                        physical_aslr=aslr,
                        virtual_aslr=aslr,
                        xen=xen,
                        description="config-space point",
                    )
                )
    return tuple(configs)


def defense_profile(name: str) -> DefenseConfig:
    """Resolve a profile name, composing ``a+b+...`` syntax.

    >>> defense_profile("zero_on_free").sanitize_policy
    <SanitizePolicy.ZERO_ON_FREE: 'zero_on_free'>
    >>> combo = defense_profile("scrub_pool+pinned_xen")
    >>> (combo.sanitize_policy.value, combo.xen.value)
    ('scrub_pool', 'pinned')
    """
    if name == "full":
        composed = defense_profile("zero_on_free+aslr+pinned_xen")
        return replace(
            composed, name="full", description="every axis hardened at once"
        )
    parts = [part.strip() for part in name.split("+")]
    try:
        configs = [_ELEMENTARY[part] for part in parts]
    except KeyError as error:
        raise ValueError(
            f"unknown defense profile {error.args[0]!r}; known: "
            f"{', '.join(PROFILE_NAMES)}"
        ) from None
    profile = configs[0]
    for other in configs[1:]:
        profile = profile.compose(other)
    return profile
