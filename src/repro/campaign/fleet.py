"""Fleet provisioning — booting N board twins for one campaign.

Each provisioned board is a full :class:`BoardSession` (SoC + kernel +
attacker terminal) plus the campaign extras: one victim-side shell per
tenant and one :class:`~repro.attack.addressing.TranslationCache`
shared by every attack mounted on that board.  Board specs cycle
through the spec's ``board_names`` the way a cloud region mixes
instance types, and each board boots with its own DRAM fill seed so
power-up residue differs across the fleet.

Boards boot the vulnerable default kernel unless the caller injects a
:class:`~repro.petalinux.kernel.KernelConfig` — the provisioning-time
half of how the :mod:`repro.defense` arena runs the same campaign
under different hardening profiles (the scrape delay is the other).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.attack.addressing import TranslationCache
from repro.campaign.schedule import CampaignSpec
from repro.evaluation.scenarios import BoardSession
from repro.hw.board import fleet_specs
from repro.petalinux.kernel import KernelConfig
from repro.petalinux.shell import Shell

# The standard terminals take uids 1001/1002 and pts/0-1; extra
# tenants slot in above both ranges.
_EXTRA_TENANT_UID_BASE = 1100


def tenant_uids(spec: CampaignSpec) -> tuple[int, ...]:
    """The victim-side uids a provisioned board will host.

    Tenant 0 is the standard victim account (uid 1002); extras get
    uids above :data:`_EXTRA_TENANT_UID_BASE`.  Exposed so defense
    profiles can pin Xen domains to exactly the users the campaign
    will run.
    """
    uids = [1002]
    for extra in range(1, spec.tenants_per_board):
        uids.append(_EXTRA_TENANT_UID_BASE + extra)
    return tuple(uids)


@dataclass
class ProvisionedBoard:
    """One booted fleet member, ready to run victims and attacks."""

    index: int
    session: BoardSession
    tenant_shells: list[Shell]
    translation_cache: TranslationCache

    @property
    def name(self) -> str:
        """The underlying board spec name (``ZCU104``/``ZCU102``)."""
        return self.session.soc.board.name

    def tenant(self, tenant_index: int) -> Shell:
        """The victim-side shell for one tenant slot."""
        return self.tenant_shells[tenant_index]


def provision_board(
    spec: CampaignSpec,
    index: int,
    kernel_config: KernelConfig | None = None,
) -> ProvisionedBoard:
    """Boot fleet member *index* of the campaign described by *spec*.

    Each board is a pure function of ``(spec, index)``: the spec picks
    the board model, the index seeds the power-up DRAM fill, and the
    kernel boots fresh — which is what lets the campaign runtime
    provision boards lazily, in any process, and still get the exact
    simulation an up-front :func:`provision_fleet` would have built.

    Tenant 0 is the session's standard victim terminal; additional
    tenants log in as fresh users on their own pseudo-terminals, so
    co-resident victims in one wave genuinely run under different
    uids (the multi-tenant threat model).
    """
    board_spec = fleet_specs(spec.boards, spec.board_names)[index]
    session = BoardSession.boot(
        config=kernel_config,
        board=board_spec,
        input_hw=spec.input_hw,
        fill_seed=index,
    )
    tenants = [session.victim_shell]
    for extra, extra_uid in enumerate(tenant_uids(spec)[1:], start=1):
        tenants.append(
            session.add_tenant(
                name=f"guest{extra}",
                uid=extra_uid,
                tty=f"pts/{1 + extra}",
            )
        )
    return ProvisionedBoard(
        index=index,
        session=session,
        tenant_shells=tenants,
        translation_cache=TranslationCache(),
    )


def provision_fleet(
    spec: CampaignSpec, kernel_config: KernelConfig | None = None
) -> list[ProvisionedBoard]:
    """Boot the whole fleet described by *spec*.

    *kernel_config* boots every board hardened (or differently
    misconfigured) instead of with the vulnerable default — the
    defense arena's provisioning hook.
    """
    return [
        provision_board(spec, index, kernel_config)
        for index in range(spec.boards)
    ]
