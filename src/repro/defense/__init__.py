"""Attack/defense co-evaluation — the countermeasure arena.

The paper's closing argument (echoed by the *Resurrection Attack* and
quantified by *Pentimento*) is that memory scraping persists because
countermeasures are absent or misconfigured.  This package turns that
argument into an experiment: compose countermeasures into named
hardening profiles, run the full fleet campaign of :mod:`repro.campaign`
under each, and tabulate leakage against overhead.

- :mod:`repro.defense.profiles` — :class:`DefenseConfig` composing
  sanitize policy (+ scrub-daemon tuning), ASLR strength, and Xen
  domain pinning; named profiles with ``a+b`` composition;
- :mod:`repro.defense.arena` — :func:`run_defense_arena`: one campaign
  per profile through the engine's kernel config and scrape delay,
  plus the fine-tuned-weight-theft probe;
- :mod:`repro.defense.matrix` — :class:`DefenseMatrix` /
  :class:`DefenseRow`: leakage-vs-overhead rows, JSON round-trip,
  text and markdown renderers.

Quick use (also exposed as ``repro defense sweep``):

>>> from repro.campaign import CampaignSpec
>>> from repro.defense import run_defense_arena
>>> matrix = run_defense_arena(
...     CampaignSpec(boards=1, victims=1, model_mix=("resnet50_pt",)),
...     profiles=("none", "zero_on_free"),
...     weight_theft=False,
... )
>>> [row.success_rate for row in matrix.rows]
[1.0, 0.0]
>>> matrix.row("zero_on_free").residue_bytes
0
"""

from repro.defense.arena import (
    prepare_weight_probe,
    probe_weight_theft,
    run_defense_arena,
    summarize_run,
)
from repro.defense.matrix import DefenseMatrix, DefenseRow
from repro.defense.profiles import (
    DEFAULT_SCRUB_RATES,
    DEFAULT_SWEEP,
    PROFILE_NAMES,
    DefenseConfig,
    XenPolicy,
    campaign_deployment,
    defense_config_space,
    defense_profile,
)

__all__ = [
    "DEFAULT_SCRUB_RATES",
    "DEFAULT_SWEEP",
    "PROFILE_NAMES",
    "DefenseConfig",
    "DefenseMatrix",
    "DefenseRow",
    "XenPolicy",
    "prepare_weight_probe",
    "campaign_deployment",
    "defense_config_space",
    "defense_profile",
    "probe_weight_theft",
    "run_defense_arena",
    "summarize_run",
]
