"""Sensitivity studies: are the conclusions artefacts of the latency model?

Two robustness checks that the paper's fixed constants invite:

* **remote-latency sweep** — the paper charges SNUG 40 cycles per remote hit
  (10 more than CC/DSR for the G/T vector lookup).  Sweeping the SNUG remote
  latency shows how much headroom the scheme has before the extra lookup
  erases its placement advantage (every remote hit still saves
  ``dram - remote`` cycles, so gains degrade gracefully).
* **bus-contention toggle** — the default bus only accounts traffic
  (Section 4.1's constants already amortize transfer costs); turning the
  occupancy/queueing model on charges real queueing delay and verifies the
  scheme ordering is not an artefact of the free-bus assumption.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Sequence

from ..common.config import SystemConfig
from ..workloads.mixes import get_mix
from .ablation import AblationPoint, throughput_vs_l2p
from .runner import RunPlan

__all__ = ["sweep_remote_latency", "toggle_bus_contention"]


def sweep_remote_latency(
    config: SystemConfig,
    plan: RunPlan,
    latencies: Sequence[int] = (20, 30, 40, 60, 100),
    mix_id: str = "c5_0",
) -> List[AblationPoint]:
    """SNUG throughput vs L2P as the G/T-lookup-inclusive latency grows."""
    mix = get_mix(mix_id)
    points: List[AblationPoint] = []
    for latency in latencies:
        cfg = config.with_(latency=replace(config.latency, l2_remote_snug=latency))
        [row] = throughput_vs_l2p(cfg, plan, [mix], ("snug",))
        points.append(AblationPoint(
            label=f"remote={latency}", throughput_vs_l2p=row["snug"]
        ))
    return points


def toggle_bus_contention(
    config: SystemConfig,
    plan: RunPlan,
    mix_id: str = "c5_0",
    schemes: Sequence[str] = ("cc", "dsr", "snug"),
) -> dict[str, dict[bool, float]]:
    """Scheme throughput vs L2P with the bus occupancy model off and on.

    Returns ``{scheme: {False: x, True: y}}`` where the key is the
    ``model_contention`` flag.
    """
    mix = get_mix(mix_id)
    out: dict[str, dict[bool, float]] = {s: {} for s in schemes}
    for contention in (False, True):
        cfg = config.with_(bus=replace(config.bus, model_contention=contention))
        [row] = throughput_vs_l2p(cfg, plan, [mix], schemes)
        for scheme in schemes:
            out[scheme][contention] = row[scheme]
    return out
