"""Natto feature flags and the paper's cumulative variant ladder."""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class NattoConfig:
    """Which of Natto's mechanisms are active.

    Timestamp ordering (TS) is Natto itself and is always on.  The
    remaining flags follow the evaluation's cumulative ladder.

    ``timestamp_margin`` is extra headroom (seconds) added to every
    assigned timestamp.  In the real system the p95-over-median gap of
    a jittery network provides this headroom implicitly; probe messages
    are also smaller and cheaper to serve than read-and-prepare
    requests, so a pure p95 estimate systematically undershoots the
    request's own delivery time.  The 2 ms default absorbs that bias
    (it is <2% of a WAN round trip); set it to 0 to ablate.
    """

    lecsf: bool = False
    pa: bool = False
    cp: bool = False
    recsf: bool = False
    timestamp_margin: float = 0.002
    #: §3.3.1's completion-time estimate: skip a priority abort when the
    #: low-priority transaction should finish before the high-priority
    #: execution time.  Off = always abort (an ablation knob).
    pa_skip_rule: bool = True

    @property
    def variant_name(self) -> str:
        if self.recsf:
            return "Natto-RECSF"
        if self.cp:
            return "Natto-CP"
        if self.pa:
            return "Natto-PA"
        if self.lecsf:
            return "Natto-LECSF"
        return "Natto-TS"

    def with_overrides(self, **kwargs) -> "NattoConfig":
        return replace(self, **kwargs)


def natto_ts(**kwargs) -> NattoConfig:
    """Basic timestamp-based prioritization only."""
    return NattoConfig(**kwargs)


def natto_lecsf(**kwargs) -> NattoConfig:
    """TS + Local ECSF."""
    return NattoConfig(lecsf=True, **kwargs)


def natto_pa(**kwargs) -> NattoConfig:
    """TS + LECSF + Priority Abort."""
    return NattoConfig(lecsf=True, pa=True, **kwargs)


def natto_cp(**kwargs) -> NattoConfig:
    """TS + LECSF + PA + Conditional Prepare."""
    return NattoConfig(lecsf=True, pa=True, cp=True, **kwargs)


def natto_recsf(**kwargs) -> NattoConfig:
    """All mechanisms: TS + LECSF + PA + CP + Remote ECSF."""
    return NattoConfig(lecsf=True, pa=True, cp=True, recsf=True, **kwargs)
