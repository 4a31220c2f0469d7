"""Deterministic measurement-plane fault injection.

The substrate normally hands every algorithm clean, complete inputs; the
paper's realistic regime is the opposite — partial traceroutes, dead
sensors, flaky Looking Glasses, lossy control-plane feeds.  This package
supplies:

* :class:`FaultConfig` — per-mode fault rates;
* :class:`FaultPlan` — a seeded, order-independent fault schedule
  (parallel sweeps inject bit-for-bit the same faults as serial ones);
* :class:`DegradationReport` — per-run accounting of what was missing,
  over the counters :class:`DegradationCounters` declares.

Beyond *omission* faults (data goes missing), the plan also drives
*corruption* modes (:data:`CORRUPTION_MODES`): forged and duplicated
hops, injected routing loops, stale pre-failure rounds replayed as
current, flipped reachability bits, duplicated/misordered feed
messages, and Looking Glass answers served from the wrong epoch.
Corrupted records are screened by :mod:`repro.validate` before they
reach a diagnoser.

A third family, the *chaos* modes (:data:`CHAOS_MODES`), faults the
diagnosis service itself — shard crashes, stalls and slow shards — and
drives the supervision layer of :mod:`repro.stream.supervise`.

Injection happens at the measurement seams (probing, sensors, Looking
Glass, collector feeds); the diagnosis layer never sees this package,
only the degraded inputs — exactly like a real deployment.
"""

from repro.faults.plan import (
    CHAOS_MODES,
    CORRUPTION_MODES,
    FAULT_MODES,
    FORGED_ADDRESS_PREFIX,
    FaultConfig,
    FaultPlan,
)
from repro.faults.report import DegradationCounters, DegradationReport

__all__ = [
    "CHAOS_MODES",
    "CORRUPTION_MODES",
    "FAULT_MODES",
    "FORGED_ADDRESS_PREFIX",
    "FaultConfig",
    "FaultPlan",
    "DegradationCounters",
    "DegradationReport",
]
