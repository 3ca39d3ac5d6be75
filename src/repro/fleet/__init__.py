"""Enclave fleet: N workers behind a balancer, supervised crash-restart.

The paper's availability argument (§6.4) is about one enclave: fail-stop
turns every detected violation into a dead server, so tolerant policies
(drop-request, boundless) keep the service up.  Production shielded
services run *fleets*, where the real cost of fail-stop is the enclave
cold start — rebuild, re-attestation, and re-warming the working set into
a cold EPC — charged on every crash while the balancer routes around the
hole.  This package simulates that layer end to end:

* :mod:`repro.fleet.worker` — one enclave incarnation serving requests
  depth-1 through a blocking ``net_recv``;
* :mod:`repro.fleet.supervisor` — the failure lifecycle (starting →
  healthy → degraded → crashed → restarting → dead), restart cost on the
  simulated clock via :class:`repro.sgx.ColdStartModel`, watchdog budgets
  and crash-loop detection;
* :mod:`repro.fleet.balancer` — deterministic dispatch (round-robin /
  least-outstanding), per-worker circuit breakers, bounded retries and
  hedged re-dispatch of stranded requests;
* :mod:`repro.fleet.slo` — availability + latency percentiles from
  deterministic histograms;
* :mod:`repro.fleet.campaign` — seeded fault scenarios (poison storms,
  flash crowds, watchdog hangs) scripted into one reproducible run.

Campaigns can additionally run with stateful recovery
(:mod:`repro.recovery`): sealed checkpoints, write-ahead replay of
acknowledged mutations, and replica failover — see
:class:`repro.fleet.campaign.CampaignConfig.recovery` — and with
overload protection (:mod:`repro.overload`): deadline-aware admission
at the ingress queues, brownout priority shedding, and budgeted client
retries — see :class:`repro.fleet.campaign.CampaignConfig.overload`.
"""

from repro.fleet.balancer import Balancer, CircuitBreaker, Request
from repro.fleet.campaign import CampaignConfig, CampaignResult, run_campaign
from repro.fleet.slo import SLOTracker
from repro.fleet.supervisor import (
    CRASHED,
    DEAD,
    DEGRADED,
    HEALTHY,
    RESTARTING,
    STARTING,
    Supervisor,
)
from repro.fleet.worker import EnclaveWorker, TickReport

__all__ = [
    "Balancer",
    "CircuitBreaker",
    "Request",
    "CampaignConfig",
    "CampaignResult",
    "run_campaign",
    "SLOTracker",
    "Supervisor",
    "STARTING",
    "HEALTHY",
    "DEGRADED",
    "CRASHED",
    "RESTARTING",
    "DEAD",
    "EnclaveWorker",
    "TickReport",
]
