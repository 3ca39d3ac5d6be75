"""``Observer`` — the one observability hook every component holds.

The sinks are :class:`~repro.telemetry.Telemetry` (metrics + spans),
:class:`~repro.forensics.Forensics` (flight recorder, postmortems,
anomaly monitor) and :class:`~repro.obs.Observability` (causal traces,
attribution, burn-rate alerts).  An entry point (``VM``,
``run_workload``/``build_server_vm``/``run_server``, ``run_campaign``)
builds one observer from whichever sinks are enabled — None when none
is — and each component makes one guarded call per event::

    if self.observer is not None:
        self.observer.fleet("breaker_open", now, wid)

The observer fans the event out to the attached sinks under the names in
:data:`EVENTS`.  No sink charges a simulated counter.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.telemetry.profiler import ATTRIB_FIELDS


def _fleet(name: str, record: str):
    return (f"fleet.{name}", f"fleet_{name}", record, None)


#: event -> (telemetry counter, telemetry instant, flight-record kind,
#: trace hop); None = that sink ignores the event, ``{}`` is filled from
#: the event (scheme, reject reason).  Request spans (``request_recv``,
#: ``request_dropped``) go through :class:`Telemetry`'s span methods.
EVENTS = {
    # enclave and VM; ts = retired instructions
    "epc_fault": ("epc.faults", "epc_fault", "epc_fault", None),
    "epc_flush": ("epc.flushes", "epc_flush", "epc_flush", None),
    "violation": ("violations.{}", "bounds_violation", "violation", None),
    "request_recv": (None, None, "request_recv", None),
    "request_dropped": (None, None, "request_dropped", None),
    # NetworkSim; ts = the owning VM's instruction clock
    "net_delivered": ("net.delivered", None, None, None),
    "net_response": ("net.responses", None, None, None),
    "net_retry": ("net.retries", None, "net_retry", None),
    "net_error": ("net.request_errors", None, "net_error", None),
    "net_rejected": ("net.rejected", None, "net_rejected", None),
    # fleet worker; ts = the worker's instruction clock
    "worker_dispatch": (None, None, "dispatch", None),
    "dedup": (None, None, "dedup", None),
    # balancer, admission, supervisor, recovery, campaign; ts = ticks
    "admitted": (None, None, None, "admission"),
    "assigned": (None, None, None, "assign"),
    "dispatched": (None, None, None, "dispatch"),
    "rejected": (None, None, "request_rejected", "rejected"),
    "admission_reject": ("overload.reject_{}", "overload_reject_{}",
                         "admission_reject", None),
    "requeued": (None, None, "request_requeued", "requeue"),
    "hedged": (None, None, None, "requeue"),
    "expired": (None, None, "request_expired", "expired"),
    "breaker_open": _fleet("breaker_open", "breaker_open"),
    # A crash that kills the worker records worker_crash then worker_dead
    # but counts only fleet.dead; a survivable one counts fleet.crash.
    "worker_crash": _fleet("crash", "worker_crash"),
    "worker_dead": _fleet("dead", "worker_dead"),
    "worker_restart": _fleet("restart", "worker_restart"),
    "replica_promoted": _fleet("promote", "replica_promoted"),
    "hang_injected": (None, None, "hang_injected", None),
    **{f"recovery_{kind}": _fleet(f"recovery_{kind}", f"recovery_{kind}")
       for kind in ("state_loss", "replay_failed", "restored",
                    "unseal_rejected", "restore_failed", "promoted",
                    "snapshot_failed", "checkpoint")},
}


class Observer:
    """The enabled sinks of one run behind one handle; each of
    ``telemetry``, ``forensics`` and ``obs`` is a sink or None."""

    __slots__ = ("telemetry", "forensics", "obs")

    def __init__(self, telemetry=None, forensics=None, obs=None):
        self.telemetry = telemetry
        self.forensics = forensics
        self.obs = obs

    @classmethod
    def of(cls, telemetry=None, forensics=None,
           obs=None) -> Optional["Observer"]:
        """The observer over the enabled sinks given; None when none is
        enabled (a disabled sink is the same as no sink)."""
        sinks = [s if (s is not None and s.enabled) else None
                 for s in (telemetry, forensics, obs)]
        return cls(*sinks) if sinks != [None, None, None] else None

    # -- sink plumbing -----------------------------------------------------
    def _count(self, event: str, tid: Optional[int], cat: str, args,
               ts: Optional[int] = None, name: str = "") -> None:
        """Telemetry side of ``event``: bump its counter and drop its
        instant (at the trace's latest timestamp unless ``ts`` is given)."""
        counter, instant, _, _ = EVENTS[event]
        tracer = self.telemetry.tracer
        self.telemetry.registry.counter(counter.format(name)).inc()
        tracer.instant(instant.format(name),
                       tracer.last_ts if ts is None else ts, tid, cat=cat,
                       args=args)

    def _record(self, event: str, ts: int, cat: str, **fields) -> None:
        self.forensics.recorder.record(EVENTS[event][2], ts=ts, cat=cat,
                                       **fields)

    # -- run lifecycle -----------------------------------------------------
    def attach_vm(self, vm) -> None:
        """Hook a new VM: its own trace lane, EPC events from its enclave."""
        if self.telemetry is not None:
            self.telemetry.begin_run()
        vm.enclave.attach(self)

    def begin_campaign(self, config) -> None:
        if self.obs is not None:
            self.obs.begin_campaign(config, self.forensics)

    def label_run(self, name: str) -> None:
        if self.telemetry is not None:
            self.telemetry.label_run(name)

    def collect(self, enclave) -> None:
        """Run end: publish the final counters, cache and EPC figures."""
        if self.telemetry is None:
            return
        for name, value in enclave.counters.snapshot().items():
            self.gauge(f"sgx.{name}", value)
        for name, value in enclave.caches.stats().items():
            self.gauge(f"cache.{name}", value)
        if enclave.epc is not None:
            self.gauge("epc.peak_resident", enclave.epc.peak_resident)
            self.gauge("epc.pages_touched", len(enclave.epc.pages_touched))

    def fastpath_hits(self, stats: Dict[str, int]) -> None:
        """Publish compiled-block executions as ``vm.fastpath.block``;
        zeros are skipped, so a per-instruction-tier run publishes no
        fastpath entries and counter parity between the tiers holds."""
        for kind, hits in stats.items():
            if hits:
                self.count(f"vm.fastpath.{kind}", hits)

    def capture(self, vm, err, **context) -> None:
        """Postmortem for ``err`` (bounded, deduplicated by Forensics)."""
        if self.forensics is not None:
            self.forensics.capture(vm, err, **context)

    # -- telemetry-only metrics --------------------------------------------
    def count(self, name: str, n: int = 1) -> None:
        if self.telemetry is not None:
            self.telemetry.registry.counter(name).inc(n)

    def gauge(self, name: str, value) -> None:
        if self.telemetry is not None:
            self.telemetry.registry.gauge(name).set(value)

    def sample(self, name: str, value) -> None:
        if self.telemetry is not None:
            self.telemetry.registry.histogram(name).observe(value)

    # -- enclave and VM ----------------------------------------------------
    def epc_fault(self, page: int, ts: int, resident: int) -> None:
        if self.telemetry is not None:
            self._count("epc_fault", 0, "epc", {"page": page}, ts)
            self.sample("epc.resident_pages", max(1, resident))
        if self.forensics is not None:
            self._record("epc_fault", ts, "epc", page=page,
                         resident=resident)

    def epc_flush(self, evicted: int) -> None:
        if self.telemetry is not None:
            self._count("epc_flush", 0, "epc", {"evicted": evicted})
            self.count("epc.flush_evictions", evicted)
        if self.forensics is not None:
            self._record("epc_flush", 0, "epc", evicted=evicted)

    def violation(self, vm, scheme, err, tid: int) -> None:
        """A bounds check failed and its policy outcome is stamped;
        terminal policies also get a postmortem while the faulting stack
        is still intact."""
        ts = vm.counters.instructions
        if self.telemetry is not None:
            self._count("violation", tid, "violation",
                        {"scheme": scheme.name, "address": err.address,
                         "access": getattr(err, "access", None)},
                        ts, scheme.name)
        if self.forensics is not None:
            self._record(
                "violation", ts, "scheme",
                rid=getattr(vm, "request_id", None),
                wid=getattr(vm, "worker_id", None), tid=tid,
                scheme=scheme.name, address=err.address, lower=err.lower,
                upper=err.upper, access=err.access, function=err.function,
                outcome=err.outcome)
            from repro.vm.policy import ABORT, DROP_REQUEST
            if scheme.policy in (ABORT, DROP_REQUEST):
                self.forensics.capture(vm, err)

    def request_recv(self, vm, tid: int, conn: int, data: bytes) -> None:
        """``net_recv`` delivered a request.  Outside a fleet (whose
        balancer stamps its own rid) the NetworkSim message id becomes
        the request id forensics correlates on."""
        ts = vm.counters.instructions
        if self.telemetry is not None:
            self.telemetry.request_boundary(tid, ts, conn, len(data))
        if self.forensics is not None:
            mid = getattr(vm.net, "last_recv_mid", None)
            if not vm.external_rids:
                vm.request_id = mid
                vm.request_payload = data
            self._record("request_recv", ts, "request", rid=vm.request_id,
                         wid=vm.worker_id, tid=tid, conn=conn, mid=mid,
                         nbytes=len(data))

    def request_dropped(self, vm, thread, conn: int, err) -> None:
        """Drop-request recovery rolled ``thread`` back to its checkpoint."""
        ts = vm.counters.instructions
        if self.telemetry is not None:
            self.telemetry.request_dropped(thread.tid, ts, len(thread.frames))
        if self.forensics is not None:
            self._record("request_dropped", ts, "request",
                         rid=vm.request_id, wid=vm.worker_id,
                         tid=thread.tid, conn=conn,
                         reason=type(err).__name__)

    def net(self, event: str, clock, nbytes: Optional[int] = None,
            **fields) -> None:
        """NetworkSim event; ``clock()`` (0 without one) stamps the flight
        record and a response's ``nbytes`` feeds the response-size
        histogram."""
        if self.telemetry is not None:
            self.count(EVENTS[event][0])
            if nbytes is not None:
                self.sample("net.response_bytes", max(1, nbytes))
        if self.forensics is not None and EVENTS[event][2] is not None:
            self._record(event, clock() if clock is not None else 0, "net",
                         **fields)

    # -- fleet -------------------------------------------------------------
    def fleet(self, event: str, ts: int, wid: Optional[int] = None,
              rid: Optional[int] = None, detail: str = "",
              hop: Optional[Dict[str, object]] = None, **fields) -> None:
        """Fleet event: ``detail`` is the telemetry instant's detail
        string, ``hop`` the trace hop's fields, ``fields`` the flight
        record's."""
        counter, _, record, kind = EVENTS[event]
        if self.telemetry is not None and counter is not None:
            self._count(event, wid, "fleet",
                        {"worker": wid, "tick": ts, "detail": detail})
        if self.forensics is not None and record is not None:
            self._record(event, ts, "fleet", rid=rid, wid=wid, **fields)
        if self.obs is not None and kind is not None:
            self.obs.tracer.hop(rid, kind, ts, **(hop or {}))

    def worker_crash(self, now: int, wid: int, reason: str,
                     dead: bool) -> None:
        """``dead`` when the crash crossed the crash-loop threshold."""
        if self.forensics is not None:
            self._record("worker_crash", now, "fleet", wid=wid,
                         reason=reason)
            self.forensics.monitor.on_crash(now, wid)
        if dead:
            self.fleet("worker_dead", now, wid, detail=reason, reason=reason)
        elif self.telemetry is not None:
            self._count("worker_crash", wid, "fleet",
                        {"worker": wid, "tick": now, "detail": reason})

    def admission_reject(self, now: int, rid: int, priority: str,
                         reason: str) -> None:
        if self.telemetry is not None:
            self._count("admission_reject", 0, "overload",
                        {"tick": now, "priority": priority}, name=reason)
        if self.forensics is not None:
            self._record("admission_reject", now, "overload", rid=rid,
                         priority=priority, reason=reason)

    def worker_dispatch(self, vm, rid: int, wid: int, conn: int, mid: int,
                        payload: bytes):
        """A worker took ``rid``: stamp the VM's request identity for
        forensics and return the counter snapshot its attribution sample
        is measured from (None without obs)."""
        if self.forensics is not None:
            vm.request_id = rid
            vm.request_payload = payload
            self.fleet("worker_dispatch", vm.counters.instructions, wid,
                       rid, conn=conn, mid=mid)
        if self.obs is None:
            return None
        return (tuple(getattr(vm.counters, f) for f in ATTRIB_FIELDS),
                vm.enclave.cycles())

    def enclave_sample(self, vm, rid: int, wid: int, snapshot) -> None:
        """The attempt started at ``snapshot`` replied: its counter delta
        (exact, workers are depth-1) goes to attribution."""
        snap, cycles0 = snapshot
        delta = {f: getattr(vm.counters, f) - snap[i]
                 for i, f in enumerate(ATTRIB_FIELDS)}
        self.obs.enclave_sample(rid, wid, delta,
                                vm.enclave.cycles() - cycles0)

    def zombie_done(self, rid: int, now: int, status: str, wid: int) -> None:
        """An abandoned request completed anyway (its trace closed at
        expiry, so this lands as a ``zombie_done`` hop)."""
        if self.obs is not None:
            self.obs.tracer.terminal(rid, now, status, wid=wid)
