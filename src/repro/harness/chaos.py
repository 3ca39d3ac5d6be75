"""Chaos harness: availability of the server case studies under faults.

The paper's Fig. 13 measures the servers on clean traffic; this harness
measures what a *shielded service* actually buys you — it drives the same
memcached/nginx/apache models through the seeded fault injectors
(:mod:`repro.faults`) and compares violation policies by availability:

    availability = responses the clients got / requests they pushed

Fail-stop (``abort``) loses the whole server at the first malformed
request; ``drop-request`` loses only the poisoned requests; ``boundless``
serves even those (with zeros for the out-of-bounds tails).  The chaos
sweep quantifies that ordering, plus the cycle cost of recovery.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.faults import FaultInjector, LengthField, RequestFuzzer, derive
from repro.harness import report
from repro.harness.experiments import APP_CONFIG
from repro.harness.runner import RunResult, run_server
from repro.workloads import NetworkSim
from repro.workloads.apps import apache, memcached, nginx, sqlite_server


class ChaosProfile:
    """Per-app fuzzing profile: protocol shape + scripted attacks."""

    __slots__ = ("module", "threads", "length_field", "attacks", "weights")

    def __init__(self, module, threads: int, length_field: LengthField,
                 attacks: Sequence[Callable[[], bytes]],
                 weights: Dict[str, float]):
        self.module = module
        self.threads = threads
        self.length_field = length_field
        self.attacks = list(attacks)
        self.weights = weights


#: Protocol layouts match the request builders in ``repro.workloads.apps``:
#: memcached ``(op, keylen, <H vallen, ...)``, nginx chunked
#: ``(2, <i size, ...)``, apache heartbeat ``(1, <H len, ...)``.
PROFILES: Dict[str, ChaosProfile] = {
    "memcached": ChaosProfile(
        memcached, threads=1,
        length_field=LengthField(offset=2, width=2),
        attacks=(memcached.cve_2011_4971_request,),
        weights={"oob-probe": 0.5, "inflate-length": 0.2,
                 "truncate": 0.15, "bit-flip": 0.15}),
    "nginx": ChaosProfile(
        nginx, threads=1,
        length_field=LengthField(offset=1, width=4, signed=True),
        attacks=(nginx.cve_2013_2028_request,),
        weights={"oob-probe": 0.4, "negative-length": 0.2,
                 "inflate-length": 0.15, "truncate": 0.1, "bit-flip": 0.15}),
    "apache": ChaosProfile(
        apache, threads=2,
        length_field=LengthField(offset=1, width=2),
        attacks=(apache.heartbleed_request,),
        weights={"oob-probe": 0.5, "inflate-length": 0.25,
                 "truncate": 0.1, "bit-flip": 0.15}),
    # Write-heavy stateful app for the recovery experiments; not part of
    # the default chaos_availability() app set, so existing sweeps are
    # unchanged.
    "sqlite_kv": ChaosProfile(
        sqlite_server, threads=1,
        length_field=LengthField(offset=2, width=2),
        attacks=(sqlite_server.blob_overflow_request,),
        weights={"oob-probe": 0.5, "inflate-length": 0.2,
                 "truncate": 0.15, "bit-flip": 0.15}),
}


def run_chaos_server(app_name: str, scheme: str = "sgxbounds",
                     policy: str = "drop-request", fault_rate: float = 0.2,
                     size: str = "XS", seed: int = 1234,
                     retry_limit: int = 1,
                     epc_spike_rate: Optional[float] = None,
                     tag_flip_rate: float = 0.0,
                     telemetry=None) -> RunResult:
    """One chaos run: fuzzed workload + runtime faults + hardened clients.

    Every random component gets its own sub-seed derived from ``seed``, so
    two runs with identical arguments are byte-identical.
    """
    profile = PROFILES[app_name]
    mod = profile.module
    count = mod.SIZES[size]
    requests = mod.workload(count)
    fuzzer = RequestFuzzer(derive(seed, f"fuzz:{app_name}"), fault_rate,
                           profile.length_field, profile.attacks,
                           profile.weights)
    fuzzed = fuzzer.apply(requests)
    threads = profile.threads
    if threads > 1:
        per = count // threads
        by_conn = [fuzzed[i * per:(i + 1) * per] for i in range(threads)]
    else:
        by_conn = [fuzzed]
    net = NetworkSim(retry_limit=retry_limit,
                     seed=derive(seed, f"net:{app_name}"))
    if epc_spike_rate is None:
        epc_spike_rate = fault_rate * 0.25
    faults = None
    if epc_spike_rate > 0.0 or tag_flip_rate > 0.0:
        faults = FaultInjector(derive(seed, f"inject:{app_name}"),
                               tag_flip_rate=tag_flip_rate,
                               epc_spike_rate=epc_spike_rate)
    result = run_server(mod.SOURCE, by_conn, scheme, count, threads=threads,
                        config=APP_CONFIG, name=app_name, policy=policy,
                        net=net, faults=faults,
                        seed=derive(seed, f"sched:{app_name}"),
                        telemetry=telemetry)
    result.resilience["fuzzer"] = fuzzer.stats()
    return result


def chaos_availability(apps: Sequence[str] = ("memcached", "nginx", "apache"),
                       schemes: Sequence[str] = ("sgxbounds",),
                       policies: Sequence[str] = ("abort", "drop-request",
                                                  "boundless"),
                       fault_rates: Sequence[float] = (0.0, 0.2),
                       size: str = "XS", seed: int = 1234
                       ) -> Tuple[Dict, str]:
    """Sweep fault rates x policies x schemes over the server apps.

    Returns ``(data, text)`` like the other experiment drivers:
    ``data[app][(scheme, policy, rate)]`` holds the availability record,
    ``text`` is the rendered report.  Availability gauges go to the
    process-wide default telemetry (CLI ``--metrics-out``), if any.
    """
    from repro import telemetry as telemetry_mod
    telemetry = telemetry_mod.get_default()
    observer = telemetry_mod.Observer.of(telemetry)
    chunks: List[str] = []
    data: Dict[str, Dict] = {}
    exhibit: Optional[Dict] = None
    for app_name in apps:
        rows = []
        data[app_name] = {}
        for scheme in schemes:
            for rate in fault_rates:
                for policy in policies:
                    r = run_chaos_server(app_name, scheme=scheme,
                                         policy=policy, fault_rate=rate,
                                         size=size, seed=seed,
                                         telemetry=telemetry)
                    net_stats = r.resilience["net"]
                    availability = net_stats["availability"]
                    responses = net_stats["responses"]
                    cycles_per = (r.cycles / responses) / 1000 \
                        if responses else None
                    record = {
                        "availability": availability,
                        "responses": responses,
                        "pushed": net_stats["pushed"],
                        "cycles_per_response_kcycles": cycles_per,
                        "dropped": r.resilience["dropped_requests"],
                        "recovered": r.resilience["recovered_requests"],
                        "retries": net_stats["retries"],
                        "errors": net_stats["errors"],
                        "violations": r.resilience["violations"],
                        "status": r.crashed or "ok",
                    }
                    data[app_name][(scheme, policy, rate)] = record
                    if observer is not None:
                        observer.gauge(f"chaos.{app_name}.{scheme}.{policy}"
                                       f".rate_{rate}.availability",
                                       availability)
                    rows.append([scheme, policy, rate, net_stats["pushed"],
                                 responses, availability, cycles_per,
                                 record["dropped"], record["retries"],
                                 record["errors"], record["status"]])
                    if exhibit is None and r.violation is not None:
                        exhibit = r.violation
        chunks.append(report.series_table(
            f"Chaos availability ({app_name}): fault rate x policy",
            ["scheme", "policy", "rate", "pushed", "resp", "avail",
             "kcyc/resp", "dropped", "retries", "errors", "status"],
            rows))
    if exhibit is not None:
        chunks.append("First violation observed during the sweep:\n"
                      + report.render_violation(exhibit))
    return data, "\n\n".join(chunks)
