"""The benchmark's three workloads, as lists of independent operations.

``WORKLOADS[name](seeds, spans)`` returns ``(op_id, run)`` pairs; a pass
calls every ``run()`` once, in list order, on one thread (a closed loop:
the next operation starts when the previous one returns).  ``run()``
returns the simulated outputs that identify the operation; the driver
digests them and compares them with the recorded references.

The workload seeds reach the program only through the configs built
here: the fleet campaign seed and the redteam seed come from a recorded
seed set.  Fig. 7 programs take no seed, so ``fig7-sweep`` is the same
under every set.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Tuple

#: Recorded seed sets, chosen with ``--seed-set``: set 0 is the default a
#: change is tuned on, set 1 the held-out set it is rechecked on.  Fleet
#: seed 7 carries the fail-safe cells named in README.md; redteam seed
#: 1234 is the default of ``python -m repro redteam``.
SEED_SETS: Tuple[Dict[str, int], ...] = (
    {"fleet": 7, "redteam": 1234},
    {"fleet": 11, "redteam": 4321},
)

Operation = Tuple[str, Callable[[], object]]


def _fig7_cell(workload, scheme: str) -> dict:
    from repro.harness.experiments import FIG7_CONFIG
    from repro.harness.runner import run_workload

    r = run_workload(workload, scheme, size="XS", threads=4,
                     config=FIG7_CONFIG)
    return {"result": r.result, "crashed": r.crashed, "stdout": r.output,
            "counters": r.counters, "peak_reserved": r.peak_reserved,
            "scheme_report": r.scheme_report}


def fig7_sweep(seeds: Dict[str, int], spans) -> List[Operation]:
    """Phoenix + PARSEC x {native, sgxbounds, asan, mpx}, size XS, 4
    threads, ``FIG7_CONFIG``: the cells of ``python -m repro fig7``."""
    from repro.harness.runner import DEFAULT_SCHEMES
    from repro.workloads import by_suite

    return [(f"fig7/{w.name}/{scheme}", partial(_fig7_cell, w, scheme))
            for w in by_suite("phoenix") + by_suite("parsec")
            for scheme in DEFAULT_SCHEMES]


def _ripe_cell(attack: str, scheme: str) -> str:
    from repro.harness.runner import SCHEMES
    from repro.workloads import ripe

    return ripe.run_attack(attack, SCHEMES[scheme]())


def _triage_cell(spec, scheme: str, policy: str, seed: int) -> dict:
    from repro.redteam.triage import triage

    # As in repro.redteam.matrix.run_matrix: native runs once, under
    # "abort", and is reported under "-".
    rec = triage(spec, scheme, "abort" if policy == "-" else policy,
                 seed=seed)
    rec.policy = policy
    return rec.as_dict()


def attack_triage(seeds: Dict[str, int], spans) -> List[Operation]:
    """RIPE Table 4 (16 attacks x native/mpx/asan/sgxbounds), then the
    redteam catalog under every scheme x policy and the benign twins
    under every scheme, without the fleet-storm column."""
    from repro.redteam import compile_catalog, compile_twins
    from repro.redteam.matrix import MATRIX_POLICIES, MATRIX_SCHEMES
    from repro.workloads import ripe

    seed = seeds["redteam"]
    ops: List[Operation] = [
        (f"ripe/{scheme}/{attack}", partial(_ripe_cell, attack, scheme))
        for scheme in ("native", "mpx", "asan", "sgxbounds")
        for attack in ripe.ATTACKS]
    for scheme in MATRIX_SCHEMES:
        for policy in ("-",) if scheme == "native" else MATRIX_POLICIES:
            ops += [(f"triage/{scheme}/{policy}/{spec.name}",
                     partial(_triage_cell, spec, scheme, policy, seed))
                    for spec in compile_catalog()]
        ops += [(f"twin/{scheme}/{spec.name}",
                 partial(_triage_cell, spec, scheme,
                         "-" if scheme == "native" else "abort", seed))
                for spec in compile_twins()]
    return ops


def fleet_cells(seed: int):
    """``(label, CampaignConfig, attach)`` for every fleet-mix campaign;
    ``attach`` is "", "forensics" or "obs"."""
    from repro.fleet import CampaignConfig

    cells = []
    for app in ("memcached", "sqlite_kv"):
        for scheme in ("sgxbounds", "asan"):
            base = dict(app=app, scheme=scheme, size="S", seed=seed)
            # Fail-stop crash-restart churn, with the flight recorder.
            cells.append((f"{app}/{scheme}/abort",
                          CampaignConfig(policy="abort", **base),
                          "forensics"))
            cells.append((f"{app}/{scheme}/drop-request",
                          CampaignConfig(policy="drop-request", **base), ""))
            # Past saturation, as in ``python -m repro overload``, with
            # the request observatory.
            for mode in ("naive", "protected"):
                cells.append((
                    f"{app}/{scheme}/overload-{mode}",
                    CampaignConfig(policy="drop-request", workers=3,
                                   fault_rate=0.1, arrivals_per_tick=4,
                                   deadline_ticks=20, overload=mode,
                                   max_ticks=2_000, **base),
                    "obs"))
    # Write-heavy memcached with recovery writes beside the reads, as in
    # ``python -m repro recover``.
    for mode in ("snapshot+wal", "replica"):
        cells.append((
            f"memcached-writes/asan/{mode}",
            CampaignConfig(app="memcached", scheme="asan", policy="abort",
                           size="M", seed=seed, workers=2, fault_rate=0.25,
                           workload_kwargs=(("set_every", 2),),
                           crash_loop_k=2, crash_loop_window=200,
                           recovery=mode, checkpoint_interval=5),
            ""))
    return cells


def _campaign(config, attach: str, spans) -> dict:
    from repro.fleet import run_campaign
    from repro.forensics import Forensics
    from repro.obs import Observability

    forensics = Forensics() if attach == "forensics" else None
    obs = Observability(seed=config.seed) if attach == "obs" else None
    result = run_campaign(config, forensics=forensics, obs=obs)
    # Fleet workers step their VMs without VM.run: harvest them here.
    spans.end_campaign()
    return result.as_dict()


def fleet_mix(seeds: Dict[str, int], spans) -> List[Operation]:
    """Seeded fleet campaigns: crash-restart churn, request drops,
    overload, and recovery writes, with forensics and the observatory
    attached on a subset."""
    return [(f"fleet/{label}", partial(_campaign, config, attach, spans))
            for label, config, attach in fleet_cells(seeds["fleet"])]


WORKLOADS: Dict[str, Callable] = {
    "fig7-sweep": fig7_sweep,
    "attack-triage": attack_triage,
    "fleet-mix": fleet_mix,
}
