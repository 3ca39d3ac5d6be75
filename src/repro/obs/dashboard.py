"""The ``python -m repro observe`` driver: one deterministic dashboard.

Three sections, one per tentpole surface:

* **Critical-path attribution** — per-scheme healthy campaigns (fault
  rate 0 so the native baseline and the instrumented schemes serve the
  *same* request population) decomposed into the exact tick components,
  plus the model-priced bounds-check tax of each scheme against the
  native baseline.
* **Exemplar waterfalls** — the slowest and the median served request of
  the instrumented campaign, rendered as hop trees on the tick clock.
* **Burn-rate alerts** — the naive vs protected overload campaigns at a
  collapsing arrival rate: the naive fleet's late-serve collapse fires
  both rules, the protected fleet sheds load and stays silent.

Everything runs on seeded simulated clocks, so stdout is byte-identical
across runs of the same seed — CI diffs two runs.  The returned ``data``
carries the machine-readable rollups, the Chrome trace document of the
exemplar campaign, and the merged Prometheus exposition snapshot of the
alert campaign (the ``--metrics-text-out`` artifact).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.obs import Observability, render_exposition, scheme_tax

#: The arrival rate at which the naive overload client collapses the
#: fleet (same cell as the overload experiment's rate-8 column).
ALERT_RATE = 8
ALERT_SIZE = "S"
ALERT_DEADLINE = 20


def _fnum(value: Optional[float], digits: int = 4) -> str:
    return "-" if value is None else f"{value:.{digits}f}"


def _exemplar_rows(rollup_rows) -> Tuple[Optional[Dict], Optional[Dict]]:
    """Slowest and median served decomposition rows, deterministic
    tie-break by request id."""
    served = sorted((r for r in rollup_rows if r["status"] == "served"),
                    key=lambda r: (r["total_ticks"], r["rid"]))
    if not served:
        return None, None
    return served[-1], served[(len(served) - 1) // 2]


def observe_fleet(app: str = "memcached", workers: int = 4,
                  seed: int = 1234, size: str = "XS",
                  schemes: Sequence[str] = ("native", "sgxbounds", "asan"),
                  baseline: str = "native",
                  exemplar_scheme: str = "sgxbounds",
                  alert_scheme: str = "sgxbounds",
                  telemetry=None) -> Tuple[Dict, str]:
    """Run the observatory campaigns and render the dashboard.

    Returns ``(data, text)`` like every harness experiment; ``data``
    includes the exposition text and the exemplar campaign's Chrome
    trace document so the CLI can export both as artifacts.
    """
    from repro.fleet.campaign import TICK_CYCLES, CampaignConfig, run_campaign
    from repro.harness import report

    data: Dict[str, object] = {
        "app": app, "size": size, "seed": seed, "workers": workers,
        "schemes": {},
    }

    # -- 1. attribution: healthy campaigns, matched populations ---------
    handles: Dict[str, Observability] = {}
    results: Dict[str, object] = {}
    for scheme in schemes:
        obs = handles[scheme] = Observability(seed=seed)
        config = CampaignConfig(app=app, scheme=scheme,
                                policy="drop-request", workers=workers,
                                fault_rate=0.0, seed=seed, size=size)
        results[scheme] = run_campaign(config, obs=obs)
    rollups = {scheme: handles[scheme].attribution.rollup()
               for scheme in schemes}
    taxes = {scheme: (scheme_tax(rollups[scheme], rollups[baseline])
                      if scheme != baseline else None)
             for scheme in schemes}

    attrib_rows = []
    for scheme in schemes:
        roll = rollups[scheme]
        slo = results[scheme].slo
        comp = roll["mean_components"] or {}
        cycles = roll["mean_enclave_cycles"]
        attrib_rows.append([
            scheme, roll["served"], slo["availability"],
            roll["mean_total_ticks"],
            comp.get("queue_wait"), comp.get("enclave_compute"),
            comp.get("retry_amplification"), comp.get("network"),
            None if cycles is None else cycles / 1000.0,
        ])
        data["schemes"][scheme] = {
            "rollup": roll, "tax": taxes[scheme],
            "slo": slo, "trace": handles[scheme].tracer.summary(),
        }
    chunks = [report.series_table(
        f"Critical-path attribution ({app}, size {size}, seed {seed}): "
        f"{workers} workers, healthy fleet, mean ticks per served request",
        ["scheme", "served", "avail", "mean_ticks", "queue_wait",
         "enclave", "retry_amp", "network", "enclave_kcyc"],
        attrib_rows)]

    tax_rows = []
    for scheme in schemes:
        if scheme == baseline:
            continue
        tax = taxes[scheme]
        if tax is None:
            tax_rows.append([scheme, "-", "-", "-", "-", "-", "-"])
            continue
        shares = tax["shares"]
        tax_rows.append([
            scheme, _fnum(tax["total_cycles"] / 1000.0, 1),
            _fnum(tax["tax_share"]), _fnum(shares["check"], 3),
            _fnum(shares["cache"], 3), _fnum(shares["epc_fault"], 3),
            _fnum(tax["delta_counters"]["instructions"], 1),
        ])
    chunks.append(report.series_table(
        f"Bounds-check tax vs {baseline} (model-priced per-request "
        f"enclave cycles)",
        ["scheme", "tax_kcyc", "tax_share", "check%", "cache%", "epc%",
         "d_instr"],
        tax_rows))

    # -- 2. exemplar waterfalls -----------------------------------------
    exemplar_obs = handles.get(exemplar_scheme) or handles[schemes[0]]
    slow, median = _exemplar_rows(exemplar_obs.attribution.rows)
    waterfalls = []
    title = f"Exemplar waterfalls ({exemplar_scheme})"
    waterfalls.append(title)
    waterfalls.append("-" * len(title))
    for label, row in (("slowest served request", slow),
                       ("p50 served request", median)):
        waterfalls.append(f"{label}:")
        if row is None:
            waterfalls.append("  (no served requests)")
        else:
            waterfalls.append(exemplar_obs.tracer.waterfall(row["rid"]))
            waterfalls.append(
                f"  decomposition: queue_wait={row['queue_wait']} "
                f"enclave={row['enclave_compute']} "
                f"retry_amp={row['retry_amplification']} "
                f"network={row['network']} "
                f"(sum={row['total_ticks']} ticks, "
                f"attempts={row['attempts']})")
        waterfalls.append("")
    chunks.append("\n".join(waterfalls).rstrip())
    data["exemplars"] = {"slowest": slow, "p50": median}

    # -- 3. burn-rate alerts: naive collapse vs protected shedding ------
    from repro import forensics as forensics_mod
    alert_lines = []
    title = (f"Burn-rate alerts ({alert_scheme}, size {ALERT_SIZE}, "
             f"rate {ALERT_RATE}/tick, deadline {ALERT_DEADLINE} ticks)")
    alert_lines.append(title)
    alert_lines.append("-" * len(title))
    data["alerts"] = {}
    exposition = None
    for mode in ("naive", "protected"):
        obs = Observability(seed=seed)
        forensics = forensics_mod.Forensics()
        config = CampaignConfig(
            app=app, scheme=alert_scheme, policy="drop-request",
            workers=3, fault_rate=0.1, seed=seed, size=ALERT_SIZE,
            arrivals_per_tick=ALERT_RATE, deadline_ticks=ALERT_DEADLINE,
            overload=mode, max_ticks=2_000)
        result = run_campaign(config, telemetry=telemetry,
                              forensics=forensics, obs=obs)
        slo = result.slo
        ov = slo["overload"]
        burn = obs.burn
        active = ",".join(burn.active_rules()) or "-"
        alert_lines.append(
            f"mode={mode}: served={slo['served']} timely={ov['timely']} "
            f"failed={slo['failed']} rejected={ov['rejected']} "
            f"fired={burn.fired} cleared={burn.cleared} active={active}")
        alert_lines.append(burn.render_log())
        data["alerts"][mode] = {
            "slo": slo, "burn": burn.summary(),
            "trace": obs.tracer.summary(),
        }
        if mode == "naive":
            # The alert campaign is the exposition exemplar: it exercises
            # every feeder (registry, SLO, burn, tracer, flight recorder).
            exposition = render_exposition(
                registry=telemetry.registry if telemetry is not None
                else None,
                slo=slo, burn=burn, tracer=obs.tracer,
                span_dropped=telemetry.tracer.dropped
                if telemetry is not None else None,
                forensics=forensics)
    chunks.append("\n".join(alert_lines))

    data["exposition"] = exposition
    data["chrome_trace"] = exemplar_obs.chrome_trace(
        tick_cycles=TICK_CYCLES)
    return data, "\n\n".join(chunks)
