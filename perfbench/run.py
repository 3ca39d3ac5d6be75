"""Simulator benchmark: host time of the SGXBounds simulator, end to end
and per layer, with byte-identity of every simulated output as the gate.

    python3 perfbench/run.py --workload fig7-sweep --seconds 25 --trace 0

Workloads (``perfbench/workloads.py``): ``fig7-sweep``, ``attack-triage``,
``fleet-mix``; ``all`` runs the three in turn.  Each workload is a
closed-loop batch on one thread.  A run repeats whole passes, each in a
fresh interpreter, until ``--seconds`` have passed (at least
``MIN_PASSES``), and reports medians over its passes.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and cProfile passes, adds one fast-path counting pass, and
prints the per-layer metrics, each with the end-to-end metric and the
workload it should move.  Either way every pass's operation digests are
compared with ``perfbench/references.json``; any difference is a failed
operation and makes the command exit 1.  The last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--seed-set`` picks the recorded workload seeds (the fleet campaign
seed and the redteam seed): set 0 is the default, set 1 the held-out
set.  ``--seed n`` is the ``PYTHONHASHSEED`` of every pass process, which
a plain ``python -m repro`` run draws at random: the simulated outputs
must not depend on it, and the work measured does not, so runs with
different ``--seed`` are comparable.  (Varying the workload seeds or the
order of the operations instead moved peak RSS by up to 35%.)
``--record`` re-records the references on the current commit, from two
passes per workload and seed set, under different hash seeds, that must
agree.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List, NamedTuple, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PASS_SCRIPT = os.path.join(HERE, "one_pass.py")
REFERENCES = os.path.join(HERE, "references.json")

sys.path.insert(0, HERE)
from spans import LAYERS                     # noqa: E402
from workloads import SEED_SETS, WORKLOADS   # noqa: E402

#: The speed probe's time (``one_pass.speed_probe``) on the recording
#: machine.  Host times are reported at that speed: seconds measured in a
#: pass times ``REF_PROBE_S`` over the pass's mean probe time.  On a
#: shared host the other tenants slow the probe and the simulator alike,
#: so the scaled times vary far less from run to run (README.md).
REF_PROBE_S = 0.0017
#: Fewest passes in an untraced run, so each median has several samples.
MIN_PASSES = 3
#: A pass that takes longer than this is killed and counted as failed.
PASS_TIMEOUT_S = 170

ALL = tuple(WORKLOADS)


# ---------------------------------------------------------------------------
# Metric definitions
# ---------------------------------------------------------------------------
class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: End-to-end metric(s) this one should move (per-layer metrics).
    moves: str
    #: Workload(s) where it should move.
    on: str
    #: Value from one run's passes.
    value: Callable[["Passes"], float]


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


class Passes:
    """The passes of one run, by mode."""

    def __init__(self) -> None:
        self.by_mode: Dict[str, List[dict]] = {"time": [], "profile": [],
                                               "count": []}

    def median(self, mode: str, read: Callable[[dict], float]) -> float:
        return _median([read(p) for p in self.by_mode[mode]])

    def timed(self, read: Callable[[dict], float]) -> float:
        return self.median("time", read)


def _scaled(seconds: float, p: dict) -> float:
    """Host seconds of a timed pass at the recording machine's speed."""
    return seconds * REF_PROBE_S / p["probe_s"]


def _throughput(p: dict) -> float:
    run_s = _scaled(p["wall_s"] - p["setup_s"], p)
    return p["counters"].get("instructions", 0) / run_s / 1e6


END_TO_END = (
    Metric("wall_s", "s", "lower", "", "",
           lambda ps: ps.timed(lambda p: _scaled(p["wall_s"], p))),
    Metric("setup_s", "s", "lower", "", "",
           lambda ps: ps.timed(lambda p: _scaled(p["setup_s"], p))),
    Metric("sim_minsn_per_s", "Minsn/s", "higher", "", "",
           lambda ps: ps.timed(_throughput)),
    Metric("peak_rss_mb", "MB", "lower", "", "",
           lambda ps: ps.timed(lambda p: p["rss_mb"])),
)


def _span(name: str) -> Callable[[Passes], float]:
    return lambda ps: ps.timed(
        lambda p: _scaled(p["spans"].get(name, 0.0), p))


def _calls(name: str) -> Callable[[Passes], float]:
    return lambda ps: ps.timed(lambda p: p["calls"].get(name, 0))


def _counter(name: str) -> Callable[[Passes], float]:
    return lambda ps: ps.timed(lambda p: p["counters"].get(name, 0))


def _ratio(num: Callable[[dict], float],
           den: Callable[[dict], float]) -> Callable[[dict], float]:
    return lambda p: num(p) / den(p) if den(p) else 0.0


def _self_s(layer: str) -> Callable[[Passes], float]:
    return lambda ps: ps.median("profile",
                                lambda p: p["profile"].get(layer, 0.0))


def _share(layer: str) -> Callable[[Passes], float]:
    return lambda ps: ps.median(
        "profile", lambda p: p["profile"].get(layer, 0.0)
        / (sum(p["profile"].values()) or 1.0))


def _fleet(key: str) -> Callable[[Passes], float]:
    return lambda ps: ps.timed(lambda p: p.get("fleet", {}).get(key, 0))


def _fused(p: dict) -> float:
    return sum(p["fastpath"].values())


def _trace_overhead(ps: Passes) -> float:
    untraced = ps.timed(lambda p: p["wall_s"])
    return ps.median("profile", lambda p: p["wall_s"]) / untraced \
        if untraced else 0.0


#: Where each profiled layer's self time should show (README.md).
_LAYER_MOVES = {
    "vm": ("sim_minsn_per_s, wall_s", "fig7-sweep"),
    "sgx": ("sim_minsn_per_s, wall_s", "fig7-sweep"),
    "memory": ("setup_s, wall_s, peak_rss_mb", "attack-triage, fleet-mix"),
    "minic": ("setup_s, wall_s", "attack-triage"),
    "passes": ("setup_s", "attack-triage, fleet-mix"),
    "ir": ("setup_s", "attack-triage"),
    "core": ("sim_minsn_per_s", "fig7-sweep"),
    "asan": ("sim_minsn_per_s, setup_s", "fig7-sweep, attack-triage"),
    "mpx": ("sim_minsn_per_s", "fig7-sweep"),
    "baggy": ("wall_s", "attack-triage"),
    "faults": ("wall_s", "fleet-mix"),
    "fleet": ("wall_s", "fleet-mix"),
    "workloads": ("wall_s", "fleet-mix"),
    "overload": ("wall_s", "fleet-mix"),
    "recovery": ("wall_s", "fleet-mix"),
    "telemetry": ("wall_s (~0 on fig7-sweep)", "fleet-mix, attack-triage"),
    "forensics": ("wall_s (~0 on fig7-sweep)", "fleet-mix, attack-triage"),
    "obs": ("wall_s (~0 on fig7-sweep)", "fleet-mix"),
    "redteam": ("wall_s", "attack-triage"),
    "harness": ("wall_s", "all"),
    "python": ("wall_s", "all"),
}

PER_LAYER: Tuple[Metric, ...] = (
    Metric("minic.compile_s", "s", "lower", "setup_s", "attack-triage",
           _span("minic.compile")),
    Metric("minic.compiles", "count", "lower", "setup_s", "attack-triage",
           _calls("minic.compiles")),
    Metric("passes.instrument_s", "s", "lower", "setup_s",
           "attack-triage, fleet-mix", _span("passes.instrument")),
    Metric("passes.instruments", "count", "lower", "setup_s",
           "attack-triage, fleet-mix", _calls("passes.instruments")),
    Metric("vm.load_s", "s", "lower", "setup_s, peak_rss_mb",
           "fleet-mix, attack-triage", _span("vm.load")),
    Metric("vm.run_s", "s", "lower", "sim_minsn_per_s, wall_s",
           "fig7-sweep", _span("vm.run")),
) + tuple(
    Metric(f"vm.run_s.{scheme}", "s", "lower", "sim_minsn_per_s, wall_s",
           "fig7-sweep", _span(f"vm.run.{scheme}"))
    for scheme in ("native", "sgxbounds", "asan", "mpx")
) + (
    # Baggy bounds runs only in the redteam triage, not in the Fig. 7 cells.
    Metric("vm.run_s.baggy", "s", "lower", "wall_s", "attack-triage",
           _span("vm.run.baggy")),
    Metric("fleet.boot_s", "s", "lower", "setup_s, wall_s", "fleet-mix",
           _span("fleet.boot")),
    Metric("fleet.boots", "count", "lower", "setup_s, wall_s", "fleet-mix",
           _calls("fleet.boots")),
) + tuple(
    metric for layer in LAYERS for metric in (
        Metric(f"{layer}.self_s", "s", "lower", *_LAYER_MOVES[layer],
               _self_s(layer)),
        Metric(f"{layer}.share", "ratio", "lower", *_LAYER_MOVES[layer],
               _share(layer)))
) + (
    Metric("vm.instructions", "count", "lower", "sim_minsn_per_s",
           "fig7-sweep", _counter("instructions")),
    Metric("vm.fastpath.fused", "count", "higher", "sim_minsn_per_s",
           "fig7-sweep", lambda ps: ps.median("count", _fused)),
    Metric("vm.fastpath.fused_per_insn", "ratio", "higher",
           "sim_minsn_per_s", "fig7-sweep",
           lambda ps: ps.median("count", _ratio(
               _fused, lambda p: p["counters"].get("instructions", 0)))),
    Metric("sgx.mem_accesses", "count", "lower", "explains sgx.self_s",
           "fig7-sweep", _counter("l1_accesses")),
    Metric("sgx.l1_miss_ratio", "ratio", "lower", "explains sgx.self_s",
           "fig7-sweep", lambda ps: ps.timed(_ratio(
               lambda p: p["counters"].get("l1_misses", 0),
               lambda p: p["counters"].get("l1_accesses", 0)))),
    Metric("sgx.llc_misses", "count", "lower", "explains sgx.self_s",
           "fig7-sweep", _counter("llc_misses")),
    Metric("sgx.epc_faults", "count", "lower", "explains sgx.self_s",
           "fig7-sweep", _counter("epc_faults")),
    Metric("sgx.cycles", "count", "lower", "explains sgx.self_s",
           "fig7-sweep", _counter("cycles")),
    # Hoisted accesses are marked safe, so checks_elided includes them.
    Metric("passes.check_removal_ratio", "ratio", "higher",
           "explains vm.run_s.<scheme>", "fig7-sweep",
           lambda ps: ps.timed(_ratio(
               lambda p: p["checks"].get("elided", 0),
               lambda p: p["checks"].get("elided", 0)
               + p["checks"].get("inserted", 0)))),
    Metric("memory.peak_reserved_mb", "MB", "lower", "explains peak_rss_mb",
           "all", lambda ps: ps.timed(
               lambda p: p["memory"]["peak_reserved_bytes"] / 2 ** 20)),
    Metric("memory.materialized_pages", "count", "lower",
           "explains peak_rss_mb", "all", lambda ps: ps.timed(
               lambda p: p["memory"]["materialized_pages"])),
    Metric("fleet.requests", "count", "lower", "explains wall_s",
           "fleet-mix", _fleet("requests")),
    Metric("fleet.served", "count", "higher", "explains wall_s",
           "fleet-mix", _fleet("served")),
    Metric("fleet.ticks", "count", "lower", "explains wall_s", "fleet-mix",
           _fleet("ticks")),
    Metric("fleet.restarts", "count", "lower", "explains wall_s",
           "fleet-mix", _fleet("restarts")),
    Metric("fleet.failsafe_campaigns", "count", "lower", "explains wall_s",
           "fleet-mix", _fleet("failsafe_campaigns")),
    Metric("overload.rejected", "count", "lower", "explains wall_s",
           "fleet-mix", _fleet("rejected")),
    Metric("workloads.netsim_retries", "count", "lower", "explains wall_s",
           "fleet-mix", lambda ps: ps.timed(lambda p: p["net_retries"])),
    Metric("trace.overhead", "ratio", "lower", "-", "all", _trace_overhead),
)


# ---------------------------------------------------------------------------
# Passes and the identity gate
# ---------------------------------------------------------------------------
def run_one_pass(workload: str, seed_set: int, hash_seed: int,
                 mode: str) -> dict:
    """Run one pass in a fresh interpreter; a pass that dies or hangs
    comes back with no digests and its error."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = str(hash_seed)
    cmd = [sys.executable, PASS_SCRIPT, "--workload", workload,
           "--seed-set", str(seed_set), "--mode", mode]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"digests": {}, "error": f"pass timed out after "
                                        f"{PASS_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"digests": {}, "error": proc.stderr.strip()[-2000:]
                or f"exit code {proc.returncode}"}
    return json.loads(lines[-1])


def check(digests: Dict[str, str], reference: Dict[str, str]
          ) -> Tuple[int, List[str]]:
    """Operations attempted, and the ids whose digest differs from the
    reference, is missing, or is not in the reference."""
    bad = sorted(op for op in set(reference) | set(digests)
                 if digests.get(op) != reference.get(op))
    return len(reference), bad


def load_references() -> dict:
    with open(REFERENCES) as f:
        refs = json.load(f)
    if [s["seeds"] for s in refs["sets"]] != list(SEED_SETS):
        raise SystemExit(f"{REFERENCES}: recorded seed sets differ from "
                         f"workloads.SEED_SETS; re-record with --record")
    return refs


def measure(workload: str, seed_set: int, hash_seed: int, seconds: float,
            trace: bool, reference: Dict[str, str]
            ) -> Tuple[Passes, int, int, List[str]]:
    """Run passes for ``seconds``; returns them with the number of
    operations checked, the number that failed, and what failed."""
    passes = Passes()
    attempted = failed = 0
    failures: List[str] = []
    start = time.perf_counter()

    def one(mode: str) -> None:
        nonlocal attempted, failed
        result = run_one_pass(workload, seed_set, hash_seed, mode)
        label = f"pass {sum(map(len, passes.by_mode.values())) + 1} ({mode})"
        n, bad = check(result["digests"], reference)
        if result.get("error") and not bad:
            n, bad = n + 1, ["error after the last operation"]
        attempted += n
        failed += min(n, len(bad))
        failures.extend(f"{label}: {op}" for op in bad)
        if result.get("error"):
            failures.append(f"{label} raised:\n{result['error']}")
        else:
            passes.by_mode[mode].append(result)

    runs = 0
    while True:
        one("time")
        if trace:
            one("profile")
        runs += 1
        if (runs >= (1 if trace else MIN_PASSES)
                and time.perf_counter() - start >= seconds):
            break
    if trace:
        one("count")
    return passes, attempted, failed, failures


def _fmt(value: float) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.4f}"
    return f"{int(value)}"


def report(workload: str, seed_set: int, hash_seed: int, passes: Passes,
           trace: bool, attempted: int, failed: int, failures: List[str]
           ) -> Dict[str, dict]:
    """Print the human-readable table; return the metrics dict."""
    n = {m: len(v) for m, v in passes.by_mode.items()}
    seeds = SEED_SETS[seed_set]
    print(f"== {workload}  (seed set {seed_set}: fleet seed "
          f"{seeds['fleet']}, redteam seed {seeds['redteam']}; hash seed "
          f"{hash_seed}; {n['time']} timed, {n['profile']} profiled, "
          f"{n['count']} counting passes; closed loop, 1 thread)")
    metrics: Dict[str, dict] = {}
    if passes.by_mode["time"]:
        for m in PER_LAYER if trace else END_TO_END:
            value = m.value(passes)
            metrics[m.name] = {"value": value, "unit": m.unit}
            where = f"  -> {m.moves} on {m.on}" if trace else ""
            print(f"  {m.name:30s} {_fmt(value):>14s} {m.unit:8s}{where}")
        print(f"  {'(unscaled wall_s, setup_s)':30s} "
              f"{passes.timed(lambda p: p['wall_s']):>14.4f} "
              f"{passes.timed(lambda p: p['setup_s']):.4f} s; speed probe "
              f"{passes.timed(lambda p: p['probe_s']) * 1e3:.4f} ms "
              f"(reference {REF_PROBE_S * 1e3:g} ms)")
    frac = failed / attempted if attempted else 1.0
    print(f"  {'failed_frac':30s} {frac:>14.4f} {'ratio':8s}"
          f"  ({failed} of {attempted} operations differ from the "
          f"references)")
    unmapped = passes.median("profile",
                             lambda p: p["profile"].get("unmapped", 0.0))
    if unmapped:
        print(f"  WARNING: {unmapped:.3f} s of profiled self time in "
              f"repro modules missing from spans.LAYER_OF")
    for line in failures[:20]:
        print(f"  FAILED {line}")
    return metrics


def record(workloads: Sequence[str]) -> int:
    """Record the references: two passes per workload and seed set, which
    must agree digest for digest."""
    try:
        with open(REFERENCES) as f:
            refs = json.load(f)
        if [s["seeds"] for s in refs["sets"]] != list(SEED_SETS):
            raise ValueError("seed sets changed")
    except (OSError, ValueError, KeyError):
        refs = {"sets": [{"seeds": s, "workloads": {}} for s in SEED_SETS]}
    refs["machine"] = {"nproc": os.cpu_count(),
                       "python": platform.python_version(),
                       "platform": platform.machine()}
    for index in range(len(SEED_SETS)):
        for workload in workloads:
            first, second = (run_one_pass(workload, index, hash_seed, "time")
                             for hash_seed in (0, 1))
            for result in (first, second):
                if result.get("error"):
                    print(f"{workload} set {index}: {result['error']}",
                          file=sys.stderr)
                    return 1
            if first["digests"] != second["digests"]:
                _, bad = check(second["digests"], first["digests"])
                print(f"{workload} set {index}: two passes disagree on "
                      f"{bad[:5]}", file=sys.stderr)
                return 1
            refs["sets"][index]["workloads"][workload] = first["digests"]
            print(f"recorded {workload} set {index}: "
                  f"{len(first['digests'])} operations")
    with open(REFERENCES, "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Simulator benchmark (see module docstring).")
    parser.add_argument("--workload", default="all",
                        choices=ALL + ("all",))
    parser.add_argument("--seed", type=int, default=0,
                        help="PYTHONHASHSEED of every pass process")
    parser.add_argument("--seed-set", type=int, default=0,
                        choices=range(len(SEED_SETS)),
                        help="recorded workload seeds: 0 default, "
                             "1 held out")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measure whole passes for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="re-record the references on this commit")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no simulator sources under {ROOT}/src/repro",
              file=sys.stderr)
        return 2
    workloads = ALL if args.workload == "all" else (args.workload,)
    if args.record:
        return record(workloads)

    refs = load_references()
    seed_set = args.seed_set
    attempted = failed = 0
    metrics: Dict[str, dict] = {}
    for workload in workloads:
        reference = refs["sets"][seed_set]["workloads"].get(workload)
        if not reference:
            print(f"no references for {workload}; record them with "
                  f"--record", file=sys.stderr)
            return 2
        passes, n, bad, failures = measure(
            workload, seed_set, args.seed, args.seconds, bool(args.trace),
            reference)
        found = report(workload, seed_set, args.seed, passes,
                       bool(args.trace), n, bad, failures)
        if not passes.by_mode["time"]:
            return 1
        attempted += n
        failed += bad
        prefix = "" if len(workloads) == 1 else f"{workload}."
        metrics.update({prefix + k: v for k, v in found.items()})
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics},
                     sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
