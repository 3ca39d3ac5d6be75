"""One benchmark pass in a fresh interpreter.

    python3 perfbench/one_pass.py --workload NAME --seed-set I --mode MODE

Each pass runs in its own process, so it starts from the state of a fresh
``python -m repro`` run: no compiled module, instrumented module or VM is
carried over from an earlier pass.  The pass prints one JSON object as
its last stdout line.  Modes:

* ``time`` -- layer spans only (a perf_counter pair per build or run
  call) plus the host speed probe; the end-to-end metrics use this pass;
* ``profile`` -- the same pass under cProfile, self time grouped by layer;
* ``count`` -- the same pass with a telemetry handle on every VM, so the
  interpreter tallies superinstruction hits (``vm.fastpath_stats``).

Every mode reports the digests of its operations' simulated outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback
import zlib

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import spans as spans_mod          # noqa: E402  (after the path setup)
import workloads                   # noqa: E402

MODES = ("time", "profile", "count")

#: Modules the workloads call into, imported before timing starts: a pass
#: measures the workload, not the interpreter importing the simulator.
PRELOAD = ("repro.harness.experiments", "repro.harness.runner",
           "repro.workloads", "repro.workloads.ripe", "repro.redteam",
           "repro.redteam.matrix", "repro.redteam.triage", "repro.fleet",
           "repro.forensics", "repro.obs", "repro.overload",
           "repro.recovery", "repro.telemetry")


def digest(payload) -> str:
    """Digest of an operation's simulated outputs (canonical JSON)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:20]


#: Operation time between two runs of the host speed probe.
PROBE_EVERY_S = 0.1


# The speed probe's state, built at import so that the probe itself
# allocates no object the garbage collector tracks: a probe then cannot
# start a collection, nor move when the pass's own collections happen.
# The buffer is filled so that its pages are resident (8 MiB of RSS).
_PROBE_MEMORY = bytearray(range(256)) * (1 << 15)
_PROBE_SIZE = len(_PROBE_MEMORY)
_PROBE_REGS = [0] * 8


def _load(i):
    _PROBE_REGS[i & 7] = (_PROBE_REGS[(i + 1) & 7]
                          + _PROBE_MEMORY[i * 2654435761 % _PROBE_SIZE]) \
        & 0xFFFFFFFF


def _xor(i):
    _PROBE_REGS[(i + 3) & 7] = _PROBE_REGS[i & 7] ^ i


def _store(i):
    _PROBE_MEMORY[i * 40503 % _PROBE_SIZE] = _PROBE_REGS[(i + 5) & 7] & 0xFF


_PROBE_CODE = (_load, _xor, _store, _load, _xor)


def speed_probe() -> float:
    """Host speed while a pass runs: the time of a fixed interpreter-bound
    loop that uses no repro code.  It dispatches a tuple of functions that
    update registers and random bytes of an 8 MiB buffer, as the VM's
    handlers update registers and memory.  The buffer is larger than the
    L2 cache, so the loop reads mostly from the shared L3, and other
    tenants of the host slow it about as they slow the simulator.  The
    whole buffer is read once, untimed, before the loop, so the loop finds
    it in the same caches whatever the pass's operations left there."""
    zlib.crc32(_PROBE_MEMORY)
    code = _PROBE_CODE
    start = time.perf_counter()
    for i in range(4000):
        code[i % 5](i)
    return time.perf_counter() - start


def _count_fastpath(hits: list) -> None:
    """Give every VM built without telemetry a private handle so the
    predecoder tallies fusion hits; keep each VM's tally in ``hits``."""
    from repro.telemetry import Telemetry
    from repro.vm import VM

    init = VM.__init__

    def counting_init(self, *args, **kwargs):
        if kwargs.get("telemetry") is None:
            kwargs["telemetry"] = Telemetry(max_events=0)
        init(self, *args, **kwargs)
        hits.append(self.fastpath_stats)

    VM.__init__ = counting_init


def fleet_summary(payloads: dict, seed: int) -> dict:
    """Fleet-layer counts from the campaigns' ``as_dict()``."""
    out = dict.fromkeys(("requests", "served", "ticks", "restarts",
                         "failsafe_campaigns", "rejected"), 0)
    for label, config, _attach in workloads.fleet_cells(seed):
        campaign = payloads.get(f"fleet/{label}")
        if campaign is None:
            continue
        slo = campaign["slo"]
        out["requests"] += slo["submitted"]
        out["served"] += slo["served"]
        out["ticks"] += campaign["ticks"]
        out["restarts"] += campaign["supervisor"]["restarts"]
        out["failsafe_campaigns"] += campaign["ticks"] >= config.max_ticks
        out["rejected"] += slo.get("overload", {}).get("rejected", 0)
    return out


def run_pass(workload: str, seed_set: int, mode: str) -> dict:
    import importlib

    for name in PRELOAD:
        importlib.import_module(name)
    import repro

    seeds = workloads.SEED_SETS[seed_set]
    spans = spans_mod.Spans()
    spans_mod.install(spans)
    hits: list = []
    if mode == "count":
        _count_fastpath(hits)
    profiler = None
    if mode == "profile":
        import cProfile
        profiler = cProfile.Profile()

    operations = workloads.WORKLOADS[workload](seeds, spans)
    payloads: dict = {}
    error = None
    probe = mode == "time"
    probes = [speed_probe()] if probe else []
    wall = since_probe = 0.0
    if profiler is not None:
        profiler.enable()
    try:
        for op, run in operations:
            start = time.perf_counter()
            payloads[op] = run()
            elapsed = time.perf_counter() - start
            wall += elapsed
            since_probe += elapsed
            if probe and since_probe >= PROBE_EVERY_S:
                probes.append(speed_probe())
                since_probe = 0.0
    except Exception:                  # reported, counted as failed ops
        error = traceback.format_exc()
    finally:
        if profiler is not None:
            profiler.disable()

    out = {
        "wall_s": wall,
        "setup_s": spans.setup_s,
        "probe_s": sum(probes) / len(probes) if probes else None,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "digests": {op: digest(p) for op, p in payloads.items()},
        "error": error,
        "spans": dict(spans.seconds),
        "calls": dict(spans.calls),
        "counters": dict(spans.counters),
        "checks": dict(spans.checks),
        "memory": spans.memory,
        "net_retries": spans.net_retries,
    }
    if workload == "fleet-mix":
        out["fleet"] = fleet_summary(payloads, seeds["fleet"])
    if profiler is not None:
        import pstats
        stats = pstats.Stats(profiler).stats
        out["profile"] = spans_mod.group_profile(
            stats, os.path.dirname(repro.__file__))
    if mode == "count":
        fused: dict = {}
        for stats in hits:
            for kind, n in stats.items():
                fused[kind] = fused.get(kind, 0) + n
        out["fastpath"] = fused
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed-set", type=int, required=True,
                        choices=range(len(workloads.SEED_SETS)))
    parser.add_argument("--mode", choices=MODES, default="time")
    args = parser.parse_args(argv)
    result = run_pass(args.workload, args.seed_set, args.mode)
    sys.stdout.write("\n" + json.dumps(result, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
