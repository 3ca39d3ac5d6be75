"""Interpreter fast path: predecoded dispatch vs the reference loop.

Not a paper figure — this guards the simulator's own engine.  The
predecoded interpreter (:mod:`repro.vm.fastpath`) exists purely to make
every other benchmark in this directory cheaper to run; its contract is
*observational identity* (enforced by tests/test_vm_differential.py)
plus a real wall-clock win.  This benchmark measures the win on the
Fig. 7 suite (Phoenix + PARSEC, native, XS) with compilation hoisted
out of the timed region, asserts the CI floor (>= 1.2x; the development
target is 1.5x), and emits ``benchmarks/results/vm_fastpath.json`` so
the speedup is tracked across PRs like any other result.
"""

from __future__ import annotations

import time

from repro.harness.report import series_table
from repro.minic import compile_source
from repro.sgx import Enclave
from repro.vm import VM
from repro.workloads import by_suite

#: CI guard: the fast path must stay at least this much faster than the
#: reference loop on the Fig. 7 sweep or the regression fails loudly.
MIN_SPEEDUP = 1.2

ROUNDS = 3


def _modules():
    mods = []
    for workload in by_suite("phoenix") + by_suite("parsec"):
        module = compile_source(workload.source, workload.name)
        module.finalize()
        mods.append((workload, module))
    return mods


def _sweep_once(mods, size, fastpath):
    """One full-suite execution; returns (seconds, outputs)."""
    outputs = []
    start = time.perf_counter()
    for workload, module in mods:
        vm = VM(enclave=Enclave(), fastpath=fastpath)
        vm.load(module)
        result = vm.run("main", workload.args_for(size, None))
        outputs.append((workload.name, result, vm.output()))
    return time.perf_counter() - start, outputs


def test_vm_fastpath_speedup(benchmark, save_result, bench_size):
    mods = _modules()

    def _measure():
        ref_times, fast_times = [], []
        ref_out = fast_out = None
        for _ in range(ROUNDS):
            seconds, ref_out = _sweep_once(mods, bench_size, False)
            ref_times.append(seconds)
            seconds, fast_out = _sweep_once(mods, bench_size, True)
            fast_times.append(seconds)
        return min(ref_times), min(fast_times), ref_out, fast_out

    ref_s, fast_s, ref_out, fast_out = benchmark.pedantic(
        _measure, rounds=1, iterations=1)
    speedup = ref_s / fast_s if fast_s else float("inf")

    # Identity spot-check rides along: same results, same stdout, on
    # the very sweep being timed (the full proof lives in the tests).
    assert fast_out == ref_out, "interpreter outputs diverged"

    data = {
        "suite": "fig07 phoenix+parsec",
        "scheme": "native",
        "size": bench_size,
        "rounds": ROUNDS,
        "reference_seconds": round(ref_s, 4),
        "fastpath_seconds": round(fast_s, 4),
        "speedup": round(speedup, 3),
        "min_speedup": MIN_SPEEDUP,
    }
    text = series_table(
        f"Interpreter fast path: Fig. 7 sweep (native, size "
        f"{bench_size}, best of {ROUNDS})",
        ["interpreter", "seconds", "speedup"],
        [["reference", round(ref_s, 3), 1.0],
         ["fastpath", round(fast_s, 3), round(speedup, 2)]])
    save_result("vm_fastpath", text, data=data)

    assert speedup >= MIN_SPEEDUP, (
        f"predecoded interpreter is only {speedup:.2f}x the reference "
        f"loop (floor {MIN_SPEEDUP}x) — the fast path has regressed")
