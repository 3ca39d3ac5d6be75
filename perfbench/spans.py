"""Layer spans and profiler grouping for the simulator benchmark.

Spans are recorded from outside the program: :func:`install` replaces
the public entry points of each layer (``compile_source``,
``Scheme.instrument``, ``Module.finalize``, Enclave/VM construction,
``VM.load``, ``VM.run``, the fleet's ``build_server_vm``) with wrappers
that only time the call and, when a VM finishes, read its counters.
Nothing inside ``src/repro`` is edited.  The layers below ``VM.run``
(``sgx``, ``memory``, the scheme runtimes) cannot be wrapped that way, so
a separate cProfile pass groups self time by module: :data:`LAYER_OF`
maps every top-level entry of the ``repro`` package to its layer.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, Optional

#: Top-level entry under ``src/repro`` -> layer.  Every package and
#: top-level module must appear here (checked by the self-test), so a new
#: file cannot hide its time under ``python``.
LAYER_OF: Dict[str, str] = {
    "__init__.py": "harness",
    "__main__.py": "harness",
    "errors.py": "vm",          # the simulated machine's fault taxonomy
    "asan": "asan",
    "baggy": "baggy",
    "core": "core",
    "faults": "faults",
    "fleet": "fleet",
    "forensics": "forensics",
    "harness": "harness",
    "ir": "ir",
    "memory": "memory",
    "minic": "minic",
    "mpx": "mpx",
    "obs": "obs",
    "overload": "overload",
    "passes": "passes",
    "recovery": "recovery",
    "redteam": "redteam",
    "sgx": "sgx",
    "telemetry": "telemetry",
    "vm": "vm",
    "workloads": "workloads",
}

#: Code outside the ``repro`` package (stdlib, this benchmark).
OUTSIDE = "python"

#: Report order of the profiled layers.
LAYERS = tuple(sorted(set(LAYER_OF.values()))) + (OUTSIDE,)

#: Span names whose time is build work (``setup_s``).
SETUP_SPANS = frozenset(("minic.compile", "passes.instrument", "vm.load",
                         "fleet.boot"))


def layer_of_file(path: str, repro_dir: str) -> Optional[str]:
    """Layer of a source file; None for a file inside ``repro`` that
    :data:`LAYER_OF` does not cover, :data:`OUTSIDE` for any other file."""
    rel = os.path.relpath(os.path.abspath(path), repro_dir)
    if rel.startswith(os.pardir) or os.path.isabs(rel):
        return OUTSIDE
    return LAYER_OF.get(rel.split(os.sep, 1)[0])


class Spans:
    """Per-layer inclusive time, call counts and harvested VM counters
    for one pass.  A span nested inside a span of the same layer adds no
    time; ``setup_s`` counts only the outermost build span."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()
        self.checks: Counter = Counter()
        self.memory = {"peak_reserved_bytes": 0, "materialized_pages": 0}
        self.net_retries = 0
        self.setup_s = 0.0
        self._active: Counter = Counter()
        self._setup_depth = 0
        self._workers = []

    # -- span bookkeeping ---------------------------------------------
    def _enter(self, name: str) -> None:
        self._active[name] += 1
        if name in SETUP_SPANS:
            self._setup_depth += 1

    def _leave(self, name: str, elapsed: float) -> None:
        self._active[name] -= 1
        if self._active[name] == 0:
            self.seconds[name] += elapsed
        if name in SETUP_SPANS:
            self._setup_depth -= 1
            if self._setup_depth == 0:
                self.setup_s += elapsed

    def wrap(self, name: str, fn: Callable, count: Optional[str] = None,
             after: Optional[Callable] = None) -> Callable:
        """Time ``fn`` under layer ``name``; ``count`` names its call
        counter, ``after(args, result)`` reads what the call produced."""
        perf = time.perf_counter

        def timed(*args, **kwargs):
            self._enter(name)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(name, perf() - start)
            if count is not None:
                self.calls[count] += 1
            if after is not None:
                after(args, result)
            return result

        return timed

    # -- counters read from finished VMs --------------------------------
    def harvest(self, vm) -> None:
        """Fold one VM's counters and memory footprint into the pass."""
        from repro.memory.layout import PAGE_SIZE
        snap = vm.counters.snapshot()
        snap["cycles"] = vm.enclave.cycles()
        self.counters.update(snap)
        report = vm.enclave.memory_report()
        self.memory["peak_reserved_bytes"] = max(
            self.memory["peak_reserved_bytes"],
            report["peak_reserved_bytes"])
        self.memory["materialized_pages"] += (
            report["materialized_bytes"] // PAGE_SIZE)
        net = getattr(vm, "net", None)
        if net is not None and getattr(vm, "worker_id", None) is not None:
            self.net_retries += net.stats()["retries"]

    def end_campaign(self) -> None:
        """Harvest the live incarnation of every fleet worker built since
        the last call (retired incarnations are harvested at reboot)."""
        for worker in self._workers:
            if worker.vm is not None:
                self.harvest(worker.vm)
        self._workers = []


def install(spans: Spans) -> None:
    """Route the layer entry points of every loaded ``repro`` module
    through ``spans``.  Call after the workload modules are imported."""
    import repro.fleet.worker as fleet_worker
    from repro.harness.runner import SCHEMES
    from repro.ir.module import Module
    from repro.minic import compile_source
    from repro.sgx import Enclave
    from repro.vm import VM
    from repro.vm.scheme import SchemeRuntime

    compile_timed = spans.wrap("minic.compile", compile_source,
                               count="minic.compiles")
    for name, module in list(sys.modules.items()):
        if (name.startswith("repro") and module is not None
                and getattr(module, "compile_source", None)
                is compile_source):
            module.compile_source = compile_timed

    def instrumented(args, module) -> None:
        meta = module.meta
        spans.checks["inserted"] += meta.get("checks_inserted", 0)
        spans.checks["elided"] += meta.get("checks_elided", 0)

    scheme_classes = {SchemeRuntime}
    scheme_classes.update(f for f in SCHEMES.values() if isinstance(f, type))
    for cls in scheme_classes:
        if "instrument" in vars(cls):
            cls.instrument = spans.wrap("passes.instrument", cls.instrument,
                                        count="passes.instruments",
                                        after=instrumented)
    Module.finalize = spans.wrap("passes.instrument", Module.finalize)

    Enclave.__init__ = spans.wrap("vm.load", Enclave.__init__)
    VM.__init__ = spans.wrap("vm.load", VM.__init__)
    VM.load = spans.wrap("vm.load", VM.load)

    run = VM.run
    perf = time.perf_counter

    def vm_run(self, *args, **kwargs):
        name = f"vm.run.{self.scheme.name}"
        start = perf()
        try:
            return run(self, *args, **kwargs)
        finally:
            elapsed = perf() - start
            spans.seconds["vm.run"] += elapsed
            spans.seconds[name] += elapsed
            spans.harvest(self)

    VM.run = vm_run

    fleet_worker.build_server_vm = spans.wrap(
        "fleet.boot", fleet_worker.build_server_vm, count="fleet.boots")
    worker_cls = fleet_worker.EnclaveWorker
    init, boot = worker_cls.__init__, worker_cls.boot

    def worker_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        spans._workers.append(self)

    def worker_boot(self):
        if getattr(self, "vm", None) is not None:
            spans.harvest(self.vm)
        boot(self)

    worker_cls.__init__ = worker_init
    worker_cls.boot = worker_boot


def group_profile(stats: Dict, repro_dir: str) -> Dict[str, float]:
    """Self seconds per layer from ``pstats.Stats(...).stats``.

    A built-in function (file ``~``) has no module of its own; its self
    time goes to the layer of each caller, split as the profiler
    recorded it, so ``dict.get`` called by the VM counts as ``vm``.
    Files inside ``repro`` that :data:`LAYER_OF` misses land under
    ``unmapped``."""
    out: Dict[str, float] = defaultdict(float)

    def layer(key) -> str:
        return layer_of_file(key[0], repro_dir) or "unmapped"

    for key, (_cc, _nc, tt, _ct, callers) in stats.items():
        if key[0] != "~":
            out[layer(key)] += tt
            continue
        shared = 0.0
        for caller, entry in callers.items():
            if caller[0] == "~":
                continue
            out[layer(caller)] += entry[2]
            shared += entry[2]
        out[OUTSIDE] += max(0.0, tt - shared)
    return dict(out)
