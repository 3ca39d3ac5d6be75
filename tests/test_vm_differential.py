"""Differential-identity oracle: block tier vs per-instruction tier.

Both interpreter tiers are generated from one opcode table
(:mod:`repro.vm.fastpath`).  Compiling hot straight-line runs into
blocks is only legal if a block-tier run is *observationally
indistinguishable* from a per-instruction run -- byte-identical stdout,
identical PerfCounters, identical violation and forensics records,
identical crash types -- for every program, every scheme, every policy,
whenever tier-up happens.  Every check below therefore runs the block
tier twice: at the default ``HOT`` and with every run compiled on its
first dispatch (``HOT = 1``).  The oracle works at three granularities:

1. every registered suite workload (XS) under every scheme;
2. the scheme x policy matrix on a real server app with an exploit
   request, down to flight-recorder JSONL and postmortem equality;
3. a seeded fuzz corpus (>= 200 generated MiniC programs per seed,
   ``tests/genprog.py``) through both tiers.

Because both tiers share the opcode definitions, a wrong definition
passes here; ``tests/test_transparency.py`` (every scheme against
native), the CLI goldens, the perfbench digests and
``tests/test_minic_properties.py`` are the independent checks.
"""

from __future__ import annotations

import pytest

from contextlib import contextmanager

from repro.forensics import Forensics
from repro.harness.runner import run_server, run_workload
from repro.vm import fastpath, policy
from repro.workloads import all_workloads, get
from repro.workloads.apps import apache, memcached

from tests.genprog import corpus
from tests.util import run_c

PROTECTED_SCHEMES = ("sgxbounds", "asan", "mpx", "baggy")

#: Fuzz corpus sizing: the ISSUE's oracle floor is 200 programs per seed.
FUZZ_SEEDS = (2017, 40917)
FUZZ_COUNT = 200


@contextmanager
def _hot(value):
    saved, fastpath.HOT = fastpath.HOT, value
    try:
        yield
    finally:
        fastpath.HOT = saved


def _block_tier_runs(run):
    """``run(fastpath=True)`` at the default HOT and at HOT = 1."""
    first = run(fastpath=True)
    with _hot(1):
        return first, run(fastpath=True)


def _run_pair(workload, scheme, **kwargs):
    """The per-instruction run and the two block-tier runs."""
    ref = run_workload(workload, scheme, fastpath=False, **kwargs)
    fast = _block_tier_runs(
        lambda **kw: run_workload(workload, scheme, **kwargs, **kw))
    return ref, fast


def _assert_results_identical(ref, fast, label):
    assert fast.output == ref.output, f"{label}: stdout drift"
    assert fast.result == ref.result, f"{label}: exit value drift"
    assert fast.crashed == ref.crashed, f"{label}: crash-type drift"
    assert fast.counters == ref.counters, f"{label}: PerfCounters drift"
    assert fast.violation == ref.violation, f"{label}: violation drift"
    assert fast.scheme_report == ref.scheme_report, \
        f"{label}: scheme report drift"


# ---------------------------------------------------------------------------
# 1. Every registered workload
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name",
                         [w.name for w in all_workloads()])
def test_workload_identity_native(name):
    ref, fast = _run_pair(get(name), "native", size="XS")
    for run in fast:
        _assert_results_identical(ref, run, f"{name}/native")


def test_workload_identity_all_schemes():
    """Full workload x protected-scheme sweep in one pass (XS).

    One test rather than 116 parametrized cells: each cell is cheap and
    a drift report names the exact cell anyway.
    """
    for workload in all_workloads():
        for scheme in PROTECTED_SCHEMES:
            ref, fast = _run_pair(workload, scheme, size="XS")
            for run in fast:
                _assert_results_identical(
                    ref, run, f"{workload.name}/{scheme}")


# ---------------------------------------------------------------------------
# 2. Scheme x policy matrix with violation/forensics records
# ---------------------------------------------------------------------------

def _server_cell(scheme, pol, fastpath):
    forensics = Forensics()
    result = run_server(
        memcached.SOURCE,
        [[memcached.make_request(1, b"k", b"v" * 8),
          memcached.cve_2011_4971_request(),
          memcached.make_request(2, b"k")]],
        scheme, 4, name="memcached", policy=pol,
        forensics=forensics, fastpath=fastpath)
    return result, forensics


@pytest.mark.parametrize("scheme", PROTECTED_SCHEMES)
@pytest.mark.parametrize("pol", policy.ALL_POLICIES)
def test_scheme_policy_matrix(scheme, pol):
    ref, ref_fx = _server_cell(scheme, pol, fastpath=False)
    label = f"memcached/{scheme}/{pol}"
    for fast, fast_fx in _block_tier_runs(
            lambda **kw: _server_cell(scheme, pol, **kw)):
        _assert_results_identical(ref, fast, label)
        assert fast.resilience == ref.resilience, \
            f"{label}: resilience drift"
        # Forensics must match record-for-record: the flight recorder's
        # JSONL dump covers event order, timestamps (instruction counts)
        # and every detail field; postmortems cover stack capture at the
        # violation site.
        assert fast_fx.recorder.to_jsonl() == ref_fx.recorder.to_jsonl(), \
            f"{label}: flight-recorder drift"
        assert fast_fx.postmortems == ref_fx.postmortems, \
            f"{label}: postmortem drift"


def test_apache_heartbleed_identity():
    """Second server app, different overflow shape (Heartbleed-style
    over-read followed by a legitimate request)."""
    requests = [apache.heartbleed_request(), apache.static_get()]
    for pol in (policy.ABORT, policy.BOUNDLESS):
        def run(pol=pol, **kw):
            return run_server(apache.SOURCE, [list(requests)], "sgxbounds",
                              4, name="apache", policy=pol, **kw)
        ref = run(fastpath=False)
        for fast in _block_tier_runs(run):
            _assert_results_identical(ref, fast, f"apache/sgxbounds/{pol}")


# ---------------------------------------------------------------------------
# 3. Generated-program fuzz corpus
# ---------------------------------------------------------------------------

def _counters(vm):
    return vm.enclave.finalize().snapshot()


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_fuzz_identity(seed):
    """>= 200 seeded random programs per seed, both tiers."""
    mismatches = []
    for k, source in enumerate(corpus(seed, FUZZ_COUNT)):
        ref_result, ref_vm = run_c(source, fastpath=False)
        for fast_result, fast_vm in _block_tier_runs(
                lambda **kw: run_c(source, **kw)):
            if (fast_result != ref_result
                    or fast_vm.output() != ref_vm.output()
                    or _counters(fast_vm) != _counters(ref_vm)):
                mismatches.append(k)
    assert not mismatches, (
        f"seed {seed}: programs {mismatches} diverged — reproduce with "
        f"tests.genprog.corpus({seed}, {FUZZ_COUNT})[k]")


def test_fuzz_identity_under_sgxbounds():
    """Sample of the corpus under instrumentation: exercises
    tagged-pointer GEPs and the clamped-access paths the native runs
    never reach."""
    from repro.core import SGXBoundsScheme
    for k, source in enumerate(corpus(7, 25)):
        ref_result, ref_vm = run_c(source, SGXBoundsScheme(),
                                   fastpath=False)
        for fast_result, fast_vm in _block_tier_runs(
                lambda **kw: run_c(source, SGXBoundsScheme(), **kw)):
            assert fast_result == ref_result, \
                f"program {k}: exit value drift"
            assert fast_vm.output() == ref_vm.output(), \
                f"program {k}: stdout drift"
            assert _counters(fast_vm) == _counters(ref_vm), \
                f"program {k}: counters drift"


def test_corpus_is_deterministic():
    assert corpus(99, 10) == corpus(99, 10)
    assert corpus(99, 10) != corpus(100, 10)
