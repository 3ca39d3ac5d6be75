"""Transparency oracle: instrumentation is invisible on in-bounds programs.

``tests/genprog.py`` programs index every array through a power-of-two
mask, so they never touch memory outside an object.  On such a program
each scheme must behave exactly like the uninstrumented native build:
the same stdout and the same exit value, whatever its check
optimizations (``optimize_safe`` and, for SGXBounds, ``optimize_hoist``)
remove or hoist.  Simulated counters differ by design (that difference is
the overhead the paper measures), so they are not compared here.

This oracle does not share an interpreter implementation with anything
it checks: the native run and the instrumented runs execute different IR,
so a mistake in one opcode definition shows up as a disagreement unless
it cancels out across schemes.
"""

from __future__ import annotations

import pytest

from repro.harness.runner import SCHEMES

from tests.genprog import corpus
from tests.util import run_c

#: Protected schemes (the native build is the reference).
SCHEME_NAMES = ("sgxbounds", "asan", "mpx", "baggy")

#: Seeds and programs per seed, sized to keep the tier-1 suite fast
#: (each program runs under 1 + 4 x 2 configurations).
SEEDS = (1604, 31337)
COUNT = 30


def _scheme(name: str, optimized: bool):
    cls = SCHEMES[name]
    kwargs = {"optimize_safe": optimized}
    if name == "sgxbounds":
        kwargs["optimize_hoist"] = optimized
    return cls(**kwargs)


@pytest.mark.parametrize("seed", SEEDS)
def test_instrumentation_is_transparent(seed):
    mismatches = []
    for k, source in enumerate(corpus(seed, COUNT)):
        native_result, native_vm = run_c(source)
        expected = (native_result, native_vm.output())
        for name in SCHEME_NAMES:
            for optimized in (True, False):
                result, vm = run_c(source, _scheme(name, optimized))
                if (result, vm.output()) != expected:
                    mismatches.append((k, name, optimized))
    assert not mismatches, (
        f"seed {seed}: (program, scheme, optimized) {mismatches} differ "
        f"from native — reproduce with tests.genprog.corpus({seed}, "
        f"{COUNT})[k]")


def test_optimizations_fire_on_the_corpus():
    """The oracle only covers the optimizations if they change the code
    it runs: with them on, a corpus program retires fewer instructions."""
    source = corpus(SEEDS[0], 1)[0]
    retired = {}
    for optimized in (True, False):
        _, vm = run_c(source, _scheme("sgxbounds", optimized))
        retired[optimized] = vm.counters.instructions
    assert retired[True] < retired[False]
