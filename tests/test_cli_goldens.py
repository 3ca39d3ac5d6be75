"""Golden-output regression tests for the CLI experiments.

``tests/goldens/*.txt`` pins the exact stdout of
``python -m repro <experiment> --seed 7 --size XS`` for the six
simulation experiments.  Two properties are enforced:

* **fastpath ON matches the goldens** — the block tier of the
  interpreter reproduces the pinned output byte for byte;
* **fastpath OFF matches the goldens too** (spot-check) — so the
  per-instruction tier, off the default path, cannot silently rot.

Timing lines are excluded: five experiments print theirs to stderr
(``_STDERR_TIMING`` in :mod:`repro.__main__`), which we do not capture;
chaos prints ``[chaos: N.Ns]`` to stdout and it is stripped on both
sides of the diff.

To regenerate after an intentional output change::

    for c in fleet chaos recover redteam overload observe; do
      PYTHONPATH=src python -m repro $c --seed 7 --size XS \
        > tests/goldens/$c.txt 2>/dev/null
    done
    sed -i '/^\\[chaos: [0-9.]*s\\]$/d' tests/goldens/chaos.txt

``tests/goldens/artifacts.json`` additionally pins the SHA-256 of every
file the observability exports write (``--trace-out``, ``--metrics-out``,
``--metrics-text-out``, ``--log-out``, ``--results-out``) for the
commands in :data:`ARTIFACT_COMMANDS`.  Regenerate it with
``PYTHONPATH=src python tests/test_cli_goldens.py --record``.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
GOLDENS = Path(__file__).resolve().parent / "goldens"
ARTIFACTS = GOLDENS / "artifacts.json"

EXPERIMENTS = ("fleet", "chaos", "recover", "redteam", "overload", "observe")

_TIMING = re.compile(r"^\[chaos: [0-9.]+s\]$", re.MULTILINE)
_EXPORT_LINE = re.compile(r"^\[(trace|metrics|log) -> .*\]$", re.MULTILINE)

_EXPORTS = ("--trace-out", "trace.json", "--metrics-out", "metrics.json",
            "--log-out", "x.jsonl")

#: label -> CLI arguments; each command runs in its own empty directory
#: and every file it leaves there is digested.
ARTIFACT_COMMANDS = {
    **{exp: (exp, "--seed", "7", "--size", "XS") + _EXPORTS
       for exp in EXPERIMENTS},
    "observe-export": ("observe", "--metrics-text-out", "exposition.txt",
                       "--trace-out", "trace.json"),
    "postmortem": ("postmortem", "memcached", "--log-out", "flight.jsonl",
                   "--results-out", "postmortem.json"),
    "profile": ("profile", "histogram", "--size", "XS", "--trace-out",
                "trace.json", "--metrics-out", "metrics.json"),
}


def _cli(args, cwd, fastpath: bool = True) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env["REPRO_VM_FASTPATH"] = "1" if fastpath else "0"
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, env=env, cwd=str(cwd),
        timeout=300)
    assert proc.returncode == 0, \
        f"{args[0]} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
    return _TIMING.sub("", proc.stdout).rstrip("\n")


def _run_cli(experiment: str, fastpath: bool) -> str:
    return _cli((experiment, "--seed", "7", "--size", "XS"), REPO, fastpath)


def _artifact_digests(label: str):
    """Run one artifact command; returns (stdout, {file: sha256})."""
    with tempfile.TemporaryDirectory() as tmp:
        stdout = _cli(ARTIFACT_COMMANDS[label], tmp)
        digests = {
            f"{label}/{path.name}":
                hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(Path(tmp).iterdir())}
    return stdout, digests


def _golden(experiment: str) -> str:
    return (GOLDENS / f"{experiment}.txt").read_text().rstrip("\n")


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_golden_fastpath_on(experiment):
    assert _run_cli(experiment, fastpath=True) == _golden(experiment), (
        f"'python -m repro {experiment} --seed 7 --size XS' drifted from "
        f"tests/goldens/{experiment}.txt with the fast path on")


@pytest.mark.parametrize("experiment", ("fleet", "chaos", "redteam"))
def test_golden_fastpath_off(experiment):
    """Per-instruction-tier spot-check: the non-default tier must keep
    producing the same pinned output (full six-way OFF coverage lives in
    the differential oracle; three subprocesses keep this cheap)."""
    assert _run_cli(experiment, fastpath=False) == _golden(experiment), (
        f"'python -m repro {experiment}' drifted from the golden with "
        f"REPRO_VM_FASTPATH=0 — the per-instruction tier has rotted")


@pytest.mark.parametrize("label", tuple(ARTIFACT_COMMANDS))
def test_observability_artifacts_pinned(label):
    """Every exported trace/metrics/log/results file is byte-identical to
    the pinned digest, and attaching the exports leaves an experiment's
    report equal to its golden (export notices stripped)."""
    stdout, digests = _artifact_digests(label)
    pinned = {key: value
              for key, value in json.loads(ARTIFACTS.read_text()).items()
              if key.startswith(f"{label}/")}
    assert digests == pinned, (
        f"'python -m repro {' '.join(ARTIFACT_COMMANDS[label])}' wrote "
        f"artifacts that drifted from tests/goldens/artifacts.json")
    if label in EXPERIMENTS:
        report = _EXPORT_LINE.sub("", stdout).rstrip("\n")
        assert report == _golden(label), (
            f"attaching exports changed the '{label}' report")


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    recorded = {}
    for label in ARTIFACT_COMMANDS:
        recorded.update(_artifact_digests(label)[1])
    ARTIFACTS.write_text(json.dumps(recorded, indent=2, sort_keys=True)
                         + "\n")
    print(f"recorded {len(recorded)} digests -> {ARTIFACTS}")
