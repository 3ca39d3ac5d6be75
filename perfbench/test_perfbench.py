"""Self-tests of the simulator benchmark.

    python3 -m pytest -q -p no:cacheprovider perfbench

They run real passes of the two cheapest workloads (about a minute).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REPRO_DIR = os.path.join(ROOT, "src", "repro")
sys.path.insert(0, HERE)

import run as bench                                   # noqa: E402
import spans                                          # noqa: E402
from workloads import SEED_SETS, WORKLOADS           # noqa: E402


def _one_pass(workload: str, seed_set: int, hash_seed: int) -> dict:
    result = bench.run_one_pass(workload, seed_set, hash_seed, "time")
    assert not result.get("error"), result.get("error")
    return result


def _run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def test_layer_map_covers_every_module():
    missing = []
    for dirpath, _dirs, files in os.walk(REPRO_DIR):
        for name in files:
            path = os.path.join(dirpath, name)
            if name.endswith(".py") and \
                    spans.layer_of_file(path, REPRO_DIR) is None:
                missing.append(os.path.relpath(path, REPRO_DIR))
    assert not missing, f"modules with no layer in spans.LAYER_OF: {missing}"


def test_unmapped_module_is_reported_not_hidden():
    new_file = os.path.join(REPRO_DIR, "newlayer", "mod.py")
    assert spans.layer_of_file(new_file, REPRO_DIR) is None
    vm_file = os.path.join(REPRO_DIR, "vm", "machine.py")
    stats = {
        (new_file, 1, "f"): (1, 1, 0.5, 0.5, {}),
        (vm_file, 1, "run"): (1, 1, 0.25, 1.0, {}),
        # A built-in's self time goes to its callers' layers.
        ("~", 0, "<method 'get' of 'dict' objects>"):
            (3, 3, 0.125, 0.125, {(vm_file, 1, "run"): (2, 2, 0.1, 0.1)}),
    }
    grouped = spans.group_profile(stats, REPRO_DIR)
    assert grouped["unmapped"] == 0.5
    assert grouped["vm"] == 0.25 + 0.1
    assert abs(grouped["python"] - 0.025) < 1e-12


def test_benchmark_json_lists_the_metrics_the_command_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for key, metrics in (("end_to_end", bench.END_TO_END),
                         ("per_layer", bench.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in spec[key]] \
            == [(m.name, m.unit, m.better) for m in metrics]


def test_altered_reference_is_caught(tmp_path, monkeypatch, capsys):
    with open(bench.REFERENCES) as f:
        refs = json.load(f)
    ops = refs["sets"][0]["workloads"]["attack-triage"]
    victim = sorted(ops)[0]
    ops[victim] = "0" * len(ops[victim])
    altered = tmp_path / "references.json"
    altered.write_text(json.dumps(refs))
    monkeypatch.setattr(bench, "REFERENCES", str(altered))

    code = bench.main(["--workload", "attack-triage", "--seconds", "0"])
    out = capsys.readouterr().out
    assert code == 1, out
    result = json.loads(out.strip().splitlines()[-1])
    passes = bench.MIN_PASSES
    assert result["correct"] is False
    assert result["failed"] == passes
    assert result["attempted"] == passes * len(ops)
    assert f"FAILED pass 1 (time): {victim}" in out


def test_same_seed_same_digests_other_seed_set_differs():
    with open(bench.REFERENCES) as f:
        refs = json.load(f)
    first = _one_pass("fleet-mix", 0, hash_seed=3)["digests"]
    again = _one_pass("fleet-mix", 0, hash_seed=5)["digests"]
    held_out = _one_pass("fleet-mix", 1, hash_seed=3)["digests"]
    assert first == again == refs["sets"][0]["workloads"]["fleet-mix"]
    assert held_out == refs["sets"][1]["workloads"]["fleet-mix"]
    assert set(held_out) == set(first)
    assert all(held_out[op] != first[op] for op in first)
    assert SEED_SETS[0]["fleet"] != SEED_SETS[1]["fleet"]


def test_fails_without_the_simulator(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run("--workload", "fleet-mix", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
