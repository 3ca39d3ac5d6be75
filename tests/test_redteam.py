"""Redteam subsystem tests: templates, triage, matrix, storm, leakage."""

import pytest

from repro.core import SGXBoundsScheme
from repro.core.boundless import LEAK_TALLY_CAP, BoundlessCache
from repro.redteam import matrix as matrix_mod
from repro.redteam import storm as storm_mod
from repro.redteam.templates import (
    ATTACK_CLASSES,
    compile_catalog,
    compile_twins,
)
from repro.redteam.triage import (
    CRASH,
    DETECTED,
    EXPLOITED,
    LABELS,
    NO_EFFECT,
    triage,
)
from repro.telemetry import Observer, Telemetry
from tests.util import run_c

CATALOG = compile_catalog()
TWINS = compile_twins()
BY_NAME = {spec.name: spec for spec in CATALOG}


class TestCatalog:
    def test_names_unique(self):
        names = [s.name for s in CATALOG + TWINS]
        assert len(names) == len(set(names))

    def test_classes_valid(self):
        for spec in CATALOG + TWINS:
            assert spec.attack_class in ATTACK_CLASSES

    def test_every_class_represented_and_twinned(self):
        attack_classes = {s.attack_class for s in CATALOG}
        twin_classes = {s.attack_class for s in TWINS}
        assert attack_classes == set(ATTACK_CLASSES)
        assert twin_classes == set(ATTACK_CLASSES)

    def test_kinds_consistent(self):
        for spec in CATALOG + TWINS:
            if spec.kind == "program":
                assert spec.source and not spec.requests
            else:
                assert spec.app and spec.requests and not spec.source


class TestProgramTriage:
    def test_native_in_struct_hijack(self):
        rec = triage(BY_NAME["instruct_stack_funcptr"], "native", "abort")
        assert rec.label == "control-flow-hijack"

    def test_in_struct_invisible_to_object_granularity(self):
        for scheme in ("sgxbounds", "asan", "mpx", "baggy"):
            rec = triage(BY_NAME["instruct_stack_funcptr"], scheme, "abort")
            assert rec.label in EXPLOITED, (scheme, rec.label)

    def test_sgxbounds_detects_direct_with_postmortem(self):
        rec = triage(BY_NAME["direct_stack_funcptr"], "sgxbounds", "abort")
        assert rec.label == DETECTED
        assert rec.evidence["violations"] >= 1
        assert rec.evidence["postmortem"]["trigger"] == "BoundsViolation"

    def test_mpx_blind_to_laundered_sgxbounds_not(self):
        spec = BY_NAME["laundered_heap_funcptr"]
        assert triage(spec, "mpx", "abort").label == "control-flow-hijack"
        assert triage(spec, "sgxbounds", "abort").label == DETECTED

    def test_baggy_oob_trap_counts_as_detection(self):
        rec = triage(BY_NAME["direct_heap_neighbour"], "baggy", "abort")
        assert rec.label == DETECTED
        assert rec.evidence.get("oob_trap") is True

    def test_baggy_blind_within_padding(self):
        rec = triage(BY_NAME["offby8_heap_pad"], "baggy", "abort")
        assert rec.label == "silent-corruption"

    def test_temporal_only_asan(self):
        spec = BY_NAME["uaf_read_recycled"]
        assert triage(spec, "asan", "abort").label == DETECTED
        for scheme in ("native", "sgxbounds", "mpx", "baggy"):
            assert triage(spec, scheme, "abort").label == "info-leak"

    def test_double_free_crashes_everywhere(self):
        for scheme in ("native", "sgxbounds", "asan"):
            rec = triage(BY_NAME["double_free"], scheme, "abort")
            assert rec.label == CRASH
            assert rec.evidence["exception"] == "DoubleFree"

    def test_asan_misses_redzone_jumping_underflow(self):
        rec = triage(BY_NAME["underflow_read_jump"], "asan", "abort")
        assert rec.label == "info-leak"

    def test_boundless_contains_and_measures(self):
        """Boundless turns the underflow info-leak into a contained,
        *measured* event: label detected, nonzero leak tally."""
        spec = BY_NAME["underflow_read_jump"]
        contained = triage(spec, "sgxbounds", "boundless")
        assert contained.label == DETECTED
        assert contained.evidence["leaked_bytes"] > 0
        aborted = triage(spec, "sgxbounds", "abort")
        assert aborted.evidence["leaked_bytes"] == 0


class TestInterfaceTriage:
    def test_heartbleed_native_leaks_marker(self):
        rec = triage(BY_NAME["iface_apache_heartbleed"], "native", "abort")
        assert rec.label == "info-leak"
        assert rec.evidence["leak_marker_seen"] is True

    def test_heartbleed_sgxbounds_abort_detected(self):
        rec = triage(BY_NAME["iface_apache_heartbleed"], "sgxbounds",
                     "abort")
        assert rec.label == DETECTED

    def test_heartbleed_boundless_serves_zeros_counts_leak(self):
        """Under boundless the response carries manufactured zeros, not
        the secret — and the overlay priced the crossing reads."""
        rec = triage(BY_NAME["iface_apache_heartbleed"], "sgxbounds",
                     "boundless")
        assert rec.label == DETECTED
        assert rec.evidence.get("leak_marker_seen") is False
        assert rec.evidence["leaked_bytes"] > 0

    def test_memcached_dos_crashes_native(self):
        rec = triage(BY_NAME["iface_memcached_auth_dos"], "native", "abort")
        assert rec.label == CRASH

    def test_twins_no_false_positives(self):
        for spec in TWINS:
            for scheme in ("native", "sgxbounds", "asan", "mpx", "baggy"):
                rec = triage(spec, scheme, "abort")
                assert rec.label == NO_EFFECT, (spec.name, scheme, rec.label)


class TestMatrix:
    @pytest.fixture(scope="class")
    def result(self):
        subset = tuple(s for s in CATALOG if s.kind == "program")
        twins = tuple(s for s in TWINS if s.kind == "program")
        return matrix_mod.run_matrix(catalog=subset, twins=twins,
                                     under_load=False)

    def test_grid_shape(self, result):
        data, _ = result
        for cls, row in data["grid"].items():
            assert set(row) == set(matrix_mod.MATRIX_SCHEMES)
            for cell in row.values():
                assert 0 <= cell["detected"] <= cell["total"]

    def test_breakdown_accounts_every_record(self, result):
        data, _ = result
        total = sum(sum(row.values())
                    for row in data["triage_breakdown"].values())
        assert total == len(data["records"])
        for row in data["triage_breakdown"].values():
            assert set(row) == set(LABELS)

    def test_deterministic(self, result):
        subset = tuple(s for s in CATALOG if s.kind == "program")
        twins = tuple(s for s in TWINS if s.kind == "program")
        again = matrix_mod.run_matrix(catalog=subset, twins=twins,
                                      under_load=False)
        assert again[0] == result[0]
        assert again[1] == result[1]

    def test_document_envelope(self, result):
        doc = matrix_mod.matrix_document(result[0])
        assert doc["name"] == "redteam_matrix"
        assert doc["schema_version"] == 1
        assert doc["data"]["grid"] == result[0]["grid"]


class TestStorm:
    def test_attack_payloads_per_app(self):
        payloads = storm_mod.attack_payloads("memcached", CATALOG)
        assert payloads and all(isinstance(p, bytes) for p in payloads)
        with pytest.raises(ValueError):
            storm_mod.availability_under_attack("sgxbounds", app="sqlite_kv",
                                                catalog=CATALOG)

    def test_campaign_deterministic_and_bounded(self):
        one = storm_mod.availability_under_attack("sgxbounds",
                                                  catalog=CATALOG)
        two = storm_mod.availability_under_attack("sgxbounds",
                                                  catalog=CATALOG)
        assert one == two
        assert 0.0 <= one["availability"] <= 1.0
        assert one["attacks_injected"] > 0

    def test_storm_attacks_do_not_change_default_storm(self):
        """A storm campaign without storm_attacks is byte-identical to
        the pre-redteam behaviour (config field defaults to empty)."""
        from repro.fleet.campaign import CampaignConfig
        config = CampaignConfig(storm=(5, 15, 1.0))
        assert config.storm_attacks == ()


class _LeakVM:
    """Minimal stand-in for the leak-accounting hooks."""

    def __init__(self, request_id=None, telemetry=None):
        if request_id is not None:
            self.request_id = request_id
        self.observer = Observer.of(telemetry=telemetry)


class TestLeakAccounting:
    def test_note_oblivious_read_totals_and_per_request(self):
        cache = BoundlessCache()
        cache.note_oblivious_read(_LeakVM(request_id=7), 10)
        cache.note_oblivious_read(_LeakVM(request_id=7), 5)
        cache.note_oblivious_read(_LeakVM(request_id=9), 1)
        assert cache.oblivious_reads == 3
        assert cache.leaked_bytes == 16
        assert cache.leaked_by_request == {7: 15, 9: 1}
        stats = cache.stats()
        assert stats["leaked_bytes"] == 16
        assert stats["requests_with_leaks"] == 2

    def test_tally_cap_bounds_memory(self):
        cache = BoundlessCache()
        for rid in range(LEAK_TALLY_CAP + 10):
            cache.note_oblivious_read(_LeakVM(request_id=rid), 1)
        assert len(cache.leaked_by_request) == LEAK_TALLY_CAP
        assert cache.leak_tally_dropped == 10
        assert cache.leaked_bytes == LEAK_TALLY_CAP + 10  # totals keep going

    def test_telemetry_counters_fire_when_attached(self):
        telemetry = Telemetry()
        cache = BoundlessCache()
        cache.note_oblivious_read(_LeakVM(telemetry=telemetry), 42)
        snapshot = telemetry.metrics_snapshot()
        assert snapshot["boundless.oblivious_reads"]["value"] == 1
        assert snapshot["boundless.leaked_bytes"]["value"] == 42

    def test_boundless_run_counts_reads_abort_counts_none(self):
        src = """
        int main() {
            char *p = (char*)malloc(16);
            int x = p[64] & 255;     // failure-oblivious zero read
            return x;
        }
        """
        scheme = SGXBoundsScheme(boundless=True)
        value, _ = run_c(src, scheme=scheme)
        assert value == 0
        assert scheme.overlay.oblivious_reads >= 1
        assert scheme.overlay.leaked_bytes >= 1

        strict = SGXBoundsScheme()
        from repro.errors import BoundsViolation
        with pytest.raises(BoundsViolation):
            run_c(src, scheme=strict)
        assert strict.overlay.leaked_bytes == 0

    def test_in_bounds_run_counter_identical(self):
        """Zero-cost when off: a clean run leaves every leak counter and
        telemetry key untouched."""
        src = """
        int main() {
            char *p = (char*)malloc(16);
            for (int i = 0; i < 16; i++) p[i] = (char)i;
            return p[3];
        }
        """
        telemetry = Telemetry()
        scheme = SGXBoundsScheme(boundless=True)
        value, _ = run_c(src, scheme=scheme, telemetry=telemetry)
        assert value == 3
        assert scheme.overlay.oblivious_reads == 0
        assert scheme.overlay.leaked_bytes == 0
        snapshot = telemetry.metrics_snapshot()
        assert "boundless.oblivious_reads" not in snapshot
        assert "boundless.leaked_bytes" not in snapshot
