"""Exploitability triage: run one attack, classify what it bought.

Labels, from the defender's best case to worst:

* ``detected`` — the scheme flagged the violation (fail-stop abort, or a
  continuing policy that logged/contained it without the attack landing);
* ``crash`` — the run died on a non-bounds error (segfault, double-free
  abort, watchdog...): no detection credit, but no exploit either;
* ``no-effect`` — the attack ran to completion without landing (layout
  did not cooperate, or a continuing policy absorbed it);
* ``silent-corruption`` — attacker-controlled bytes observably landed in
  another object's state, nobody noticed;
* ``control-flow-hijack`` — the attack redirected control flow;
* ``info-leak`` — the attacker read bytes that belong to another object.

Evidence rides along with every verdict: the exception that ended the
run, the scheme's violation count, a forensics postmortem digest when one
was captured, and — under boundless — the overlay's leaked-bytes tally,
so "contained" is a *measured* claim, not an assumption.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import (
    BoundsViolation,
    ControlFlowHijack,
    ReproError,
    SegmentationFault,
)
from repro.faults import derive
from repro.forensics import Forensics
from repro.harness.chaos import PROFILES
from repro.harness.experiments import APP_CONFIG
from repro.harness.runner import SCHEMES, run_server
from repro.minic import compile_source
from repro.redteam.templates import AttackSpec
from repro.vm import VM
from repro.vm import policy as violation_policy
from repro.workloads import NetworkSim

DETECTED = "detected"
CRASH = "crash"
NO_EFFECT = "no-effect"

#: All triage labels, defender-best first.
LABELS = (DETECTED, CRASH, NO_EFFECT, "silent-corruption",
          "control-flow-hijack", "info-leak")

#: Labels that mean the attacker got something.
EXPLOITED = ("silent-corruption", "control-flow-hijack", "info-leak")


@dataclass
class TriageRecord:
    """One (attack, scheme, policy) verdict with its evidence."""

    attack: str
    attack_class: str
    scheme: str
    policy: str
    label: str
    evidence: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "attack": self.attack,
            "attack_class": self.attack_class,
            "scheme": self.scheme,
            "policy": self.policy,
            "label": self.label,
            "evidence": self.evidence,
        }


def _leak_evidence(scheme) -> Dict[str, int]:
    overlay = getattr(scheme, "overlay", None)
    if overlay is None:
        return {}
    return {"leaked_bytes": overlay.leaked_bytes,
            "oblivious_reads": overlay.oblivious_reads}


def _postmortem_digest(forensics: Optional[Forensics]) -> Dict[str, object]:
    if forensics is None or not forensics.postmortems:
        return {}
    pm = forensics.postmortems[0]
    return {"postmortem": {"trigger": pm.get("trigger", ""),
                           "count": len(forensics.postmortems)}}


def triage_program(spec: AttackSpec, scheme_name: str,
                   policy: str) -> TriageRecord:
    """Run a program-kind attack under one scheme × policy."""
    scheme = (SCHEMES[scheme_name](policy=policy)
              if scheme_name != "native" else None)
    module = compile_source(spec.source, spec.name)
    if scheme:
        module = scheme.instrument(module)
    module.finalize()
    forensics = Forensics(enabled=True)
    vm = VM(scheme=scheme, forensics=forensics)
    vm.load(module)
    evidence: Dict[str, object] = {}
    label = NO_EFFECT
    try:
        result = vm.run("main")
    except BoundsViolation as err:
        label = DETECTED
        evidence["exception"] = type(err).__name__
    except ControlFlowHijack as err:
        label = "control-flow-hijack"
        evidence["exception"] = type(err).__name__
    except ReproError as err:
        label = CRASH
        evidence["exception"] = type(err).__name__
        # Baggy detects out-of-block pointers by OOB-marking them (bit 31)
        # so the dereference traps — that segfault IS the scheme's
        # designed detection path (Akritidis et al.), not collateral.
        mark = getattr(scheme, "OOB_MARK", 0)
        if (mark and isinstance(err, SegmentationFault)
                and err.address & mark):
            label = DETECTED
            evidence["oob_trap"] = True
    else:
        violations = scheme.violations if scheme is not None else 0
        evidence["result"] = result
        if violations and policy == violation_policy.BOUNDLESS:
            # The overlay absorbed the out-of-bounds accesses: whatever
            # the program observed, no *other* object was touched.  The
            # readback probes see their own redirected writes, so the
            # return value is not trustworthy here — the leak tally is.
            label = DETECTED
        elif result == 1:
            label = spec.success_label
        elif violations:
            label = DETECTED
    if scheme is not None:
        evidence["violations"] = scheme.violations
        evidence.update(_leak_evidence(scheme))
    evidence.update(_postmortem_digest(forensics))
    return TriageRecord(spec.name, spec.attack_class, scheme_name, policy,
                        label, evidence)


def _responses(net: NetworkSim, conns: int):
    for conn in range(conns):
        for message in net.sent(conn):
            yield message


def triage_interface(spec: AttackSpec, scheme_name: str, policy: str,
                     seed: int = 1234) -> TriageRecord:
    """Run an interface-kind attack: hostile requests against the app's
    real server build, TeeRex-style (the attacker only holds the request
    socket).  The hostile requests are framed by the app's own benign
    traffic so a served-but-corrupted server is distinguishable from a
    dead one."""
    profile = PROFILES[spec.app]
    mod = profile.module
    threads = profile.threads
    benign = mod.workload(4 * threads)
    requests = list(benign[:2 * threads]) + list(spec.requests) \
        + list(benign[2 * threads:])
    count = len(requests)
    if threads > 1:
        per = count // threads
        by_conn = [requests[i * per:(i + 1) * per] for i in range(threads)]
        by_conn[-1].extend(requests[threads * per:])
    else:
        by_conn = [requests]
    net = NetworkSim(seed=derive(seed, f"redteam-net:{spec.name}"))
    result = run_server(mod.SOURCE, by_conn, scheme_name, count,
                        threads=threads, config=APP_CONFIG, name=spec.app,
                        policy=policy if scheme_name != "native" else None,
                        net=net,
                        seed=derive(seed, f"redteam-sched:{spec.name}"))
    evidence: Dict[str, object] = {
        "status": result.crashed or "ok",
        "violations": result.resilience["violations"],
        "responses": result.resilience["net"]["responses"],
    }
    leak_hit = False
    if spec.leak_marker:
        leak_hit = any(spec.leak_marker in message
                       for message in _responses(net, threads))
        evidence["leak_marker_seen"] = leak_hit
    overlay = None
    scheme_report = result.scheme_report
    if scheme_report:
        for key in ("overlay_leaked_bytes", "overlay_oblivious_reads"):
            if key in scheme_report:
                evidence[key[len("overlay_"):]] = scheme_report[key]
                overlay = True
    if result.crashed == "BoundsViolation":
        label = DETECTED
    elif result.crashed == "ControlFlowHijack":
        label = "control-flow-hijack"
    elif result.crashed is not None:
        label = CRASH
    elif leak_hit:
        label = "info-leak"
    elif evidence["violations"]:
        label = DETECTED
    elif (result.result is not None
          and result.result < (count // threads) * threads):
        # Server survived but silently lost requests it never flagged
        # (the per-thread division floor is the app's own behaviour,
        # not the attacker's doing).
        label = spec.success_label
    else:
        label = NO_EFFECT
    del overlay
    return TriageRecord(spec.name, spec.attack_class, scheme_name, policy,
                        label, evidence)


def triage(spec: AttackSpec, scheme_name: str, policy: str,
           seed: int = 1234) -> TriageRecord:
    if spec.kind == "interface":
        return triage_interface(spec, scheme_name, policy, seed=seed)
    return triage_program(spec, scheme_name, policy)
