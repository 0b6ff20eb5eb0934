"""The auditor.

:class:`Auditor` implements the full audit of Section 4.5: collect
authenticators, download the log (compressed), verify it against the
authenticators, run the syntactic check, then the semantic check.  Any failure
produces :class:`~repro.audit.evidence.Evidence`; an unresponsive machine is
*suspected* and the most recent authenticator becomes the evidence.

A whole-machine :meth:`Auditor.audit` runs on the one audit pipeline
(:mod:`repro.audit.stream`), inline with ``workers=1`` (the default) and on
the fleet scheduler's worker pool (:class:`repro.audit.engine.AuditScheduler`)
otherwise.  :meth:`Auditor.audit_segment` is the serial audit of a
downloaded segment: the pipeline hands over to it whenever a chunk detects
anything, so verdicts and evidence are canonical on every path, and
``audit(target, streaming=False)`` is the reference the differential tests
compare every path against.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.audit.evidence import Evidence
from repro.audit.semantic import SemanticChecker
from repro.audit.syntactic import SyntacticChecker
from repro.audit.verdict import AuditCost, AuditPhase, AuditResult, Verdict
from repro.avmm.monitor import AccountableVMM
from repro.crypto.keys import KeyStore
from repro.errors import AuditError, AuthenticatorMismatchError, HashChainError
from repro.log.authenticator import Authenticator
from repro.log.codec import modelled_compressed_log_bytes
from repro.log.segments import LogSegment
from repro.metrics.perfmodel import CostParameters
from repro.obs import Observability, ensure_obs
from repro.vm.image import VMImage


def replay_start(target) -> Tuple[Optional[Dict[str, Any]], int]:
    """Where replay of ``target``'s retained log starts, and its snapshot bytes.

    A GC-truncated archive replays from its boundary snapshot; any other
    target from the reference image.
    """
    is_truncated = getattr(target, "is_truncated", None)
    if is_truncated is not None and is_truncated():
        return target.initial_state()
    return None, 0


class Auditor:
    """An auditing party (Alice, or any player auditing another).

    ``workers`` is how many pool workers whole-machine audits (and spot-check
    sweeps) may use; 1 runs them inline.
    """

    def __init__(self, identity: str, keystore: KeyStore, reference_image: VMImage,
                 cost_params: Optional[CostParameters] = None,
                 workers: int = 1,
                 obs: Optional[Observability] = None) -> None:
        self.identity = identity
        self.keystore = keystore
        self.reference_image = reference_image
        self.cost_params = cost_params or CostParameters()
        self.workers = workers
        self.obs = ensure_obs(obs)
        self.collected_authenticators: Dict[str, List[Authenticator]] = {}

    # -- authenticator collection -------------------------------------------------

    def collect_authenticators(self, machine: str,
                               authenticators: Iterable[Authenticator]) -> int:
        """Store authenticators issued by ``machine`` (e.g. detached from messages)."""
        store = self.collected_authenticators.setdefault(machine, [])
        added = 0
        for auth in authenticators:
            if auth.machine != machine:
                continue
            store.append(auth)
            added += 1
        return added

    def collect_from_peer(self, peer: AccountableVMM, machine: str) -> int:
        """Ask another party for the authenticators it holds about ``machine``.

        This is the multi-party step of Section 4.6: before auditing Bob,
        Alice downloads the authenticators Charlie has collected from Bob.
        """
        return self.collect_authenticators(machine, peer.authenticators_from(machine))

    def authenticators_for(self, machine: str) -> List[Authenticator]:
        return list(self.collected_authenticators.get(machine, []))

    # -- audits ---------------------------------------------------------------------

    def audit(self, target: AccountableVMM,
              segment: Optional[LogSegment] = None,
              initial_state: Optional[Dict[str, Any]] = None,
              streaming: bool = True) -> AuditResult:
        """Run a full audit of ``target`` (or of a specific segment of its log).

        A whole-machine audit runs on the audit pipeline
        (:mod:`repro.audit.stream`): the log is verified and replayed chunk
        by chunk (in O(chunk) memory for an archive-backed target), on a
        worker pool when ``workers > 1``, with a result equal to the serial
        audit's.  ``streaming=False``, an explicit ``segment`` or an explicit
        ``initial_state`` take the serial path, which materializes the log.
        """
        if segment is None and initial_state is None and streaming:
            if self.workers > 1:
                from repro.audit.engine import AuditScheduler
                return AuditScheduler(workers=self.workers).audit_machine(
                    self, target)
            from repro.audit.stream import stream_audit
            return stream_audit(self, target).result
        snapshot_bytes = 0
        if segment is None:
            segment = target.get_log_segment()
            if initial_state is None:
                initial_state, snapshot_bytes = replay_start(target)
        return self.audit_segment(target.identity, segment,
                                  initial_state=initial_state,
                                  snapshot_bytes=snapshot_bytes)

    def audit_segment(self, machine: str, segment: LogSegment,
                      initial_state: Optional[Dict[str, Any]] = None,
                      snapshot_bytes: int = 0) -> AuditResult:
        """Audit a log segment that has already been downloaded.

        This is the shared serial chokepoint (serial audits, spot-check
        chunks, the pipeline's hand-over on detection), so the obs wall timer
        here guarantees ``AuditResult.wall_seconds`` is populated on
        every front-end — the null tracer's timer still measures.
        """
        with self.obs.tracer.timed("audit.segment", track=machine,
                                   machine=machine,
                                   entries=len(segment.entries)) as timer:
            result = self._audit_segment(machine, segment, initial_state,
                                         snapshot_bytes)
        result.wall_seconds = timer.seconds
        return result

    def _audit_segment(self, machine: str, segment: LogSegment,
                       initial_state: Optional[Dict[str, Any]] = None,
                       snapshot_bytes: int = 0) -> AuditResult:
        if segment.machine != machine:
            # A segment claiming another identity would sidestep every
            # authenticator check (none would apply) and could replay
            # cleanly; refusing it is an operational error, not a verdict.
            raise AuditError(
                f"segment claims to be from {segment.machine!r}, "
                f"but the audit target is {machine!r}")
        cost = self.download_cost(segment, snapshot_bytes)
        authenticators = self.authenticators_for(machine)

        # Step 1: the log must match the authenticators the machine has issued.
        try:
            checked = segment.verify_against_authenticators(authenticators, self.keystore)
        except (HashChainError, AuthenticatorMismatchError) as exc:
            return self._fail(machine, segment, AuditPhase.AUTHENTICATOR_CHECK,
                              str(exc), cost, authenticators, initial_state)

        # Step 2: syntactic check.
        syntactic = SyntacticChecker(self.keystore).check(segment)
        if not syntactic.ok:
            result = self._fail(machine, segment, AuditPhase.SYNTACTIC_CHECK,
                                "; ".join(syntactic.problems[:3]), cost,
                                authenticators, initial_state)
            result.syntactic_problems = syntactic.problems
            result.authenticators_checked = checked
            return result

        # Step 3: semantic check (deterministic replay).
        checker = SemanticChecker(self.reference_image, self.cost_params)
        report = checker.check(segment, initial_state=initial_state)
        cost.semantic_seconds = checker.estimate_timing(report).replay_seconds
        if report.diverged:
            result = self._fail(machine, segment, AuditPhase.SEMANTIC_CHECK,
                                report.divergence.describe(), cost,
                                authenticators, initial_state)
            result.replay_report = report
            result.authenticators_checked = checked
            return result

        return AuditResult(machine=machine, auditor=self.identity,
                           verdict=Verdict.PASS, phase=AuditPhase.COMPLETE,
                           authenticators_checked=checked,
                           replay_report=report, cost=cost)

    def suspect(self, machine: str, reason: str = "no response to audit challenge") -> AuditResult:
        """Report an unresponsive machine (Section 4.5: 'Alice will suspect Bob')."""
        authenticators = self.authenticators_for(machine)
        evidence = Evidence(machine=machine, accuser=self.identity, reason=reason,
                            segment=None, authenticators=authenticators,
                            reference_image_hash=self.reference_image.image_hash(),
                            unanswered_challenge=True)
        return AuditResult(machine=machine, auditor=self.identity,
                           verdict=Verdict.SUSPECTED,
                           phase=AuditPhase.AUTHENTICATOR_CHECK,
                           reason=reason, evidence=evidence)

    # -- helpers ----------------------------------------------------------------------

    def download_cost(self, segment: LogSegment, snapshot_bytes: int) -> AuditCost:
        """Model the transfer/processing cost of obtaining this segment.

        The compressed size is the cost model's canonical number
        (:func:`repro.log.codec.modelled_compressed_log_bytes`): a pure
        function of the entries, so every audit path charges the same
        download for the same log, whatever its wire format.
        """
        return AuditCost.download(segment.size_bytes(),
                                  modelled_compressed_log_bytes(segment),
                                  snapshot_bytes, self.cost_params)

    def _fail(self, machine: str, segment: LogSegment, phase: AuditPhase,
              reason: str, cost: AuditCost, authenticators: List[Authenticator],
              initial_state: Optional[Dict[str, Any]]) -> AuditResult:
        evidence = Evidence(machine=machine, accuser=self.identity, reason=reason,
                            segment=segment, authenticators=authenticators,
                            reference_image_hash=self.reference_image.image_hash(),
                            initial_state=initial_state)
        return AuditResult(machine=machine, auditor=self.identity,
                           verdict=Verdict.FAIL, phase=phase, reason=reason,
                           evidence=evidence, cost=cost)
