"""Auditing: the checks an auditor runs against a machine's log.

An audit has three steps (Section 4.5):

1. obtain a log segment plus the authenticators the machine previously
   issued, and verify the segment against them (tamper check);
2. obtain and verify the snapshot at the beginning of the segment (or start
   from the reference image for a full audit);
3. run the *syntactic check* (well-formedness, signatures, acknowledgments,
   message/MAC-layer cross-references) and the *semantic check*
   (deterministic replay against the reference image).

If any step fails the auditor obtains :class:`~repro.audit.evidence.Evidence`
that any third party can verify without trusting the auditor or the auditee.
"""

from repro.audit.auditor import Auditor
from repro.audit.engine import AuditAssignment, AuditScheduler, FleetAuditReport
from repro.audit.evidence import Evidence
from repro.audit.online import OnlineAuditor
from repro.audit.semantic import SemanticChecker
from repro.audit.spot_check import SpotChecker, SpotCheckResult
from repro.audit.stream import (
    ArchiveEntryStream,
    StreamAuditReport,
    StreamingAuditPipeline,
    stream_audit,
)
from repro.audit.syntactic import SyntacticChecker, SyntacticReport
from repro.audit.verdict import AuditCost, AuditPhase, AuditResult, Verdict

__all__ = [
    "AuditAssignment",
    "AuditScheduler",
    "Auditor",
    "FleetAuditReport",
    "Evidence",
    "OnlineAuditor",
    "SemanticChecker",
    "SpotChecker",
    "SpotCheckResult",
    "ArchiveEntryStream",
    "StreamAuditReport",
    "StreamingAuditPipeline",
    "stream_audit",
    "SyntacticChecker",
    "SyntacticReport",
    "AuditResult",
    "AuditCost",
    "AuditPhase",
    "Verdict",
]
