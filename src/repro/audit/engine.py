"""The fleet audit scheduler.

Section 6.6 puts the price tag on accountability: auditing a machine means
downloading its log, verifying it against the authenticators, and replaying
it — and the semantic check alone takes about as long as the recorded play
time.  The same section's remedy is that audits parallelise perfectly: other
machines' logs are independent, and with periodic snapshots the chunks of a
single log are independently verifiable and replayable too (Section 6.12).

:class:`AuditScheduler` exploits both axes with the one audit loop,
:class:`~repro.audit.stream.StreamingAuditPipeline`.  It opens one worker
pool per fleet audit and hands it to every machine's pipeline; each
pipeline splits its log into at most ``workers`` chunks at snapshot
boundaries and submits one :class:`~repro.audit.stream.ChunkJob` per chunk,
so the chunks of all machines overlap on the pool.  The parent merges each
machine's chunk outcomes into the serial-identical
:class:`~repro.audit.verdict.AuditResult`, and hands any machine whose
chunks detected something to the serial audit, so verdicts and evidence
are identical at every worker count.

Costs are threaded through :class:`~repro.audit.verdict.AuditCost` so the
Figure 8/9 experiments keep reporting paper-faithful numbers, and the fleet
report carries the *modelled* serial-vs-parallel wall-clock
(:mod:`repro.metrics.parallel`, scheduled from the per-chunk kernel costs)
alongside the measured one, because the modelled number — like every other
number this reproduction reports — must not depend on the hardware the
simulation runs on.
"""

from __future__ import annotations

import contextlib
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.audit.auditor import Auditor
from repro.audit.stream import (
    ChunkJob,
    ChunkOutcome,
    StreamAuditReport,
    StreamingAuditPipeline,
    run_chunk,
)
from repro.audit.verdict import AuditCost, AuditResult, Verdict
from repro.avmm.monitor import AccountableVMM
from repro.metrics.parallel import ParallelSchedule, schedule

__all__ = [
    "AuditAssignment",
    "AuditScheduler",
    "FleetAuditReport",
]

EXECUTORS = ("process", "thread", "inline")


@dataclass
class FleetAuditReport:
    """Outcome of auditing a fleet of machines on the scheduler."""

    results: Dict[str, AuditResult] = field(default_factory=dict)
    machine_reports: Dict[str, StreamAuditReport] = field(default_factory=dict)
    workers: int = 1
    executor_used: str = "inline"
    chunk_count: int = 0
    #: measured wall-clock of this run (hardware-dependent)
    wall_seconds: float = 0.0
    #: modelled cost schedule (hardware-independent, from the kernel costs)
    modelled: Optional[ParallelSchedule] = None
    total_cost: AuditCost = field(default_factory=AuditCost)

    @property
    def all_passed(self) -> bool:
        return all(result.verdict is Verdict.PASS for result in self.results.values())

    @property
    def modelled_speedup(self) -> float:
        return self.modelled.speedup if self.modelled is not None else 1.0

    def summary(self) -> str:
        verdicts = ", ".join(f"{machine}={result.verdict.value}"
                             for machine, result in sorted(self.results.items()))
        return (f"fleet audit: {len(self.results)} machines, "
                f"{self.chunk_count} chunks on {self.workers} workers "
                f"({self.executor_used}); {verdicts}")


@dataclass
class AuditAssignment:
    """One unit of fleet work: this auditor audits this machine."""

    auditor: Auditor
    target: AccountableVMM


class AuditScheduler:
    """Runs the audits of many machines over one worker pool.

    ``workers=1`` runs every chunk inline.  With more workers the chunks run
    on a process pool, unless ``executor`` names ``"thread"`` or
    ``"inline"``; a job that does not pickle raises.
    """

    def __init__(self, workers: int = 1, executor: str = "process") -> None:
        if workers < 1:
            raise ValueError(f"worker count must be >= 1, got {workers}")
        if executor not in EXECUTORS:
            raise ValueError(f"unknown executor kind {executor!r}")
        self.workers = workers
        self.executor = "inline" if workers == 1 else executor

    # -- public API ---------------------------------------------------------

    def audit_machine(self, auditor: Auditor, target: AccountableVMM) -> AuditResult:
        """Audit one machine; returns its result."""
        report = self.audit_fleet([AuditAssignment(auditor, target)])
        return report.results[target.identity]

    def audit_fleet(self, assignments: Sequence[AuditAssignment]) -> FleetAuditReport:
        """Audit every assignment, the chunks of all of them on one pool.

        Each target may appear at most once — the report is keyed by machine
        identity, so several auditors auditing the same machine must run as
        separate fleet calls.
        """
        targets = [assignment.target.identity for assignment in assignments]
        duplicates = sorted({name for name in targets if targets.count(name) > 1})
        if duplicates:
            raise ValueError(
                f"fleet contains duplicate audit targets: {duplicates}; "
                f"run one fleet audit per auditor instead")
        started = time.perf_counter()
        with self._pool() as pool:
            pipelines = [StreamingAuditPipeline(assignment.auditor,
                                                assignment.target,
                                                max_chunks=self.workers,
                                                executor=pool)
                         for assignment in assignments]
            for pipeline in pipelines:
                pipeline.start()
            reports = [pipeline.finish() for pipeline in pipelines]

        fleet = FleetAuditReport(workers=self.workers,
                                 executor_used=self.executor)
        work: List[AuditCost] = []
        for machine, report in zip(targets, reports):
            fleet.machine_reports[machine] = report
            fleet.results[machine] = report.result
            fleet.chunk_count += report.stats.chunks
            work.extend(report.work_costs)
        fleet.wall_seconds = time.perf_counter() - started
        fleet.total_cost = AuditCost.total(work)
        fleet.modelled = schedule([cost.total_seconds for cost in work],
                                  self.workers)
        return fleet

    def run_jobs(self, jobs: Sequence[ChunkJob]) -> List[ChunkOutcome]:
        """Run prepared chunk jobs on a pool (used by the spot checker)."""
        with self._pool() as pool:
            if pool is None:
                return [run_chunk(job) for job in jobs]
            return list(pool.map(run_chunk, jobs))

    def _pool(self):
        if self.executor == "inline":
            return contextlib.nullcontext()
        pool_cls = ProcessPoolExecutor if self.executor == "process" \
            else ThreadPoolExecutor
        return pool_cls(max_workers=self.workers)
