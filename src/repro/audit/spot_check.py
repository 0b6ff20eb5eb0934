"""Spot checking (Sections 3.5 and 6.12).

Instead of auditing the whole log, the auditor picks *k-chunks* — ``k``
consecutive snapshot-delimited segments — downloads the snapshot at the start
of the chunk, verifies it against the hash-tree root recorded in the log, and
replays just the chunk.  The cost is roughly proportional to the chunk size
plus a fixed per-chunk cost for transferring the memory and disk snapshots and
for decompression (Figure 9).

Spot checking is a policy for choosing chunks; each chosen chunk is audited
by the serial auditor, or — when :meth:`SpotChecker.check_all_chunks`
sweeps many chunks for an auditor with ``workers > 1`` — by the audit
pipeline's chunk kernel (:func:`repro.audit.stream.run_chunk`) on a worker
pool, with jobs from the pipeline's job builder.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.audit.auditor import Auditor
from repro.audit.engine import AuditScheduler
from repro.audit.stream import (
    ChunkJobBuilder,
    fetch_verified_snapshot_entry,
    record_chunk_telemetry,
)
from repro.audit.verdict import AuditPhase, AuditResult, Verdict
from repro.avmm.monitor import AccountableVMM
from repro.errors import MissingSnapshotError, SegmentError
from repro.log.entries import EntryType
from repro.log.segments import LogSegment, concatenate_segments


@dataclass
class SpotCheckResult:
    """Outcome and cost of auditing one k-chunk."""

    chunk_start_index: int
    k: int
    result: AuditResult
    log_bytes: int
    compressed_log_bytes: int
    snapshot_bytes: int
    replay_seconds: float

    @property
    def total_bytes_transferred(self) -> int:
        return self.compressed_log_bytes + self.snapshot_bytes

    @property
    def total_seconds(self) -> float:
        return self.result.cost.decompression_seconds \
            + self.result.cost.syntactic_seconds + self.replay_seconds

    @property
    def ok(self) -> bool:
        return self.result.ok


@dataclass
class SpotCheckReport:
    """Outcome of a *sampled* spot check, with honest coverage accounting.

    A spot check that samples some chunks and finds no fault has *not*
    audited the machine — it has audited the sampled fraction of its log.
    This report keeps the two claims apart: :attr:`ok` says the sampled
    chunks passed, :attr:`complete` says whether the sample actually covered
    every segment, and :meth:`verdict_claim` never reports an unqualified
    "pass" for a partial sample.  A tampered chunk outside the sample
    therefore can never be laundered into a clean bill of health.
    """

    machine: str
    k: int
    #: snapshot-delimited segments the log splits into
    segments_total: int
    #: chunk start indices that were actually audited
    checked_indices: List[int] = field(default_factory=list)
    results: List[SpotCheckResult] = field(default_factory=list)
    #: distinct segments covered by the sampled chunks
    segments_checked: int = 0
    entries_total: int = 0
    entries_checked: int = 0

    @property
    def chunks_checked(self) -> int:
        return len(self.results)

    @property
    def ok(self) -> bool:
        """All *sampled* chunks passed (says nothing about unsampled ones)."""
        return all(result.ok for result in self.results)

    @property
    def complete(self) -> bool:
        """True only when every segment of the log was covered."""
        return self.segments_checked >= self.segments_total

    @property
    def segment_coverage(self) -> float:
        """Fraction of snapshot-delimited segments the sample covered."""
        if self.segments_total <= 0:
            return 1.0
        return self.segments_checked / self.segments_total

    @property
    def entry_coverage(self) -> float:
        """Fraction of log entries the sample covered."""
        if self.entries_total <= 0:
            return 1.0
        return self.entries_checked / self.entries_total

    def verdict_claim(self) -> str:
        """The strongest claim this check honestly supports.

        ``"fail"`` — a sampled chunk produced a fault (evidence attached to
        its result); ``"pass"`` — every segment was audited and passed;
        ``"pass-sampled"`` — the sampled chunks passed, but only
        :attr:`segment_coverage` of the log was looked at.
        """
        if not self.ok:
            return "fail"
        return "pass" if self.complete else "pass-sampled"

    @staticmethod
    def detection_probability(segments_total: int, k: int,
                              sample_size: int) -> float:
        """A-priori chance a uniformly sampled spot check hits one bad segment.

        With ``N`` segments, chunk size ``k`` and ``n`` sampled chunk starts
        (without replacement), a single tampered segment in the interior is
        covered by up to ``k`` starts; the hypergeometric miss probability
        gives ``p = 1 - C(N', n) / C(N'+c, n)`` with ``N'`` the non-covering
        starts.  This is the Figure 9 trade-off: cost scales with ``n * k``,
        detection probability with how much of the log the sample covers.
        """
        starts_total = max(0, segments_total - k + 1)
        if starts_total == 0 or sample_size <= 0:
            return 0.0
        sample_size = min(sample_size, starts_total)
        covering = min(k, starts_total)
        missing = starts_total - covering
        if sample_size > missing:
            return 1.0
        miss = math.comb(missing, sample_size) / math.comb(starts_total, sample_size)
        return 1.0 - miss


class _SegmentSource:
    """Lazy access to a target's snapshot-delimited segments.

    Live targets materialize their segment list once (as before).  An
    archive-backed target (``supports_streaming``) is served record by
    record from disk instead, with a small sliding cache sized to the chunk
    being checked — so a spot check of one k-chunk decompresses k+1
    segments, not the whole log, and entry counts come from the manifest
    index without touching segment files at all.
    """

    def __init__(self, target: AccountableVMM, k: int = 1,
                 segments: Optional[List[LogSegment]] = None) -> None:
        self._records = None
        self._archive = None
        self._cache: Dict[int, LogSegment] = {}
        self._cache_limit = max(2, k + 1)
        if segments is not None:
            self._segments: Optional[List[LogSegment]] = list(segments)
        elif getattr(target, "supports_streaming", False):
            self._segments = None
            self._archive = target.archive
            self._records = target.archive.segment_records(target.identity)
        else:
            self._segments = target.get_snapshot_segments()

    def __len__(self) -> int:
        if self._segments is not None:
            return len(self._segments)
        return len(self._records)

    def get(self, index: int) -> LogSegment:
        if self._segments is not None:
            return self._segments[index]
        cached = self._cache.get(index)
        if cached is None:
            cached = self._archive.read_segment(self._records[index])
            if len(self._cache) >= self._cache_limit:
                self._cache.pop(min(self._cache))
            self._cache[index] = cached
        return cached

    def slice(self, start: int, stop: int) -> List[LogSegment]:
        return [self.get(index) for index in range(start, stop)]

    def entry_count(self, index: int) -> int:
        if self._segments is not None:
            return len(self._segments[index])
        return self._records[index].entry_count

    def total_entries(self) -> int:
        return sum(self.entry_count(index) for index in range(len(self)))


def _boundary_snapshot(target: AccountableVMM,
                       preceding: LogSegment) -> Tuple[Dict[str, Any], int]:
    """The verified snapshot a chunk replays from (the preceding segment's)."""
    snapshot_entries = preceding.entries_of_type(EntryType.SNAPSHOT)
    if not snapshot_entries:
        raise MissingSnapshotError(
            "the segment preceding the chunk does not end with a snapshot")
    return fetch_verified_snapshot_entry(target, snapshot_entries[-1])


class SpotChecker:
    """Audits k-chunks of a machine's log.

    An auditor with ``workers > 1`` parallelises :meth:`check_all_chunks`;
    single-chunk checks always run serially.  Archive-backed targets are
    read lazily: each chunk's segments are decompressed on demand
    (:class:`_SegmentSource`), so checking a few chunks of a long archived
    log never materializes the log.
    """

    def __init__(self, auditor: Auditor) -> None:
        self.auditor = auditor

    # -- public API ------------------------------------------------------------------

    def check_chunk(self, target: AccountableVMM, start_index: int, k: int,
                    segments: Optional[Union[List[LogSegment],
                                             _SegmentSource]] = None
                    ) -> SpotCheckResult:
        """Audit the chunk of ``k`` consecutive segments starting at ``start_index``.

        ``start_index`` is an index into the list of snapshot-delimited
        segments (0 = the segment that starts at the beginning of the log).
        """
        if not isinstance(segments, _SegmentSource):
            segments = _SegmentSource(target, k=k, segments=segments)
        if start_index < 0 or start_index + k > len(segments):
            raise SegmentError(
                f"chunk [{start_index}, {start_index + k}) outside the "
                f"{len(segments)} available segments")
        chunk = concatenate_segments(segments.slice(start_index,
                                                    start_index + k))

        initial_state: Optional[Dict[str, Any]] = None
        snapshot_bytes = 0
        if start_index > 0:
            initial_state, snapshot_bytes = _boundary_snapshot(
                target, segments.get(start_index - 1))

        result = self.auditor.audit_segment(target.identity, chunk,
                                            initial_state=initial_state,
                                            snapshot_bytes=snapshot_bytes)
        return SpotCheckResult(
            chunk_start_index=start_index,
            k=k,
            result=result,
            log_bytes=chunk.size_bytes(),
            compressed_log_bytes=result.cost.compressed_log_bytes,
            snapshot_bytes=snapshot_bytes,
            replay_seconds=result.cost.semantic_seconds,
        )

    def sample_chunks(self, target: AccountableVMM, k: int, sample_size: int,
                      seed: int = 0, skip_initial: bool = True) -> SpotCheckReport:
        """Audit a random sample of k-chunks and report coverage honestly.

        ``sample_size`` chunk start indices are drawn without replacement
        from a ``random.Random(seed)`` stream, so the sample is reproducible.
        The returned :class:`SpotCheckReport` separates "the sampled chunks
        passed" from "the machine passed": a fault in an unsampled chunk is
        *not* vouched for — :meth:`SpotCheckReport.verdict_claim` stays
        ``"pass-sampled"`` and the coverage fractions say how much of the
        log was actually checked.
        """
        segments = _SegmentSource(target, k=k)
        start = 1 if skip_initial else 0
        indices = list(range(start, len(segments) - k + 1))
        rng = random.Random(seed)
        chosen = sorted(rng.sample(indices, min(sample_size, len(indices)))) \
            if indices else []
        results = [self.check_chunk(target, index, k, segments=segments)
                   for index in chosen]
        covered = {index + offset for index in chosen for offset in range(k)}
        report = SpotCheckReport(
            machine=target.identity, k=k,
            segments_total=len(segments),
            checked_indices=chosen, results=results,
            segments_checked=len(covered),
            entries_total=segments.total_entries(),
            entries_checked=sum(segments.entry_count(index)
                                for index in covered))
        return report

    def check_all_chunks(self, target: AccountableVMM, k: int,
                         skip_initial: bool = True) -> List[SpotCheckResult]:
        """Audit every possible k-chunk (Figure 9 sweeps k over the whole log).

        ``skip_initial`` excludes chunks that start at the very beginning of
        the log, as the paper does: they are atypical because no snapshot has
        to be transferred and there is little activity yet.  With
        ``workers > 1`` the chunks run concurrently on a worker pool; the
        results are returned in chunk order either way.
        """
        segments = _SegmentSource(target, k=k)
        start = 1 if skip_initial else 0
        indices = list(range(start, len(segments) - k + 1))
        if self.auditor.workers <= 1 or len(indices) <= 1:
            return [self.check_chunk(target, index, k, segments=segments)
                    for index in indices]
        return self._check_chunks_on_pool(target, k, indices, segments)

    def _check_chunks_on_pool(self, target: AccountableVMM, k: int,
                              indices: List[int],
                              segments: _SegmentSource) -> List[SpotCheckResult]:
        """Fan independent k-chunks out over a worker pool.

        A chunk that fails in the kernel is re-audited serially so its
        result (evidence included) is exactly what :meth:`check_chunk` would
        have produced.
        """
        auditor = self.auditor
        machine = target.identity
        builder = ChunkJobBuilder(auditor, machine, portable=True,
                                  check_cross_references=True)
        jobs = []
        snapshot_bytes: List[int] = []
        for position, index in enumerate(indices):
            chunk = concatenate_segments(segments.slice(index, index + k))
            initial_state: Optional[Dict[str, Any]] = None
            transfer = 0
            if index > 0:
                initial_state, transfer = _boundary_snapshot(
                    target, segments.get(index - 1))
            jobs.append(builder.job(position, chunk, chunk.start_checkpoint(),
                                    initial_state))
            snapshot_bytes.append(transfer)

        with auditor.obs.tracer.timed("audit.spot_check", track=machine,
                                      chunks=len(jobs), k=k) as timer:
            outcomes = AuditScheduler(workers=auditor.workers).run_jobs(jobs)
        results: List[SpotCheckResult] = []
        for index, job, transfer, outcome in zip(indices, jobs, snapshot_bytes,
                                                 outcomes):
            record_chunk_telemetry(auditor.obs, machine, outcome,
                                   len(job.segment.entries),
                                   job.segment.last_sequence)
            if outcome.ok:
                # The serial audit's cost, so a pooled sweep's results equal
                # check_chunk's (the kernel's signature costs stay out).
                cost = auditor.download_cost(job.segment, transfer)
                cost.semantic_seconds = outcome.cost.semantic_seconds
                result = AuditResult(
                    machine=machine, auditor=auditor.identity,
                    verdict=Verdict.PASS, phase=AuditPhase.COMPLETE,
                    authenticators_checked=outcome.authenticators_checked,
                    replay_report=outcome.replay_report, cost=cost)
                # Chunks share one pool run; the pool wall is the shared
                # measurement (serial re-audits below time themselves).
                result.wall_seconds = timer.seconds
            else:
                result = auditor.audit_segment(machine, job.segment,
                                               initial_state=job.initial_state,
                                               snapshot_bytes=transfer)
            results.append(SpotCheckResult(
                chunk_start_index=index, k=k, result=result,
                log_bytes=job.segment.size_bytes(),
                compressed_log_bytes=result.cost.compressed_log_bytes,
                snapshot_bytes=transfer,
                replay_seconds=result.cost.semantic_seconds))
        return results
