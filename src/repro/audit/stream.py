"""The audit pipeline: one loop for every whole-machine audit.

Section 4.5 audits a log in three steps (authenticator check, syntactic
check, replay), and Section 6.12 splits that audit at snapshots.  This
module is that audit, run chunk by chunk:

1. **chunk source** — :func:`iter_stream_chunks` yields a target's log as
   :class:`StreamChunk` runs that end at snapshots.  An archive-backed
   target is decoded incrementally from its segment files, so peak memory
   is one chunk plus O(1) checkpoints; a live machine's snapshot-delimited
   segments are tiled with :func:`~repro.log.segments.partition_segments`.
2. **job building (parent)** — :class:`ChunkJobBuilder` turns a chunk into a
   self-contained :class:`ChunkJob`: the chunk, its chain checkpoint, its
   share of the authenticators, the verified snapshot it replays from
   (Section 4.5, "Verifying the snapshot") and the RECV payloads still in
   flight at its start.  The parent also feeds every entry to the
   bounded-memory :class:`StreamingCrossChecker` and the modelled-cost
   meter, which need the whole log but no cryptography.
3. **the kernel** — :func:`run_chunk` verifies the chain from the
   checkpoint, verifies the authenticators in windowed batches
   (:func:`~repro.log.authenticator.batch_verify_authenticators`), runs the
   per-entry syntactic checks and replays the chunk.  It runs inline by
   default; :class:`~repro.audit.engine.AuditScheduler` hands the pipeline
   a worker pool instead, and the chunks of all its machines share it.
4. **merge (parent)** — the chunk proofs must tile, the replay reports merge
   with :func:`~repro.avmm.replayer.merge_replay_reports`, and the costs come
   from the parent's :class:`~repro.log.codec.ModelledCostAccumulator`.

**Equivalence guarantee.**  A passing audit produces an
:class:`~repro.audit.verdict.AuditResult` equal (``==``) to the serial
materializing audit of the same target (``Auditor.audit(target,
streaming=False)``): same verdict, counters, replay report and modelled
cost, whatever the chunking or the executor.  Any detected fault, or any
inability to stream (e.g. an unverifiable boundary snapshot), hands over
to that serial audit, so failure verdicts and evidence are canonical.
``tests/test_stream_equivalence.py`` enforces the guarantee differentially
across the adversary matrix.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from repro.audit.auditor import replay_start
from repro.audit.semantic import SemanticChecker
from repro.audit.syntactic import SyntacticChecker
from repro.audit.verdict import AuditCost, AuditPhase, AuditResult, Verdict
from repro.avmm.replayer import ReplayReport, merge_replay_reports
from repro.crypto.signatures import get_scheme
from repro.errors import (
    CertificateError,
    HashChainError,
    MissingSnapshotError,
    ReproError,
    SegmentError,
    StoreError,
)
from repro.log.authenticator import Authenticator, batch_verify_authenticators
from repro.log.codec import ModelledCostAccumulator
from repro.log.entries import EntryType, LogEntry
from repro.log.hashchain import (
    ChainCheckpoint,
    extend_checkpoint,
    extend_checkpoint_batch,
)
from repro.log.segments import LogSegment, partition_segments
from repro.metrics.perfmodel import CostParameters
from repro.obs import NULL_OBS, Observability
from repro.vm.image import VMImage

__all__ = [
    "ArchiveEntryStream",
    "ChunkJob",
    "ChunkJobBuilder",
    "ChunkOutcome",
    "StreamChunk",
    "StreamStats",
    "StreamAuditReport",
    "StreamingCrossChecker",
    "StreamingAuditPipeline",
    "fetch_verified_snapshot_entry",
    "iter_stream_chunks",
    "record_chunk_telemetry",
    "run_chunk",
    "scheme_verify_seconds",
    "stream_audit",
]

#: authenticators batch-verified per screening window
DEFAULT_SIGNATURE_WINDOW = 256


# ---------------------------------------------------------------------------
# Stage 1: the chunk source
# ---------------------------------------------------------------------------

def _records_from(archive, machine: str, start: Optional[ChainCheckpoint]):
    """Segment records after ``start``, with the checkpoint to resume from.

    ``start`` must sit on a segment boundary (the stream can only prove
    continuity from a checkpoint it can anchor to a record edge); ``None``
    starts at the archive's retention checkpoint (or genesis).
    """
    records = archive.segment_records(machine)
    checkpoint = archive.start_checkpoint(machine)
    if start is None or start == checkpoint:
        return records, checkpoint
    remaining = [record for record in records
                 if record.first_sequence > start.sequence]
    if not remaining:
        # Either the whole log was already consumed (resume at the head is
        # a legitimate empty suffix) or the checkpoint points mid-segment /
        # past the end — silently yielding nothing would let unaudited
        # entries pass as "fully streamed".
        head = records[-1].end_checkpoint() if records \
            else archive.start_checkpoint(machine)
        if start.sequence != head.sequence:
            raise StoreError(
                f"cannot resume the stream of {machine!r} at sequence "
                f"{start.sequence}: not a segment boundary")
        if start.chain_hash != head.chain_hash:
            raise HashChainError(
                f"resume checkpoint for {machine!r} at sequence "
                f"{start.sequence} does not match the archived chain")
        return [], start
    if remaining[0].first_sequence != start.sequence + 1:
        raise StoreError(
            f"cannot resume the stream of {machine!r} at sequence "
            f"{start.sequence}: not a segment boundary")
    if remaining[0].start_hash != start.chain_hash:
        raise HashChainError(
            f"resume checkpoint for {machine!r} at sequence {start.sequence} "
            f"does not match the archived chain")
    return remaining, start


class ArchiveEntryStream:
    """A resumable, chain-verified, pull-based entry stream.

    Iterating yields every retained entry of ``machine`` in order, decoding
    the archive's segment files incrementally and proving after each entry
    that it extends :attr:`checkpoint` — which therefore always holds the
    chain state after the last yielded entry.  Interrupt the iteration at any
    segment boundary, persist the checkpoint, and construct a new stream with
    ``start=checkpoint``: the entries and checkpoints that follow are
    identical to an uninterrupted pass (property-tested in
    ``tests/test_stream_properties.py``).
    """

    def __init__(self, archive, machine: str,
                 start: Optional[ChainCheckpoint] = None) -> None:
        self._archive = archive
        self.machine = machine
        self._records, self.checkpoint = _records_from(archive, machine, start)
        #: records fully streamed so far (resume anchor granularity)
        self.segments_done = 0

    def __iter__(self) -> Iterator[LogEntry]:
        for record in self._records:
            for entry in self._archive.stream_segment(record):
                self.checkpoint = extend_checkpoint(self.checkpoint, entry)
                yield entry
            self.segments_done += 1


@dataclass
class StreamChunk:
    """One audit-sized chunk of the log (a run of snapshot-delimited segments)."""

    index: int
    segment: LogSegment
    #: chain state just before the chunk's first entry, and after its last
    #: (from the archive manifest or the live log; the kernel proves both)
    start_checkpoint: ChainCheckpoint
    end_checkpoint: ChainCheckpoint


def _chunk_record_counts(archive, machine: str, records,
                         max_chunks: Optional[int]) -> List[int]:
    """Group segment records into chunks that end at replayable boundaries.

    A chunk may only end after a segment sealed by a snapshot that is
    actually archived — otherwise the next chunk would have no verified
    replay start.  Unsealed segments (the shipped log tail) are absorbed
    into the following group, or form the final one.  With ``max_chunks``,
    adjacent groups are merged as evenly as possible.
    """
    snapshot_ids = set(archive.snapshot_store(machine).snapshot_ids())
    groups: List[int] = []
    current = 0
    for record in records:
        current += 1
        if record.sealed_by_snapshot is not None \
                and record.sealed_by_snapshot in snapshot_ids:
            groups.append(current)
            current = 0
    if current:
        groups.append(current)
    if max_chunks is not None and len(groups) > max_chunks:
        base, extra = divmod(len(groups), max_chunks)
        merged: List[int] = []
        cursor = 0
        for position in range(max_chunks):
            size = base + (1 if position < extra else 0)
            merged.append(sum(groups[cursor:cursor + size]))
            cursor += size
        groups = merged
    return groups


def iter_stream_chunks(target, max_chunks: Optional[int] = None,
                       start: Optional[ChainCheckpoint] = None
                       ) -> Iterator[StreamChunk]:
    """A target's log as replayable chunks, each ending at a snapshot.

    ``max_chunks=None`` yields the finest chunking (one chunk per run of
    segments sealed by a snapshot); otherwise adjacent runs are merged into
    at most ``max_chunks`` chunks as evenly as possible.

    An archive-backed target (``supports_streaming``) is decoded one chunk
    at a time, so a consumer that drops each chunk holds O(chunk) entries;
    ``start`` resumes it at a segment boundary.  The checkpoints come from
    the manifest records, whose tiling was proven at archive recovery and
    whose first/last sequence and end hash
    :meth:`~repro.store.archive.LogArchive.stream_segment` checks against
    the decoded entries; :func:`run_chunk` verifies the chain in between.
    A live machine's chunks tile its snapshot-delimited segments.
    """
    if not getattr(target, "supports_streaming", False):
        segments = [segment for segment in target.get_snapshot_segments()
                    if segment.entries]
        if not segments:
            return
        chunks = partition_segments(segments, max_chunks or len(segments))
        for index, chunk in enumerate(chunks):
            yield StreamChunk(index=index, segment=chunk,
                              start_checkpoint=chunk.start_checkpoint(),
                              end_checkpoint=chunk.end_checkpoint())
        return
    archive = target.archive
    machine = target.identity
    records, checkpoint = _records_from(archive, machine, start)
    counts = _chunk_record_counts(archive, machine, records, max_chunks)
    cursor = 0
    for index, count in enumerate(counts):
        chunk_records = records[cursor:cursor + count]
        cursor += count
        entries: List[LogEntry] = []
        for record in chunk_records:
            entries.extend(archive.stream_segment(record))
        start_checkpoint = checkpoint
        checkpoint = chunk_records[-1].end_checkpoint()
        yield StreamChunk(
            index=index,
            segment=LogSegment(machine=machine, entries=entries,
                               start_hash=start_checkpoint.chain_hash),
            start_checkpoint=start_checkpoint,
            end_checkpoint=checkpoint,
        )


def fetch_verified_snapshot_entry(target, snapshot_entry: LogEntry
                                  ) -> Tuple[Dict[str, Any], int]:
    """Download and authenticate the snapshot a SNAPSHOT entry commits to.

    The entry's recorded hash-tree root must match the downloaded snapshot
    (Section 4.5, "Verifying the snapshot").  Returns
    ``(state, transfer_bytes)``; raises :class:`MissingSnapshotError` when
    the snapshot cannot be authenticated.
    """
    snapshot_id = int(snapshot_entry.content["snapshot_id"])
    expected_root = str(snapshot_entry.content["state_root"])
    snapshot = target.snapshots.get(snapshot_id)
    if snapshot.state_root.hex() != expected_root:
        raise MissingSnapshotError(
            f"snapshot {snapshot_id} does not match the root recorded in the log")
    if not snapshot.verify_root():
        raise MissingSnapshotError(
            f"snapshot {snapshot_id} failed hash-tree verification")
    transfer_bytes = target.snapshots.transfer_cost_bytes(snapshot_id)
    return snapshot.state, transfer_bytes


# ---------------------------------------------------------------------------
# Stage 2: the whole-log checks the parent runs
# ---------------------------------------------------------------------------

class StreamingCrossChecker:
    """Incremental version of the syntactic stream cross-checks.

    :meth:`SyntacticChecker._cross_reference
    <repro.audit.syntactic.SyntacticChecker>` pairs the SEND/RECV stream
    with the MAC-layer stream over the *whole* segment, which needs the whole
    segment.  This checker feeds on one entry at a time and evicts a pair as
    soon as it matches, so on an honest log its state is the in-flight
    message window, not the log.  It detects a **superset** of the problems
    the whole-segment checker reports (out-of-order pairings an honest
    recorder never produces are flagged too); the pipeline treats any
    problem as "fall back to the materializing audit", whose whole-segment
    checker then decides canonically — so being stricter can never flip a
    verdict, only cost the memory win on an already-suspicious log.
    """

    def __init__(self) -> None:
        self.problems: List[str] = []
        self._sends: Dict[str, LogEntry] = {}
        self._recvs: Dict[str, LogEntry] = {}
        self._unmatched_mac_in: Dict[str, LogEntry] = {}
        self._unmatched_mac_out: Dict[str, LogEntry] = {}
        #: 8-byte digests of every SEND message id seen.  Eviction forgets a
        #: matched pair, so without this a *duplicate-id* forged SEND after
        #: the pair matched would escape the check the whole-segment checker
        #: performs (it compares the MAC-out against the LAST send per id).
        #: Any repeated SEND id is flagged instead — an honest recorder
        #: never reuses one, and a flag merely routes through the canonical
        #: fallback.  Cost: O(#sends) times ~50 B, two orders of magnitude
        #: below the entries themselves; all other state is O(in-flight).
        self._seen_send_ids: Set[int] = set()

    @property
    def ok(self) -> bool:
        return not self.problems

    @staticmethod
    def _id_digest(message_id: str) -> int:
        from repro.crypto import hashing
        return int.from_bytes(
            hashing.hash_bytes(message_id.encode("utf-8"))[:8], "big")

    def feed(self, entry: LogEntry) -> None:
        content = entry.content
        if entry.entry_type is EntryType.SEND:
            message_id = str(content.get("message_id"))
            digest = self._id_digest(message_id)
            if digest in self._seen_send_ids:
                self.problems.append(
                    f"message id {message_id} appears in more than one SEND "
                    f"entry (sequence {entry.sequence})")
            self._seen_send_ids.add(digest)
            waiting = self._unmatched_mac_out.pop(message_id, None)
            if waiting is not None:
                self._match_out(message_id, waiting, entry)
            else:
                self._sends[message_id] = entry
        elif entry.entry_type is EntryType.RECV:
            message_id = str(content.get("message_id"))
            payload = content.get("payload")
            logged_hash = content.get("payload_hash")
            if payload is not None and logged_hash is not None:
                from repro.crypto import hashing
                actual = hashing.hash_bytes(bytes.fromhex(payload)).hex()
                if actual != logged_hash:
                    self.problems.append(
                        f"RECV {message_id}: logged payload does not match "
                        f"its logged hash")
            waiting = self._unmatched_mac_in.pop(message_id, None)
            if waiting is None:
                self._recvs[message_id] = entry
        elif entry.entry_type is EntryType.MACLAYER:
            message_id = str(content.get("message_id"))
            if content.get("direction") == "in":
                if self._recvs.pop(message_id, None) is None:
                    self._unmatched_mac_in[message_id] = entry
            else:
                send = self._sends.pop(message_id, None)
                if send is not None:
                    self._match_out(message_id, entry, send)
                else:
                    self._unmatched_mac_out[message_id] = entry

    def _match_out(self, message_id: str, mac_entry: LogEntry,
                   send_entry: LogEntry) -> None:
        if mac_entry.content.get("payload_hash") \
                != send_entry.content.get("payload_hash"):
            self.problems.append(
                f"message {message_id}: SEND entry and MAC-layer entry "
                f"disagree about the payload")

    def finish(self, last_sequence: int) -> None:
        """Flush end-of-stream checks (mirrors the whole-segment checker)."""
        for message_id, entry in self._unmatched_mac_in.items():
            self.problems.append(
                f"packet {message_id} entered the AVM (sequence "
                f"{entry.sequence}) but has no RECV entry")
        for message_id, entry in self._unmatched_mac_out.items():
            self.problems.append(
                f"packet {message_id} left the AVM (sequence "
                f"{entry.sequence}) but has no SEND entry")
        for message_id, entry in self._recvs.items():
            if entry.sequence < last_sequence - 5:
                self.problems.append(
                    f"message {message_id} was received (sequence "
                    f"{entry.sequence}) but never entered the AVM")


# ---------------------------------------------------------------------------
# Stage 3: the chunk kernel
# ---------------------------------------------------------------------------

@dataclass
class ChunkJob:
    """Everything the kernel needs to audit one chunk, with no live objects.

    On a worker pool every field pickles, so a job can cross a process
    boundary (``key_view`` is then a
    :class:`~repro.crypto.keys.StaticKeyView`; inline it is the auditor's
    own keystore).  The chunk's position in the log is ``checkpoint``, the
    chain state just before its first entry.
    """

    machine: str
    chunk_index: int
    segment: LogSegment
    checkpoint: ChainCheckpoint
    #: the target's authenticators inside the chunk, in sequence order
    authenticators: List[Authenticator]
    key_view: Any
    reference_image: VMImage
    #: verified snapshot state the chunk replays from (None = the image)
    initial_state: Optional[Dict[str, Any]] = None
    #: RECV payloads logged before the chunk and not yet injected
    carried_payloads: Dict[str, bytes] = field(default_factory=dict)
    cost_params: CostParameters = field(default_factory=CostParameters)
    #: modelled cost of one signature verification under the target's scheme
    verify_seconds: float = 0.0
    #: run the stream cross-checks in the kernel too: off for the chunks of
    #: a whole-machine audit (the parent runs them over the whole log), on
    #: for spot-check chunks, which are audited in isolation
    check_cross_references: bool = False


@dataclass
class ChunkOutcome:
    """What the kernel reports back for one chunk."""

    chunk_index: int
    verdict: Verdict = Verdict.PASS
    phase: AuditPhase = AuditPhase.COMPLETE
    reason: str = ""
    end_checkpoint: Optional[ChainCheckpoint] = None
    authenticators_checked: int = 0
    signature_windows: int = 0
    replay_report: Optional[ReplayReport] = None
    #: the kernel's share of the modelled cost (signature checks, replay);
    #: the parent adds the download share
    cost: AuditCost = field(default_factory=AuditCost)
    #: measured wall seconds of the whole run and of its chain-verify,
    #: signature and replay stages (telemetry, recorded by the parent)
    wall_seconds: float = 0.0
    verify_wall_seconds: float = 0.0
    signature_wall_seconds: float = 0.0
    replay_wall_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.verdict is Verdict.PASS

    def fail(self, phase: AuditPhase, reason: str) -> None:
        self.verdict = Verdict.FAIL
        self.phase = phase
        self.reason = reason


def run_chunk(job: ChunkJob) -> ChunkOutcome:
    """Audit one chunk, inline or inside a pool worker.

    The per-chunk share of the three audit steps of Section 4.5: tamper
    check (the chain from the checkpoint, then the authenticators), the
    per-entry syntactic checks, and replay from the chunk's verified
    snapshot.  Stops at the first failing step, like the serial auditor.
    """
    outcome = ChunkOutcome(chunk_index=job.chunk_index)
    started = time.perf_counter()
    _audit_chunk(job, outcome)
    outcome.wall_seconds = time.perf_counter() - started
    return outcome


def _audit_chunk(job: ChunkJob, outcome: ChunkOutcome) -> None:
    segment = job.segment
    stage_started = time.perf_counter()
    try:
        outcome.end_checkpoint = extend_checkpoint_batch(job.checkpoint,
                                                         segment.entries)
    except HashChainError as exc:
        outcome.fail(AuditPhase.AUTHENTICATOR_CHECK, str(exc))
        return
    signatures_started = time.perf_counter()
    outcome.verify_wall_seconds = signatures_started - stage_started
    problem = _verify_authenticators(job, outcome)
    outcome.signature_wall_seconds = time.perf_counter() - signatures_started
    if problem is not None:
        outcome.fail(AuditPhase.AUTHENTICATOR_CHECK, problem)
        return

    syntactic = SyntacticChecker(
        job.key_view,
        check_cross_references=job.check_cross_references).check(segment)
    if not syntactic.ok:
        outcome.fail(AuditPhase.SYNTACTIC_CHECK,
                     "; ".join(syntactic.problems[:3]))
        return

    replay_started = time.perf_counter()
    checker = SemanticChecker(job.reference_image, job.cost_params)
    report = checker.check(segment, initial_state=job.initial_state,
                           carried_payloads=job.carried_payloads)
    outcome.replay_wall_seconds = time.perf_counter() - replay_started
    outcome.replay_report = report
    outcome.cost.semantic_seconds = checker.estimate_timing(report).replay_seconds
    if report.diverged:
        outcome.fail(AuditPhase.SEMANTIC_CHECK, report.divergence.describe())


def _verify_authenticators(job: ChunkJob,
                           outcome: ChunkOutcome) -> Optional[str]:
    """Windowed batch verification plus each authenticator's chain binding.

    Returns the first problem, or ``None``.  Runs after the chain check, so
    the chunk's entries are contiguous and indexable by sequence.
    """
    entries = job.segment.entries
    cost = outcome.cost
    for cursor in range(0, len(job.authenticators), DEFAULT_SIGNATURE_WINDOW):
        window = job.authenticators[cursor:cursor + DEFAULT_SIGNATURE_WINDOW]
        valid, invalid, stats = batch_verify_authenticators(window,
                                                            job.key_view)
        outcome.signature_windows += 1
        cost.signatures_verified += stats.total
        cost.signature_screen_operations += stats.screen_operations
        cost.signature_seconds += job.verify_seconds * (
            stats.screen_operations + stats.single_verifications)
        if invalid:
            return (f"authenticator for sequence {window[invalid[0]].sequence}"
                    f" has an invalid signature")
        for auth in valid:
            entry = entries[auth.sequence - entries[0].sequence]
            if entry.chain_hash != auth.chain_hash:
                return (f"log entry {auth.sequence} does not match the "
                        f"authenticator issued by {job.machine!r} "
                        f"(log was tampered with or forked)")
            outcome.authenticators_checked += 1
    return None


def scheme_verify_seconds(keystore, machine: str,
                          obs: Observability = NULL_OBS) -> float:
    """Modelled cost of one signature verification under ``machine``'s scheme.

    A machine with no registered key costs 0.0 (counted as
    ``audit.scheme_cost_unknown``); any other error propagates.
    """
    try:
        scheme_name = keystore.verify_key_for(machine).scheme_name
    except CertificateError:
        obs.metrics.counter("audit.scheme_cost_unknown").inc()
        return 0.0
    return get_scheme(scheme_name).costs().verify_seconds


class ChunkJobBuilder:
    """Builds one machine's :class:`ChunkJob` s for the kernel.

    Used by the pipeline and by the spot checker.  The authenticators are
    sorted once, so each job takes its share by bisection; a ``portable``
    builder (for a worker pool) makes one picklable
    :class:`~repro.crypto.keys.StaticKeyView`, an inline one hands the
    kernel the auditor's keystore.
    """

    def __init__(self, auditor, machine: str, portable: bool = False,
                 check_cross_references: bool = False) -> None:
        self.auditor = auditor
        self.machine = machine
        self.check_cross_references = check_cross_references
        self._key_view = (auditor.keystore.static_view() if portable
                          else auditor.keystore)
        self._verify_seconds = scheme_verify_seconds(auditor.keystore,
                                                     machine, auditor.obs)
        self._authenticators = sorted(
            (auth for auth in auditor.authenticators_for(machine)
             if auth.machine == machine),
            key=lambda auth: auth.sequence)
        self._sequences = [auth.sequence for auth in self._authenticators]

    def job(self, index: int, segment: LogSegment,
            checkpoint: ChainCheckpoint,
            initial_state: Optional[Dict[str, Any]] = None,
            carried_payloads: Optional[Dict[str, bytes]] = None) -> ChunkJob:
        authenticators: List[Authenticator] = []
        if segment.entries:
            authenticators = self._authenticators[
                bisect_left(self._sequences, segment.first_sequence):
                bisect_right(self._sequences, segment.last_sequence)]
        auditor = self.auditor
        return ChunkJob(
            machine=self.machine, chunk_index=index, segment=segment,
            checkpoint=checkpoint, authenticators=authenticators,
            key_view=self._key_view, reference_image=auditor.reference_image,
            initial_state=initial_state,
            carried_payloads=dict(carried_payloads or {}),
            cost_params=auditor.cost_params,
            verify_seconds=self._verify_seconds,
            check_cross_references=self.check_cross_references)


def record_chunk_telemetry(obs: Observability, machine: str,
                           outcome: ChunkOutcome, entries: int,
                           checkpoint_seq: int) -> None:
    """Record one kernel run in the parent, whichever executor ran it."""
    metrics = obs.metrics
    metrics.counter("audit.chunks_total").inc()
    metrics.counter("audit.entries_streamed_total").inc(entries)
    if not obs.enabled:
        return
    metrics.histogram("audit.chunk.verify_seconds").observe(
        outcome.verify_wall_seconds)
    metrics.histogram("audit.chunk.signature_seconds").observe(
        outcome.signature_wall_seconds)
    metrics.histogram("audit.chunk.replay_seconds").observe(
        outcome.replay_wall_seconds)
    # The kernel's clock may be another process's: the span ends when the
    # parent collects the outcome.
    obs.tracer.event("audit.chunk", domain="wall", track=machine,
                     timestamp=time.perf_counter() - outcome.wall_seconds,
                     duration=outcome.wall_seconds, chunk=outcome.chunk_index,
                     entries=entries, checkpoint_seq=checkpoint_seq)


# ---------------------------------------------------------------------------
# The pipeline
# ---------------------------------------------------------------------------

@dataclass
class StreamStats:
    """Pipeline bookkeeping (not part of the canonical result)."""

    chunks: int = 0
    entries: int = 0
    #: largest number of entries resident at once (the memory bound)
    peak_chunk_entries: int = 0
    signature_windows: int = 0
    #: why the pipeline handed over to the serial audit (None = it streamed
    #: to the end)
    fallback_reason: Optional[str] = None


@dataclass
class StreamAuditReport:
    """One machine's canonical result plus the pipeline's bookkeeping."""

    result: AuditResult
    stats: StreamStats = field(default_factory=StreamStats)
    #: modelled cost of each unit of work the audit ran: one per kernel run,
    #: plus the serial audit after a hand-over (the fleet schedule's items)
    work_costs: List[AuditCost] = field(default_factory=list)

    @property
    def used_fallback(self) -> bool:
        return self.stats.fallback_reason is not None

    @property
    def ok(self) -> bool:
        return self.result.ok


class StreamingAuditPipeline:
    """Audits one machine's whole log, chunk by chunk.

    ``executor`` is ``None`` to run :func:`run_chunk` inline, one chunk after
    another, so only O(chunk) entries are resident; or a
    ``concurrent.futures`` executor, to which :meth:`start` submits every
    chunk job, so that the chunks of several machines overlap on one pool.
    """

    def __init__(self, auditor, target, max_chunks: Optional[int] = None,
                 executor=None) -> None:
        self.auditor = auditor
        self.target = target
        self.max_chunks = max_chunks
        self.executor = executor
        self.obs = auditor.obs
        self.stats = StreamStats()
        self._outcomes: Iterator[Tuple[ChunkJob, ChunkOutcome]] = iter(())
        self._started = 0.0
        # Whole-log state the parent keeps while the chunks stream past.
        self._meter: Optional[ModelledCostAccumulator] = None
        self._active_buckets: Set[int] = set()
        self._cross = StreamingCrossChecker()
        self._initial_snapshot_bytes = 0
        #: download share of each chunk's modelled cost, by chunk index
        self._downloads: List[AuditCost] = []
        self._work: List[AuditCost] = []

    def run(self) -> StreamAuditReport:
        self.start()
        return self.finish()

    def start(self) -> None:
        """Begin the audit; on a pool, every chunk job is submitted here."""
        machine = self.target.identity
        if getattr(self.target, "supports_streaming", False) \
                and not self.target.archive.segment_records(machine):
            # Mirror the materializing path: an empty archive is an
            # operational error, not a verdict.
            raise StoreError(f"no archived segments for {machine!r}")
        self.obs.progress.machine_started(machine)
        self._started = time.perf_counter()
        jobs = self._jobs()
        if self.executor is None:
            self._outcomes = ((job, run_chunk(job)) for job in jobs)
            return
        submitted = []
        handover: Optional[_StreamFallback] = None
        try:
            for job in jobs:
                submitted.append((job, self.executor.submit(run_chunk, job)))
        except _StreamFallback as exc:
            handover = exc
        self._outcomes = _pool_results(submitted, handover)

    def finish(self) -> StreamAuditReport:
        """Collect the chunk outcomes into the machine's canonical result."""
        machine = self.target.identity
        try:
            result = self._collect()
        except _StreamFallback as handover:
            # Drop the suspended chunk stream (and the chunk it holds).
            self._outcomes = iter(())
            self.stats.fallback_reason = handover.reason
            result = self.auditor.audit(self.target, streaming=False)
            self._work.append(result.cost)
        seconds = time.perf_counter() - self._started
        result.wall_seconds = seconds
        self.obs.tracer.event("audit.stream", domain="wall", track=machine,
                              timestamp=self._started, duration=seconds,
                              machine=machine)
        self.obs.progress.machine_done(machine, result.verdict.value, seconds)
        return StreamAuditReport(result=result, stats=self.stats,
                                 work_costs=self._work)

    # -- parent side ---------------------------------------------------------

    def _jobs(self) -> Iterator[ChunkJob]:
        """Build each chunk's job and feed its entries to the whole-log checks."""
        target = self.target
        auditor = self.auditor
        machine = target.identity
        builder = ChunkJobBuilder(auditor, machine,
                                  portable=self.executor is not None)
        state, snapshot_bytes = replay_start(target)
        self._initial_snapshot_bytes = snapshot_bytes
        stats = self.stats
        carried: Dict[str, bytes] = {}
        boundary: Optional[LogEntry] = None
        compressed = 0
        chunks = iter_stream_chunks(target, max_chunks=self.max_chunks)
        while True:
            try:
                chunk = next(chunks)
            except StopIteration:
                return
            except (HashChainError, SegmentError) as exc:
                raise _StreamFallback(str(exc))
            if chunk.index == 0:
                self._meter = ModelledCostAccumulator(
                    machine, chunk.start_checkpoint.chain_hash,
                    size_hint=getattr(target, "wire_size_hint", None))
            else:
                if boundary is None:
                    # Nothing anchors this chunk's replay; the serial audit
                    # (which replays from the start) decides.
                    raise _StreamFallback(
                        "the segment preceding the chunk does not end with "
                        "a snapshot")
                try:
                    state, snapshot_bytes = fetch_verified_snapshot_entry(
                        target, boundary)
                except ReproError as exc:
                    raise _StreamFallback(str(exc))
            entries = chunk.segment.entries
            job = builder.job(chunk.index, chunk.segment,
                              chunk.start_checkpoint, state, carried)

            meter = self._meter
            raw_bytes = meter.raw_bytes
            meter.add_many(entries)
            # Chunks end at SNAPSHOT entries, where the meter closes its
            # sub-segment anyway, so closing it here only settles the tail.
            total = meter.finish()
            self._downloads.append(AuditCost.download(
                meter.raw_bytes - raw_bytes, total - compressed,
                snapshot_bytes, auditor.cost_params))
            compressed = total
            for entry in entries:
                self._active_buckets.add(int(entry.timestamp))
                self._cross.feed(entry)
                _track_in_flight(carried, entry)
            boundary = (entries[-1] if entries and entries[-1].entry_type
                        is EntryType.SNAPSHOT else None)
            stats.chunks += 1
            stats.entries += len(entries)
            stats.peak_chunk_entries = max(stats.peak_chunk_entries,
                                           len(entries))
            yield job

    def _collect(self) -> AuditResult:
        auditor = self.auditor
        machine = self.target.identity
        stats = self.stats
        replays: List[ReplayReport] = []
        authenticators_checked = 0
        end: Optional[ChainCheckpoint] = None
        for job, outcome in self._outcomes:
            entries = len(job.segment.entries)
            record_chunk_telemetry(self.obs, machine, outcome, entries,
                                   job.checkpoint.sequence + entries)
            if not outcome.ok:
                raise _StreamFallback(outcome.reason)
            # The per-chunk chain proofs must tile into one for the log.
            if end is not None and job.checkpoint != end:
                raise _StreamFallback(
                    f"chunk {job.chunk_index} does not extend the chunk "
                    f"before it")
            end = outcome.end_checkpoint
            cost = self._downloads[job.chunk_index]
            cost.add(outcome.cost)
            self._work.append(cost)
            replays.append(outcome.replay_report)
            authenticators_checked += outcome.authenticators_checked
            stats.signature_windows += outcome.signature_windows
            self.obs.progress.chunk_done(machine, entries=entries,
                                         checkpoint_seq=end.sequence)
        if end is None:
            raise _StreamFallback("the log has no entries to stream")
        self._cross.finish(end.sequence)
        if not self._cross.ok:
            raise _StreamFallback("; ".join(self._cross.problems[:3]))

        # The serial-identical PASS result.
        params = auditor.cost_params
        cost = AuditCost.download(self._meter.raw_bytes, self._meter.finish(),
                                  self._initial_snapshot_bytes, params)
        replay = merge_replay_reports(machine, replays,
                                      float(len(self._active_buckets)))
        cost.semantic_seconds = SemanticChecker(
            auditor.reference_image, params).estimate_timing(
                replay).replay_seconds
        return AuditResult(machine=machine, auditor=auditor.identity,
                           verdict=Verdict.PASS, phase=AuditPhase.COMPLETE,
                           authenticators_checked=authenticators_checked,
                           replay_report=replay, cost=cost)


def _track_in_flight(carried: Dict[str, bytes], entry: LogEntry) -> None:
    """Keep the RECV payloads not yet injected (a chunk's replay needs them)."""
    if entry.entry_type is EntryType.RECV:
        payload = entry.content.get("payload")
        if payload is not None:
            carried[str(entry.content["message_id"])] = bytes.fromhex(payload)
    elif entry.entry_type is EntryType.MACLAYER \
            and entry.content.get("direction") == "in":
        carried.pop(str(entry.content["message_id"]), None)


def _pool_results(submitted, handover: Optional["_StreamFallback"]):
    """Outcomes of pool-submitted jobs in order, then any planning hand-over."""
    for job, future in submitted:
        yield job, future.result()
    if handover is not None:
        raise handover


class _StreamFallback(Exception):
    """Internal: the pipeline detected something; hand over to the serial audit."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


def stream_audit(auditor, target,
                 max_chunks: Optional[int] = None) -> StreamAuditReport:
    """Audit one machine on the pipeline, running the kernel inline."""
    return StreamingAuditPipeline(auditor, target, max_chunks=max_chunks).run()
