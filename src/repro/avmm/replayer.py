"""Deterministic replay of a recorded log.

The replayer is the heart of the semantic check (Section 4.5): it instantiates
a fresh virtual machine from the *reference* image (or from a verified
snapshot), re-injects every recorded nondeterministic input at exactly the
recorded execution timestamp, and cross-checks

* the execution timestamps of every clock read and event injection,
* every packet the replayed guest emits against the recorded MAC-layer /
  SEND entries, and
* every snapshot hash recorded in the log against the replayed state.

*If there is any discrepancy whatsoever ... replay terminates and reports a
fault.*  The replayer therefore never guesses: the first mismatch produces a
:class:`Divergence` describing what was expected and what the reference
execution actually did.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.crypto import hashing
from repro.errors import ReplayInputError
from repro.log.entries import EntryType, LogEntry
from repro.log.segments import LogSegment
from repro.vm.events import GuestEvent, KeyboardInput, PacketDelivery, TimerInterrupt
from repro.vm.execution import ExecutionTimestamp
from repro.vm.guest import PacketOutput
from repro.vm.image import VMImage
from repro.vm.machine import NondeterminismSource, UpstreamResponse, VirtualMachine
from repro.vm.snapshot import IncrementalStateHasher


@dataclass(frozen=True)
class Divergence:
    """A single observed difference between the log and the replayed execution."""

    reason: str
    sequence: Optional[int] = None
    expected: Any = None
    actual: Any = None

    def describe(self) -> str:
        parts = [self.reason]
        if self.sequence is not None:
            parts.append(f"(log sequence {self.sequence})")
        if self.expected is not None or self.actual is not None:
            parts.append(f"expected={self.expected!r} actual={self.actual!r}")
        return " ".join(parts)


@dataclass
class ReplayReport:
    """Outcome of replaying one log segment."""

    machine: str
    entries_replayed: int = 0
    events_injected: int = 0
    clock_reads_served: int = 0
    upstream_calls_served: int = 0
    outputs_checked: int = 0
    snapshots_checked: int = 0
    instructions_executed: int = 0
    active_seconds: float = 0.0
    divergence: Optional[Divergence] = None

    @property
    def diverged(self) -> bool:
        return self.divergence is not None

    @property
    def ok(self) -> bool:
        return self.divergence is None


#: :class:`ReplayReport` counters that add up over consecutive chunks of a log
SUMMED_COUNTERS = ("entries_replayed", "events_injected", "clock_reads_served",
                   "upstream_calls_served", "outputs_checked",
                   "snapshots_checked")
#: counters a chunk reports as absolute values: its VM restores the
#: instruction counter from the boundary snapshot, so the last chunk's count
#: is the whole log's (summing would count every restored prefix again)
ABSOLUTE_COUNTERS = ("instructions_executed",)


def merge_replay_reports(machine: str, reports: Iterable[ReplayReport],
                         active_seconds: float) -> ReplayReport:
    """The whole-log report of consecutive, passing chunk replays.

    Every counter is either summed or absolute (see the two tuples above).
    ``active_seconds`` is neither: it counts distinct one-second buckets,
    and a bucket can straddle a chunk boundary, so the caller passes the
    whole-log count.
    """
    merged = ReplayReport(machine=machine, active_seconds=active_seconds)
    for report in reports:
        for name in SUMMED_COUNTERS:
            setattr(merged, name, getattr(merged, name) + getattr(report, name))
        for name in ABSOLUTE_COUNTERS:
            setattr(merged, name, getattr(report, name))
    return merged


# Items in the replay schedule -------------------------------------------------

@dataclass
class _ClockItem:
    sequence: int
    expected_instructions: int
    value: float


@dataclass
class _InjectItem:
    sequence: int
    expected_instructions: int
    event: GuestEvent


@dataclass
class _UpstreamItem:
    sequence: int
    expected_instructions: int
    service: str
    request_hash: str
    body: bytes
    latency_cycles: int


@dataclass
class _OutputItem:
    sequence: int
    destination: str
    payload_hash: str
    payload_size: int


@dataclass
class _SnapshotItem:
    sequence: int
    snapshot_id: int
    state_root: str


class _ReplayClockSource(NondeterminismSource):
    """Serves recorded nondeterministic inputs and checks their timing.

    Clock reads and upstream-call responses are both re-served from the log
    in their recorded order; the first read or call that happens at a
    different execution point — or asks an upstream service a different
    question — than the recording is a divergence.
    """

    def __init__(self, items: List[_ClockItem],
                 upstream_items: Optional[List[_UpstreamItem]] = None) -> None:
        self._items = items
        self._index = 0
        self._upstream_items = upstream_items or []
        self._upstream_index = 0
        self.served = 0
        self.upstream_served = 0
        self.divergence: Optional[Divergence] = None

    def clock_read(self, timestamp: ExecutionTimestamp) -> float:
        if self._index >= len(self._items):
            if self.divergence is None:
                self.divergence = Divergence(
                    reason="guest performed a clock read that is not in the log",
                    actual=timestamp.instruction_count)
            return 0.0
        item = self._items[self._index]
        self._index += 1
        self.served += 1
        if item.expected_instructions != timestamp.instruction_count \
                and self.divergence is None:
            self.divergence = Divergence(
                reason="clock read occurred at a different execution point than recorded",
                sequence=item.sequence,
                expected=item.expected_instructions,
                actual=timestamp.instruction_count)
        return item.value

    def upstream_call(self, timestamp: ExecutionTimestamp, service: str,
                      request: bytes) -> UpstreamResponse:
        if self._upstream_index >= len(self._upstream_items):
            if self.divergence is None:
                self.divergence = Divergence(
                    reason="guest performed an upstream call that is not in the log",
                    actual=(service, timestamp.instruction_count))
            return UpstreamResponse(body=b"", latency_cycles=0)
        item = self._upstream_items[self._upstream_index]
        self._upstream_index += 1
        self.upstream_served += 1
        if item.expected_instructions != timestamp.instruction_count \
                and self.divergence is None:
            self.divergence = Divergence(
                reason="upstream call occurred at a different execution point "
                       "than recorded",
                sequence=item.sequence,
                expected=item.expected_instructions,
                actual=timestamp.instruction_count)
        actual_hash = hashing.hash_bytes(request).hex()
        if (item.service != service or item.request_hash != actual_hash) \
                and self.divergence is None:
            self.divergence = Divergence(
                reason="upstream request differs from the recorded one",
                sequence=item.sequence,
                expected=(item.service, item.request_hash),
                actual=(service, actual_hash))
        return UpstreamResponse(body=item.body,
                                latency_cycles=item.latency_cycles)

    @property
    def remaining(self) -> int:
        return len(self._items) - self._index

    @property
    def upstream_remaining(self) -> int:
        return len(self._upstream_items) - self._upstream_index


class DeterministicReplayer:
    """Replays a log segment against a reference image."""

    def __init__(self, reference_image: VMImage) -> None:
        self.reference_image = reference_image

    # -- public API -------------------------------------------------------------

    def replay(self, segment: LogSegment,
               initial_state: Optional[Dict[str, Any]] = None,
               carried_payloads: Optional[Dict[str, bytes]] = None
               ) -> ReplayReport:
        """Replay ``segment`` and cross-check it against the reference image.

        ``initial_state`` is the verified snapshot state at the beginning of
        the segment; when ``None`` the segment is assumed to start at the
        beginning of the execution and the reference image's initial state is
        used (Section 4.5, "Verifying the snapshot").  ``carried_payloads``
        maps message ids to payloads of RECV entries that precede the
        segment — the streaming audit passes the still-in-flight window so a
        MAC-layer injection just after a chunk boundary resolves exactly as
        it does in a whole-log replay.
        """
        report = ReplayReport(machine=segment.machine,
                              entries_replayed=len(segment.entries))
        try:
            clock_items, upstream_items, schedule, outputs, payloads = \
                self._build_schedule(segment, carried_payloads)
        except ReplayInputError as exc:
            # A log whose replay stream references messages that were never
            # logged is inconsistent by construction (Section 4.4, "Detecting
            # inconsistencies"): report it as a divergence rather than failing.
            report.divergence = Divergence(reason=str(exc))
            return report
        clock_source = _ReplayClockSource(clock_items, upstream_items)

        vm = VirtualMachine(self.reference_image, nondet_source=clock_source)
        output_cursor = 0
        # Replay-side hash-tree maintenance mirrors the recording side: the
        # tree over the replayed state is *updated* at each SNAPSHOT entry
        # (O(dirty x log n)), not rebuilt from scratch, so long replays with
        # many snapshot checks stay proportional to what the guest changed.
        state_hasher = IncrementalStateHasher()

        if initial_state is not None:
            # Deep-copy so replay cannot mutate the caller's snapshot (guests
            # restore nested structures by reference).
            vm.set_full_state(copy.deepcopy(initial_state))
            start_outputs: List[PacketOutput] = []
        else:
            start_outputs = [o for o in vm.start() if isinstance(o, PacketOutput)]

        report.active_seconds = self._active_seconds(segment.entries)

        divergence = self._check_outputs(start_outputs, outputs, output_cursor, report)
        output_cursor += len(start_outputs)
        if divergence is not None:
            report.divergence = divergence
            return report

        for item in schedule:
            if isinstance(item, _SnapshotItem):
                divergence = self._check_snapshot(vm, item, state_hasher)
                if divergence is not None:
                    report.divergence = divergence
                    return report
                report.snapshots_checked += 1
                continue

            # Event injection: the execution timestamp must match the recording.
            if vm.execution_timestamp.instruction_count != item.expected_instructions:
                report.divergence = Divergence(
                    reason="event injected at a different execution point than recorded",
                    sequence=item.sequence,
                    expected=item.expected_instructions,
                    actual=vm.execution_timestamp.instruction_count)
                return report
            try:
                produced = vm.deliver_event(item.event)
            except Exception as exc:  # noqa: BLE001 - reference guest failed
                report.divergence = Divergence(
                    reason=f"reference execution failed while handling the event: {exc}",
                    sequence=item.sequence)
                return report
            report.events_injected += 1
            packet_outputs = [o for o in produced if isinstance(o, PacketOutput)]
            divergence = self._check_outputs(packet_outputs, outputs, output_cursor, report)
            output_cursor += len(packet_outputs)
            if divergence is not None:
                report.divergence = divergence
                return report
            if clock_source.divergence is not None:
                report.divergence = clock_source.divergence
                return report

        # All inputs replayed: there must be no unmatched recorded outputs,
        # clock reads or upstream calls left over.
        report.clock_reads_served = clock_source.served
        report.upstream_calls_served = clock_source.upstream_served
        report.instructions_executed = vm.execution_timestamp.instruction_count
        if output_cursor < len(outputs):
            report.divergence = Divergence(
                reason="log records messages the reference execution never sent",
                sequence=outputs[output_cursor].sequence,
                expected=outputs[output_cursor].payload_hash)
            return report
        if clock_source.remaining > 0:
            report.divergence = Divergence(
                reason="log records clock reads the reference execution never performed")
            return report
        if clock_source.upstream_remaining > 0:
            report.divergence = Divergence(
                reason="log records upstream calls the reference execution "
                       "never performed")
            return report
        if clock_source.divergence is not None:
            report.divergence = clock_source.divergence
        return report

    # -- schedule construction ----------------------------------------------------

    def _build_schedule(self, segment: LogSegment,
                        carried_payloads: Optional[Dict[str, bytes]] = None
                        ) -> Tuple[
            List[_ClockItem], List[_UpstreamItem], List[Any], List[_OutputItem],
            Dict[str, bytes]]:
        """Split the log into served inputs, injections/snapshots and outputs."""
        clock_items: List[_ClockItem] = []
        upstream_items: List[_UpstreamItem] = []
        schedule: List[Any] = []
        outputs: List[_OutputItem] = []
        payloads: Dict[str, bytes] = dict(carried_payloads or {})

        for entry in segment.entries:
            payloads.update(self._payload_from_recv(entry))

        for entry in segment.entries:
            content = entry.content
            if entry.entry_type is EntryType.TIMETRACKER:
                kind = content.get("event_kind")
                if kind == "clock_read":
                    clock_items.append(_ClockItem(
                        sequence=entry.sequence,
                        expected_instructions=int(content["execution_counter"]),
                        value=float(content["value"])))
                elif kind == "timer_interrupt":
                    schedule.append(_InjectItem(
                        sequence=entry.sequence,
                        expected_instructions=int(content["execution_counter"]),
                        event=TimerInterrupt(tick_number=int(content["tick_number"]))))
            elif entry.entry_type is EntryType.MACLAYER:
                if content.get("direction") == "in":
                    message_id = str(content["message_id"])
                    payload = payloads.get(message_id)
                    if payload is None:
                        raise ReplayInputError(
                            f"MAC-layer entry {entry.sequence} references message "
                            f"{message_id!r} with no matching RECV entry")
                    schedule.append(_InjectItem(
                        sequence=entry.sequence,
                        expected_instructions=int(content["execution_counter"]),
                        event=PacketDelivery(source=str(content["source"]),
                                             payload=payload,
                                             message_id=message_id)))
                else:
                    outputs.append(_OutputItem(
                        sequence=entry.sequence,
                        destination=str(content["destination"]),
                        payload_hash=str(content["payload_hash"]),
                        payload_size=int(content["payload_size"])))
            elif entry.entry_type is EntryType.NONDET:
                kind = content.get("event_kind")
                if kind == "keyboard_input":
                    data = content.get("data", {})
                    schedule.append(_InjectItem(
                        sequence=entry.sequence,
                        expected_instructions=int(content["execution_counter"]),
                        event=KeyboardInput(command=str(data.get("command", "")),
                                            device=str(data.get("device", "keyboard")))))
                elif kind == "upstream_call":
                    data = content.get("data", {})
                    upstream_items.append(_UpstreamItem(
                        sequence=entry.sequence,
                        expected_instructions=int(content["execution_counter"]),
                        service=str(data.get("service", "")),
                        request_hash=str(data.get("request_hash", "")),
                        body=bytes.fromhex(str(data.get("body", ""))),
                        latency_cycles=int(data.get("latency_cycles", 0))))
            elif entry.entry_type is EntryType.SNAPSHOT:
                schedule.append(_SnapshotItem(
                    sequence=entry.sequence,
                    snapshot_id=int(content["snapshot_id"]),
                    state_root=str(content["state_root"])))
        return clock_items, upstream_items, schedule, outputs, payloads

    @staticmethod
    def _payload_from_recv(entry: LogEntry) -> Dict[str, bytes]:
        if entry.entry_type is not EntryType.RECV:
            return {}
        payload_hex = entry.content.get("payload")
        if payload_hex is None:
            return {}
        return {str(entry.content["message_id"]): bytes.fromhex(payload_hex)}

    # -- checks ----------------------------------------------------------------------

    @staticmethod
    def _check_outputs(produced: List[PacketOutput], expected: List[_OutputItem],
                       cursor: int, report: ReplayReport) -> Optional[Divergence]:
        for offset, packet in enumerate(produced):
            index = cursor + offset
            if index >= len(expected):
                return Divergence(
                    reason="reference execution sent a message that is not in the log",
                    actual=packet.destination)
            item = expected[index]
            actual_hash = hashing.hash_bytes(packet.payload).hex()
            if item.destination != packet.destination or item.payload_hash != actual_hash:
                return Divergence(
                    reason="outgoing message differs from the recorded one",
                    sequence=item.sequence,
                    expected=(item.destination, item.payload_hash),
                    actual=(packet.destination, actual_hash))
            report.outputs_checked += 1
        return None

    @staticmethod
    def _check_snapshot(vm: VirtualMachine, item: _SnapshotItem,
                        state_hasher: IncrementalStateHasher) -> Optional[Divergence]:
        view = vm.get_dirty_state()
        _, _, root_bytes = state_hasher.update(view.state, view.dirty_paths)
        vm.mark_snapshot_taken()
        root = root_bytes.hex()
        if root != item.state_root:
            return Divergence(
                reason="snapshot hash does not match the replayed state",
                sequence=item.sequence,
                expected=item.state_root,
                actual=root)
        return None

    # -- helpers ------------------------------------------------------------------------

    @staticmethod
    def _active_seconds(entries: List[LogEntry]) -> float:
        """Seconds of recorded activity, skipping idle periods.

        The paper notes that replay skips time periods during which the CPU
        was idle (Section 6.6); we approximate "active" as the number of
        distinct one-second buckets that contain at least one log entry.
        """
        buckets = {int(entry.timestamp) for entry in entries}
        return float(len(buckets))
