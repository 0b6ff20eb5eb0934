"""Per-layer tracing for the benchmark: spans around each layer's public calls.

The benchmark does not edit the program.  While a traced phase runs,
:class:`Probe` replaces every public function listed in :data:`LAYERS` with a
wrapper that opens a wall-domain span on a :class:`repro.obs.Tracer` around
each call (for functions that return an iterator, around each pulled item),
and it puts the originals back afterwards.  Spans stay in the tracer's memory;
:func:`fold` turns them into per-layer totals, and the runner writes one
Chrome trace at the end, so the benchmark output and the trace read the same
spans.

A layer's *self* time is the duration of its spans minus the duration of the
spans nested directly inside them.  Some layers are split by the span that
encloses them: a ``KeyPair.sign`` inside ``TamperEvidentLog.authenticator_for``
is an authenticator signature, any other is an envelope signature.
"""

from __future__ import annotations

import functools
import importlib
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.log.codec import get_codec, supported_format_versions
from repro.network.message import MessageKind
from repro.obs import Span, Tracer

#: span names the runner opens around each measured phase
PHASE_RECORD = "phase.record"
PHASE_BARE = "phase.bare_record"
PHASE_AUDIT = "phase.audit"
PHASES = (PHASE_RECORD, PHASE_BARE, PHASE_AUDIT)

#: marks a wrapper, so tests can prove none is left behind
WRAPPED_MARK = "__perfbench_original__"

Counters = Callable[[Tuple[Any, ...], Any], Dict[str, int]]


@dataclass(frozen=True)
class Layer:
    """One layer: the public callables it is made of and what it should move."""

    name: str
    #: ``"module:Qualified.name"`` of every wrapped callable
    targets: Tuple[str, ...]
    #: the end-to-end metric, and the workload, a change here should move
    moves: str
    #: ``(enclosing span name, suffix)`` rules; the nearest match names the
    #: metric ``<name>.<suffix>``, and ``default`` applies when none matches
    split: Tuple[Tuple[str, str], ...] = ()
    default: str = ""
    #: the targets return iterators of log entries: time each pulled entry
    #: (counted as ``entries_out``), not the call
    stream: bool = False
    #: ``(args, result) -> {counter: amount}`` per call; for a stream layer
    #: it runs at the first pull with the first entry as ``result``
    counters: Optional[Counters] = None
    #: counter names and units reported for this layer
    counter_units: Tuple[Tuple[str, str], ...] = ()
    #: metric prefixes reported as call counts and counters without self
    #: seconds: failure-path work whose time is exactly zero on every honest
    #: workload (their time is in ``server_verdict_s`` on web-cheat)
    count_only: Tuple[str, ...] = ()

    def metric_prefixes(self) -> List[str]:
        if not self.split:
            return [self.name]
        suffixes = [suffix for _, suffix in self.split] + [self.default]
        return [f"{self.name}.{suffix}" for suffix in dict.fromkeys(suffixes)]


def _codec_targets(method: str) -> Tuple[str, ...]:
    classes = {type(get_codec(version)) for version in supported_format_versions()}
    return tuple(sorted(f"{cls.__module__}:{cls.__qualname__}.{method}"
                        for cls in classes))


def _encode_counters(args, result) -> Dict[str, int]:
    return {"entries_in": len(args[1].entries), "bytes_out": len(result)}


def _decode_counters(args, result) -> Dict[str, int]:
    return {"bytes_in": len(args[1]), "entries_out": len(result.entries)}


def _ingest_counters(args, result) -> Dict[str, int]:
    message = args[1]
    segment = len(message.payload) \
        if message.kind is MessageKind.ARCHIVE_SEGMENT else 0
    return {"bytes_in": len(message.payload), "segment_bytes": segment}


def _read_counters(args, item) -> Dict[str, int]:
    return {"bytes": args[1].stored_bytes}


_BY_PHASE = ((PHASE_AUDIT, "audit"),)

LAYERS: Tuple[Layer, ...] = (
    Layer("crypto.sign", ("repro.crypto.keys:KeyPair.sign",),
          "record_s on web most, on kv-bulk less; "
          "never audit_s",
          split=(("log.authenticator", "authenticator"),), default="envelope"),
    Layer("crypto.verify", ("repro.crypto.keys:KeyStore.verify",
                            "repro.crypto.keys:KeyStore.verify_many"),
          "record_s (receiver envelope check) and audit_s on web",
          split=_BY_PHASE, default="record"),
    Layer("log.batch_verify",
          ("repro.log.authenticator:batch_verify_authenticators",),
          "audit_s on web"),
    Layer("log.append", ("repro.log.tamper_evident:TamperEvidentLog.append",),
          "record_s on web and kv-bulk"),
    Layer("log.authenticator",
          ("repro.log.tamper_evident:TamperEvidentLog.authenticator_for",),
          "record_s on web and kv-bulk"),
    Layer("log.chain_verify", ("repro.log.hashchain:extend_checkpoint_batch",),
          "record_s (ingest) and audit_entries_per_s on kv-bulk",
          split=_BY_PHASE, default="ingest"),
    Layer("network.send", ("repro.network.simnet:SimulatedNetwork.send",),
          "record_s on web"),
    Layer("network.wire_size",
          ("repro.network.message:NetworkMessage.wire_size",),
          "record_s on web"),
    Layer("vm.deliver", ("repro.vm.machine:VirtualMachine.deliver_event",),
          "record_s and bare_record_s on web (record); audit_s (replay)",
          split=((PHASE_AUDIT, "replay"),), default="record"),
    Layer("vm.snapshot", ("repro.vm.snapshot:SnapshotManager.take",
                          "repro.vm.snapshot:SnapshotManager.ship_payload"),
          "record_s on kv-bulk"),
    Layer("codec.encode", _codec_targets("encode_segment"),
          "record_s and log_mb_per_min on kv-bulk (ship, archive); "
          "server_verdict_s on web-cheat (audit: the fallback's size model)",
          split=(("store.append", "archive"), (PHASE_AUDIT, "audit")),
          default="ship", count_only=("codec.encode.audit",),
          counters=_encode_counters,
          counter_units=(("entries_in", "count"), ("bytes_out", "B"))),
    Layer("codec.decode", _codec_targets("decode_segment"),
          "record_s (ingest decode) on kv-bulk",
          counters=_decode_counters,
          counter_units=(("bytes_in", "B"), ("entries_out", "count"))),
    Layer("codec.stream_decode",
          ("repro.log.codec:SegmentStreamDecoder.entries",),
          "audit_entries_per_s on web and kv-bulk",
          stream=True, counter_units=(("entries_out", "count"),)),
    Layer("service.ingest",
          ("repro.service.ingest:AuditIngestService.on_message",),
          "record_s on kv-bulk",
          counters=_ingest_counters,
          counter_units=(("bytes_in", "B"), ("segment_bytes", "B"))),
    Layer("store.append", ("repro.store.archive:LogArchive.append_segment",),
          "record_s on kv-bulk"),
    Layer("store.manifest_write", ("repro.store.manifest:Manifest.write",),
          "record_s on kv-bulk"),
    Layer("store.read", ("repro.store.archive:LogArchive.stream_segment",),
          "audit_s on web and kv-bulk",
          stream=True, counters=_read_counters, counter_units=(("bytes", "B"),)),
    Layer("audit.syntactic", ("repro.audit.syntactic:SyntacticChecker.check",),
          "audit_s on web and kv-bulk"),
    Layer("audit.replay", ("repro.audit.semantic:SemanticChecker.check",),
          "audit_s on kv-bulk"),
    Layer("audit.snapshot_fetch",
          ("repro.audit.stream:fetch_verified_snapshot_entry",),
          "audit_s on kv-bulk"),
    Layer("audit.prepare",
          ("repro.service.ingest:AuditIngestService.prepare_auditor",),
          "audit_s on web"),
    Layer("audit.stream", ("repro.audit.stream:stream_audit",),
          "audit_s on web and kv-bulk (the rest of the stream pipeline)"),
    Layer("audit.fallback", ("repro.audit.auditor:Auditor.audit_segment",),
          "server_verdict_s on web-cheat; must be 0 calls on web and kv-bulk",
          count_only=("audit.fallback",)),
    Layer("audit.evidence_verify", ("repro.audit.evidence:Evidence.verify",),
          "server_verdict_s on web-cheat; must be 0 calls on web and kv-bulk",
          count_only=("audit.evidence_verify",)),
)


# ---------------------------------------------------------------------------
# Installing and removing the wrappers
# ---------------------------------------------------------------------------

class _TracedIterator:
    """Times each pull from an entry iterator as one span of ``name``."""

    __slots__ = ("_inner", "_tracer", "_name", "_args", "_counters", "_first")

    _DONE = object()

    def __init__(self, inner: Iterator, tracer: Tracer, name: str,
                 args: Tuple[Any, ...], counters: Optional[Counters]) -> None:
        self._inner = inner
        self._tracer = tracer
        self._name = name
        self._args = args
        self._counters = counters
        self._first = True

    def __iter__(self) -> "_TracedIterator":
        return self

    def __next__(self):
        with self._tracer.span(self._name) as handle:
            try:
                item = next(self._inner)
            except StopIteration:
                item = self._DONE
            # One call per iterator, however many entries it yields.
            handle.set("calls", 1 if self._first else 0)
            if item is not self._DONE:
                handle.set("entries_out", 1)
                if self._first and self._counters is not None:
                    for key, amount in self._counters(self._args, item).items():
                        handle.set(key, amount)
            self._first = False
        if item is self._DONE:
            raise StopIteration
        return item


def _make_wrapper(original: Callable, layer: Layer, tracer: Tracer) -> Callable:
    name = layer.name
    counters = layer.counters
    if layer.stream:
        def wrapper(*args, **kwargs):
            return _TracedIterator(original(*args, **kwargs), tracer, name,
                                   args, counters)
    elif counters is not None:
        def wrapper(*args, **kwargs):
            with tracer.span(name) as handle:
                result = original(*args, **kwargs)
                for key, amount in counters(args, result).items():
                    handle.set(key, amount)
            return result
    else:
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                return original(*args, **kwargs)
    functools.update_wrapper(wrapper, original)
    setattr(wrapper, WRAPPED_MARK, original)
    return wrapper


def _resolve(target: str) -> Tuple[Any, str]:
    module_name, _, qualname = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *path, attribute = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attribute


def _program_modules() -> List[Any]:
    return [module for name, module in sorted(sys.modules.items())
            if module is not None and (name == "repro" or name.startswith("repro."))]


class Probe:
    """Installs the layer wrappers on a tracer; a context manager.

    Module-level functions are replaced under every name any loaded program
    module imported them as, so ``from x import f`` call sites are traced
    too.  :meth:`uninstall` restores every original exactly.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        #: (owner, attribute, original, owner had its own attribute)
        self._patches: List[Tuple[Any, str, Any, bool]] = []

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("probe already installed")
        for layer in LAYERS:
            for target in layer.targets:
                owner, attribute = _resolve(target)
                original = getattr(owner, attribute)
                wrapper = _make_wrapper(original, layer, self.tracer)
                if isinstance(owner, type):
                    self._patch(owner, attribute, wrapper)
                    continue
                for module in _program_modules():
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, name, wrapper)

    def _patch(self, owner: Any, attribute: str, wrapper: Callable) -> None:
        own = attribute in vars(owner)
        self._patches.append((owner, attribute, vars(owner).get(attribute), own))
        setattr(owner, attribute, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original, own = self._patches.pop()
            if own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

    def __enter__(self) -> "Probe":
        self.install()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.uninstall()
        return False


def leftover_wrappers() -> List[str]:
    """Names of probe wrappers still reachable from program modules."""
    found = []
    for module in _program_modules():
        for name, value in vars(module).items():
            if hasattr(value, WRAPPED_MARK):
                found.append(f"{module.__name__}.{name}")
            elif isinstance(value, type) and value.__module__ == module.__name__:
                found.extend(f"{module.__name__}.{value.__qualname__}.{attr}"
                             for attr, member in vars(value).items()
                             if hasattr(member, WRAPPED_MARK))
    return found


# ---------------------------------------------------------------------------
# Folding spans into per-layer totals
# ---------------------------------------------------------------------------

@dataclass
class Totals:
    """Calls, seconds and counters of one layer within one phase."""

    calls: int = 0
    self_s: float = 0.0
    counters: Dict[str, int] = field(default_factory=dict)


@dataclass
class PhaseSample:
    """One measured phase (one recording, or one audit round) of a trace."""

    name: str
    seconds: float
    #: time inside the phase that no layer span covers
    unattributed_s: float
    layers: Dict[str, Totals] = field(default_factory=dict)

    def metrics(self) -> Dict[str, float]:
        """The phase's values under the names :func:`layer_metrics` lists."""
        values: Dict[str, float] = {}
        for prefix, totals in self.layers.items():
            values[f"{prefix}.calls"] = totals.calls
            values[f"{prefix}.self_s"] = totals.self_s
            for key, amount in totals.counters.items():
                values[f"{prefix}.{key}"] = amount
        return values


def layer_metrics() -> Dict[str, Tuple[str, str]]:
    """name -> (unit, better) of every per-layer metric."""
    metrics: Dict[str, Tuple[str, str]] = {}
    for layer in LAYERS:
        for prefix in layer.metric_prefixes():
            metrics[f"{prefix}.calls"] = ("count", "lower")
            if prefix not in layer.count_only:
                metrics[f"{prefix}.self_s"] = ("s", "lower")
            for counter, unit in layer.counter_units:
                metrics[f"{prefix}.{counter}"] = (unit, "lower")
    return metrics


def fold(spans: List[Span]) -> List[PhaseSample]:
    """Per-phase, per-layer call counts, self seconds and counters.

    Spans are renamed in place to their split name (``crypto.sign`` becomes
    ``crypto.sign.authenticator`` or ``crypto.sign.envelope``), so an exported
    trace shows the names the metrics use.
    """
    by_id = {span.span_id: span for span in spans}
    child_seconds: Dict[int, float] = {}
    for span in spans:
        if span.parent_id in by_id:
            child_seconds[span.parent_id] = \
                child_seconds.get(span.parent_id, 0.0) + span.duration
    rules = {layer.name: layer for layer in LAYERS}
    base = {span.span_id: span.name for span in spans}

    def ancestors(span: Span) -> Iterator[Span]:
        parent = by_id.get(span.parent_id)
        while parent is not None:
            yield parent
            parent = by_id.get(parent.parent_id)

    phases: Dict[int, PhaseSample] = {}
    for span in spans:
        if span.name in PHASES:
            phases[span.span_id] = PhaseSample(
                span.name, span.duration,
                span.duration - child_seconds.get(span.span_id, 0.0))
    for span in spans:
        layer = rules.get(base[span.span_id])
        if layer is None:
            continue
        phase = next((p for p in ancestors(span) if p.span_id in phases), None)
        if phase is None:
            continue
        name = layer.name
        if layer.split:
            suffix = layer.default
            splits = dict(layer.split)
            for parent in ancestors(span):
                if base[parent.span_id] in splits:
                    suffix = splits[base[parent.span_id]]
                    break
            name = f"{layer.name}.{suffix}"
            span.name = name
        totals = phases[phase.span_id].layers.setdefault(name, Totals())
        totals.calls += int(span.attributes.get("calls", 1))
        totals.self_s += span.duration - child_seconds.get(span.span_id, 0.0)
        for key, _ in layer.counter_units:
            amount = span.attributes.get(key)
            if amount:
                totals.counters[key] = totals.counters.get(key, 0) + int(amount)
    return list(phases.values())
