"""The benchmark's workloads: seeded inputs, recording, audit, and checks.

Each workload is a batch job over a fixed input made from the seed: a
server/client pair is recorded under ``avmm-rsa768`` while it ships its log
to an :class:`~repro.service.ingest.AuditIngestService`, recorded again under
``bare-hw``, and the archive is then audited cold, machine by machine, on the
streaming pipeline.  Simulated values (entry counts, archived bytes, RTTs,
scheduler steps) depend only on the seed; host seconds are what the runner
measures.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.adversary.guests import make_cheating_webservice_image
from repro.audit import stream as audit_stream
from repro.audit.auditor import Auditor
from repro.avmm.config import AvmmConfig, Configuration
from repro.avmm.monitor import AccountableVMM
from repro.crypto.keys import KeyPair, KeyStore
from repro.experiments.harness import build_trust
from repro.experiments.parallel_audit import drain_fleet_to_archive
from repro.experiments.webload import LoadModel
from repro.network.message import MessageKind
from repro.network.simnet import SimulatedNetwork
from repro.service.ingest import AuditIngestService
from repro.sim.scheduler import Scheduler
from repro.store.archive import LogArchive
from repro.vm.image import VMImage
from repro.workloads.kvstore import make_kvserver_image
from repro.workloads.sqlbench import SqlBenchSettings, make_sqlbench_image
from repro.workloads.webservice import (SimulatedUpstreamBackend,
                                        WebServiceSettings,
                                        make_webclient_image,
                                        make_webservice_image)

AUDITOR = "auditor"
#: seed of the certificate authority and every machine's RSA key.  Prime
#: search takes a different time for every key, so keys made from the
#: workload seed would make set-up time a property of the seed; the workload
#: seed varies the offered load instead.
KEY_SEED = 0
#: chunk budget of the streaming audit (the webload experiment's setting)
MAX_CHUNKS = 50
#: simulated seconds a bare recording runs past its horizon so that every
#: request in flight is answered (the accountable run drains instead)
BARE_SETTLE_S = 1.0


@dataclass
class Inputs:
    """What set-up produces: keys and the offered load."""

    seed: int
    keypairs: Dict[str, KeyPair]
    keystore: KeyStore
    #: a keystore built separately from the CA's certificates, for the third
    #: party that re-verifies evidence
    third_party_keystore: KeyStore
    #: web: ``(time, request id, method, path)``; kv-bulk: empty (timer-driven)
    plan: List[Tuple[float, str, str, str]] = field(default_factory=list)


@dataclass
class Recording:
    """One finished recording and the simulated facts it produced."""

    configuration: str
    wall_s: float
    #: simulated seconds the offered load ran (the horizon, before draining)
    sim_s: float
    #: scheduler steps (``Scheduler.events_run``)
    events: int
    #: request id -> digest of the response the client received
    responses: Dict[str, str]
    #: request ids the client sent
    requests: List[str]
    #: simulated round-trip seconds per answered request, from when it was
    #: due (web only; the kv-bulk client is timer-driven)
    rtts: List[float]
    network_bytes: int
    dirty_bytes: int
    #: modelled VMM + daemon CPU seconds (PerfModel), labelled as a model
    modelled_cpu_s: float
    archive_root: Optional[Path] = None
    #: archive contents per machine: entries and stored segment bytes
    entries: Dict[str, int] = field(default_factory=dict)
    stored_bytes: int = 0

    def fingerprint(self) -> Dict[str, object]:
        """The deterministic facts a same-seed recording must repeat exactly."""
        return {
            "configuration": self.configuration,
            "events": self.events,
            "responses": _digest(sorted(self.responses.items())),
            "rtts": _digest(self.rtts),
            "network_bytes": self.network_bytes,
            "dirty_bytes": self.dirty_bytes,
            "entries": dict(sorted(self.entries.items())),
            "stored_bytes": self.stored_bytes,
        }


@dataclass
class MachineAudit:
    """One machine's verdict from one cold audit of the archive."""

    machine: str
    verdict: str
    phase: str
    entries: int
    chunks: int
    fallback: bool
    evidence_verified: Optional[bool]
    seconds: float
    modelled_audit_s: float

    def fingerprint(self) -> Dict[str, object]:
        return {"machine": self.machine, "verdict": self.verdict,
                "phase": self.phase, "entries": self.entries,
                "chunks": self.chunks, "fallback": self.fallback,
                "evidence_verified": self.evidence_verified}


def _digest(value: object) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()[:16]


class PairWorkload:
    """A server and a client, recorded, shipped to an archive, and audited."""

    name = ""
    why = ""
    server = ""
    client = ""
    snapshot_interval = 0.5

    def config(self) -> Dict[str, object]:
        raise NotImplementedError

    def expected_verdicts(self) -> Dict[str, str]:
        return {self.server: "pass", self.client: "pass"}

    # -- inputs --------------------------------------------------------------

    def setup(self, seed: int) -> Inputs:
        """Keys and the offered load."""
        machines = [self.server, self.client, AUDITOR]
        ca, keypairs, keystore = build_trust(machines, seed=KEY_SEED)
        third_party = KeyStore(ca)
        for machine in machines:
            third_party.add_certificate(keypairs[machine].certificate)
        return Inputs(seed=seed, keypairs=keypairs, keystore=keystore,
                      third_party_keystore=third_party, plan=self.plan(seed))

    def plan(self, seed: int) -> List[Tuple[float, str, str, str]]:
        return []

    # -- hooks ---------------------------------------------------------------

    def images(self) -> Dict[str, VMImage]:
        """The images the machines actually run."""
        return self.reference_images()

    def reference_images(self) -> Dict[str, VMImage]:
        raise NotImplementedError

    def attach(self, monitors: Dict[str, AccountableVMM], inputs: Inputs) -> None:
        """Wire host-side dependencies before the machines start."""

    def drive(self, scheduler: Scheduler, monitors: Dict[str, AccountableVMM],
              inputs: Inputs, sent: Dict[str, float]) -> float:
        """Schedule the offered load; returns the simulated horizon."""
        raise NotImplementedError

    def response(self, message) -> Optional[Tuple[str, str]]:
        """``(request id, response digest)`` of a server reply, else ``None``."""
        raise NotImplementedError

    def request_id(self, message) -> Optional[str]:
        """The request id of a client request, else ``None``."""
        raise NotImplementedError

    # -- recording -----------------------------------------------------------

    def record(self, inputs: Inputs, accountable: bool,
               archive_root: Optional[Path] = None) -> Recording:
        """Record the offered load; the accountable run ships to an archive."""
        configuration = (Configuration.AVMM_RSA768 if accountable
                         else Configuration.BARE_HW)
        overrides = {"snapshot_interval": self.snapshot_interval} if accountable else {}
        started = time.perf_counter()
        scheduler = Scheduler()
        network = SimulatedNetwork(scheduler)
        config = AvmmConfig.for_configuration(configuration, **overrides)
        images = self.images()
        monitors = {
            machine: AccountableVMM(machine, images[machine], config, scheduler,
                                    network, keypair=inputs.keypairs[machine],
                                    keystore=inputs.keystore,
                                    clock_offset=offset)
            for machine, offset in ((self.server, 0.0), (self.client, 0.0002))
        }
        self.attach(monitors, inputs)
        ingest = None
        if accountable:
            ingest = AuditIngestService(LogArchive(archive_root), network=network)
            for monitor in monitors.values():
                monitor.attach_archive_shipper(ingest.identity)
        for monitor in monitors.values():
            monitor.start()
        sent: Dict[str, float] = {}
        horizon = self.drive(scheduler, monitors, inputs, sent)
        scheduler.run_until(horizon)
        for monitor in monitors.values():
            monitor.stop()
        if ingest is not None:
            drain_fleet_to_archive(scheduler, monitors)
        else:
            scheduler.run_until(scheduler.clock.now + BARE_SETTLE_S)
        wall = time.perf_counter() - started

        responses: Dict[str, str] = {}
        requests: List[str] = []
        rtts: List[float] = []
        for at, message in network.deliveries:
            if message.kind is not MessageKind.DATA:
                continue
            if message.source == self.client and message.destination == self.server:
                request = self.request_id(message)
                if request is not None:
                    requests.append(request)
            elif message.source == self.server and message.destination == self.client:
                reply = self.response(message)
                if reply is None or reply[0] in responses:
                    continue
                responses[reply[0]] = reply[1]
                if reply[0] in sent:
                    rtts.append(at - sent[reply[0]])
        recording = Recording(
            configuration=configuration.value, wall_s=wall, sim_s=horizon,
            events=scheduler.events_run, responses=responses,
            requests=sorted(set(requests)), rtts=rtts,
            network_bytes=sum(network.stats_for(machine).bytes_sent
                              for machine in monitors),
            dirty_bytes=sum(monitor.snapshots.stats.dirty_bytes_total
                            for monitor in monitors.values()),
            modelled_cpu_s=sum(monitor.stats.vmm_cpu_seconds
                               + monitor.stats.daemon_cpu_seconds
                               for monitor in monitors.values()),
            archive_root=archive_root)
        if ingest is not None:
            archive = ingest.archive
            recording.entries = {machine: archive.entry_count(machine)
                                 for machine in monitors}
            recording.stored_bytes = archive.stats().stored_bytes
        return recording

    # -- auditing ------------------------------------------------------------

    def audit(self, inputs: Inputs, recording: Recording) -> List[MachineAudit]:
        """Open the archive cold and audit every machine to its verdict.

        The server goes first, so its seconds run from the start of its
        audit to its verdict; a FAIL counts only once a third party, with
        its own keystore and reference image, has verified the evidence.
        """
        service = AuditIngestService(LogArchive(recording.archive_root))
        outcomes = []
        for machine in (self.server, self.client):
            started = time.perf_counter()
            auditor = Auditor(AUDITOR, inputs.keystore,
                              self.reference_images()[machine])
            service.prepare_auditor(auditor, machine)
            report = audit_stream.stream_audit(
                auditor, service.target_for(machine), max_chunks=MAX_CHUNKS)
            result = report.result
            verified = None
            if result.evidence is not None:
                verified = result.evidence.verify(
                    inputs.third_party_keystore,
                    self.reference_images()[machine])
            seconds = time.perf_counter() - started
            outcomes.append(MachineAudit(
                machine=machine, verdict=result.verdict.value,
                phase=result.phase.value, entries=recording.entries[machine],
                chunks=report.stats.chunks,
                fallback=report.stats.fallback_reason is not None,
                evidence_verified=verified, seconds=seconds,
                modelled_audit_s=result.cost.total_seconds))
        return outcomes

    # -- the correctness gate ------------------------------------------------

    def check_recordings(self, inputs: Inputs, accountable: Recording,
                         bare: Recording) -> Tuple[int, int, List[str]]:
        """``(requests attempted, requests failed, problems)`` of a pair.

        A request fails when either recording left it unanswered or the two
        configurations answered it differently.
        """
        expected = sorted(item[1] for item in inputs.plan) or accountable.requests
        problems = []
        if accountable.requests != expected or bare.requests != expected:
            problems.append("the client did not send every planned request")
        failed = set()
        for recording in (accountable, bare):
            unanswered = set(expected) - set(recording.responses)
            if unanswered:
                problems.append(f"{recording.configuration}: {len(unanswered)} "
                                f"requests unanswered")
            failed |= unanswered
        differing = {request for request in expected
                     if request in accountable.responses
                     and request in bare.responses
                     and accountable.responses[request] != bare.responses[request]}
        if differing:
            problems.append(f"{len(differing)} responses differ between "
                            f"{accountable.configuration} and {bare.configuration}")
        failed |= differing
        return len(expected), len(failed), problems

    def check_audits(self, audits: List[MachineAudit]) -> List[str]:
        """Problems with the verdicts (empty when correct)."""
        problems = []
        expected = self.expected_verdicts()
        for outcome in audits:
            want = expected[outcome.machine]
            if outcome.verdict != want:
                problems.append(f"{outcome.machine}: verdict {outcome.verdict}, "
                                f"expected {want}")
            elif want == "fail" and outcome.evidence_verified is not True:
                problems.append(f"{outcome.machine}: conviction evidence did "
                                f"not verify")
            elif want == "pass" and outcome.fallback:
                problems.append(f"{outcome.machine}: an honest audit fell back "
                                f"to the serial path")
        return problems


class WebWorkload(PairWorkload):
    """The web service under open-loop, heavy-tailed load (simulated time).

    The request plan is the seeded :class:`LoadModel`'s first ``requests``
    requests (lognormal arrivals, Pareto sessions and path popularity),
    stretched linearly onto a fixed ``window_s`` so every seed offers the same
    number of requests at the same mean rate.
    """

    name = "web"
    why = ("8 RSA-768 signatures per request over tiny payloads: signing, "
           "envelope checks, wire sizing and guest delivery dominate record_s")
    server = "web-server"
    client = "web-client"
    #: the server runs the stale-cache cheat instead of the reference image
    cheat = False

    def __init__(self, requests: int = 300, window_s: float = 3.0) -> None:
        self.requests = requests
        self.window_s = window_s
        self.settings = WebServiceSettings()

    def config(self) -> Dict[str, object]:
        return {"requests": self.requests, "window_s": self.window_s,
                "snapshot_interval_s": self.snapshot_interval,
                "session_alpha": 3.0, "arrival_rate": 2000.0,
                "cheat": self.cheat, "max_chunks": MAX_CHUNKS}

    def plan(self, seed: int) -> List[Tuple[float, str, str, str]]:
        model = LoadModel(users=self.requests, seed=seed, session_alpha=3.0)
        plan = model.plan()[:self.requests]
        first, last = plan[0][0], plan[-1][0]
        scale = self.window_s / max(last - first, 1e-9)
        return [(0.05 + (at - first) * scale, request, method, path)
                for at, request, method, path in plan]

    def reference_images(self) -> Dict[str, VMImage]:
        return {self.server: make_webservice_image(self.settings),
                self.client: make_webclient_image(self.server)}

    def attach(self, monitors: Dict[str, AccountableVMM], inputs: Inputs) -> None:
        monitors[self.server].attach_upstream_backend(
            SimulatedUpstreamBackend(seed=inputs.seed + 1))

    def drive(self, scheduler, monitors, inputs, sent) -> float:
        client = monitors[self.client]

        def inject(request: str, method: str, path: str) -> None:
            sent[request] = scheduler.clock.now
            client.inject_local_input(json.dumps(
                {"id": request, "method": method, "path": path},
                sort_keys=True, separators=(",", ":")))

        for at, request, method, path in inputs.plan:
            scheduler.schedule_at(at, lambda r=request, m=method, p=path:
                                  inject(r, m, p), label="perfbench")
        return inputs.plan[-1][0] + 2.0

    def request_id(self, message) -> Optional[str]:
        return json.loads(message.payload.decode("utf-8")).get("id")

    def response(self, message) -> Optional[Tuple[str, str]]:
        body = json.loads(message.payload.decode("utf-8"))
        if body.get("id") is None:
            return None
        return str(body["id"]), str(body["status"])


class WebCheatWorkload(WebWorkload):
    """The web load served by the stale-cache cheat, recorded and audited."""

    name = "web-cheat"
    why = ("the only workload on the audit failure path: stream-to-serial "
           "fallback, evidence building and third-party verification")
    cheat = True

    def images(self) -> Dict[str, VMImage]:
        images = self.reference_images()
        images[self.server] = make_cheating_webservice_image(self.settings)
        return images

    def expected_verdicts(self) -> Dict[str, str]:
        return {self.server: "fail", self.client: "pass"}


class KvBulkWorkload(PairWorkload):
    """A hosted-database pair with a timer-driven (open-loop) bulk client."""

    name = "kv-bulk"
    why = ("few messages, 16 kB rows: ship and archive encoding, manifest "
           "rewrites, decode, chain hashing and replay dominate; signing is minor")
    server = "db-server-00"
    client = "db-client-00"

    def __init__(self, sim_seconds: float = 4.0) -> None:
        self.sim_seconds = sim_seconds
        self.settings = SqlBenchSettings(server=self.server, payload_bytes=16000,
                                         operations_per_tick=6,
                                         tick_interval=0.25, rows_per_phase=4)

    def config(self) -> Dict[str, object]:
        return {"sim_seconds": self.sim_seconds,
                "snapshot_interval_s": self.snapshot_interval,
                "payload_bytes": self.settings.payload_bytes,
                "operations_per_tick": self.settings.operations_per_tick,
                "tick_interval_s": self.settings.tick_interval,
                "rows_per_phase": self.settings.rows_per_phase,
                "max_chunks": MAX_CHUNKS}

    def reference_images(self) -> Dict[str, VMImage]:
        return {self.server: make_kvserver_image(),
                self.client: make_sqlbench_image(self.settings)}

    def drive(self, scheduler, monitors, inputs, sent) -> float:
        return self.sim_seconds

    def request_id(self, message) -> Optional[str]:
        request = json.loads(message.payload.decode("utf-8")).get("request_id")
        return None if request is None else str(request)

    def response(self, message) -> Optional[Tuple[str, str]]:
        body = json.loads(message.payload.decode("utf-8"))
        if body.get("request_id") is None:
            return None
        return str(body["request_id"]), _digest(body.get("result"))


WORKLOADS = {workload.name: workload
             for workload in (WebWorkload, KvBulkWorkload, WebCheatWorkload)}
