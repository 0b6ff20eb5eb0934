"""Parallel batch auditing of a fleet (Sections 6.6 and 6.12, scaled out).

The paper's audits are embarrassingly parallel: different machines' logs are
independent, and snapshots make the chunks of one log independent too.  This
experiment builds a hosted-service fleet — ``N/2`` database servers, each
driven by its own sql-bench-style client, all recorded under ``avmm-rsa768``
— and then audits every machine on the
:class:`~repro.audit.engine.AuditScheduler` at several worker counts.

Two numbers are reported per worker count.  The *modelled* audit time comes
from scheduling the calibrated per-chunk :class:`~repro.audit.verdict.AuditCost`
totals onto the workers (:mod:`repro.metrics.parallel`); like every other
number in this reproduction it is hardware-independent, and it is the number
the speedup claims are made on.  The *measured* wall-clock of the real worker
pool is reported alongside for flavour — it depends on how many cores the
host actually has.

Verdicts must be identical at every worker count; the engine guarantees it by
re-running the serial auditor whenever a chunk fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.audit.auditor import Auditor
from repro.audit.engine import AuditAssignment, AuditScheduler, FleetAuditReport
from repro.avmm.config import AvmmConfig, Configuration
from repro.avmm.monitor import AccountableVMM
from repro.crypto.keys import KeyStore
from repro.errors import StoreError
from repro.experiments.harness import build_trust, format_table
from repro.network.simnet import SimulatedNetwork
from repro.obs import NULL_OBS, Observability, ensure_obs
from repro.service.fleet import FleetCoordinator
from repro.service.ingest import DEFAULT_INGEST_IDENTITY, AuditIngestService
from repro.sim.scheduler import Scheduler
from repro.store.archive import LogArchive
from repro.vm.image import VMImage
from repro.workloads.kvstore import make_kvserver_image
from repro.workloads.sqlbench import SqlBenchSettings, make_sqlbench_image


@dataclass
class AuditFleet:
    """A recorded fleet, ready to be audited."""

    monitors: Dict[str, AccountableVMM]
    reference_images: Dict[str, VMImage]
    keystore: KeyStore
    #: peer that holds each machine's authenticators (its pair partner)
    peers: Dict[str, str]
    #: the audit-ingest service, when the fleet was recorded with an archive
    ingest: Optional[AuditIngestService] = None
    scheduler: Optional[Scheduler] = None
    #: telemetry sink the fleet was recorded under; auditors inherit it
    obs: Observability = NULL_OBS
    #: the sharded-ingest coordinator, when one was attached instead of a
    #: single archive (see repro.service.fleet)
    coordinator: Optional[FleetCoordinator] = None
    #: per-identity signing keys (the fleet's trust setup); adversarial
    #: harnesses use these to forge validly-signed alternate chains
    keypairs: Dict[str, object] = field(default_factory=dict)

    @property
    def machines(self) -> List[str]:
        return sorted(self.monitors)

    def make_auditor(self, target: str, identity: str = "auditor",
                     collect: bool = True) -> Auditor:
        """An external auditor holding the authenticators the peer collected.

        ``collect=False`` returns the auditor empty-handed — the right
        starting point for archive-backed audits, where the ingest service
        supplies the archived authenticators instead of a live peer.
        """
        auditor = Auditor(identity, self.keystore, self.reference_images[target],
                          obs=self.obs)
        if collect:
            auditor.collect_from_peer(self.monitors[self.peers[target]], target)
        return auditor

    def assignments(self) -> List[AuditAssignment]:
        return [AuditAssignment(self.make_auditor(machine), self.monitors[machine])
                for machine in self.machines]


def build_fleet(num_machines: int = 16, duration: float = 30.0, seed: int = 7,
                snapshot_interval: Optional[float] = 10.0,
                archive: Optional[LogArchive] = None,
                ingest_identity: str = DEFAULT_INGEST_IDENTITY,
                client_settings: Optional[SqlBenchSettings] = None,
                ship_format_version: int = 1,
                coordinator: Optional[FleetCoordinator] = None,
                obs: Optional[Observability] = None) -> AuditFleet:
    """Record a fleet of ``num_machines`` (server+client pairs) for auditing.

    With an ``archive``, an :class:`~repro.service.ingest.AuditIngestService`
    joins the network under ``ingest_identity`` and every monitor streams its
    sealed segments (plus boundary snapshots and collected peer
    authenticators) to it during the run; the unsealed log tails are shipped
    and drained before the fleet is returned, so the archive holds each
    machine's complete log.  ``client_settings`` overrides the benchmark
    clients' workload shape (its ``server`` field is replaced per pair); the
    streaming-audit bench uses it to fatten row payloads so raw log bytes
    grow without growing entry counts.  ``ship_format_version`` selects the
    wire codec the monitors ship segments in (:mod:`repro.log.codec`); the
    archive's own ``format_version`` independently controls the stored
    format, so mixed ship/store configurations are expressible.

    With a ``coordinator`` (mutually exclusive with ``archive``), the fleet
    records *sharded*: every shard's ingest endpoint joins the network and
    each monitor ships to its consistent-hash home shard
    (:meth:`~repro.service.fleet.FleetCoordinator.attach_fleet`) — the
    fleet-scale topology of ``docs/fleet-sharding.md``.  ``obs``
    threads one telemetry sink (:mod:`repro.obs`) through every monitor, the
    ingest service, and the auditors the fleet later makes — observers only,
    it never changes what gets recorded or audited.
    """
    if num_machines < 2 or num_machines % 2:
        raise ValueError(f"fleet size must be an even number >= 2, got {num_machines}")
    obs = ensure_obs(obs)
    scheduler = Scheduler()
    if obs.enabled and getattr(obs.tracer, "sim_time", None) is None:
        # Bind the sim clock domain to this fleet's clock so sim-domain
        # events (snapshots, shipments, ingests) carry simulated timestamps.
        obs.tracer.sim_time = scheduler.clock.read
    network = SimulatedNetwork(scheduler)
    config = AvmmConfig.for_configuration(Configuration.AVMM_RSA768,
                                          snapshot_interval=snapshot_interval)

    pairs = [(f"db-server-{index:02d}", f"db-client-{index:02d}")
             for index in range(num_machines // 2)]
    identities = [identity for pair in pairs for identity in pair]
    _, keypairs, keystore = build_trust(identities + ["auditor"],
                                        scheme=config.signature_scheme, seed=seed)

    monitors: Dict[str, AccountableVMM] = {}
    reference_images: Dict[str, VMImage] = {}
    peers: Dict[str, str] = {}
    for index, (server, client) in enumerate(pairs):
        server_image = make_kvserver_image()
        if client_settings is None:
            pair_settings = SqlBenchSettings(server=server)
        else:
            pair_settings = replace(client_settings, server=server)
        client_image = make_sqlbench_image(pair_settings)
        reference_images[server] = server_image
        reference_images[client] = client_image
        peers[server] = client
        peers[client] = server
        monitors[server] = AccountableVMM(
            server, server_image, config, scheduler, network,
            keypair=keypairs[server], keystore=keystore,
            clock_offset=0.0005 * index, obs=obs)
        monitors[client] = AccountableVMM(
            client, client_image, config, scheduler, network,
            keypair=keypairs[client], keystore=keystore,
            clock_offset=0.0005 * index + 0.0002, obs=obs)

    if archive is not None and coordinator is not None:
        raise ValueError("pass either archive= (single service) or "
                         "coordinator= (sharded fleet), not both")
    ingest: Optional[AuditIngestService] = None
    if archive is not None:
        ingest = AuditIngestService(archive, identity=ingest_identity,
                                    network=network, obs=obs)
        for monitor in monitors.values():
            monitor.attach_archive_shipper(
                ingest_identity, format_version=ship_format_version)
    elif coordinator is not None:
        coordinator.connect(network)
        coordinator.attach_fleet(monitors.values(),
                                 format_version=ship_format_version)

    for monitor in monitors.values():
        monitor.start()
    scheduler.run_until(duration)
    for monitor in monitors.values():
        monitor.stop()
    if ingest is not None or coordinator is not None:
        drain_fleet_to_archive(scheduler, monitors)
    return AuditFleet(monitors=monitors, reference_images=reference_images,
                      keystore=keystore, peers=peers, ingest=ingest,
                      scheduler=scheduler, obs=obs, coordinator=coordinator,
                      keypairs=keypairs)


def drain_fleet_to_archive(scheduler: Scheduler,
                           monitors: Dict[str, AccountableVMM],
                           settle: float = 1.0, max_rounds: int = 5) -> None:
    """Flush in-flight traffic, ship the log tails, and deliver everything.

    Delivering a straggler message can append new log entries (a RECV plus
    its ACK), so tail shipping repeats until a whole round ships nothing —
    at that point every monitor's archive mirrors its log exactly.  Raises
    :class:`~repro.errors.StoreError` if the fleet is still producing or
    dropping shipments after ``max_rounds`` (e.g. an unhealed partition to
    the ingest endpoint) rather than returning an incomplete archive.
    """
    scheduler.run_until(scheduler.clock.now + settle)
    for _ in range(max_rounds):
        shipped = [monitor.ship_archive_tail() for monitor in monitors.values()]
        scheduler.run_until(scheduler.clock.now + settle)
        if not any(shipped):
            break
    unshipped = sorted(monitor.identity for monitor in monitors.values()
                       if not monitor.archive_shipping_complete)
    if unshipped:
        raise StoreError(
            f"archive drain did not converge: {unshipped} still have "
            f"unshipped log entries or authenticators after "
            f"{max_rounds} rounds")


@dataclass
class WorkerPoint:
    """One worker count's outcome."""

    workers: int
    executor: str
    chunks: int
    measured_wall_seconds: float
    modelled_serial_seconds: float
    modelled_wall_seconds: float
    verdicts: Dict[str, str] = field(default_factory=dict)
    report: Optional[FleetAuditReport] = None


@dataclass
class ParallelAuditResult:
    """Speedup table of auditing one fleet at several worker counts."""

    num_machines: int
    duration: float
    points: List[WorkerPoint] = field(default_factory=list)

    def point(self, workers: int) -> WorkerPoint:
        for point in self.points:
            if point.workers == workers:
                return point
        raise KeyError(f"no data point for {workers} workers")

    @property
    def verdicts_identical(self) -> bool:
        first = self.points[0].verdicts if self.points else {}
        return all(point.verdicts == first for point in self.points)

    @property
    def all_passed(self) -> bool:
        return all(verdict == "pass"
                   for point in self.points for verdict in point.verdicts.values())

    def modelled_speedup(self, workers: int) -> float:
        """Modelled audit time at ``workers=1`` over the time at ``workers``."""
        baseline = self.point(1).modelled_wall_seconds
        parallel = self.point(workers).modelled_wall_seconds
        return baseline / parallel if parallel > 0 else 1.0

    def measured_speedup(self, workers: int) -> float:
        baseline = self.point(1).measured_wall_seconds
        parallel = self.point(workers).measured_wall_seconds
        return baseline / parallel if parallel > 0 else 1.0


def run_parallel_audit(num_machines: int = 16, duration: float = 30.0,
                       worker_counts: Sequence[int] = (1, 2, 4, 8),
                       seed: int = 7,
                       snapshot_interval: Optional[float] = 10.0,
                       executor: str = "process",
                       keep_reports: bool = False) -> ParallelAuditResult:
    """Audit one recorded fleet at every requested worker count."""
    fleet = build_fleet(num_machines=num_machines, duration=duration, seed=seed,
                        snapshot_interval=snapshot_interval)
    result = ParallelAuditResult(num_machines=num_machines, duration=duration)
    for workers in worker_counts:
        engine = AuditScheduler(workers=workers, executor=executor)
        report = engine.audit_fleet(fleet.assignments())
        result.points.append(WorkerPoint(
            workers=workers,
            executor=report.executor_used,
            chunks=report.chunk_count,
            measured_wall_seconds=report.wall_seconds,
            modelled_serial_seconds=report.modelled.serial_seconds,
            modelled_wall_seconds=report.modelled.makespan_seconds,
            verdicts={machine: audit.verdict.value
                      for machine, audit in report.results.items()},
            report=report if keep_reports else None,
        ))
    return result


def main(num_machines: int = 16, duration: float = 30.0,
         worker_counts: Sequence[int] = (1, 2, 4, 8)) -> ParallelAuditResult:
    """Print the parallel-audit speedup table."""
    result = run_parallel_audit(num_machines=num_machines, duration=duration,
                                worker_counts=worker_counts)
    rows: List[Tuple[object, ...]] = []
    for point in result.points:
        rows.append((point.workers, point.executor, point.chunks,
                     f"{point.modelled_wall_seconds:.1f} s",
                     f"{result.modelled_speedup(point.workers):.2f}x",
                     f"{point.measured_wall_seconds:.2f} s"))
    print(f"Parallel audit of a {num_machines}-machine fleet "
          f"({duration:.0f} s of recorded activity per machine)")
    print(format_table(["workers", "executor", "chunks", "modelled audit time",
                        "modelled speedup", "measured wall"], rows))
    print(f"\nverdicts identical across worker counts: {result.verdicts_identical}; "
          f"all machines passed: {result.all_passed}")
    return result


if __name__ == "__main__":
    main()
