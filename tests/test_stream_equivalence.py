"""Differential tests: streaming audit == materializing audit.

The audit pipeline's contract (:mod:`repro.audit.stream`) is that a
streamed audit of an archived log is *structurally identical* — verdict,
phase, reason, counters, replay report, evidence and modelled costs — to the
serial materializing audit of the same archive, which in turn equals the
in-memory audit of the live machine.  The fast tests check this on a small
archived fleet, on the web service (whose replay serves upstream calls), on
truncated (GC'd) archives, on the scheduler and spot-check front-ends, and
on a representative subset of adversary scenarios; the slow tests sweep
every adversary class over both workloads and the 16-machine archived
fleet.  Any divergence fails with the offending cell printed.
"""

from __future__ import annotations

import tempfile

import pytest

from repro.adversary.catalog import adversary_names, make_adversary
from repro.adversary.matrix import WORKLOADS, CellSpec, ScenarioMatrix
from repro.audit.auditor import Auditor
from repro.audit.engine import AuditAssignment, AuditScheduler
from repro.audit.spot_check import SpotChecker
from repro.audit.stream import stream_audit
from repro.audit.verdict import Verdict
from repro.avmm.config import Configuration
from repro.errors import ReproError
from repro.experiments import webload
from repro.experiments.parallel_audit import build_fleet, drain_fleet_to_archive
from repro.service.ingest import AuditIngestService
from repro.store.archive import LogArchive


# ---------------------------------------------------------------------------
# A small archived fleet shared by the fast tests
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def archived_fleet(tmp_path_factory):
    root = tmp_path_factory.mktemp("stream-fleet") / "archive"
    fleet = build_fleet(num_machines=4, duration=8.0, seed=7,
                        snapshot_interval=2.0, archive=LogArchive(root))
    return fleet, root


def _service(root) -> AuditIngestService:
    return AuditIngestService(LogArchive(root))


def _prepared_auditor(fleet, service, machine):
    auditor = fleet.make_auditor(machine, collect=False)
    service.prepare_auditor(auditor, machine)
    return auditor


class TestArchivedFleetEquivalence:
    def test_streaming_equals_materializing_and_memory(self, archived_fleet):
        fleet, root = archived_fleet
        service = _service(root)
        for machine in fleet.machines:
            materialized = _prepared_auditor(fleet, service, machine).audit(
                service.target_for(machine), streaming=False)
            report = stream_audit(_prepared_auditor(fleet, service, machine),
                                  service.target_for(machine))
            in_memory = fleet.make_auditor(machine).audit(
                fleet.monitors[machine])
            assert report.stats.fallback_reason is None
            assert report.result == materialized, \
                f"stream vs materializing diverged for {machine}"
            assert report.result == in_memory, \
                f"stream vs in-memory diverged for {machine}"

    def test_stream_actually_chunks(self, archived_fleet):
        fleet, root = archived_fleet
        service = _service(root)
        machine = fleet.machines[0]
        report = stream_audit(_prepared_auditor(fleet, service, machine),
                              service.target_for(machine))
        assert report.result.verdict is Verdict.PASS
        assert report.stats.chunks > 1
        assert report.stats.peak_chunk_entries < report.stats.entries
        assert report.stats.signature_windows >= report.stats.chunks

    def test_default_audit_path_streams(self, archived_fleet):
        """``Auditor.audit`` of an archive target takes the streaming path
        (same result object, produced without whole-log materialization)."""
        fleet, root = archived_fleet
        service = _service(root)
        machine = fleet.machines[0]
        default = service.audit_machine(
            fleet.make_auditor(machine, collect=False), machine)
        report = stream_audit(_prepared_auditor(fleet, service, machine),
                              service.target_for(machine))
        assert default == report.result

    def test_engine_from_archive_matches_serial(self, archived_fleet):
        fleet, root = archived_fleet
        service = _service(root)
        assignments = []
        for machine in fleet.machines:
            auditor = _prepared_auditor(fleet, service, machine)
            assignments.append(
                AuditAssignment(auditor, service.target_for(machine)))
        engine_report = AuditScheduler(workers=2, executor="thread") \
            .audit_fleet(assignments)
        assert engine_report.chunk_count > len(fleet.machines)
        for machine in fleet.machines:
            serial = _prepared_auditor(fleet, service, machine).audit(
                service.target_for(machine), streaming=False)
            assert serial.verdict is Verdict.PASS
            assert engine_report.results[machine] == serial, \
                f"engine vs serial diverged for {machine}"
            assert engine_report.machine_reports[machine].stats \
                .fallback_reason is None

    def test_spot_checker_lazy_source_matches(self, archived_fleet):
        fleet, root = archived_fleet
        service = _service(root)
        machine = fleet.machines[0]
        target = service.target_for(machine)
        checker = SpotChecker(_prepared_auditor(fleet, service, machine))
        # Lazy (archive-backed) source vs an explicitly materialized list.
        lazy = checker.check_chunk(target, 1, 2)
        eager = checker.check_chunk(target, 1, 2,
                                    segments=target.get_snapshot_segments())
        assert lazy.result == eager.result
        assert lazy.log_bytes == eager.log_bytes
        report = checker.sample_chunks(target, k=2, sample_size=2, seed=3)
        assert report.ok
        assert report.entries_total == sum(
            len(s) for s in target.get_snapshot_segments())


@pytest.fixture(scope="module")
def web_archive(tmp_path_factory):
    """A small archived run of the benchmark's web service."""
    model = webload.LoadModel(users=40, seed=1, arrival_rate=400.0)
    run = webload._record(Configuration.AVMM_RSA768, model.plan(), model,
                          webload.WebServiceSettings(),
                          archive_root=tmp_path_factory.mktemp("web"),
                          snapshot_interval=0.5)
    drain_fleet_to_archive(run.scheduler, run.monitors)
    return run


def test_web_server_audits_identically_on_every_path(web_archive):
    """Streamed, scheduler (inline and thread) and serial audits of the web
    server agree exactly, including the upstream calls replay served."""
    run = web_archive
    machine = webload.SERVER
    target = run.ingest.target_for(machine)

    def prepared():
        auditor = Auditor("auditor", run.keystore,
                          run.reference_images[machine])
        run.ingest.prepare_auditor(auditor, machine)
        return auditor

    serial = prepared().audit(target, streaming=False)
    streamed = stream_audit(prepared(), target, max_chunks=50)
    assert streamed.stats.chunks > 1
    assert streamed.stats.fallback_reason is None
    results = {"serial": serial, "streamed": streamed.result}
    for executor in ("inline", "thread"):
        results[executor] = AuditScheduler(workers=2, executor=executor) \
            .audit_machine(prepared(), target)
    for path, result in results.items():
        assert result.verdict is Verdict.PASS, path
        assert result.replay_report.upstream_calls_served > 0, path
        assert result == serial, f"{path} vs serial diverged"


class TestReviewRegressions:
    """Pinned fixes from the pre-merge review of the streaming pipeline."""

    def test_duplicate_send_id_is_flagged_by_the_stream_checker(self):
        """A forged duplicate-id SEND after its pair matched must be flagged
        (eviction would otherwise forget the pair the whole-segment checker
        compares it against, letting a tampered log pass only when
        streamed)."""
        from repro.audit.stream import StreamingCrossChecker
        from repro.audit.syntactic import SyntacticChecker
        from repro.log.entries import EntryType
        from repro.log.segments import LogSegment
        from repro.log.tamper_evident import TamperEvidentLog

        log = TamperEvidentLog("mallory")
        log.append(EntryType.SEND, {"destination": "bob", "payload_hash": "aa",
                                    "payload_size": 1, "message_id": "m1"})
        log.append(EntryType.MACLAYER, {"direction": "out", "message_id": "m1",
                                        "payload_hash": "aa",
                                        "execution_counter": 1})
        forged = log.append(EntryType.SEND,
                            {"destination": "bob", "payload_hash": "bb",
                             "payload_size": 1, "message_id": "m1"})
        segment = LogSegment(machine="mallory", entries=list(log.entries),
                             start_hash=log.entries[0].previous_hash)
        whole = SyntacticChecker(verify_sender_signatures=False,
                                 check_entry_format=False).check(segment)
        assert not whole.ok  # the serial checker catches the forgery...
        checker = StreamingCrossChecker()
        for entry in segment.entries:
            checker.feed(entry)
        checker.finish(forged.sequence)
        assert not checker.ok  # ...and so must the streaming one

    def test_unverifiable_boundary_snapshot_falls_back(self, archived_fleet,
                                                       monkeypatch):
        """Any inability to anchor a chunk hands over to the materializing
        audit instead of raising out of the pipeline."""
        import repro.audit.stream as stream_module
        from repro.errors import MissingSnapshotError

        def refuse(target, snapshot_entry):
            raise MissingSnapshotError("simulated unverifiable snapshot")

        monkeypatch.setattr(stream_module, "fetch_verified_snapshot_entry",
                            refuse)
        fleet, root = archived_fleet
        service = _service(root)
        machine = fleet.machines[0]
        report = stream_audit(_prepared_auditor(fleet, service, machine),
                              service.target_for(machine))
        assert report.used_fallback
        materialized = _prepared_auditor(fleet, service, machine).audit(
            service.target_for(machine), streaming=False)
        assert report.result == materialized

    def test_streaming_false_bypasses_the_engine(self, archived_fleet):
        """``streaming=False`` forces the serial materializing path even when
        the auditor has an engine (whose plans are stream-built)."""
        fleet, root = archived_fleet
        service = _service(root)
        machine = fleet.machines[0]
        engine_backed = fleet.make_auditor(machine, collect=False)
        engine_backed.workers = 2
        service.prepare_auditor(engine_backed, machine)
        forced = engine_backed.audit(service.target_for(machine),
                                     streaming=False)
        serial = _prepared_auditor(fleet, service, machine).audit(
            service.target_for(machine), streaming=False)
        assert forced == serial

    def test_explicit_initial_state_wins_on_truncated_targets(
            self, archived_fleet, tmp_path):
        """A caller-supplied initial_state must reach the replay unchanged
        (a wrong state must fail; target.initial_state() must not silently
        replace it)."""
        import shutil
        fleet, root = archived_fleet
        clone_root = tmp_path / "archive"
        shutil.copytree(root, clone_root)
        archive = LogArchive(clone_root)
        service = AuditIngestService(archive)
        machine = fleet.machines[0]
        archive.truncate(machine, archive.head_checkpoint(machine).sequence // 2)
        wrong_state = {"bogus": True}
        # The bogus state must reach the replay VM (which rejects it) —
        # were target.initial_state() to silently win, the audit would PASS.
        with pytest.raises(ReproError):
            _prepared_auditor(fleet, service, machine).audit(
                service.target_for(machine), initial_state=wrong_state,
                streaming=False)


def test_full_segment_shim_is_gone(archived_fleet):
    """The deprecated materializing shim was removed; materialized_log is
    the one explicit-materialization entry point."""
    fleet, root = archived_fleet
    archive = LogArchive(root)
    machine = fleet.machines[0]
    assert not hasattr(archive, "full_segment")
    full = archive.materialized_log(machine)
    assert len(full.entries) == archive.entry_count(machine)


class TestTruncatedArchiveEquivalence:
    def test_streaming_audits_gc_truncated_archive(self, archived_fleet):
        fleet, root = archived_fleet
        with tempfile.TemporaryDirectory() as tmp:
            import shutil
            clone_root = tmp + "/archive"
            shutil.copytree(root, clone_root)
            archive = LogArchive(clone_root)
            service = AuditIngestService(archive)
            for machine in fleet.machines:
                head = archive.head_checkpoint(machine)
                archive.truncate(machine, head.sequence // 2)
                assert archive.retained_checkpoint(machine) is not None
                materialized = _prepared_auditor(fleet, service, machine) \
                    .audit(service.target_for(machine), streaming=False)
                report = stream_audit(
                    _prepared_auditor(fleet, service, machine),
                    service.target_for(machine))
                assert report.stats.fallback_reason is None
                assert report.result == materialized, \
                    f"truncated stream vs materializing diverged for {machine}"
                assert report.result.verdict is Verdict.PASS
                assert report.result.cost.snapshot_bytes_downloaded > 0


# ---------------------------------------------------------------------------
# Differential sweep over adversary scenarios
# ---------------------------------------------------------------------------

def _run_archived_scenario(adversary_name: str, workload: str, seed: int,
                           archive_dir: str):
    """Record one adversary cell with archive shipping attached."""
    matrix = ScenarioMatrix(duration=3.0, snapshot_interval=1.0)
    adversary = make_adversary(adversary_name, seed=seed)
    fleet_size = 2 if workload == "kv" else 3
    spec = CellSpec(adversary_name, workload, "archive", fleet_size, seed)
    ctx, run = matrix._build(spec, adversary, archive_dir)
    adversary.install(ctx)
    run()
    matrix._drain_archive(ctx)
    adversary.corrupt(ctx)
    return matrix, adversary, ctx


def _compare_cell(adversary_name: str, workload: str, seed: int) -> None:
    with tempfile.TemporaryDirectory(prefix="stream-diff-") as tmp:
        matrix, adversary, ctx = _run_archived_scenario(
            adversary_name, workload, seed, tmp)
        cell = f"{adversary_name} x {workload}"
        for machine in sorted(ctx.monitors):
            target = ctx.ingest.target_for(machine)

            def _prepared():
                auditor = matrix._make_auditor(ctx, machine, adversary)
                ctx.ingest.prepare_auditor(auditor, machine)
                return auditor

            try:
                materialized = _prepared().audit(target, streaming=False)
                materialized_error = None
            except ReproError as exc:
                materialized, materialized_error = None, exc
            try:
                streamed = stream_audit(_prepared(), target).result
                streamed_error = None
            except ReproError as exc:
                streamed, streamed_error = None, exc

            if materialized_error is not None or streamed_error is not None:
                assert type(streamed_error) is type(materialized_error), (
                    f"cell [{cell}] machine {machine}: error divergence — "
                    f"materializing raised {materialized_error!r}, "
                    f"streaming raised {streamed_error!r}")
                continue
            if streamed != materialized:
                pytest.fail(
                    f"cell [{cell}] machine {machine}: structural divergence\n"
                    f"  materializing: {materialized}\n"
                    f"  streaming:     {streamed}")


#: representative fast subset: one honest control, one in-log fault (replay
#: divergence ships into the archive), one shipping corruptor (quarantine →
#: partial/empty archive)
_FAST_CELLS = [("honest", "kv"), ("cheating-guest", "kv"),
               ("lying-shipper-segments", "kv")]


@pytest.mark.parametrize("adversary_name,workload", _FAST_CELLS)
def test_adversary_cell_differential_fast(adversary_name, workload):
    _compare_cell(adversary_name, workload, seed=5000)


@pytest.mark.slow
@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("adversary_name", adversary_names())
def test_adversary_matrix_differential(adversary_name, workload):
    """Every adversary class, both workloads: streaming == materializing."""
    _compare_cell(adversary_name, workload, seed=6000)


@pytest.mark.slow
def test_sixteen_machine_archived_fleet_differential(tmp_path):
    root = tmp_path / "archive"
    fleet = build_fleet(num_machines=16, duration=12.0, seed=11,
                        snapshot_interval=4.0, archive=LogArchive(root))
    service = _service(root)
    for machine in fleet.machines:
        in_memory = fleet.make_auditor(machine).audit(fleet.monitors[machine])
        report = stream_audit(_prepared_auditor(fleet, service, machine),
                              service.target_for(machine))
        assert report.stats.fallback_reason is None
        if report.result != in_memory:
            pytest.fail(f"16-machine fleet, machine {machine}: streaming vs "
                        f"in-memory divergence\n  in-memory: {in_memory}\n"
                        f"  streaming: {report.result}")
    # ...and the parallel engine agrees from the same archive.
    assignments = [AuditAssignment(_prepared_auditor(fleet, service, machine),
                                   service.target_for(machine))
                   for machine in fleet.machines]
    engine_report = AuditScheduler(workers=4).audit_fleet(assignments)
    assert engine_report.all_passed
