"""Tests for the fleet audit scheduler and its crypto/log substrate.

Covers the acceptance points of the one audit pipeline: batch signature
verification pinpoints a single bad signature; a chunked audit of a tampered
log yields the same evidence as the serial path; every worker count and
executor produces a result equal to the serial audit; the replay merge
covers every counter; and the incremental hash-chain / chunk-partitioning
primitives behave.
"""

import dataclasses
import pickle

import pytest

from repro.audit.auditor import Auditor
from repro.audit.engine import AuditAssignment, AuditScheduler
from repro.audit.spot_check import SpotChecker
from repro.audit.stream import (
    ChunkJobBuilder,
    iter_stream_chunks,
    run_chunk,
    scheme_verify_seconds,
)
from repro.avmm.replayer import (
    ABSOLUTE_COUNTERS,
    SUMMED_COUNTERS,
    ReplayReport,
    merge_replay_reports,
)
from repro.audit.verdict import AuditPhase, Verdict
from repro.crypto.signatures import BatchVerifyResult
from repro.errors import HashChainError, SignatureError
from repro.obs import Observability
from repro.log.authenticator import batch_verify_authenticators
from repro.log.hashchain import ChainCheckpoint, verify_chain_incremental
from repro.log.segments import concatenate_segments, partition_segments


# ---------------------------------------------------------------------------
# Batch signature verification
# ---------------------------------------------------------------------------

class TestBatchVerify:
    def _signed_items(self, ca, identity="alice", count=12):
        keypair = ca.issue(identity)
        messages = [f"packet-{index}".encode("utf-8") for index in range(count)]
        return messages, [(message, keypair.sign(message)) for message in messages]

    def test_all_valid_batch_costs_one_screen(self, ca, keystore):
        _, items = self._signed_items(ca)
        result = keystore.verify_many("alice", items)
        assert result.ok
        assert result.screen_operations == 1
        assert result.single_verifications == 0

    def test_single_bad_signature_is_pinpointed(self, ca, keystore):
        messages, items = self._signed_items(ca)
        items[7] = (messages[7], items[6][1])  # signature for the wrong message
        result = keystore.verify_many("alice", items)
        assert result.invalid_indices == (7,)
        # Bisection isolates the culprit without verifying everything singly.
        assert result.single_verifications < len(items)

    def test_multiple_bad_signatures_all_found(self, ca, keystore):
        messages, items = self._signed_items(ca, count=16)
        items[0] = (messages[0], items[1][1])
        items[9] = (messages[9], b"\x07" * len(items[9][1]))
        items[15] = (messages[15], items[14][1])
        result = keystore.verify_many("alice", items)
        assert result.invalid_indices == (0, 9, 15)

    def test_structurally_broken_signature_skips_the_screen(self, ca, keystore):
        messages, items = self._signed_items(ca, count=5)
        items[2] = (messages[2], b"short")
        result = keystore.verify_many("alice", items)
        assert result.invalid_indices == (2,)
        assert result.screen_operations == 1  # the other four in one screen

    def test_unknown_identity_rejects_everything(self, ca, keystore):
        _, items = self._signed_items(ca)
        result = keystore.verify_many("nobody", items)
        assert not result.ok
        assert result.invalid_indices == tuple(range(len(items)))

    def test_static_view_matches_keystore(self, ca, keystore):
        messages, items = self._signed_items(ca)
        items[3] = (messages[3], items[2][1])
        view = keystore.static_view()
        assert view.verify_many("alice", items).invalid_indices == \
            keystore.verify_many("alice", items).invalid_indices

    def test_empty_batch(self, keystore):
        result = keystore.verify_many("alice", [])
        assert result == BatchVerifyResult(total=0)


class TestBatchVerifyAuthenticators:
    def test_bad_authenticator_is_pinpointed(self, honest_session):
        machine = "player1"
        auditor = honest_session.make_auditor("player2", machine)
        auths = auditor.authenticators_for(machine)
        assert len(auths) > 4
        from dataclasses import replace
        forged = replace(auths[2], signature=auths[3].signature)
        batch = auths[:2] + [forged] + auths[3:]
        valid, invalid, stats = batch_verify_authenticators(
            batch, honest_session.keystore)
        assert invalid == [2]
        assert len(valid) == len(batch) - 1
        assert stats.total == len(batch)

    def test_inconsistent_chain_hash_fails_without_signature_check(self, honest_session):
        machine = "player1"
        auditor = honest_session.make_auditor("player2", machine)
        auths = auditor.authenticators_for(machine)
        from dataclasses import replace
        broken = replace(auths[0], chain_hash=b"\x00" * 32)
        valid, invalid, stats = batch_verify_authenticators(
            [broken] + auths[1:], honest_session.keystore)
        assert invalid == [0]
        assert stats.total == len(auths) - 1  # the broken one never reaches the screen


# ---------------------------------------------------------------------------
# Incremental hash chain + chunk partitioning
# ---------------------------------------------------------------------------

class TestIncrementalChain:
    def test_chunks_tile_into_a_full_proof(self, honest_session):
        segment = honest_session.monitors["server"].get_log_segment()
        segments = honest_session.monitors["server"].get_snapshot_segments()
        chunks = partition_segments(segments, 3)
        assert 1 < len(chunks) <= 3
        assert concatenate_segments(chunks).to_dict() == segment.to_dict()
        checkpoint = ChainCheckpoint.genesis()
        for chunk in chunks:
            assert chunk.start_checkpoint() == checkpoint
            checkpoint = verify_chain_incremental(chunk.entries, checkpoint)
        assert checkpoint == segment.end_checkpoint()

    def test_wrong_checkpoint_is_rejected(self, honest_session):
        segments = honest_session.monitors["server"].get_snapshot_segments()
        chunk = segments[1]
        with pytest.raises(HashChainError):
            verify_chain_incremental(chunk.entries, ChainCheckpoint.genesis())

    def test_checkpoint_from_authenticator_resumes_verification(self, honest_session):
        machine = "player1"
        monitor = honest_session.monitors[machine]
        auditor = honest_session.make_auditor("player2", machine)
        auth = sorted(auditor.authenticators_for(machine),
                      key=lambda a: a.sequence)[0]
        suffix = monitor.log.segment(auth.sequence + 1, len(monitor.log))
        end = verify_chain_incremental(
            suffix.entries, ChainCheckpoint.from_authenticator(auth))
        assert end.sequence == len(monitor.log)


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

def _serial(session, machine):
    auditor = "player2" if machine != "player2" else "player1"
    return session.make_auditor(auditor, machine).audit(
        session.monitors[machine], streaming=False)


class TestAuditScheduler:
    def test_workers_1_and_4_produce_identical_verdicts(self, honest_session):
        for machine in honest_session.player_ids + ["server"]:
            serial = _serial(honest_session, machine)
            assert serial.verdict is Verdict.PASS
            for workers in (1, 4):
                result = AuditScheduler(workers=workers).audit_machine(
                    honest_session.make_auditor("player2" if machine != "player2"
                                                else "player1", machine),
                    honest_session.monitors[machine])
                assert result == serial, f"{machine} at {workers} workers"

    def test_cheater_chunked_audit_matches_serial_evidence(self, cheater_session):
        machine = "player1"
        serial = cheater_session.audit(machine)
        parallel = AuditScheduler(workers=4).audit_machine(
            cheater_session.make_auditor("server", machine),
            cheater_session.monitors[machine])
        assert parallel.verdict is serial.verdict is Verdict.FAIL
        assert parallel.phase is serial.phase
        assert parallel.reason == serial.reason
        assert parallel.evidence.reason == serial.evidence.reason
        assert parallel.evidence.segment.to_dict() == serial.evidence.segment.to_dict()
        assert parallel.evidence.verify(
            cheater_session.keystore,
            cheater_session.reference_images[machine])

    def test_tampered_log_chunked_audit_matches_serial_evidence(self):
        from repro.avmm.config import Configuration
        from repro.experiments.harness import GameSession, GameSessionSettings
        from repro.game.cheats.external import LogTamperingAdversary
        from repro.log.entries import EntryType
        session = GameSession(GameSessionSettings(
            configuration=Configuration.AVMM_RSA768, num_players=2,
            duration=4.0, seed=37, snapshot_interval=2.0))
        session.run()
        machine = "player1"
        monitor = session.monitors[machine]
        # Tamper with an entry that is still covered by an issued
        # authenticator (the uncovered tail of the log is the paper's known
        # detection window), and late enough to land in a later chunk.
        covered = max(auth.sequence for auth in
                      session.make_auditor("server", machine)
                      .authenticators_for(machine))
        victim = [entry for entry in monitor.log.entries_of_type(EntryType.SEND)
                  if entry.sequence <= covered][-1]
        LogTamperingAdversary(monitor).rewrite_entry(
            victim.sequence, {**victim.content, "payload_size": 4242},
            recompute_chain=True)
        serial = session.audit(machine)
        parallel = AuditScheduler(workers=4).audit_machine(
            session.make_auditor("server", machine), monitor)
        assert parallel.verdict is serial.verdict is Verdict.FAIL
        assert parallel.phase is serial.phase is AuditPhase.AUTHENTICATOR_CHECK
        assert parallel.reason == serial.reason
        assert parallel.evidence.segment.to_dict() == serial.evidence.segment.to_dict()
        assert parallel.evidence.verify(session.keystore,
                                        session.reference_images[machine])

    def test_fleet_report_accounting(self, honest_session):
        engine = AuditScheduler(workers=2)
        assignments = [
            AuditAssignment(honest_session.make_auditor("server", machine),
                            honest_session.monitors[machine])
            for machine in honest_session.player_ids]
        report = engine.audit_fleet(assignments)
        assert report.all_passed
        assert set(report.results) == set(honest_session.player_ids)
        assert report.chunk_count >= len(honest_session.player_ids)
        assert report.modelled.serial_seconds > 0
        assert report.modelled.makespan_seconds <= report.modelled.serial_seconds
        assert report.total_cost.signatures_verified > 0
        # batching: far fewer screening operations than signatures checked
        assert report.total_cost.signature_screen_operations \
            < report.total_cost.signatures_verified
        for machine_report in report.machine_reports.values():
            assert machine_report.stats.fallback_reason is None
        # The schedule's work items are the per-chunk kernel costs.
        assert report.modelled.serial_seconds == pytest.approx(
            report.total_cost.total_seconds)

    def test_executor_modes_agree(self, honest_session):
        machine = "player1"
        serial = _serial(honest_session, machine)
        for executor in ("inline", "thread", "process"):
            engine = AuditScheduler(workers=2, executor=executor)
            result = engine.audit_machine(
                honest_session.make_auditor("player2", machine),
                honest_session.monitors[machine])
            assert result == serial, executor

    def test_workers_default_to_processes(self):
        assert AuditScheduler(workers=2).executor == "process"
        assert AuditScheduler(workers=1).executor == "inline"
        assert AuditScheduler(workers=2, executor="thread").executor == "thread"

    def test_auditor_workers_parameter_uses_the_pool(self, honest_session):
        machine = "player1"
        auditor = Auditor("player2", honest_session.keystore,
                          honest_session.reference_images[machine], workers=4)
        for peer_identity, peer in honest_session.monitors.items():
            if peer_identity != machine:
                auditor.collect_from_peer(peer, machine)
        result = auditor.audit(honest_session.monitors[machine])
        assert result == _serial(honest_session, machine)

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            AuditScheduler(workers=0)
        with pytest.raises(ValueError):
            AuditScheduler(executor="gpu")

    def test_duplicate_fleet_targets_rejected(self, honest_session):
        machine = "player1"
        assignments = [
            AuditAssignment(honest_session.make_auditor("player2", machine),
                            honest_session.monitors[machine]),
            AuditAssignment(honest_session.make_auditor("server", machine),
                            honest_session.monitors[machine]),
        ]
        with pytest.raises(ValueError, match="duplicate"):
            AuditScheduler(workers=2).audit_fleet(assignments)

    def test_corrupt_stored_snapshot_falls_back_to_serial(self):
        # A target whose *stored* snapshot does not verify cannot be chunked,
        # but the serial audit replays from the start and does not need it —
        # the engine must produce the same verdict as workers=1, not crash.
        from repro.avmm.config import Configuration
        from repro.experiments.harness import GameSession, GameSessionSettings
        session = GameSession(GameSessionSettings(
            configuration=Configuration.AVMM_RSA768, num_players=2,
            duration=4.0, seed=41, snapshot_interval=2.0))
        session.run()
        machine = "player1"
        monitor = session.monitors[machine]
        snapshot = monitor.snapshots.get(1)
        snapshot.state_root = b"\x00" * 32
        serial = session.audit(machine)
        engine = AuditScheduler(workers=4)
        parallel = engine.audit_machine(
            session.make_auditor("server", machine), monitor)
        assert parallel.verdict is serial.verdict
        assert parallel.phase is serial.phase


class TestParallelSpotChecker:
    def test_parallel_spot_check_matches_serial(self, honest_session):
        machine = "server"
        serial_checker = SpotChecker(honest_session.make_auditor("player1", machine))
        pooled_auditor = honest_session.make_auditor("player1", machine)
        pooled_auditor.workers = 4
        parallel_checker = SpotChecker(pooled_auditor)
        serial_results = serial_checker.check_all_chunks(
            honest_session.monitors[machine], k=1)
        parallel_results = parallel_checker.check_all_chunks(
            honest_session.monitors[machine], k=1)
        assert len(serial_results) == len(parallel_results) >= 1
        for serial_result, parallel_result in zip(serial_results, parallel_results):
            assert serial_result.ok
            assert parallel_result == serial_result


class TestChunkJobPickling:
    def test_jobs_for_game_sessions_pickle(self, honest_session):
        machine = "player1"
        monitor = honest_session.monitors[machine]
        builder = ChunkJobBuilder(honest_session.make_auditor("server", machine),
                                  machine, portable=True)
        chunks = list(iter_stream_chunks(monitor, max_chunks=4))
        assert len(chunks) > 1
        job = builder.job(0, chunks[0].segment, chunks[0].start_checkpoint)
        outcome = run_chunk(pickle.loads(pickle.dumps(job)))
        assert outcome.ok, outcome.reason
        # ...and a process pool runs every chunk of every machine.
        report = AuditScheduler(workers=2, executor="process").audit_fleet([
            AuditAssignment(honest_session.make_auditor("server", name),
                            honest_session.monitors[name])
            for name in honest_session.player_ids])
        assert report.executor_used == "process"
        assert report.chunk_count > len(honest_session.player_ids)
        for name, machine_report in report.machine_reports.items():
            assert machine_report.stats.fallback_reason is None, name

    def test_a_job_that_does_not_pickle_raises(self, honest_session):
        machine = "player1"
        monitor = honest_session.monitors[machine]
        builder = ChunkJobBuilder(honest_session.make_auditor("server", machine),
                                  machine, portable=True)
        chunk = next(iter_stream_chunks(monitor))
        job = builder.job(0, chunk.segment, chunk.start_checkpoint,
                          initial_state={"unpicklable": lambda: None})
        with pytest.raises(Exception, match="pickle"):
            AuditScheduler(workers=2, executor="process").run_jobs([job, job])


class TestReplayMerge:
    def test_every_counter_is_summed_or_absolute(self):
        counters = {f.name for f in dataclasses.fields(ReplayReport)} \
            - {"machine", "active_seconds", "divergence"}
        assert counters == set(SUMMED_COUNTERS) | set(ABSOLUTE_COUNTERS)
        assert not set(SUMMED_COUNTERS) & set(ABSOLUTE_COUNTERS)

    def test_merge_sums_work_and_keeps_the_last_absolute_count(self):
        first = ReplayReport(machine="m", entries_replayed=3,
                             upstream_calls_served=2, instructions_executed=50)
        second = ReplayReport(machine="m", entries_replayed=4,
                              upstream_calls_served=1, instructions_executed=90)
        merged = merge_replay_reports("m", [first, second], active_seconds=5.0)
        assert merged == ReplayReport(machine="m", entries_replayed=7,
                                      upstream_calls_served=3,
                                      instructions_executed=90,
                                      active_seconds=5.0)


class TestSchemeVerifySeconds:
    def test_unregistered_key_costs_nothing_and_is_counted(self, keystore):
        obs = Observability.make()
        assert scheme_verify_seconds(keystore, "nobody", obs) == 0.0
        assert obs.metrics.value("audit.scheme_cost_unknown") == 1

    def test_other_errors_propagate(self):
        class UnknownScheme:
            scheme_name = "no-such-scheme"

        class Keys:
            def verify_key_for(self, identity):
                return UnknownScheme()

        with pytest.raises(SignatureError):
            scheme_verify_seconds(Keys(), "alice")
