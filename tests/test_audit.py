"""Tests for auditing: syntactic checks, full audits, evidence, spot checks,
online audits and the multi-party protocol.

These are integration-level tests that reuse the session fixtures from
``conftest.py`` (a short honest game and a short game with a cheater).
"""

import pytest

from repro.audit.evidence import Evidence
from repro.audit.multiparty import (
    ChallengeCoordinator,
    collect_authenticators_for,
    distribute_evidence,
)
from repro.audit.spot_check import SpotChecker
from repro.audit.syntactic import SyntacticChecker
from repro.audit.verdict import AuditPhase, Verdict
from repro.errors import EvidenceError
from repro.game.cheats.external import LogTamperingAdversary, PacketForgingAdversary, boost_fire_commands
from repro.log.entries import EntryType, is_authenticated_recv


def _ping_echo_pair():
    """A started ping-sender/echo pair under avmm-rsa768; echo is observed."""
    from repro.avmm.config import AvmmConfig, Configuration
    from repro.avmm.monitor import AccountableVMM
    from repro.experiments.harness import build_trust
    from repro.network.simnet import SimulatedNetwork
    from repro.obs import Observability
    from repro.sim.scheduler import Scheduler
    from repro.workloads.echo import make_echo_image, make_ping_sender_image

    scheduler = Scheduler()
    network = SimulatedNetwork(scheduler)
    config = AvmmConfig.for_configuration(Configuration.AVMM_RSA768)
    _, keypairs, keystore = build_trust(["pinger", "echo"])
    obs = Observability.make(sim_time=scheduler.clock.read)
    pinger = AccountableVMM("pinger", make_ping_sender_image("echo"), config,
                            scheduler, network, keypair=keypairs["pinger"],
                            keystore=keystore)
    echo = AccountableVMM("echo", make_echo_image(), config, scheduler, network,
                          keypair=keypairs["echo"], keystore=keystore, obs=obs)
    pinger.start()
    echo.start()
    return scheduler, keystore, obs, pinger, echo


class TestSyntacticCheck:
    def test_honest_log_passes(self, honest_session):
        checker = SyntacticChecker(honest_session.keystore)
        report = checker.check(honest_session.monitors["server"].get_log_segment())
        assert report.ok, report.problems
        assert report.entries_checked > 100
        assert report.signatures_verified > 0

    @pytest.mark.parametrize("field,forge", [
        ("sender_signature", lambda value: "00" * 96),
        ("sender_previous_hash", lambda value: "11" * 32),
        ("sender_sequence", lambda value: value + 1),
        ("payload", lambda value: value + "00"),
    ], ids=["sender_signature", "sender_previous_hash", "sender_sequence",
            "payload"])
    def test_detects_forged_sender_signature(self, honest_session, field, forge):
        # Every field the authenticator recipe reads is covered by the
        # sender's signature.  Work on a *copy* of the segment so the shared
        # session stays pristine.
        from dataclasses import replace
        from repro.log.segments import LogSegment
        segment = honest_session.monitors["player1"].get_log_segment()
        entries = list(segment.entries)
        index = next(i for i, e in enumerate(entries)
                     if e.entry_type is EntryType.RECV)
        assert is_authenticated_recv(entries[index].content)
        tampered_content = dict(entries[index].content)
        tampered_content[field] = forge(tampered_content[field])
        entries[index] = replace(entries[index], content=tampered_content)
        tampered = LogSegment(machine=segment.machine, entries=entries,
                              start_hash=segment.start_hash)
        report = SyntacticChecker(honest_session.keystore).check(tampered)
        assert not report.ok
        sequence = entries[index].sequence
        assert any(problem.startswith(f"entry {sequence}:") and "signature" in problem
                   for problem in report.problems), report.problems

    def test_authenticator_for_another_payload_is_counted_and_fails_audit(self):
        from repro.audit.auditor import Auditor
        from repro.network.message import MessageKind
        from repro.workloads.echo import make_echo_image

        scheduler, keystore, obs, pinger, echo = _ping_echo_pair()
        # The pinger's SEND entry and authenticator cover the payload its
        # guest produced; the message then leaves with a different payload.
        transmit = pinger._transmit

        def swap_payload(message, expect_ack, extra_delay=0.0):
            if message.kind is MessageKind.DATA:
                message.payload = b"forged:" + message.payload
            transmit(message, expect_ack, extra_delay)

        pinger._transmit = swap_payload
        pinger.inject_local_input("ping")
        scheduler.run_until(2.0)

        assert obs.metrics.value("monitor.authenticators_rejected.binding") == 1
        assert obs.metrics.value("monitor.authenticators_rejected.signature") == 0
        recv = next(e for e in echo.log if e.entry_type is EntryType.RECV)
        assert recv.content["payload"] == b"forged:icmp-echo-request:1".hex()
        result = Auditor("auditor", keystore, make_echo_image()).audit(echo)
        assert result.verdict is Verdict.FAIL
        assert result.phase is AuditPhase.SYNTACTIC_CHECK
        assert f"entry {recv.sequence}:" in result.reason

    def test_one_signature_per_message_and_ack(self):
        scheduler, _, obs, pinger, echo = _ping_echo_pair()
        signed = []
        for monitor in (pinger, echo):
            keypair = monitor.log.keypair
            sign = keypair.sign
            keypair.sign = lambda message, sign=sign: signed.append(1) or sign(message)
        for _ in range(3):
            pinger.inject_local_input("ping")
        scheduler.run_until(2.0)
        stats = [monitor.stats for monitor in (pinger, echo)]
        sent = sum(s.messages_sent + s.acks_sent for s in stats)
        assert sent == 12  # 3 pings + 3 echoes, each acknowledged
        assert sum(s.signatures_generated for s in stats) == len(signed) == sent
        assert sum(obs.metrics.value(f"monitor.authenticators_rejected.{reason}")
                   for reason in ("malformed", "binding", "signature")) == 0

    def test_detects_missing_recv_for_injected_packet(self, honest_session):
        from repro.log.segments import LogSegment
        segment = honest_session.monitors["player2"].get_log_segment()
        # Drop a RECV entry: the corresponding MAC-layer injection is orphaned.
        index = next(i for i, e in enumerate(segment.entries)
                     if e.entry_type is EntryType.RECV)
        entries = segment.entries[:index] + segment.entries[index + 1:]
        tampered = LogSegment(machine=segment.machine, entries=entries,
                              start_hash=segment.start_hash)
        report = SyntacticChecker(honest_session.keystore).check(tampered)
        assert not report.ok


class TestFullAudit:
    def test_honest_players_pass(self, honest_session):
        results = honest_session.audit_all()
        for player, result in results.items():
            assert result.verdict is Verdict.PASS, result.summary()
            assert result.authenticators_checked > 0
            assert result.cost.compressed_log_bytes > 0
            assert result.cost.semantic_seconds > 0

    def test_server_audit_passes(self, honest_session):
        result = honest_session.audit("server")
        assert result.verdict is Verdict.PASS

    def test_cheater_fails_replay(self, cheater_session):
        results = cheater_session.audit_all()
        assert results["player1"].verdict is Verdict.FAIL
        assert results["player1"].phase is AuditPhase.SEMANTIC_CHECK
        assert results["player1"].evidence is not None
        assert results["player2"].verdict is Verdict.PASS

    def test_evidence_verified_by_third_party(self, cheater_session):
        result = cheater_session.audit("player1")
        evidence = result.evidence
        # A third party (the server operator) verifies with its own keystore
        # and its own copy of the reference image.
        confirmed = evidence.verify(cheater_session.keystore,
                                    cheater_session.reference_images["player1"])
        assert confirmed

    def test_evidence_about_honest_player_rejected(self, honest_session):
        # Fabricated evidence that merely *claims* a fault does not verify:
        # the log replays cleanly against the reference image.
        target = "player1"
        auditor = honest_session.make_auditor("player2", target)
        segment = honest_session.monitors[target].get_log_segment()
        fabricated = Evidence(
            machine=target, accuser="player2", reason="made up",
            segment=segment,
            authenticators=auditor.authenticators_for(target),
            reference_image_hash=honest_session.reference_images[target].image_hash())
        assert not fabricated.verify(honest_session.keystore,
                                     honest_session.reference_images[target])

    def test_evidence_with_wrong_image_rejected(self, cheater_session):
        result = cheater_session.audit("player1")
        with pytest.raises(EvidenceError):
            result.evidence.verify(cheater_session.keystore,
                                   cheater_session.reference_images["player2"])

    @pytest.mark.slow
    def test_log_tampering_caught_by_authenticator_check(self):
        # A dedicated (mutable) session: Bob rewrites his own log after the fact.
        from repro.avmm.config import Configuration
        from repro.experiments.harness import GameSession, GameSessionSettings
        session = GameSession(GameSessionSettings(
            configuration=Configuration.AVMM_RSA768, num_players=2,
            duration=4.0, seed=31, snapshot_interval=None))
        session.run()
        target = "player1"
        monitor = session.monitors[target]
        adversary = LogTamperingAdversary(monitor)
        victim_entry = monitor.log.entries_of_type(EntryType.SEND)[0]
        adversary.rewrite_entry(victim_entry.sequence,
                                {**victim_entry.content, "payload_size": 9999},
                                recompute_chain=True)
        result = session.audit(target)
        assert result.verdict is Verdict.FAIL
        assert result.phase is AuditPhase.AUTHENTICATOR_CHECK
        assert result.evidence.verify(session.keystore,
                                      session.reference_images[target])

    def test_suspect_unresponsive_machine(self, honest_session):
        auditor = honest_session.make_auditor("player1", "player2")
        result = auditor.suspect("player2")
        assert result.verdict is Verdict.SUSPECTED
        assert result.evidence.unanswered_challenge
        assert result.evidence.verify(honest_session.keystore,
                                      honest_session.reference_images["player2"])


class TestSpotChecking:
    def test_chunk_audits_pass_for_honest_machine(self, honest_session):
        target = "server"
        auditor = honest_session.make_auditor("player1", target)
        checker = SpotChecker(auditor)
        segments = honest_session.monitors[target].get_snapshot_segments()
        assert len(segments) >= 2
        result = checker.check_chunk(honest_session.monitors[target], 1, 1,
                                     segments=segments)
        assert result.ok
        assert result.snapshot_bytes > 0  # memory + disk snapshot transferred

    def test_chunk_starting_at_log_beginning_needs_no_snapshot(self, honest_session):
        target = "server"
        checker = SpotChecker(honest_session.make_auditor("player1", target))
        result = checker.check_chunk(honest_session.monitors[target], 0, 1)
        assert result.ok
        assert result.snapshot_bytes == 0

    def test_bigger_chunks_cost_more(self, honest_session):
        target = "server"
        checker = SpotChecker(honest_session.make_auditor("player1", target))
        segments = honest_session.monitors[target].get_snapshot_segments()
        small = checker.check_chunk(honest_session.monitors[target], 0, 1,
                                    segments=segments)
        large = checker.check_chunk(honest_session.monitors[target], 0, len(segments),
                                    segments=segments)
        assert large.log_bytes > small.log_bytes
        assert large.replay_seconds >= small.replay_seconds

    def test_out_of_range_chunk_rejected(self, honest_session):
        target = "server"
        checker = SpotChecker(honest_session.make_auditor("player1", target))
        from repro.errors import SegmentError
        with pytest.raises(SegmentError):
            checker.check_chunk(honest_session.monitors[target], 0, 999)


class TestMultiParty:
    def test_collect_authenticators_from_peers(self, honest_session):
        holders = [honest_session.monitors[i] for i in honest_session.identities
                   if i != "player1"]
        collected = collect_authenticators_for("player1", holders)
        assert collected
        assert all(auth.machine == "player1" for auth in collected)

    def test_challenge_blocks_until_answered(self):
        coordinator = ChallengeCoordinator()
        challenge = coordinator.issue("alice", "bob", "produce log segment 1..100")
        assert coordinator.is_blocked("bob")
        assert not coordinator.is_blocked("charlie")
        answered = coordinator.respond("bob", "here is the segment")
        assert challenge in answered
        assert not coordinator.is_blocked("bob")
        assert challenge.response == "here is the segment"

    def test_evidence_distribution(self, cheater_session):
        result = cheater_session.audit("player1")
        verifiers = [("player2", cheater_session.keystore),
                     ("server", cheater_session.keystore)]
        verdicts = distribute_evidence(result.evidence, verifiers,
                                       cheater_session.reference_images["player1"])
        assert verdicts == {"player2": True, "server": True}


class TestExternalAdversaries:
    @pytest.mark.slow
    def test_packet_forging_detected_even_without_image_modification(self):
        # Class-2 detection: the guest image is the reference image, but the
        # machine's outgoing packets are rewritten outside the AVM.
        from repro.avmm.config import Configuration
        from repro.experiments.harness import GameSession, GameSessionSettings
        settings = GameSessionSettings(configuration=Configuration.AVMM_RSA768,
                                       num_players=2, duration=5.0, seed=21,
                                       snapshot_interval=None)
        session = GameSession(settings)
        adversary = PacketForgingAdversary(session.monitors["player1"],
                                           boost_fire_commands)
        session.run()
        assert adversary.packets_forged > 0
        result = session.audit("player1")
        assert result.verdict is Verdict.FAIL
        assert session.audit("player2").verdict is Verdict.PASS
