"""The benchmark's own tests: span arithmetic, probe hygiene, the gate.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

import json
from pathlib import Path

import pytest

from perfbench import probe
from perfbench.bench import END_TO_END, Run, per_layer_metrics
from perfbench.probe import (PHASE_AUDIT, PHASE_RECORD, Probe, fold,
                             leftover_wrappers)
from perfbench.workloads import (WORKLOADS, KvBulkWorkload, WebCheatWorkload,
                                 WebWorkload)
from repro.audit import stream
from repro.crypto.keys import KeyPair
from repro.log import hashchain
from repro.log.authenticator import batch_verify_authenticators
from repro.obs import Span, Tracer

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def _span(span_id, parent_id, name, start, end):
    return Span(name=name, domain="wall", start=start, end=end,
                span_id=span_id, parent_id=parent_id)


def test_self_time_subtracts_nested_spans_and_splits_by_enclosing_span():
    spans = [
        _span(1, 0, PHASE_RECORD, 0.0, 10.0),
        # authenticator_for (3 s) with a 2 s sign inside it
        _span(2, 1, "log.authenticator", 1.0, 4.0),
        _span(3, 2, "crypto.sign", 1.5, 3.5),
        # an envelope sign directly under the phase
        _span(4, 1, "crypto.sign", 5.0, 6.5),
        # append (2 s) holding a 0.5 s wire_size it does not own
        _span(5, 1, "log.append", 7.0, 9.0),
        _span(6, 5, "network.wire_size", 7.5, 8.0),
        # outside every phase: ignored
        _span(7, 0, "crypto.sign", 20.0, 21.0),
    ]
    (phase,) = fold(spans)
    layers = phase.layers
    assert layers["log.authenticator"].self_s == pytest.approx(1.0)
    assert layers["crypto.sign.authenticator"].self_s == pytest.approx(2.0)
    assert layers["crypto.sign.envelope"].self_s == pytest.approx(1.5)
    assert layers["log.append"].self_s == pytest.approx(1.5)
    assert layers["network.wire_size"].self_s == pytest.approx(0.5)
    assert layers["crypto.sign.authenticator"].calls == 1
    assert layers["crypto.sign.envelope"].calls == 1
    # 10 s phase, 3 + 1.5 + 2 s of top-level layer spans
    assert phase.unattributed_s == pytest.approx(3.5)
    # the trace carries the names the metrics use
    assert spans[2].name == "crypto.sign.authenticator"
    assert spans[3].name == "crypto.sign.envelope"


def test_phase_split_and_stream_calls():
    spans = [
        _span(1, 0, PHASE_AUDIT, 0.0, 4.0),
        _span(2, 1, "log.chain_verify", 0.0, 1.0),
        # three pulls from one stream: one call, three entries
        _span(3, 1, "store.read", 1.0, 1.5),
        _span(4, 1, "store.read", 2.0, 2.5),
        _span(5, 1, "store.read", 3.0, 3.25),
    ]
    spans[2].attributes.update(calls=1, entries_out=1, bytes=100)
    spans[3].attributes.update(calls=0, entries_out=1)
    spans[4].attributes.update(calls=0)
    (phase,) = fold(spans)
    assert phase.layers["log.chain_verify.audit"].calls == 1
    read = phase.layers["store.read"]
    assert read.calls == 1
    assert read.self_s == pytest.approx(1.25)
    assert read.counters == {"bytes": 100}


def test_probe_wraps_every_import_site_and_restores_the_originals():
    sign = KeyPair.__dict__["sign"]
    batch = batch_verify_authenticators
    chain = hashchain.extend_checkpoint_batch
    tracer = Tracer()
    with Probe(tracer):
        assert hasattr(KeyPair.sign, probe.WRAPPED_MARK)
        # ``from x import f`` sites are replaced too
        assert hasattr(stream.batch_verify_authenticators, probe.WRAPPED_MARK)
        assert hasattr(stream.extend_checkpoint_batch, probe.WRAPPED_MARK)
        assert hasattr(hashchain.extend_checkpoint_batch, probe.WRAPPED_MARK)
        assert leftover_wrappers()
    assert KeyPair.__dict__["sign"] is sign
    assert stream.batch_verify_authenticators is batch
    assert stream.extend_checkpoint_batch is chain
    assert hashchain.extend_checkpoint_batch is chain
    assert leftover_wrappers() == []


def test_probe_is_removed_when_the_traced_code_raises():
    with pytest.raises(RuntimeError):
        with Probe(Tracer()):
            raise RuntimeError("boom")
    assert leftover_wrappers() == []


def _small(name):
    return {"web": lambda: WebWorkload(requests=60, window_s=1.5),
            "kv-bulk": lambda: KvBulkWorkload(sim_seconds=1.5),
            "web-cheat": lambda: WebCheatWorkload(requests=60, window_s=1.5),
            }[name]()


@pytest.mark.parametrize("name", ["web", "kv-bulk", "web-cheat"])
def test_a_small_run_passes_the_correctness_gate(name, tmp_path):
    run = Run(_small(name), seed=3, seconds=0, trace=False, workdir=tmp_path)
    run.go()
    assert run.correct, run.problems
    assert run.failed == 0 and run.attempted > 0
    metrics = run.end_to_end()
    assert set(metrics) == {metric for metric, _, _ in END_TO_END}
    assert all(value > 0 for value in metrics.values()), metrics
    verdicts = {outcome.machine: (outcome.verdict, outcome.fallback)
                for outcome in run.audits}
    workload = run.workload
    if name == "web-cheat":
        assert verdicts[workload.server] == ("fail", True)
        assert run.audits[0].evidence_verified is True
    else:
        assert verdicts[workload.server] == ("pass", False)
    assert verdicts[workload.client] == ("pass", False)


@pytest.mark.parametrize("name", ["web", "web-cheat"])
def test_a_traced_run_is_observation_only_and_reports_every_layer(name, tmp_path):
    run = Run(_small(name), seed=4, seconds=0, trace=True, workdir=tmp_path)
    run.go()
    # same-seed repetitions, traced and untraced, matched exactly
    assert run.correct, run.problems
    assert run.iterations == 2
    assert leftover_wrappers() == []
    layers = run.layers()
    assert set(layers) >= set(per_layer_metrics())
    fallback = layers["audit.fallback.calls"]
    assert (fallback > 0) if name == "web-cheat" else (fallback == 0)
    assert layers["crypto.sign.authenticator.calls"] > 0
    assert layers["crypto.sign.envelope.calls"] > 0
    assert layers["sim.events"] == run.recording.events


def test_the_gate_catches_a_changed_answer(tmp_path):
    workload = _small("web")
    inputs = workload.setup(5)
    accountable = workload.record(inputs, True, tmp_path / "archive")
    bare = workload.record(inputs, False)
    assert workload.check_recordings(inputs, accountable, bare)[1] == 0
    request = sorted(bare.responses)[0]
    bare.responses[request] = "500"
    del bare.responses[sorted(bare.responses)[1]]
    attempted, failed, problems = workload.check_recordings(inputs, accountable, bare)
    assert (attempted, failed) == (60, 2)
    assert len(problems) == 2


def test_benchmark_json_matches_the_code():
    spec = json.loads(BENCHMARK.read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(END_TO_END)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == per_layer_metrics()
    assert [m["name"] for m in spec["per_layer"]] == list(per_layer_metrics())
    for workload in spec["workloads"]:
        assert WORKLOADS[workload["name"]].why == workload["why"]
