"""Differential harness: wire tracing is zero-cost, on or off.

Reuses the pinned-entropy ``differential_run`` fixture (conftest.py):
the same seeded workload runs with ``ClientConfig(wire_trace=True)`` and
``wire_trace=False``, and the two runs must be indistinguishable to
everything except the observer:

* byte-identical final SSP state, identical visible filesystem tree;
* identical request counts and identical simulated wall seconds --
  server spans live on a synthetic timeline, so tracing must never
  perturb the measurement it attributes (the property that lets CI diff
  a traced BENCH_6 against the untraced BENCH_5 baseline);
* with tracing *disabled*, the frames a remote client emits are
  byte-identical to the pre-trace wire protocol -- no flag bit, no
  16-byte context block, no extra bytes anywhere.
"""

from __future__ import annotations

import threading

import pytest

from repro.storage.blobs import data_blob, meta_blob
from repro.storage.server import BatchOp, StorageServer
from repro.storage.wire import (TRACE_FLAG, RemoteStorageClient, SspServer)


@pytest.fixture
def traced_run(differential_run):
    """The differential run plus traffic accounting and span count."""

    def run(workload: str, wire_trace: bool):
        env, snap = differential_run(workload,
                                     force={"wire_trace": wire_trace})
        fs = env.fs
        return dict(snap, wall=env.cost.totals.total,
                    bytes_received=env.server.stats.bytes_received,
                    bytes_served=env.server.stats.bytes_served,
                    traced_spans=(len(fs.traced_server.spans)
                                  if fs.traced_server is not None else 0))

    return run


@pytest.mark.parametrize("workload", ("createlist", "sharing"))
def test_wire_trace_differential(traced_run, workload):
    traced = traced_run(workload, wire_trace=True)
    plain = traced_run(workload, wire_trace=False)

    # Byte-identical final SSP state and visible semantics.
    assert traced["blobs"] == plain["blobs"]
    assert traced["tree"] == plain["tree"]

    # Zero measurement cost: same requests, same simulated seconds,
    # same server-side traffic accounting.
    assert traced["requests"] == plain["requests"]
    assert traced["wall"] == plain["wall"]
    assert traced["bytes_received"] == plain["bytes_received"]
    assert traced["bytes_served"] == plain["bytes_served"]

    # ...while the traced run actually observed the wire.
    assert traced["traced_spans"] > 0
    assert plain["traced_spans"] == 0


def _frame_script(client: RemoteStorageClient) -> None:
    """A fixed op sequence covering every request builder."""
    client.put(meta_blob(1, "o"), b"metadata bytes")
    client.get(meta_blob(1, "o"))
    client.exists(meta_blob(2, "o"))
    client.put_if(data_blob(1, "b0"), b"block zero", None)
    client.batch([BatchOp("put", data_blob(1, "b1"), payload=b"block one"),
                  BatchOp("get", data_blob(1, "b0"))])
    client.delete(meta_blob(1, "o"))


def _recorded_frames(monkeypatch, trace_context_fn) -> list[bytes]:
    """Run the script over TCP, recording the client's raw frames."""
    from repro.storage import wire

    recorded: list[bytes] = []
    real_send = wire._send_message
    client_thread = threading.get_ident()

    def spy(sock, payload):
        if threading.get_ident() == client_thread:
            recorded.append(bytes(payload))
        return real_send(sock, payload)

    monkeypatch.setattr(wire, "_send_message", spy)
    with SspServer(StorageServer()) as ssp:
        client = RemoteStorageClient(
            *ssp.address, trace_context_fn=trace_context_fn)
        _frame_script(client)
        client.close()
    monkeypatch.setattr(wire, "_send_message", real_send)
    return recorded


def test_disabled_trace_frames_byte_identical(monkeypatch):
    """trace_context_fn returning None must produce the exact bytes of a
    client with no tracing plumbed at all (the pre-trace protocol)."""
    baseline = _recorded_frames(monkeypatch, trace_context_fn=None)
    disabled = _recorded_frames(monkeypatch,
                                trace_context_fn=lambda: None)
    assert baseline == disabled
    assert len(baseline) == 6
    for frame in baseline:
        assert not frame[0] & TRACE_FLAG


def test_enabled_trace_frames_only_add_the_context_block(monkeypatch):
    from repro.obs.wiretrace import TraceContext
    from repro.storage.wire import encode_trace_context

    ctx = TraceContext(trace_id=3, parent_span_id=12)
    baseline = _recorded_frames(monkeypatch, trace_context_fn=None)
    traced = _recorded_frames(monkeypatch,
                              trace_context_fn=lambda: ctx)
    block = encode_trace_context(ctx)
    assert len(traced) == len(baseline)
    for plain, flagged in zip(baseline, traced):
        assert flagged[0] == plain[0] | TRACE_FLAG
        assert flagged[1:] == block + plain[1:]
