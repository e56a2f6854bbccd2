"""Per-layer tracing installed from the benchmark's own files.

:class:`LayerTracer` wraps the public functions of every layer of the
program where their callers look them up (a module attribute, a name a
caller bound with ``from ... import``, or a class attribute), so the
program itself is untouched.  Each call while recording keeps a span in
memory -- name, start, end, parent span, operation id, phase, bytes --
in a per-thread buffer.  :meth:`LayerTracer.summary` computes each
span's self time as its duration minus the child spans it covers, and
:meth:`LayerTracer.write` writes the spans out at the end of a run.

Layers (module names):

=============  =========================================================
crypto         repro.crypto.{esign,primes,stream,rsa,hashes}
seal           repro.fs.sealed plus repro.serialize
cache          repro.fs.cache plus repro.fs.mdcache
scheduler      repro.fs.scheduler
journal        repro.fs.journal
lease          repro.fs.lease
principals     repro.principals.groups
wire           repro.storage.wire (client round trip, server dispatch)
server         repro.storage.server (the in-process or backend SSP)
sim            repro.sim.costmodel
obs            repro.obs.tracing
fs.client      repro.fs.client: the residual of each public operation
=============  =========================================================
"""

from __future__ import annotations

import functools
import sys
import threading
from collections import defaultdict
from time import perf_counter_ns

from repro import serialize
from repro.caps import record
from repro.crypto import esign, hashes, primes, rsa, stream
from repro.fs import cache, journal, lease, mdcache, scheduler, sealed, volume
from repro.fs import client as fs_client
from repro.obs import tracing
from repro.principals import groups
from repro.sim import costmodel
from repro.storage import server, wire

#: recording phases a span can belong to (0 = not recording).
SETUP, WINDOW = 1, 2

# span record fields (one list per span, kept per thread)
_NAME, _PARENT, _OP, _PHASE, _START, _END, _BYTES = range(7)


def _nbytes_arg1(tracer, args, result) -> int:
    return len(args[1])


def _nbytes_roundtrip(tracer, args, result) -> int:
    return len(args[1]) + len(result)


def _note_key(tracer, args, result) -> int:
    """UserAgent.unwrap(principal): remember the (user, principal) key."""
    tracer.unwrapped_keys.add((args[0].user_id, args[1]))
    return 0


def _patch_points():
    """(metric name, layer, owner, attribute, observer, counted).

    ``owner`` is the object the caller looks the name up on; a name
    bound into several modules is patched in each.  ``observer(tracer,
    args, result)`` returns the bytes a call moved.  ``counted=False``
    adds self time to the name without counting calls (the enter/exit
    halves of a tracing span).
    """
    points = []

    def add(name, layer, owners, attr, observer=None, counted=True):
        for owner in owners:
            points.append((name, layer, owner, attr, observer, counted))

    # crypto: generate_keypair and random_prime are bound by name into
    # esign/rsa; everything else is reached as a module attribute.
    add("crypto.esign.generate_keypair", "crypto", [esign],
        "generate_keypair")
    add("crypto.primes.random_prime", "crypto", [primes, esign, rsa],
        "random_prime")
    add("crypto.primes.is_prime", "crypto", [primes], "is_prime")
    add("crypto.stream.seal", "crypto", [stream], "seal", _nbytes_arg1)
    add("crypto.stream.open_sealed", "crypto", [stream], "open_sealed",
        _nbytes_arg1)
    for fn in ("sign", "verify"):
        add(f"crypto.esign.{fn}", "crypto", [esign], fn)
    for fn in ("generate_keypair", "encrypt_blob", "decrypt_blob", "sign",
               "verify"):
        add(f"crypto.rsa.{fn}", "crypto", [rsa], fn)
    for fn in ("derive_key", "derive_row_key"):
        add(f"crypto.hashes.{fn}", "crypto", [hashes], fn)

    # seal: the sealed helpers are bound by name into every caller.
    callers = [sealed, fs_client, volume, journal, record]
    migrate = sys.modules.get("repro.migration.migrate")
    add("seal.seal_and_sign", "seal",
        callers + ([migrate] if migrate else []), "seal_and_sign")
    add("seal.open_verified", "seal", [sealed, fs_client, journal, record],
        "open_verified")
    for fn in ("put_bytes", "put_str", "put_int", "put_bool",
               "put_optional_bytes", "getvalue"):
        add("seal.serialize.writer", "seal", [serialize.Writer], fn)
    for fn in ("get_bytes", "get_str", "get_int", "get_bool",
               "get_optional_bytes", "expect_end"):
        add("seal.serialize.reader", "seal", [serialize.Reader], fn)

    for fn in ("get", "put", "invalidate", "invalidate_prefix", "clear"):
        add(f"cache.lru.{fn}", "cache", [cache.LruCache], fn)
    for fn in ("get_view", "put_view", "get_table", "put_table",
               "get_listing", "put_listing", "revalidate",
               "invalidate_inode", "clear"):
        add(f"cache.mdcache.{fn}", "cache",
            [mdcache.VerifiedMetadataCache], fn)

    for fn in ("staged_read", "staged_exists", "covers",
               "note_invalidation", "stage_put", "stage_put_many",
               "stage_delete", "stage_delete_many", "flush", "fetch_many"):
        add(f"scheduler.{fn}", "scheduler", [scheduler.RequestScheduler], fn)

    # the client calls journal.<fn> through the module.
    for fn in ("seal_journal", "open_journal", "encode_records",
               "decode_records", "fences_stale", "roll_forward"):
        add(f"journal.{fn}", "journal", [journal], fn)
    for fn in ("acquire", "renew_all", "release", "release_all", "forget",
               "forget_all"):
        add(f"lease.{fn}", "lease", [lease.LeaseManager], fn)

    add("principals.groups.unwrap", "principals", [groups.UserAgent],
        "unwrap", _note_key)
    for fn in ("install_group_key", "fetch_group_keys"):
        add(f"principals.groups.{fn}", "principals", [groups.UserAgent], fn)
    for fn in ("publish", "publish_all"):
        add(f"principals.groups.{fn}", "principals",
            [groups.GroupKeyService], fn)

    # wire: the client's round trip, and the server thread's dispatch
    # (the handler looks dispatch_message up in the wire module).
    add("wire.client", "wire", [wire.RemoteStorageClient], "_roundtrip",
        _nbytes_roundtrip)
    add("wire.dispatch_message", "wire", [wire], "dispatch_message")

    for fn in ("put", "get", "delete", "exists", "put_if", "put_fenced",
               "delete_fenced", "batch", "get_many", "put_many",
               "delete_many"):
        add(f"server.{fn}", "server", [server.StorageServer], fn)

    for fn in ("charge", "charge_request", "charge_flight", "charge_other",
               "charge_compute", "charge_wait", "on_crypto_event"):
        add(f"sim.costmodel.{fn}", "sim", [costmodel.CostModel], fn)

    add("obs.tracing.span", "obs", [tracing.Tracer], "span")
    for fn in ("__enter__", "__exit__"):
        add("obs.tracing.span", "obs", [tracing._SpanScope], fn,
            counted=False)
    for fn in ("on_charge", "_finish_root"):
        add(f"obs.tracing.{fn.strip('_')}", "obs", [tracing.Tracer], fn)

    for fn in ("mount", "unmount", "revalidate", "flush_staged", "getattr",
               "lstat", "readdir", "read_file", "open", "write_file",
               "append_file", "mknod", "mkdir", "create_file", "unlink",
               "rmdir", "rename"):
        add(f"fs.client.{fn}", "fs.client", [fs_client.SharoesFilesystem],
            fn)
    for fn in ("read", "write", "pwrite", "close"):
        add(f"fs.client.{fn}", "fs.client", [fs_client.OpenFile], fn)
    return points


class LayerTracer:
    """Installs the layer wrappers and keeps their spans in memory."""

    def __init__(self):
        self.phase = 0
        self.op_id = 0
        self.names: list[str] = []
        self.layers: list[str] = []
        self._name_index: dict[str, int] = {}
        #: distinct (user, principal) keys UserAgent.unwrap was asked for.
        self.unwrapped_keys: set[tuple[str, str]] = set()
        self._saved: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self._buffers: list[tuple[str, list]] = []
        self._lock = threading.Lock()

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        for name, layer, owner, attr, observer, counted in _patch_points():
            if name not in self._name_index:
                self._name_index[name] = len(self.names)
                self.names.append(name)
                self.layers.append(layer)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(
                original, self._name_index[name] if counted
                else ~self._name_index[name], observer,
                skip_remote=layer == "server"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _spans(self) -> list:
        buf = getattr(self._local, "spans", None)
        if buf is None:
            buf = self._local.spans = []
            self._local.stack = []
            with self._lock:
                self._buffers.append((threading.current_thread().name, buf))
        return buf

    def _wrap(self, fn, name_idx: int, observer, skip_remote: bool):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.phase or (skip_remote and isinstance(
                    args[0], wire.RemoteStorageClient)):
                return fn(*args, **kwargs)
            spans = tracer._spans()
            stack = tracer._local.stack
            span = [name_idx, stack[-1] if stack else -1, tracer.op_id,
                    tracer.phase, 0, 0, 0]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span[_START] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[_END] = perf_counter_ns()
                stack.pop()
            if observer is not None:
                span[_BYTES] = observer(tracer, args, result)
            return result

        return wrapper

    # -- results -------------------------------------------------------------

    def reset(self) -> None:
        """Drop recorded spans (the wrappers stay installed)."""
        self.unwrapped_keys.clear()
        with self._lock:
            for _, buf in self._buffers:
                buf.clear()

    def summary(self, phase: int) -> dict:
        """Per-name and per-layer totals of one phase.

        Returns ``{"calls": {name: n}, "self_s": {name: s}, "total_s":
        {name: s}, "bytes": {name: b}, "layer_self_s": {layer: s},
        "top_calls": {name: n}}``; ``top_calls`` counts spans with no
        parent of the same layer on their thread (a request entering
        the server, not the sub-ops of a batch); ``entered_from`` counts
        those by calling layer, as ``"server<-lease"``.
        """
        calls: dict[str, int] = defaultdict(int)
        top: dict[str, int] = defaultdict(int)
        entered_from: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        total_ns: dict[str, int] = defaultdict(int)
        nbytes: dict[str, int] = defaultdict(int)
        layer_ns: dict[str, int] = defaultdict(int)
        for _, spans in self._buffers:
            child_ns = [0] * len(spans)
            for span in spans:
                if span[_PARENT] >= 0:
                    child_ns[span[_PARENT]] += span[_END] - span[_START]
            for i, span in enumerate(spans):
                if span[_PHASE] != phase:
                    continue
                idx = span[_NAME]
                counted = idx >= 0
                idx = idx if counted else ~idx
                name, layer = self.names[idx], self.layers[idx]
                duration = span[_END] - span[_START]
                own = duration - child_ns[i]
                self_ns[name] += own
                layer_ns[layer] += own
                if not counted:
                    continue
                calls[name] += 1
                total_ns[name] += duration
                nbytes[name] += span[_BYTES]
                parent = span[_PARENT]
                caller = "" if parent < 0 else self.layers[
                    spans[parent][_NAME] if spans[parent][_NAME] >= 0
                    else ~spans[parent][_NAME]]
                if caller != layer:
                    top[name] += 1
                    entered_from[f"{layer}<-{caller}"] += 1
        return {"calls": dict(calls), "top_calls": dict(top),
                "entered_from": dict(entered_from),
                "self_s": {k: v / 1e9 for k, v in self_ns.items()},
                "total_s": {k: v / 1e9 for k, v in total_ns.items()},
                "bytes": dict(nbytes),
                "layer_self_s": {k: v / 1e9 for k, v in layer_ns.items()}}

    def write(self, path) -> int:
        """Write every recorded span as one tab-separated line.

        Columns: thread, span index, parent index (-1 for a root),
        name, phase, operation id, start ns, end ns, bytes.  Returns the
        number of spans written.
        """
        count = 0
        with open(path, "w", encoding="utf-8") as out:
            out.write("thread\tspan\tparent\tname\tphase\top\tstart_ns\t"
                      "end_ns\tbytes\n")
            for thread, spans in self._buffers:
                for i, s in enumerate(spans):
                    idx = s[_NAME] if s[_NAME] >= 0 else ~s[_NAME]
                    out.write(f"{thread}\t{i}\t{s[_PARENT]}\t"
                              f"{self.names[idx]}\t{s[_PHASE]}\t{s[_OP]}\t"
                              f"{s[_START]}\t{s[_END]}\t{s[_BYTES]}\n")
                    count += 1
        return count
