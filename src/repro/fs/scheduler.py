"""The client's blob-I/O layer: every sealed blob crosses the wire here.

:class:`RequestScheduler` sits below the client's crypto layer and sees
sealed blobs only, so it decides *when* bytes cross the wire, never
*which* bytes.  It owns:

* **one overlay** (``blob_id -> payload | None``) answering reads of
  blobs whose newest state has not reached the SSP yet -- a journaled
  mutation's deferred calls, or the write-behind queue (the two never
  coexist: the journal disables write-behind);
* **one invalidation generation**: a fetch flight that observes a bump
  mid-flight drops what it carried instead of serving it;
* **one write path** (:meth:`submit`) and **one speculative-read entry
  point** (:meth:`prefetch`), which pick the frame shape the paper's
  cost tables price: a lone op is one RPC, a group one ``OP_BATCH``
  frame, ``batching=False`` one round trip per blob, and staged or
  flight traffic waves of ``window`` pipelined requests charged via
  :meth:`~repro.sim.costmodel.CostModel.charge_flight`;
* **all wire-request counting and cost charging** for blob I/O.  The
  existence probe (:meth:`exists`) is the one request it neither counts
  nor charges, as it never has.

The window K is the ``ClientConfig`` ``concurrency`` when that is >= 2,
else 1 (the paper's sequential client).  With K >= 2 independent
mutations (plain puts and deletes; never fenced, journal or lease
traffic) queue up to K sub-ops and ship together as one wave, and the
multi-block read tail ships as a fetch flight; the queue drains at
every barrier (see docs/CONCURRENCY.md).  Errors keep the single-op
exception taxonomy, with ``PartialWriteError`` carrying the
applied/failed/remaining blob ids of a failed group.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..errors import (BlobNotFound, PartialWriteError, StorageError,
                      TransientPartialWriteError)
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import Tracer
from ..storage.blobs import BlobId, lease_blob
from ..storage.server import BatchOp, BatchReply
from .cache import LruCache
from .journal import DELETE, DELETE_MANY, PUT, PUT_MANY, StagedCall

_REQUEST_HEADER_BYTES = 64
_RESPONSE_HEADER_BYTES = 16

#: explicit sub-op-count buckets for the ``client.batch.size`` histogram
#: (the default latency buckets top out below real batch sizes).
_BATCH_SIZE_BUCKETS = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0,
                       32.0, 48.0, 64.0, 128.0, 256.0, 1024.0)

#: hard cap on sub-ops per speculative fetch, mirroring the wire
#: protocol's MAX_BATCH_OPS so a huge directory cannot build an
#: unsendable frame.
_MAX_PREFETCH = 1024


class RequestScheduler:
    """One client's blob I/O, with a window of K overlapped requests.

    Parameters
    ----------
    server:
        The transport the owning client talks to (possibly a
        ``ResilientTransport`` -- frames and waves ride its ``batch``
        partial-retry path).
    window:
        Requests kept in flight concurrently; 1 is the sequential
        client (no write-behind, no fetch flights).
    batching:
        Ship a group as one ``OP_BATCH`` frame; ``False`` sends one
        round trip per blob (the differential reference execution).
    readahead:
        The owning client may speculate (path-walk and readdir
        readahead through :meth:`prefetch`).
    write_behind:
        Allow mutation staging when ``window >= 2``.  The owning client
        disables it when the intent journal is on -- journal
        append/apply/commit ordering is a durability contract the queue
        must not reorder -- while fetch flights stay available.
    cost / tracer / cache / metrics:
        The owning client's cost model (None = uncharged), span tracer,
        ``LruCache`` (raw readahead slots live there, competing for the
        same byte budget) and metrics registry.
    """

    def __init__(self, server, window: int = 1, *, batching: bool = True,
                 readahead: bool = False, write_behind: bool = True,
                 cost=None, tracer: Tracer | None = None,
                 cache: LruCache | None = None,
                 metrics: MetricsRegistry | None = None):
        if window < 1:
            raise ValueError("scheduler window must be >= 1")
        self.server = server
        self.window = window
        self.batching = batching
        self.readahead = readahead
        self.write_behind = write_behind and window >= 2
        self.cost = cost
        self.tracer = tracer if tracer is not None else Tracer()
        self.cache = cache if cache is not None else LruCache()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: SSP requests issued (a batch frame or wave counts once).
        self.request_count = 0
        #: staged write-behind mutations in arrival order.
        self._staged: list[BatchOp] = []
        #: the open journaled mutation's calls (None outside one).
        self._deferred: list[StagedCall] | None = None
        #: read-your-writes overlay: blob id -> newest unsent payload
        #: (None = delete).  Covers exactly the staged or deferred blobs.
        self._overlay: dict[BlobId, bytes | None] = {}
        #: bumped by the owning client's invalidations; a fetch flight
        #: that observes a bump mid-flight is stale and drops its
        #: results instead of serving them into any cache.
        self.generation = 0
        # counters (exported as the ``client.scheduler`` metrics source)
        self.staged_ops = 0
        self.overlay_reads = 0
        self.flushes = 0
        self.autoflushes = 0
        self.flush_waves = 0
        self.flushed_ops = 0
        self.fetch_flights = 0
        self.fetch_waves = 0
        self.fetched_ops = 0
        self.dedup_hits = 0
        self.stale_drops = 0
        self.max_queue = 0

    # -- introspection -------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """Pull-based metrics source (``client.scheduler.*``)."""
        return {
            "window": float(self.window),
            "queue_depth": float(len(self._staged)),
            "max_queue": float(self.max_queue),
            "staged_ops": float(self.staged_ops),
            "overlay_reads": float(self.overlay_reads),
            "flushes": float(self.flushes),
            "autoflushes": float(self.autoflushes),
            "flush_waves": float(self.flush_waves),
            "flushed_ops": float(self.flushed_ops),
            "fetch_flights": float(self.fetch_flights),
            "fetch_waves": float(self.fetch_waves),
            "fetched_ops": float(self.fetched_ops),
            "dedup_hits": float(self.dedup_hits),
            "stale_drops": float(self.stale_drops),
        }

    @property
    def queue_depth(self) -> int:
        return len(self._staged)

    # -- accounting ----------------------------------------------------------

    def count_request(self, subops: int | None = None) -> None:
        """Count one wire request; a batch (``subops`` sub-ops) also
        feeds the ``client.batch.size`` histogram."""
        self.request_count += 1
        if subops is not None:
            self.metrics.histogram(
                "client.batch.size", help="sub-ops per OP_BATCH frame",
                buckets=_BATCH_SIZE_BUCKETS).observe(float(subops))

    def charge_request(self, up: int, down: int) -> None:
        """Bill one round trip moving ``up``/``down`` payload bytes."""
        if self.cost is not None:
            self.cost.charge_request(up + _REQUEST_HEADER_BYTES,
                                     down + _RESPONSE_HEADER_BYTES)

    def _span(self, op: str, **attrs):
        return self.tracer.span("network", op=op, **attrs)

    # -- read-your-writes overlay -------------------------------------------

    def staged_read(self, blob_id: BlobId) -> tuple[bool, bytes | None]:
        """(covered, payload) for a blob with unsent state.

        ``covered=True`` means the overlay holds this blob's newest
        state: the payload of the latest staged or deferred put, or
        ``None`` for a delete.  Serving it locally is what keeps
        mutations ordered before their dependent reads without forcing
        a flush.
        """
        if blob_id not in self._overlay:
            return False, None
        self.overlay_reads += 1
        return True, self._overlay[blob_id]

    def staged_exists(self, blob_id: BlobId) -> bool | None:
        """Tri-state existence: True/False if unsent state decides it."""
        if blob_id not in self._overlay:
            return None
        self.overlay_reads += 1
        return self._overlay[blob_id] is not None

    def covers(self, blob_id: BlobId) -> bool:
        """The overlay holds state for this blob (no counter bump) --
        used by speculative paths to skip ids whose server copy would
        be stale the moment the queue flushes."""
        return blob_id in self._overlay

    def note_invalidation(self) -> None:
        """The client invalidated cached state (lease takeover, fresh
        lease, revalidation miss): any fetch currently in flight is
        stale and must not land in a cache."""
        self.generation += 1

    # -- reads ---------------------------------------------------------------

    def get(self, blob_id: BlobId) -> bytes:
        """Demand read: overlay, then a raw readahead slot, then the SSP."""
        covered, payload = self.staged_read(blob_id)
        if covered:
            if payload is None:
                raise BlobNotFound(str(blob_id))
            return payload
        raw = self.cache.get(("raw", blob_id))
        if raw is not None:
            # Speculatively fetched (and paid for) earlier.  Single-shot:
            # the bytes are only as fresh as that fetch, so consume them
            # once and let any re-read go back to the SSP.
            self.cache.invalidate(("raw", blob_id))
            self.metrics.counter(
                "client.readahead.hits",
                help="gets served from the speculative read buffer").inc()
            with self.tracer.span("cache", hit=True, kind="raw"):
                return raw
        self.count_request()
        with self._span("get", kind=blob_id.kind):
            try:
                payload = self.server.get(blob_id)
            except BlobNotFound:
                self.charge_request(0, 0)
                raise
            self.charge_request(0, len(payload))
            return payload

    def exists(self, blob_id: BlobId) -> bool:
        """Existence probe, consistent with the overlay.  The wire probe
        is neither counted nor charged (re-baselining that is its own
        change: it moves every workload's request and time totals)."""
        known = self.staged_exists(blob_id)
        if known is not None:
            return known
        return self.server.exists(blob_id)

    def prefetch(self, blob_ids: Iterable[BlobId],
                 flight: bool = False) -> None:
        """The one speculative read: park blobs in consume-once raw slots.

        Candidates with a live raw slot or overlay state are skipped
        (staged state is newer than the SSP copy); fewer than two left
        leave nothing to amortize, so the demand path pays its one RTT.
        Path-walk and readdir readahead ship one ``OP_BATCH`` frame;
        ``flight=True`` (the multi-block read tail) ships waves through
        :meth:`fetch_many` and needs ``window >= 2`` -- a window of one
        has nothing to overlap.  A storage error voids the speculation
        silently: the demand path re-fetches with its own semantics.
        ``blob_ids`` is consumed lazily, after the window check.
        """
        if flight and self.window < 2:
            return
        wanted = [blob_id for blob_id in blob_ids
                  if self.cache.get(("raw", blob_id)) is None
                  and not self.covers(blob_id)]
        if len(wanted) < 2:
            return
        wanted = wanted[:_MAX_PREFETCH]
        if flight:
            with self._span("fetch_tail", count=len(wanted)):
                fetched = list(self.fetch_many(wanted).items())
        else:
            replies = self._frame("get_many",
                                  [BatchOp.get(blob_id) for blob_id in wanted],
                                  speculative=True)
            fetched = [(blob_id, reply.payload)
                       for blob_id, reply in zip(wanted, replies)]
        for blob_id, payload in fetched:
            if payload is not None:
                self.cache.put(("raw", blob_id), payload, len(payload))
                self.metrics.counter(
                    "client.readahead.prefetched",
                    help="blobs fetched speculatively").inc()

    def fetch_many(self, blob_ids: Iterable[BlobId]
                   ) -> dict[BlobId, bytes | None]:
        """Fetch independent blobs in waves of ``window`` requests.

        Returns ``{blob_id: payload}`` with ``None`` for absent blobs.
        Duplicate ids dedup onto a single in-flight fetch (one fetch's
        bytes answer every waiter); blobs with overlay state are
        answered locally without touching the wire.

        If an invalidation lands while the flight is in progress (the
        ``generation`` bump from :meth:`note_invalidation`), the
        results fetched so far are **dropped**, not returned: a stale
        speculative payload must never reach the caller's caches.  A
        storage error likewise voids the remainder silently -- callers
        treat a missing entry as "fetch it on demand".
        """
        results: dict[BlobId, bytes | None] = {}
        wanted: list[BlobId] = []
        seen: set[BlobId] = set()
        for blob_id in blob_ids:
            if blob_id in seen:
                self.dedup_hits += 1
                continue
            seen.add(blob_id)
            covered, payload = self.staged_read(blob_id)
            if covered:
                results[blob_id] = payload
                continue
            wanted.append(blob_id)
        if not wanted:
            return results
        generation = self.generation
        self.fetch_flights += 1
        fetched: dict[BlobId, bytes | None] = {}
        with self._span("fetch_flight", count=len(wanted),
                        window=self.window):
            for base in range(0, len(wanted), self.window):
                wave = wanted[base:base + self.window]
                self.fetch_waves += 1
                replies = self._exchange([BatchOp.get(blob_id)
                                          for blob_id in wave],
                                         flight=True, speculative=True)
                if replies is None:
                    break
                for blob_id, reply in zip(wave, replies):
                    if reply.ok and reply.payload is not None:
                        fetched[blob_id] = reply.payload
                        self.fetched_ops += 1
                    else:
                        fetched[blob_id] = None
        if self.generation != generation:
            # The flight raced an invalidation: everything it carried
            # is suspect.  Serve nothing; demand paths re-fetch fresh.
            self.stale_drops += len(fetched)
            return results
        results.update(fetched)
        return results

    # -- writes --------------------------------------------------------------

    def put(self, blob_id: BlobId, payload: bytes) -> None:
        self.submit(PUT, [(blob_id, payload)])

    def put_many(self, blobs: Sequence[tuple[BlobId, bytes]]) -> None:
        """Upload a group in one round trip.

        Matches the paper's Figure 8 cost table: a create performs one
        "metadata send" and one "parent-dir send" even when multiple
        CAP replicas are involved -- the per-CAP multiplier applies to
        the crypto column, not the network column.
        """
        self.submit(PUT_MANY, blobs)

    def delete(self, blob_id: BlobId) -> None:
        self.submit(DELETE, [(blob_id, None)])

    def delete_many(self, blob_ids: Sequence[BlobId]) -> None:
        """Batch deletion: one request regardless of blob count."""
        self.submit(DELETE_MANY, [(blob_id, None) for blob_id in blob_ids])

    def submit(self, kind: str,
               blobs: Iterable[tuple[BlobId, bytes | None]],
               fences: dict[int, int] | None = None) -> None:
        """The one write path: one call of ``kind`` (a journal
        ``StagedCall`` kind) over ``(blob_id, payload-or-None)`` pairs.

        Inside a journaled mutation the call is recorded, not sent.
        Otherwise an unfenced group that fits the window is staged for
        write-behind; anything else drains the queue first (it must
        order after everything staged) and ships as a lone RPC
        (``put``/``delete``), one ``OP_BATCH`` frame (groups), or one
        round trip per blob with ``batching=False``.  ``fences`` maps
        inode -> lease epoch; a fenced blob's write is rejected by the
        SSP once that lease has moved on.
        """
        blobs = tuple(blobs)
        if not blobs:
            return
        for blob_id, _ in blobs:
            self.cache.invalidate(("raw", blob_id))
        if self._deferred is not None:
            self._deferred.append(StagedCall(kind=kind, blobs=blobs))
            self._overlay.update(blobs)
            return
        ops = [_mutation_op(blob_id, payload, fences)
               for blob_id, payload in blobs]
        if (self.write_behind and len(ops) <= self.window
                and all(op.fence is None for op in ops)):
            # A group larger than the window would *lose* by staging:
            # its single frame costs one RTT, waves cost several.
            if ops[0].kind == "put":
                self.stage_put_many(blobs)
            else:
                self.stage_delete_many([blob_id for blob_id, _ in blobs])
            return
        self.flush()
        if kind in (PUT, DELETE) or not self.batching:
            for op in ops:
                self._send(op)
        else:
            self._frame(kind, ops)

    # -- journaled mutations --------------------------------------------------

    @property
    def deferring(self) -> bool:
        """A journaled mutation is open (writes are being recorded)."""
        return self._deferred is not None

    def defer(self) -> None:
        """Open a journaled mutation: record writes instead of sending."""
        self._deferred = []

    def take_deferred(self) -> list[StagedCall]:
        """Close the mutation and return its calls in issue order."""
        calls, self._deferred = self._deferred or [], None
        self._overlay = {}
        return calls

    # -- write-behind staging ------------------------------------------------

    def stage_put(self, blob_id: BlobId, payload: bytes) -> None:
        self.stage_put_many([(blob_id, payload)])

    def stage_put_many(self,
                       blobs: Sequence[tuple[BlobId, bytes]]) -> None:
        """Queue uploads; auto-flush once the window fills.

        The whole group is staged before the flush check so its sub-ops
        stay contiguous in queue order (a flush may still split a group
        across waves -- waves apply in order, so per-blob ordering
        holds regardless).
        """
        self._stage([BatchOp.put(blob_id, payload)
                     for blob_id, payload in blobs])

    def stage_delete(self, blob_id: BlobId) -> None:
        self.stage_delete_many([blob_id])

    def stage_delete_many(self, blob_ids: Sequence[BlobId]) -> None:
        self._stage([BatchOp.delete(blob_id) for blob_id in blob_ids])

    def _stage(self, ops: list[BatchOp]) -> None:
        if not self.write_behind:
            raise StorageError("scheduler write-behind is disabled")
        for op in ops:
            self._staged.append(op)
            self._overlay[op.blob_id] = op.payload
        self.staged_ops += len(ops)
        self.max_queue = max(self.max_queue, len(self._staged))
        if len(self._staged) >= self.window:
            self.autoflushes += 1
            self.flush()

    def flush(self) -> int:
        """Barrier: drain the staged queue in waves of ``window`` sub-ops.

        Each wave is one wire exchange (window-many pipelined requests
        whose RTTs overlap); waves apply strictly in order, so the SSP
        observes the exact sequential mutation order.  Returns the
        number of sub-ops shipped.  On a sub-op failure the queue is
        already cleared and the single-op exception taxonomy is raised
        (see :meth:`_raise_failure`).
        """
        ops, self._staged = self._staged, []
        if not ops:
            return 0
        self._overlay = {}
        self.flushes += 1
        with self._span("flush", count=len(ops), window=self.window):
            for base in range(0, len(ops), self.window):
                self.flush_waves += 1
                replies = self._exchange(ops[base:base + self.window],
                                         flight=True)
                for offset, reply in enumerate(replies):
                    if not reply.ok:
                        self._raise_failure(ops, base + offset, reply)
                    self.flushed_ops += 1
        return len(ops)

    # -- shipping ------------------------------------------------------------

    def _send(self, op: BatchOp) -> None:
        """A lone mutation as one plain RPC, billed before it leaves."""
        self.count_request()
        with self._span(op.kind.split("_")[0], kind=op.blob_id.kind):
            self.charge_request(op.sent_bytes(), 0)
            if op.kind == "put":
                self.server.put(op.blob_id, op.payload)
            elif op.kind == "delete":
                self.server.delete(op.blob_id)
            elif op.kind == "put_fenced":
                self.server.put_fenced(op.blob_id, op.payload, op.fence,
                                       op.epoch)
            else:
                self.server.delete_fenced(op.blob_id, op.fence, op.epoch)

    def _frame(self, name: str, ops: list[BatchOp],
               speculative: bool = False) -> list[BatchReply]:
        """Ship ``ops`` as one ``OP_BATCH`` frame (one round trip).

        A mutation frame raises its first failed sub-op; a speculative
        read frame returns no replies on a storage error.
        """
        with self._span(name, count=len(ops)):
            replies = self._exchange(ops, speculative=speculative)
            if speculative:
                return replies or []
            for index, reply in enumerate(replies):
                if not reply.ok:
                    self._raise_failure(ops, index, reply)
        return replies

    def _exchange(self, ops: Sequence[BatchOp], flight: bool = False,
                  speculative: bool = False) -> list[BatchReply] | None:
        """Send one batch, count it, and bill only what left the client.

        A frame is one round trip carrying every attempted sub-op's
        bytes behind one header; a ``flight`` wave is ``len(ops)``
        pipelined requests whose RTTs overlap within the window
        (``charge_flight``).  The unattempted tail of a failed batch
        never left the client and costs nothing.  A storage error
        propagates, unless ``speculative``: then every sub-op is billed
        as a bare header and None is returned.
        """
        self.count_request(len(ops))
        try:
            replies = self.server.batch(ops)
        except StorageError:
            if not speculative:
                raise
            replies = None
        if replies is None:
            moved = [(0, 0)] * len(ops)
        else:
            moved = [_moved_bytes(op, reply)
                     for op, reply in zip(ops, replies)
                     if reply.status != "unattempted"]
        if not flight:
            self.charge_request(sum(up for up, _ in moved),
                                sum(down for _, down in moved))
        elif self.cost is not None:
            self.cost.charge_flight(
                [(up + _REQUEST_HEADER_BYTES, down + _RESPONSE_HEADER_BYTES)
                 for up, down in moved], parallel=self.window)
        return replies

    def _raise_failure(self, ops: Sequence[BatchOp], index: int,
                       reply: BatchReply) -> None:
        """Surface sub-op ``index``'s failure as the single-op exception.

        A failed upload raises ``PartialWriteError`` (the transient
        variant keeps its retryable type) naming the applied, failed
        and remaining blob ids, and counts ``transport.partial_writes``;
        anything else (fenced -> ``StaleEpochError``, a failed delete
        -> the ``StorageError`` taxonomy) re-raises via
        ``BatchReply.raise_for_status``.
        """
        op = ops[index]
        if op.payload is None or reply.status != "error":
            reply.raise_for_status()
        self.metrics.counter(
            "transport.partial_writes",
            help="batched uploads that failed part-way").inc()
        cls = (TransientPartialWriteError if reply.transient
               else PartialWriteError)
        raise cls(
            f"batched upload failed at {op.blob_id} "
            f"({index}/{len(ops)} sub-ops applied): {reply.message}",
            applied=[done.blob_id for done in ops[:index]],
            failed=op.blob_id,
            remaining=[later.blob_id for later in ops[index + 1:]])


def _mutation_op(blob_id: BlobId, payload: bytes | None,
                 fences: dict[int, int] | None) -> BatchOp:
    """The sub-op for one put (payload) or delete (None), fenced on
    the inode's lease blob when ``fences`` holds an epoch for it."""
    epoch = fences.get(blob_id.inode) if fences else None
    if epoch is None:
        return (BatchOp.delete(blob_id) if payload is None
                else BatchOp.put(blob_id, payload))
    fence = lease_blob(blob_id.inode)
    return (BatchOp.delete_fenced(blob_id, fence, epoch) if payload is None
            else BatchOp.put_fenced(blob_id, payload, fence, epoch))


def _moved_bytes(op: BatchOp, reply: BatchReply) -> tuple[int, int]:
    """(up, down) payload bytes one attempted sub-op moved."""
    if op.kind == "get":
        return 0, len(reply.payload or b"") if reply.ok else 0
    return op.sent_bytes(), 0
