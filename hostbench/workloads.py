"""The three closed-loop workloads of the host-time benchmark.

Each workload drives the public :class:`~repro.fs.client.SharoesFilesystem`
API from one thread with its own seeded generator, one operation
outstanding at a time.  A round is ``setup()`` (format, enrol, populate,
mount -- timed as one set-up sample), ``run(meter)`` (the measured
window: every operation goes through :meth:`Meter.op`), ``finish()``
(correctness audit, outside the window) and ``close()``.

Correctness is checked on every round: each workload keeps a plaintext
model of every file, compares every ``read_file`` result byte for byte,
and ends with a :class:`~repro.tools.fsck.VolumeAuditor` pass that must
be clean.  A mismatch raises :class:`CorrectnessError`.
"""

from __future__ import annotations

import random
import threading
import time

from hostbench.reference import HostSpeed
from repro.crypto.provider import CryptoProvider
from repro.errors import LeaseError
from repro.fs.client import ClientConfig, SharoesFilesystem
from repro.fs.permissions import FILE
from repro.fs.volume import SharoesVolume
from repro.principals.groups import GroupKeyService
from repro.principals.registry import PrincipalRegistry
from repro.sim.clock import SimClock
from repro.sim.costmodel import CostModel
from repro.sim.profiles import PAPER_2008
from repro.storage.server import StorageServer
from repro.storage.wire import RemoteStorageClient, SspServer
from repro.tools.fsck import VolumeAuditor

#: Postmark file sizes: the paper's 500 B - 9.77 KB.
PM_MIN_FILE, PM_MAX_FILE = 500, 10_000


#: what :meth:`Meter.op` returns for an operation the program refused.
REFUSED = object()


class CorrectnessError(Exception):
    """The program returned wrong data or left an unclean volume."""


class Meter:
    """Times each operation of the window in host wall and CPU seconds.

    Lease refusals (:class:`~repro.errors.LeaseError`) are counted as
    failed operations, not as correctness failures: a refused mutation
    is rolled back by the client's journal, which the final audit
    checks.  ``on_op`` receives the 1-based id of each operation before
    it starts (the traced run tags its spans with it).  After each
    completed operation, outside its timing, the meter samples the
    host's speed (:mod:`hostbench.reference`), so ``ops[i]`` is followed
    by ``speed`` sample ``i``.
    """

    def __init__(self, on_op=None):
        self.on_op = on_op
        self.speed = HostSpeed()
        #: (class, wall s, CPU s) of each completed operation.
        self.ops: list[tuple[str, float, float]] = []
        self.attempted = 0
        self.failed = 0
        #: plaintext bytes the workload handed to write calls.
        self.user_bytes_written = 0

    def op(self, op_class: str, fn, *args):
        """Run one operation; returns its result, or :data:`REFUSED`."""
        self.attempted += 1
        if self.on_op is not None:
            self.on_op(self.attempted)
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except LeaseError:
            self.failed += 1
            return REFUSED
        t1 = time.perf_counter()
        self.ops.append((op_class, t1 - t0, time.process_time() - cpu0))
        self.speed.sample()
        return result

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    @property
    def wall_s(self) -> float:
        return sum(wall for _, wall, _ in self.ops)


def _expect(actual: bytes, expected: bytes, path: str) -> None:
    if actual != expected:
        raise CorrectnessError(
            f"{path}: read {len(actual)} bytes that differ from the "
            f"{len(expected)} bytes written")


def _expect_stat(stat, path: str, owner: str, mode: int) -> None:
    """getattr must report the file as created (size is not kept in
    metadata under the default ``update_metadata_on_close=False``)."""
    if (stat.ftype, stat.owner, stat.mode & 0o777) != (FILE, owner, mode):
        raise CorrectnessError(f"{path}: getattr returned {stat}")


def _pwrite_close(fs: SharoesFilesystem, path: str, data: bytes,
                  offset: int) -> None:
    """One in-place overwrite: open read-write, pwrite, close (upload)."""
    handle = fs.open(path, "rw")
    handle.pwrite(data, offset)
    handle.close()


def _schedule(rng: random.Random, ops: int, mix, targets) -> list:
    """``ops`` (kind, target) pairs with the mix's exact proportions.

    Kinds are dealt in proportion to the percentages and targets in
    turn, then both are shuffled independently.  Every seed so gets
    the same op counts and the same per-target load, and only the
    order and the data change.  Independent draws would let an
    instance's op mix, and so its host time, wander with the seed.
    """
    kinds = [kind for kind, pct in mix for _ in range(ops * pct // 100)]
    kinds += [mix[0][0]] * (ops - len(kinds))
    targets = list(targets)
    picks = [targets[n % len(targets)] for n in range(ops)]
    rng.shuffle(kinds)
    rng.shuffle(picks)
    return list(zip(kinds, picks))


def _wait_threads(baseline: int, timeout: float = 5.0) -> None:
    """Wait until the threads a round started have ended."""
    deadline = time.monotonic() + timeout
    while (threading.active_count() > baseline
           and time.monotonic() < deadline):
        time.sleep(0.001)


class Workload:
    """One round of a workload; subclasses fill in the four phases."""

    name = ""

    def __init__(self, seed: int, **params):
        self.seed = seed
        self.params = params
        self.model: dict[str, bytes] = {}
        #: (volume server, measuring clients, shared clock) once set up.
        self.server: StorageServer | None = None
        self.volume: SharoesVolume | None = None
        self.clients: list[SharoesFilesystem] = []
        self.clock: SimClock | None = None
        self.mount_sim_s = 0.0
        #: requests the measuring clients spent populating (not counted)
        self.setup_requests = 0
        self.stored_bytes = 0
        self.live_user_bytes = 0
        #: shared-file reads that returned an older committed version.
        self.stale_reads = 0
        #: create latencies timed during set-up (bigfile's only creates).
        self.setup_creates: list[float] = []

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, meter: Meter) -> None:
        raise NotImplementedError

    def measure(self, meter: Meter) -> None:
        """The window: :meth:`run`, with simulated time and bytes kept.

        Simulated seconds and requests count the measuring clients'
        mounts too, as the committed ``BENCH_<pr>.json`` files do.
        """
        start, received = self.clock.now, self.server.stats.bytes_received
        self.run(meter)
        self.sim_s = self.clock.now - start + self.mount_sim_s
        self.written_bytes = self.server.stats.bytes_received - received

    def close(self) -> None:
        pass

    # -- shared helpers ------------------------------------------------------

    def _mounted(self, fs: SharoesFilesystem) -> SharoesFilesystem:
        before = self.clock.now
        fs.mount()
        self.mount_sim_s += self.clock.now - before
        self.clients.append(fs)
        return fs

    def _note_stored(self) -> None:
        """Sample SSP footprint against live plaintext (end of steady state)."""
        self.stored_bytes = self.server.stored_bytes()
        self.live_user_bytes = sum(len(v) for v in self.model.values())

    def requests(self) -> int:
        """Requests of the measuring clients: mount plus window."""
        return (sum(fs.request_count for fs in self.clients)
                - self.setup_requests)

    def finish(self) -> tuple[float, int]:
        """Settle every client, then audit; returns (seconds, objects)."""
        for fs in self.clients:
            fs.flush_staged()
        t0 = time.perf_counter()
        report = VolumeAuditor(self.volume).audit()
        audit_s = time.perf_counter() - t0
        if not report.clean:
            raise CorrectnessError(report.summary())
        return audit_s, report.objects_visited


class Postmark(Workload):
    """Paper Figure 10: small files, 25% each read/append/create/unlink.

    Mirrors :func:`repro.workloads.postmark.run_postmark` call for call
    (same generator draws, same paths), so at BENCH parameters its
    simulated seconds and request count reproduce the committed
    ``BENCH_10.json`` postmark entry exactly.
    """

    name = "postmark"

    def setup(self) -> None:
        files = self.params["files"]
        self.rng = random.Random(self.seed)
        self.sizes = [self.rng.randint(PM_MIN_FILE, PM_MAX_FILE)
                      for _ in range(files)]
        cache_bytes = int(sum(self.sizes) * self.params["cache_fraction"])
        registry = PrincipalRegistry()
        user = registry.create_user("alice")
        registry.create_group("eng", {"alice"})
        self.clock = SimClock()
        self.server = StorageServer()
        self.volume = SharoesVolume(self.server, registry)
        self.volume.format(root_owner="alice", root_group="eng")
        self.cost = CostModel(PAPER_2008, self.clock)
        self.fs = self._mounted(SharoesFilesystem(
            self.volume, user, cost_model=self.cost,
            config=ClientConfig(cache_bytes=cache_bytes)))

    def run(self, meter: Meter) -> None:
        fs, rng, model = self.fs, self.rng, self.model
        subdirs = self.params["subdirs"]

        def create(path: str, data: bytes) -> None:
            fs.mknod(path, mode=0o600)
            fs.write_file(path, data)

        def add(path: str, size: int) -> None:
            data = rng.randbytes(size)
            if meter.op("create", create, path, data) is REFUSED:
                return
            meter.user_bytes_written += len(data)
            model[path] = data
            pool.append(path)

        for d in range(subdirs):
            meter.op("meta", fs.mkdir, f"/pm0d{d}", 0o700)
        pool: list[str] = []
        for i, size in enumerate(self.sizes):
            add(f"/pm0d{i % subdirs}/f{i:05d}", size)
        next_id = len(self.sizes)
        for _ in range(self.params["transactions"]):
            op = rng.random()
            if op < 0.25 and pool:
                path = rng.choice(pool)
                _expect(meter.op("read", fs.read_file, path), model[path],
                        path)
            elif op < 0.50 and pool:
                path = rng.choice(pool)
                data = rng.randbytes(rng.randint(64, 512))
                if meter.op("write", fs.append_file, path, data) is REFUSED:
                    continue
                meter.user_bytes_written += len(data)
                model[path] += data
            elif op < 0.75:
                path = f"/pm0d{next_id % subdirs}/f{next_id:05d}"
                next_id += 1
                add(path, rng.randint(PM_MIN_FILE, PM_MAX_FILE))
            elif pool:
                victim = pool.pop(rng.randrange(len(pool)))
                meter.op("meta", fs.unlink, victim)
                del model[victim]
            else:
                raise CorrectnessError("postmark pool unexpectedly empty")
        self._note_stored()
        for path in pool:
            meter.op("meta", fs.unlink, path)
            del model[path]


class BigFile(Workload):
    """Few multi-block files over the threaded wire: 55% whole-file
    reads, 20% in-place block overwrites, 25% stat.

    The client reaches the SSP through :class:`SspServer` /
    :class:`RemoteStorageClient` on loopback, so the wire codec and
    server dispatch carry every byte.  The files are created during
    set-up; their per-create latencies are kept as this workload's
    create samples.
    """

    name = "bigfile"

    def setup(self) -> None:
        self._threads = threading.active_count()
        self.ssp = self.remote = None
        self.rng = rng = random.Random(self.seed)
        block = self.params["block_size"]
        self.sizes = [blocks * block - rng.randint(0, block // 2)
                      for blocks in self.params["blocks"]]
        cache_bytes = int(sum(self.sizes) * self.params["cache_fraction"])
        registry = PrincipalRegistry()
        user = registry.create_user("alice")
        registry.create_group("eng", {"alice"})
        self.clock = SimClock()
        self.server = StorageServer()
        self.volume = SharoesVolume(self.server, registry, block_size=block)
        self.volume.format(root_owner="alice", root_group="eng")
        self.ssp = SspServer(self.server).start()
        self.remote = RemoteStorageClient(*self.ssp.address)
        self.fs = self._mounted(SharoesFilesystem(
            self.volume, user, cost_model=CostModel(PAPER_2008, self.clock),
            config=ClientConfig(cache_bytes=cache_bytes),
            server=self.remote))
        # Populating is set-up traffic: its requests are left out of
        # the client's count.
        before = self.fs.request_count
        self.fs.mkdir("/big", mode=0o700)
        for i, size in enumerate(self.sizes):
            path = f"/big/b{i:02d}.dat"
            data = rng.randbytes(size)
            t0 = time.perf_counter()
            self.fs.create_file(path, data, mode=0o600)
            self.setup_creates.append(time.perf_counter() - t0)
            self.model[path] = data
        self.setup_requests = self.fs.request_count - before

    def run(self, meter: Meter) -> None:
        fs, rng, model = self.fs, self.rng, self.model
        block = self.params["block_size"]
        paths = sorted(model)
        for kind, path in _schedule(rng, self.params["ops"], BIGFILE_MIX,
                                    paths):
            if kind == "read":
                _expect(meter.op("read", fs.read_file, path), model[path],
                        path)
            elif kind == "write":
                old = model[path]
                offset = rng.randrange(0, len(old), block)
                data = rng.randbytes(min(block, len(old) - offset))
                meter.op("write", _pwrite_close, fs, path, data, offset)
                meter.user_bytes_written += len(data)
                model[path] = old[:offset] + data + old[offset + len(data):]
            else:
                _expect_stat(meter.op("meta", fs.getattr, path), path,
                             "alice", 0o600)
        self._note_stored()

    def close(self) -> None:
        if self.remote is not None:
            self.remote.close()
        if self.ssp is not None:
            self.ssp.stop()
        _wait_threads(self._threads)


#: bigfile op mix (percent).
BIGFILE_MIX = (("read", 55), ("write", 20), ("meta", 25))

#: sharing op mix (percent), the BENCH_10 throughput harness's mix.
SHARING_MIX = (("create", 20), ("append", 15), ("read", 35), ("stat", 10),
               ("readdir", 5), ("shared_append", 15))


class Sharing(Workload):
    """Several enrolled users in one group, each with their own mount.

    Matches the BENCH_10 throughput harness configuration (journal,
    leases, ``concurrency=8``, 8 KiB blocks, 512-bit enrolment keys,
    unbounded caches) at a low-tens user count, driven from one thread
    in a seeded interleave.  Users also append to the admin's shared
    files, several writers per file; on this code base such appends
    lose other users' appends (``hostbench/WORKLOADS.md``), so this
    workload fails its correctness check.
    """

    name = "sharing"

    def setup(self) -> None:
        p = self.params
        self.rng = rng = random.Random(self.seed)
        block = p["block_size"]
        registry = PrincipalRegistry()
        registry.create_user("alice", key_bits=p["key_bits"])
        self.users = [f"u{i:02d}" for i in range(p["users"])]
        for uid in self.users:
            registry.create_user(uid, key_bits=p["key_bits"])
        registry.create_group("eng", {"alice", *self.users},
                              key_bits=p["key_bits"])
        self.clock = SimClock()
        self.server = StorageServer()
        self.volume = SharoesVolume(self.server, registry, clock=self.clock,
                                    block_size=block)
        self.volume.format(root_owner="alice", root_group="eng")
        GroupKeyService(registry, self.server, CryptoProvider()).publish_all()
        admin = SharoesFilesystem(
            self.volume, registry.user("alice"),
            cost_model=CostModel(PAPER_2008, self.clock))
        admin.mount()
        admin.mkdir("/shared", mode=0o775)
        self.shared = []
        for j in range(p["shared_files"]):
            path = f"/shared/s{j:02d}.dat"
            data = rng.randbytes(rng.randint(2, p["file_blocks"]) * block)
            admin.create_file(path, data, mode=0o664)
            self.model[path] = data
            self.shared.append(path)
        for uid in self.users:
            admin.mkdir(f"/{uid}", mode=0o775)
        admin.unmount()
        config = ClientConfig(journal=True, lease=True,
                              lease_duration_s=p["lease_duration_s"],
                              lease_wait_attempts=p["lease_wait_attempts"],
                              concurrency=p["concurrency"])
        for uid in self.users:
            self._mounted(SharoesFilesystem(
                self.volume, registry.user(uid),
                cost_model=CostModel(PAPER_2008, self.clock),
                config=config))
        #: files each user publishes before the window (own, read by all)
        self.published: list[list[str]] = [[] for _ in self.users]
        if not self.cross_writes:
            self._publish(rng, block)

    def _publish(self, rng: random.Random, block: int) -> None:
        """Each user creates one file the others read during the window.

        Created before the window, so every reader's directory tables
        list it; later appends by the owner reach readers as versions.
        """
        before = self.requests()
        for i, fs in enumerate(self.clients):
            path = f"/{self.users[i]}/pub.dat"
            data = rng.randbytes(
                rng.randint(1, self.params["file_blocks"]) * block)
            fs.create_file(path, data, mode=0o644)
            self.model[path] = data
            self.published[i].append(path)
        self.setup_requests = self.requests() - before

    #: whether users append to the admin's shared files (contended,
    #: several writers per file) or only to their own files.
    cross_writes = True

    def run(self, meter: Meter) -> None:
        p, rng, model = self.params, self.rng, self.model
        block = p["block_size"]
        own = [list(paths) for paths in self.published]
        readable = self.shared + [p for paths in own for p in paths]
        #: path -> lengths some write committed (files only grow)
        self.versions = {path: {len(data)} for path, data in model.items()}
        #: (client, path) -> shortest length that client may read next:
        #: what it last read or wrote (monotonic reads, read-your-writes)
        seen: dict[tuple[int, str], int] = {}

        def wrote(i: int, path: str, data: bytes) -> None:
            meter.user_bytes_written += len(data)
            model[path] = model.get(path, b"") + data
            self.versions.setdefault(path, set()).add(len(model[path]))
            seen[i, path] = len(model[path])

        for kind, i in _schedule(rng, p["ops"], SHARING_MIX,
                                 range(len(self.users))):
            fs = self.clients[i]
            if kind == "shared_append" and not self.cross_writes:
                kind = "append"
            if kind in ("append", "stat") and not own[i]:
                kind = "create"
            if kind == "create":
                path = f"/{self.users[i]}/f{len(own[i]):04d}.dat"
                data = rng.randbytes(rng.randint(1, p["file_blocks"]) * block)
                if meter.op("create", fs.create_file, path, data,
                            0o644) is REFUSED:
                    continue
                wrote(i, path, data)
                own[i].append(path)
            elif kind in ("append", "shared_append"):
                if kind == "append":
                    path = rng.choice(own[i])
                    data = rng.randbytes(rng.randint(256, block))
                else:
                    path = rng.choice(self.shared)
                    data = rng.randbytes(rng.randint(32, 256))
                if meter.op("write", fs.append_file, path, data) is REFUSED:
                    continue
                wrote(i, path, data)
            elif kind == "read":
                pool = own[i] if own[i] and rng.random() < 0.7 \
                    else readable
                path = rng.choice(pool)
                got = meter.op("read", fs.read_file, path)
                self._check_read(got, path, seen, i)
            elif kind == "stat":
                path = rng.choice(own[i])
                _expect_stat(meter.op("meta", fs.getattr, path), path,
                             self.users[i], 0o644)
            else:
                names = meter.op("meta", fs.readdir, "/shared")
                want = sorted(path.rsplit("/", 1)[1] for path in self.shared)
                if sorted(names) != want:
                    raise CorrectnessError(f"/shared lists {names}")
        for fs in self.clients:
            fs.flush_staged()
        self._note_stored()

    def _check_read(self, got: bytes, path: str, seen: dict,
                    client: int) -> None:
        """A read may lag other users' writes, never the reader's own.

        The client cache keeps a verified version until a coherence
        event (docs/CACHING.md, "bounded staleness"), so the result must
        be a version some write committed, no older than what this
        client last read or wrote, and byte-identical to it.  For a
        file only its reader writes, that is the current content.
        """
        current = self.model[path]
        n = len(got)
        floor = seen.get((client, path), 0)
        if n not in self.versions[path] or n < floor or got != current[:n]:
            raise CorrectnessError(
                f"{path}: read {n} bytes, not a committed version of at "
                f"least the {floor} bytes this client last read or wrote "
                f"(now {len(current)} bytes)")
        if n < len(current):
            self.stale_reads += 1
        seen[client, path] = n

    def finish(self) -> tuple[float, int]:
        for fs in self.clients:
            fs.unmount()
        return super().finish()


class Publish(Sharing):
    """:class:`Sharing` with one writer per file: every user appends
    only to their own files, which the other users read through the
    group.  The contended variant loses appends on this code base (see
    ``hostbench/WORKLOADS.md``); this one keeps every byte."""

    name = "publish"
    cross_writes = False


WORKLOADS = {w.name: w for w in (Postmark, BigFile, Sharing, Publish)}
