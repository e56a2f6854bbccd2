"""Crash-point matrix: kill a client at every mutation of every op.

For each filesystem mutation (create_file, mkdir, unlink, rmdir, rename,
link, symlink, pwrite/truncate writeback) the harness first counts how
many SSP mutations (puts + deletes) the journaled op issues, then sweeps
crash point k = 1..T: restore the volume to the pre-op checkpoint, run
the op against a :class:`~repro.storage.resilient.CrashingServer` that
dies at the k-th mutation, recover (a fresh client's ``mount()`` or
``fsck --repair``), and assert the crash-consistency contract:

* the op is **fully applied** or **fully rolled back** -- never half;
* the post-recovery volume is fsck-clean;
* no orphaned blobs remain.

With the write-ahead journal the expected shape is exact: the first
mutation of any journaled op is the intent append, so k = 1 rolls back
(nothing of the op ever reached the SSP) and every k >= 2 replays to
fully applied.  The harness asserts outcomes, it does not assume them.

Deterministic per seed: the seed fixes every file payload, and mutation
counts are structural (blob *counts*, not blob bytes), so CI reruns
with the same seed produce identical tables.  (RSA keygen draws from
``secrets`` -- key material varies, outcomes do not.)
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..errors import ClientCrashed
from ..storage.resilient import CrashingServer
from ..storage.server import StorageServer
from .fsck import VolumeAuditor
from .matrix import BLOCK, Case, Matrix, audit, holds, path_exists

#: recovery modes the matrix can exercise.
MOUNT = "mount"
FSCK = "fsck"


@dataclass
class CrashOutcome:
    """One cell of the matrix: op x crash point under one recovery."""

    op: str
    crash_point: int
    total_points: int
    recovery: str  # "mount" | "fsck"
    outcome: str  # "applied" | "rolled_back" | the failure description
    fsck_clean: bool
    orphans: int

    @property
    def consistent(self) -> bool:
        return (self.outcome in ("applied", "rolled_back")
                and self.fsck_clean and self.orphans == 0)


def build_cases(data: bytes | None = None,
                new: bytes | None = None) -> list[Case]:
    """The op suite: every mutation family the client exposes.

    ``data`` (initial 3-block file content) and ``new`` (the pwrite
    payload) default to fixed patterns; :class:`CrashMatrix` derives
    them from its seed.
    """
    _DATA = data if data is not None else bytes(range(256)) * 3
    _NEW = new if new is not None else b"\xAA" * 700

    def pwrite_run(fs: SharoesFilesystem) -> None:
        with fs.open("/d/f", "rw") as handle:
            handle.pwrite(_NEW, 100)

    def truncate_run(fs: SharoesFilesystem) -> None:
        with fs.open("/d/f", "rw") as handle:
            handle.truncate(60)

    pwritten = (_DATA[:100] + _NEW
                + _DATA[100 + len(_NEW):]).ljust(len(_DATA), b"\x00")
    return [
        Case(
            "create_file",
            prepare=lambda fs: None,
            run=lambda fs: fs.create_file("/d/new", _DATA),
            applied=lambda fs: (path_exists(fs, "/d/new")
                                and fs.read_file("/d/new") == _DATA),
            rolled_back=lambda fs: not path_exists(fs, "/d/new")),
        Case(
            "mkdir",
            prepare=lambda fs: None,
            run=lambda fs: fs.mkdir("/d/sub"),
            applied=lambda fs: (path_exists(fs, "/d/sub")
                                and fs.readdir("/d/sub") == []),
            rolled_back=lambda fs: not path_exists(fs, "/d/sub")),
        Case(
            "unlink",
            prepare=lambda fs: fs.create_file("/d/victim", _DATA),
            run=lambda fs: fs.unlink("/d/victim"),
            applied=lambda fs: not path_exists(fs, "/d/victim"),
            rolled_back=lambda fs: (
                path_exists(fs, "/d/victim")
                and fs.read_file("/d/victim") == _DATA)),
        Case(
            "rmdir",
            prepare=lambda fs: fs.mkdir("/d/doomed"),
            run=lambda fs: fs.rmdir("/d/doomed"),
            applied=lambda fs: not path_exists(fs, "/d/doomed"),
            rolled_back=lambda fs: path_exists(fs, "/d/doomed")),
        Case(
            "rename",
            prepare=lambda fs: fs.create_file("/d/old", _DATA),
            run=lambda fs: fs.rename("/d/old", "/d/moved"),
            applied=lambda fs: (not path_exists(fs, "/d/old")
                                and fs.read_file("/d/moved") == _DATA),
            rolled_back=lambda fs: (not path_exists(fs, "/d/moved")
                                    and fs.read_file("/d/old") == _DATA)),
        Case(
            "link",
            prepare=lambda fs: fs.create_file("/d/orig", _DATA),
            run=lambda fs: fs.link("/d/orig", "/d/alias"),
            applied=lambda fs: (fs.read_file("/d/alias") == _DATA
                                and fs.lstat("/d/orig").nlink == 2),
            rolled_back=lambda fs: (not path_exists(fs, "/d/alias")
                                    and fs.lstat("/d/orig").nlink == 1)),
        Case(
            "symlink",
            prepare=lambda fs: fs.create_file("/d/target", _DATA),
            run=lambda fs: fs.symlink("/d/target", "/d/ln"),
            applied=lambda fs: (fs.readlink("/d/ln") == "/d/target"
                                and fs.read_file("/d/ln") == _DATA),
            rolled_back=lambda fs: not path_exists(fs, "/d/ln")),
        Case(
            "writeback-pwrite",
            prepare=lambda fs: fs.create_file("/d/f", _DATA),
            run=pwrite_run,
            applied=lambda fs: fs.read_file("/d/f") == pwritten,
            rolled_back=lambda fs: fs.read_file("/d/f") == _DATA),
        Case(
            "writeback-truncate",
            prepare=lambda fs: fs.create_file("/d/f", _DATA),
            run=truncate_run,
            applied=lambda fs: fs.read_file("/d/f") == _DATA[:60],
            rolled_back=lambda fs: fs.read_file("/d/f") == _DATA),
    ]


class CrashMatrix(Matrix):
    """Crash sweeps: op x recovery x crash point."""

    USERS = ("alice", "bob")
    #: the probe is the journaled client on purpose: its ``mount()``
    #: replays pending intents, so the oracle sees the recovered state.
    CLIENT = PROBE = {"journal": True, "cache_bytes": 0}
    AXIS = (MOUNT, FSCK)
    COLUMNS = (("op", "<20", "op"), ("recovery", "<8", "recovery"),
               ("k", ">3", "crash_point"), ("T", ">3", "total_points"),
               ("outcome", "<12", "outcome"),
               ("fsck", "<5", lambda o: "ok" if o.fsck_clean else "DIRTY"),
               ("orphans", ">7", "orphans"))
    RULE = 63
    NOUN = "crash points"

    def __init__(self, seed: int = 0, key_bits: int = 512):
        rng = random.Random(seed)
        self.data = bytes(rng.randrange(256) for _ in range(3 * BLOCK))
        self.new = bytes(rng.randrange(256) for _ in range(700))
        super().__init__(key_bits)
        self.add_stack(StorageServer(), mode=0o755)

    def cases(self) -> list[Case]:
        return build_cases(self.data, self.new)

    def prepare(self, case: Case) -> None:
        super().prepare(case)
        self._prepared = self.checkpoint()

    def count_points(self, case: Case) -> int:
        """Counting run; it also proves the op lands when nothing
        crashes (the oracle itself is exercised here)."""
        total = super().count_points(case)
        if not holds(case.applied, self.probe()):
            raise AssertionError(f"{case.name}: oracle rejects the "
                                 f"crash-free run")
        return total

    def run_cell(self, case: Case, recovery: str, point: int,
                 total: int) -> CrashOutcome:
        """Crash at mutation ``point``, recover, judge."""
        self.restore(self._prepared)
        crasher = CrashingServer(self.server, crash_after=point)
        try:
            case.run(self.client(server=crasher))
            raise AssertionError(
                f"{case.name}: no crash at k={point} (T={total})")
        except ClientCrashed:
            pass
        if recovery == FSCK:
            VolumeAuditor(self.volume).repair()
        probe = self.probe()
        applied = holds(case.applied, probe)
        rolled_back = (not applied) and holds(case.rolled_back, probe)
        clean, orphans = audit(self.volume)
        outcome = ("applied" if applied
                   else "rolled_back" if rolled_back
                   else "INCONSISTENT")
        return CrashOutcome(
            op=case.name, crash_point=point, total_points=total,
            recovery=recovery, outcome=outcome,
            fsck_clean=clean, orphans=orphans)
