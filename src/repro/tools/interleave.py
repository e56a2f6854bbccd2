"""Concurrency interleaving matrix (multi-client safety acceptance).

Two or three leasing clients share one volume; for every op pair the
harness sweeps deterministic interleavings of the *first* client's SSP
mutation sequence:

* **sequential** -- the first op runs to completion, then the others
  (the baseline; also the counting run that discovers T);
* **preempt k = 1..T** -- the first client pauses just before its k-th
  SSP mutation, the other clients run their ops to completion (an op
  blocked by the paused client's lease is *deferred* and retried after
  it resumes), then the first client resumes;
* **crash k = 1..T** -- the first client dies at its k-th mutation, the
  shared clock advances past lease expiry, and the others run: their
  write-points take over the dead client's leases, rolling its journal
  forward first, so the interrupted op lands fully applied or fully
  rolled back -- never half;
* **zombie k = 1..T** -- the first client pauses at its k-th mutation,
  the clock jumps past expiry and the others run (taking its leases
  over), then the first client *resumes*: its remaining fenced writes
  must be rejected mechanically (:class:`~repro.errors.LeaseLostError`)
  or, if it had not yet written anything fenced, re-serialize cleanly.

After every schedule the harness asserts the multi-client contract:

* **no lost updates** -- every op's effect is present (the first op may
  instead be fully rolled back in crash/zombie cells);
* the volume is **fsck-clean with zero orphans**;
* surviving clients publish and cross-check **version statements**
  without :class:`~repro.fs.consistency.ForkDetected`.

A config over the sweep engine :class:`~repro.tools.matrix.Matrix`,
deterministic per seed like every matrix there.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from ..errors import ClientCrashed, LeaseHeldError, LeaseLostError
from ..fs.consistency import ForkDetected
from ..sim.clock import SimClock
from ..storage.resilient import CrashingServer, PauseServer
from ..storage.server import StorageServer
from .matrix import BLOCK, Case, Matrix, audit, holds, path_exists

#: interleaving modes the matrix sweeps.
SEQUENTIAL = "sequential"
PREEMPT = "preempt"
CRASH = "crash"
ZOMBIE = "zombie"

MODES = (SEQUENTIAL, PREEMPT, CRASH, ZOMBIE)

_LEASE_S = 5.0
#: rounds of deferred-op retries before declaring a schedule stuck.
_DRAIN_ROUNDS = 5


@dataclass
class InterleaveOutcome:
    """One cell: case x mode x interleaving point."""

    case: str
    mode: str
    point: int  # 0 for sequential
    total_points: int
    outcome: str  # "all_applied" | "first_rolled_back" | failure text
    first_error: str  # "" | "LeaseLostError" | "ClientCrashed" | ...
    deferred: int  # rider attempts that had to wait for a lease
    fsck_clean: bool
    orphans: int
    vsl_ok: bool
    scenario: str = ""  # the campaign's shard-adversity scenario

    @property
    def consistent(self) -> bool:
        return (self.outcome in ("all_applied", "first_rolled_back")
                and self.fsck_clean and self.orphans == 0
                and self.vsl_ok)


def build_cases(payloads: dict[str, bytes]) -> list[Case]:
    """The schedule families.

    Every case contends the shared directory ``/d`` -- its table is the
    read-modify-write that loses updates without coordination.
    ``payloads`` maps logical names to file contents (seed-derived).
    """
    pa, pb, pc, px = (payloads["a"], payloads["b"], payloads["c"],
                      payloads["x"])
    return [
        Case(
            "create-create",
            prepare=lambda fs: None,
            run=lambda fs: fs.create_file("/d/a", pa),
            others=(("bob", lambda fs: fs.create_file("/d/b", pb)),),
            applied=lambda fs: (fs.read_file("/d/a") == pa
                                    and fs.read_file("/d/b") == pb),
            rolled_back=lambda fs: (not path_exists(fs, "/d/a")
                                          and fs.read_file("/d/b") == pb)),
        Case(
            "create-create-create",
            prepare=lambda fs: None,
            run=lambda fs: fs.create_file("/d/t1", pa),
            others=(("bob", lambda fs: fs.create_file("/d/t2", pb)),
                    ("carol", lambda fs: fs.create_file("/d/t3", pc))),
            applied=lambda fs: (fs.read_file("/d/t1") == pa
                                    and fs.read_file("/d/t2") == pb
                                    and fs.read_file("/d/t3") == pc),
            rolled_back=lambda fs: (
                not path_exists(fs, "/d/t1")
                and fs.read_file("/d/t2") == pb
                and fs.read_file("/d/t3") == pc)),
        Case(
            "rename-create",
            prepare=lambda fs: fs.create_file("/d/x", px),
            run=lambda fs: fs.rename("/d/x", "/d/y"),
            others=(("bob", lambda fs: fs.create_file("/d/c", pc)),),
            applied=lambda fs: (not path_exists(fs, "/d/x")
                                    and fs.read_file("/d/y") == px
                                    and fs.read_file("/d/c") == pc),
            rolled_back=lambda fs: (not path_exists(fs, "/d/y")
                                          and fs.read_file("/d/x") == px
                                          and fs.read_file("/d/c") == pc)),
        Case(
            "unlink-mkdir",
            prepare=lambda fs: fs.create_file("/d/x", px),
            run=lambda fs: fs.unlink("/d/x"),
            others=(("bob", lambda fs: fs.mkdir("/d/sub")),),
            applied=lambda fs: (not path_exists(fs, "/d/x")
                                    and path_exists(fs, "/d/sub")),
            rolled_back=lambda fs: (fs.read_file("/d/x") == px
                                          and path_exists(fs, "/d/sub"))),
        Case(
            "mkdir-create",
            prepare=lambda fs: None,
            run=lambda fs: fs.mkdir("/d/s"),
            others=(("bob", lambda fs: fs.create_file("/d/b2", pb)),),
            applied=lambda fs: (path_exists(fs, "/d/s")
                                    and fs.read_file("/d/b2") == pb),
            rolled_back=lambda fs: (not path_exists(fs, "/d/s")
                                          and fs.read_file("/d/b2") == pb)),
    ]


class InterleaveMatrix(Matrix):
    """Multi-client sweeps: case x mode x interleaving point."""

    USERS = ("alice", "bob", "carol")
    CLIENT = {"journal": True, "lease": True, "lease_duration_s": _LEASE_S,
              "cache_bytes": 0}
    AXIS = MODES
    COLUMNS = (("case", "<22", "case"), ("mode", "<10", "mode"),
               ("k", ">3", "point"), ("T", ">3", "total_points"),
               ("outcome", "<18", "outcome"),
               ("first-error", "<15", lambda o: o.first_error or "-"),
               ("defer", ">5", "deferred"),
               ("fsck", "<5", lambda o: "ok" if o.fsck_clean else "DIRTY"),
               ("orph", ">4", "orphans"),
               ("vsl", "<4", lambda o: "ok" if o.vsl_ok else "FORK"))

    def __init__(self, seed: int = 0, key_bits: int = 512,
                 server_factory: "Callable | None" = None):
        rng = random.Random(seed)
        self.payloads = {
            name: bytes(rng.randrange(256) for _ in range(size))
            for name, size in (("a", 2 * BLOCK), ("b", BLOCK + 17),
                               ("c", 3 * BLOCK), ("x", BLOCK))}
        super().__init__(key_bits)
        clock = SimClock()
        #: ``server_factory(clock)`` swaps the backing store -- the
        #: composed campaign (tools/campaign.py) runs the same sweeps
        #: over a ShardedServer with adversarial shards.
        self.add_stack(server_factory(clock) if server_factory is not None
                       else StorageServer(), clock)

    def cases(self) -> list[Case]:
        return build_cases(self.payloads)

    def points(self, mode: str, total: int):
        return (0,) if mode == SEQUENTIAL else range(1, total + 1)

    # -- one schedule --------------------------------------------------------

    def _drain(self, pending: list, clients: dict) -> tuple[int, bool]:
        """Run deferred rider ops until done.  -> (defer count, drained)."""
        deferred = 0
        rounds = 0
        while pending and rounds < _DRAIN_ROUNDS:
            rounds += 1
            requeue = []
            for user_id, op in pending:
                try:
                    op(clients[user_id])
                except LeaseHeldError:
                    deferred += 1
                    requeue.append((user_id, op))
            if len(requeue) == len(pending):
                # Every rider is still blocked: the only legal holder is
                # a dead/paused client -- wait out the lease.
                self.clock.advance(_LEASE_S + 1.0)
            pending = requeue
        return deferred, not pending

    def _vsl_round(self, clients: dict) -> bool:
        """Survivors publish + cross-check statements.  True = no fork."""
        try:
            for fs in clients.values():
                fs.publish_statement()
            for fs in clients.values():
                fs.sync_statements(list(clients))
            # Second round so the causal (seen-vector) check bites.
            for fs in clients.values():
                fs.publish_statement()
            for fs in clients.values():
                fs.sync_statements(list(clients))
        except ForkDetected:
            return False
        return True

    def run_cell(self, case: Case, mode: str, point: int,
                 total: int) -> InterleaveOutcome:
        """Run one schedule from a pristine volume and judge it."""
        self.prepare(case)

        riders = {uid: self.client(uid, consistency=True)
                  for uid, _ in case.others}
        pending: list = []
        deferred = 0

        def run_riders() -> None:
            nonlocal deferred
            for user_id, op in case.others:
                try:
                    op(riders[user_id])
                except LeaseHeldError:
                    deferred += 1
                    pending.append((user_id, op))

        first_error = ""
        if mode == CRASH:
            first_server = CrashingServer(self.server, crash_after=point)
        elif mode in (PREEMPT, ZOMBIE):
            def hook() -> None:
                if mode == ZOMBIE:
                    self.clock.advance(_LEASE_S + 1.0)
                run_riders()
            first_server = PauseServer(self.server, pause_at=point,
                                       hook=hook)
        else:
            first_server = None
        first = self.client("alice", server=first_server,
                            consistency=True)

        try:
            case.run(first)
        except ClientCrashed:
            first_error = "ClientCrashed"
        except LeaseLostError:
            first_error = "LeaseLostError"
        except LeaseHeldError:
            # The riders (injected mid-op) beat us to a lease; honest
            # clients just try again once the holder releases.
            first_error = "LeaseHeldError"

        if mode == CRASH:
            self.clock.advance(_LEASE_S + 1.0)
        if mode in (SEQUENTIAL, CRASH):
            run_riders()
        drained_deferred, drained = self._drain(pending, riders)
        deferred += drained_deferred
        if first_error == "LeaseHeldError" and drained:
            try:
                case.run(first)
                first_error = ""
            except LeaseLostError:
                first_error = "LeaseLostError"
            except LeaseHeldError:
                pass

        survivors = dict(riders)
        if first_error != "ClientCrashed":
            survivors["alice"] = first
        vsl_ok = drained and self._vsl_round(survivors)

        probe = self.probe()
        if holds(case.applied, probe):
            outcome = "all_applied"
        elif (first_error and holds(case.rolled_back, probe)):
            outcome = "first_rolled_back"
        else:
            outcome = (f"INCONSISTENT (first_error="
                       f"{first_error or 'none'})")
        clean, orphans = audit(self.volume)
        return InterleaveOutcome(
            case=case.name, mode=mode, point=point, total_points=total,
            outcome=outcome, first_error=first_error,
            deferred=deferred, fsck_clean=clean, orphans=orphans,
            vsl_ok=vsl_ok, scenario=getattr(self.scenario, "name", ""))
