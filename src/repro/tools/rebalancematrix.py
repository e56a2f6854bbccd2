"""Rebalance crash-point matrix (online-topology-change acceptance).

A twin-stack differential harness for the PR 9 rebalance pipeline
(:mod:`repro.storage.rebalance`): one SHAROES volume lives on a
:class:`~repro.storage.shards.ShardedServer`, its twin -- built from
the *same* principals with the crypto entropy stream pinned, so both
stacks mint identical keys, IVs and ciphertext -- on a single plain
:class:`~repro.storage.server.StorageServer`.  The sharded stack then
runs a grow + re-replicate plan (default: 4 shards / k=2 -> 6 shards /
k=3) and the matrix kills the rebalancer at **every** pipeline action
k = 1..T (per-blob copy / verify / drop steps and the flip / finish
transitions), crossing each crash point with four recovery variants:

* ``resume``     -- :meth:`Rebalancer.recover` re-attaches to the
  stored plan and drives it to DONE;
* ``repair``     -- plain anti-entropy (``server.repair()``) arbitrates
  the orphaned plan: resumed if it flipped, rolled back otherwise;
* ``writes``     -- clients keep writing *between* crash and recovery
  (the same ops applied to the twin), exercising dual-placement writes
  on a half-moved store;
* ``shard-down`` -- one old-ring shard is hard-down for the entire
  recovery, which must complete degraded and heal afterwards.

Every cell must converge to a store that is **byte-identical** to the
unsharded twin (blobs and decrypted tree), fsck-clean with zero
orphans, fully replicated on whichever ring ended up authoritative
(the target ring after a resume, either ring after repair arbitration
-- matching its resolved plan action), with no plan left adopted.
A config over the sweep engine :class:`~repro.tools.matrix.Matrix`
(the case is the target ring), deterministic per seed like every matrix
there.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..errors import ClientCrashed
from ..sim.clock import SimClock
from ..storage.faults import CrashingRebalancer
from ..storage.rebalance import Rebalancer
from ..storage.server import StorageServer
from ..storage.shards import RingSpec, ShardedServer
from .matrix import BLOCK, Matrix, audit, pinned_entropy, visible_tree

#: recovery variants crossed with every crash point.
VARIANTS = ("resume", "repair", "writes", "shard-down")


@dataclass
class RebalanceOutcome:
    """One (crash point, recovery variant) cell's verdict."""

    variant: str
    point: int          # crash after this pipeline action (1-based)
    total_points: int
    step: str           # pipeline step the crash interrupted
    crashed: bool       # the injector fired (harness sanity)
    plan_action: str    # resumed | rolled_back | completed
    ring: str           # target | base | other
    ring_ok: bool       # ring matches the resolved plan action
    blobs_ok: bool      # ciphertext byte-identical to the twin
    tree_ok: bool       # decrypted tree identical to the twin
    fsck_clean: bool
    orphans: int
    replicated: bool    # final repair reports full replication
    plan_cleared: bool  # no plan left adopted on the router

    @property
    def consistent(self) -> bool:
        return (self.crashed and self.ring_ok and self.blobs_ok
                and self.tree_ok and self.fsck_clean
                and self.orphans == 0 and self.replicated
                and self.plan_cleared)


class RebalanceMatrix(Matrix):
    """Twin-stack crash sweep over one topology transition."""

    CLIENT = {"journal": True, "lease": True, "cache_bytes": 0}
    AXIS = VARIANTS
    COLUMNS = (
        ("variant", "<12", "variant"), ("k", ">4", "point"),
        ("T", ">4", "total_points"), ("step", "<9", "step"),
        ("plan", "<12", "plan_action"), ("ring", "<7", "ring"),
        ("blobs", "<6", lambda o: "ok" if o.blobs_ok else "DIFF"),
        ("tree", "<5", lambda o: "ok" if o.tree_ok else "DIFF"),
        ("fsck", "<5", lambda o: ("ok" if o.fsck_clean and not o.orphans
                                  else "DIRTY")),
        ("repl", "<5", lambda o: "ok" if o.replicated else "UNDER"),
        ("verdict", "<12",
         lambda o: "consistent" if o.consistent else "INCONSISTENT"))
    RULE = 92

    def __init__(self, seed: int = 0, key_bits: int = 512,
                 shards: int = 4, replicas: int = 2, spares: int = 2,
                 target_replicas: int = 3, files: int = 5):
        self.seed = seed
        rng = random.Random(seed)
        sizes = [BLOCK * (1 + rng.randrange(3)) + rng.randrange(64)
                 for _ in range(files)]
        payloads = [bytes(rng.randrange(256) for _ in range(size))
                     for size in sizes]
        with pinned_entropy(seed * 7 + 1):
            super().__init__(key_bits)
        self.keypair = self.registry.user("alice").keypair

        sharded = ShardedServer(shards=shards, replicas=replicas,
                                clock=SimClock())
        for _ in range(spares):
            sharded.add_shard()
        # Both stacks format + populate from the identical entropy
        # stream, so they mint identical keys, IVs and ciphertext.
        with pinned_entropy(seed * 7 + 2):
            self.add_stack(sharded, sharded.clock, files=payloads)
        with pinned_entropy(seed * 7 + 2):
            self.twin = self.add_stack(StorageServer(name="twin-ssp"),
                                       SimClock(), files=payloads)
        self.base_ring = sharded.ring
        self.target_ring = RingSpec(tuple(range(shards + spares)),
                                    target_replicas)
        if self.stacks[0].base.blobs != self.twin.base.blobs:
            raise AssertionError(
                "twin stacks diverged during setup -- the entropy "
                "pinning no longer covers every crypto draw")
        self._base_tree = visible_tree(self.probe(self.twin))

    def cases(self) -> list[RingSpec]:
        return [self.target_ring]

    def count_points(self, target: RingSpec) -> int:
        """Calibration run: T pipeline actions in a clean rebalance."""
        self.restore()
        counter = CrashingRebalancer(crash_after=None)
        reb = Rebalancer(self.server, keypair=self.keypair, hook=counter)
        reb.propose(target.members, target.replicas)
        reb.execute()
        return counter.actions

    def _extra_writes(self, cell_seed: int) -> None:
        """The same mid-recovery ops on both stacks (pinned per cell)."""
        for stack in (self.twin, self.stacks[0]):
            with pinned_entropy(cell_seed):
                fs = self.client(stack=stack)
                fs.write_file("/d/f0", b"rewritten-" + bytes(
                    random.Random(cell_seed).randrange(256)
                    for _ in range(BLOCK)))
                fs.create_file("/d/mid", mode=0o664)
                fs.write_file("/d/mid", b"written mid-rebalance")
                fs.unmount()

    def run_cell(self, target: RingSpec, variant: str, point: int,
                 total: int) -> RebalanceOutcome:
        """Crash the rebalancer at action ``point``, recover, judge."""
        self.restore()
        server = self.server
        hook = CrashingRebalancer(crash_after=point)
        reb = Rebalancer(server, keypair=self.keypair, hook=hook)
        crashed = False
        step = ""
        try:
            reb.propose(target.members, target.replicas)
            reb.execute()
        except ClientCrashed:
            crashed = True
            step = hook.log[-1][0] if hook.log else ""

        plan_action = "completed"
        down = None
        if crashed:
            if variant == "shard-down":
                # An *old*-ring member (k=2 there tolerates one loss);
                # rotate the victim with the crash point.
                down = self.base_ring.members[
                    point % len(self.base_ring.members)]
                server.outage(down, start_s=self.clock.now)
            if variant == "writes":
                self._extra_writes(self.seed * 1_000_003 + point)
            if variant == "repair":
                report = server.repair()
                plan_action = report.plan_action or "completed"
            else:
                reb2 = Rebalancer.recover(server, self.keypair.public,
                                          keypair=self.keypair)
                reb2.resume()
                plan_action = "resumed"

        # Heal: drop the outage (if any), then anti-entropy to full
        # replication (twice -- a returning shard unlocks work).
        server.clear_wrappers()
        repair = server.repair()
        if not repair.fully_replicated:
            repair = server.repair()

        if server.ring == target:
            ring = "target"
        elif server.ring == self.base_ring:
            ring = "base"
        else:
            ring = "other"
        ring_ok = (ring == "base" if plan_action == "rolled_back"
                   else ring == "target")
        blobs_ok = server.raw_blobs() == self.twin.server.raw_blobs()
        if variant == "writes" and crashed:
            tree_ok = (visible_tree(self.probe())
                       == visible_tree(self.probe(self.twin)))
        else:
            tree_ok = visible_tree(self.probe()) == self._base_tree
        clean, orphans = audit(self.volume)
        return RebalanceOutcome(
            variant=variant, point=point, total_points=total,
            step=step, crashed=crashed, plan_action=plan_action,
            ring=ring, ring_ok=ring_ok, blobs_ok=blobs_ok,
            tree_ok=tree_ok, fsck_clean=clean, orphans=orphans,
            replicated=repair.fully_replicated,
            plan_cleared=server.plan is None)
