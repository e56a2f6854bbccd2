"""Composed adversarial campaign: every robustness defence at once.

``repro campaign`` runs the multi-client interleaving matrix
(:mod:`repro.tools.interleave` -- sequential / preempt / crash /
zombie schedules over journaled, leased clients) on top of a
:class:`~repro.storage.shards.ShardedServer` whose shards are
themselves under attack.  Every cell replays from a pristine volume
with a freshly armed *scenario*:

* ``outage+flaky`` -- one shard hard-down for the entire schedule plus
  a second shard failing a seeded fraction of its requests:
  replication masks the outage, the per-shard transport retries the
  flakes, and the matrix's crash/zombie injection rides on top;
* ``rollback`` -- one shard serves the first version it ever stored
  (a rolled-back replica): quorum reads outvote it, flag it suspect,
  and never serve its stale bytes;
* ``tamper`` -- one shard flips a bit in every data-plane payload it
  serves: outvoted and flagged exactly like rollback.  Lease blobs are
  exempt by construction: a tampered lease copy cannot *forge* (leases
  are signed) but can inflate the max-epoch fence into a denial of
  service, which quorum deliberately does not mask -- see
  THREAT_MODEL.md;
* ``rebalance`` -- every cell runs against a store mid-rebalance: a
  signed shrink plan is staged and verified (but never flipped) before
  the schedule starts, so reads and writes exercise dual placement
  throughout, and the final anti-entropy pass must arbitrate the
  abandoned plan (roll it back) before healing -- see
  :mod:`repro.storage.rebalance`.

The campaign is the interleave config plus a scenario axis (armed by
the engine's per-cell :meth:`~repro.tools.matrix.Matrix.arm` hook) and
a post-sweep heal.  The matrix's own multi-client contract must hold in
every cell (no lost updates, fsck clean with zero orphans, no fork
detected), and after the sweep a single ``clear_wrappers()`` +
anti-entropy :meth:`~repro.storage.shards.ShardedServer.repair` pass
must restore full replication -- :meth:`Campaign.ok` fails loudly
otherwise.

Byzantine shards are armed one at a time on a healthy quorum: with
``replicas=3`` a divergent copy is outvoted only while two honest live
copies remain, so a rollback *plus* an overlapping outage degrades to
detection (the tie is counted and surfaced for repair; client-side
verification stays the backstop) rather than masking.

Deterministic per seed: payloads, flaky draws and schedule sweeps all
derive from ``seed``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..storage.blobs import LEASE
from ..storage.faults import RollbackServer, TamperingServer
from ..storage.resilient import FlakyServer
from ..storage.shards import ShardedServer
from .interleave import InterleaveMatrix
from .matrix import audit


@dataclass(frozen=True)
class Scenario:
    """Which shards are adversarial, and how, for one sweep."""

    name: str
    outage: int | None = None    # shard hard-down for the whole schedule
    flaky: int | None = None     # shard failing a seeded fraction
    rollback: int | None = None  # shard serving first-ever versions
    tamper: int | None = None    # shard bit-flipping data-plane reads
    #: ``(members, replicas)``: every cell runs with a rebalance plan
    #: to this ring staged-and-verified but unflipped, so the whole
    #: multi-client contract must hold under dual placement; the final
    #: campaign repair arbitrates the abandoned plan (rolls it back).
    rebalance: tuple | None = None


#: the default composed run (shard indices assume ``shards >= 4``).
DEFAULT_SCENARIOS = (
    Scenario("outage+flaky", outage=0, flaky=1),
    Scenario("rollback", rollback=2),
    Scenario("tamper", tamper=3),
    Scenario("rebalance", rebalance=((0, 1, 2), 3)),
)


class Campaign(InterleaveMatrix):
    """The interleaving matrix over a sharded, adversarial backend."""

    SCENARIOS = DEFAULT_SCENARIOS
    COLUMNS = (("scenario", "<14", "scenario"),) + tuple(
        column for column in InterleaveMatrix.COLUMNS
        if column[0] not in ("defer", "orph"))

    def __init__(self, seed: int = 0, key_bits: int = 512,
                 shards: int = 4, replicas: int = 3,
                 read_quorum: int = 2, flaky_p: float = 0.1):
        self.seed = seed
        self.flaky_p = flaky_p
        self._arm_seq = 0
        super().__init__(
            seed=seed, key_bits=key_bits,
            server_factory=lambda clock: ShardedServer(
                shards=shards, replicas=replicas,
                read_quorum=read_quorum, clock=clock))

    def arm(self) -> None:
        """A freshly armed scenario for every cell (and counting run).

        The flaky shard's seed advances with every arming, so each
        restore draws a new, reproducible failure sequence.
        """
        scenario = self.scenario
        if scenario is None:
            return
        self._arm_seq += 1
        if scenario.outage is not None:
            self.server.outage(scenario.outage, start_s=self.clock.now)
        if scenario.flaky is not None:
            seq, p = self._arm_seq, self.flaky_p
            self.server.wrap_shard(
                scenario.flaky,
                lambda backend: FlakyServer(
                    backend, failure_rate={"put": p, "get": p},
                    seed=self.seed * 100_003 + seq))
        if scenario.rollback is not None:
            self.server.wrap_shard(
                scenario.rollback,
                lambda backend: RollbackServer(inner=backend))
        if scenario.tamper is not None:
            self.server.wrap_shard(
                scenario.tamper,
                lambda backend: TamperingServer(
                    inner=backend,
                    should_tamper=lambda b: b.kind != LEASE))
        if scenario.rebalance is not None:
            from ..storage.rebalance import VERIFIED, Rebalancer
            members, replicas = scenario.rebalance
            reb = Rebalancer(
                self.server,
                keypair=self.registry.user("alice").keypair)
            reb.propose(members, replicas)
            reb.execute(until=VERIFIED)

    def run(self, modes: tuple | None = None, names: tuple | None = None,
            scenarios: tuple | None = None) -> list:
        """The sweep, then the heal: drop every adversary, then one
        anti-entropy pass (plus one more if the first unlocked work)
        must restore placement."""
        cells = super().run(modes, names, scenarios)
        self.server.clear_wrappers()
        self.repair = self.server.repair()
        if not self.repair.fully_replicated:
            self.repair = self.server.repair()
        self.post_audit = audit(self.volume)
        self.shard_metrics = self.server.shard_snapshot()
        return cells

    def ok(self, outcomes: list) -> bool:
        return (super().ok(outcomes) and self.repair.fully_replicated
                and self.post_audit == (True, 0))

    def table(self, outcomes: list) -> str:
        server, m = self.server, self.shard_metrics
        clean, orphans = self.post_audit
        return super().table(outcomes, header=(
            f"composed campaign: seed={self.seed} "
            f"shards={len(server.shards)} replicas={server.replicas} "
            f"read_quorum={server.read_quorum}",
        ), summary=(
            f"shard health: quorum_reads={m['reads.quorum']:.0f} "
            f"failovers={m['reads.failover']:.0f} "
            f"divergent={m['divergent']:.0f} "
            f"outvoted={m['outvoted']:.0f} ties={m['ties']:.0f} "
            f"suspect_served={m['reads.suspect_served']:.0f}",
            f"final repair: {self.repair.summary()}",
            f"post-repair fsck: {'clean' if clean else 'DIRTY'}, "
            f"{orphans} orphans"))
