"""One sweep engine and one oracle for the exhaustive robustness matrices.

The crash (:mod:`.crashmatrix`), interleave (:mod:`.interleave`),
composed-campaign (:mod:`.campaign`) and rebalance
(:mod:`.rebalancematrix`) harnesses are thin configs over
:class:`Matrix`: each keeps its cases, its cell runner and its table
columns.  The engine does the rest:

* builds the tiny enterprise once -- the harness's users, all in group
  ``eng``, and one 256-byte-block volume per backing server the harness
  supplies (plain, sharded, or twin stacks), group keys published and
  the shared directory ``/d`` created;
* checkpoints and restores every stack (blobs, ``allocator._next``, the
  shared clock, a sharded backend's ring), then calls the harness's
  per-cell fault-schedule hook :meth:`Matrix.arm`;
* sweeps scenario x case x axis (recovery, mode or variant) x k, each
  case opening with the counting run that discovers T;
* renders the table from a column spec, ending
  ``N <cells|crash points>, M inconsistent``.

The oracle judges every cell: :func:`holds`, :func:`path_exists`,
:func:`audit` ``(clean, orphans)``, :func:`visible_tree` and
:func:`pinned_entropy`.  The differential test suites judge their twin
runs with the same functions.

Deterministic per seed: payloads derive from the seed and mutation
counts are structural (blob *counts*, not blob bytes), so reruns with
the same seed print identical tables.  (Unpinned RSA keygen draws from
``secrets`` -- key material varies, outcomes do not.)
"""

from __future__ import annotations

import random
import secrets
from contextlib import contextmanager
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, NamedTuple

from ..crypto import rsa
from ..crypto.provider import CryptoProvider
from ..errors import FileNotFound, FilesystemError
from ..fs.client import ClientConfig, SharoesFilesystem
from ..fs.permissions import DIRECTORY
from ..fs.volume import SharoesVolume
from ..principals.groups import GroupKeyService
from ..principals.registry import PrincipalRegistry
from ..principals.users import User
from ..storage.resilient import CrashingServer
from .fsck import VolumeAuditor

#: small blocks so writes span several blobs, hence several mutations.
BLOCK = 256


# -- the oracle ---------------------------------------------------------------


class SeededEntropy:
    """Drop-in for the ``secrets`` functions the crypto stack uses."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)

    def token_bytes(self, n: int) -> bytes:
        return self._rng.randbytes(n)

    def randbelow(self, n: int) -> int:
        return self._rng.randrange(n)

    def randbits(self, k: int) -> int:
        return self._rng.getrandbits(k)


@contextmanager
def pinned_entropy(seed: int):
    """Route ``secrets`` through a seeded stream (twin-run determinism).

    Two runs that replay the same op sequence under the same seed draw
    identical keys, IVs and signature nonces in identical order, so
    they produce byte-identical ciphertext -- the property every
    differential judgement rests on.
    """
    det = SeededEntropy(seed)
    saved = (secrets.token_bytes, secrets.randbelow, secrets.randbits)
    secrets.token_bytes = det.token_bytes
    secrets.randbelow = det.randbelow
    secrets.randbits = det.randbits
    try:
        yield
    finally:
        secrets.token_bytes, secrets.randbelow, secrets.randbits = saved


def path_exists(fs: SharoesFilesystem, path: str) -> bool:
    try:
        fs.lstat(path)
        return True
    except (FileNotFound, FilesystemError):
        return False


def holds(pred: Callable[[SharoesFilesystem], bool],
          fs: SharoesFilesystem) -> bool:
    """Evaluate an oracle; a missing path means 'predicate false'.

    Integrity errors are deliberately NOT caught -- a signature failure
    after recovery is a real bug, never a benign 'other state'.
    """
    try:
        return bool(pred(fs))
    except FilesystemError:
        return False


def visible_tree(fs: SharoesFilesystem, path: str = "/") -> dict:
    """Everything an application can see below ``path``.

    Nothing is caught: an integrity failure must fail the comparison,
    not become a recorded error shape that a twin run hitting the same
    failure would match.
    """
    out = {}
    for name in sorted(fs.readdir(path)):
        child = path.rstrip("/") + "/" + name
        stat = fs.getattr(child)
        entry = {"stat": stat}
        if stat.ftype == DIRECTORY:
            entry["children"] = visible_tree(fs, child)
        else:
            entry["content"] = fs.read_file(child)
        out[name] = entry
    return out


def audit(volume: SharoesVolume) -> tuple[bool, int]:
    """The fsck verdict: ``(clean, orphaned blob count)``."""
    report = VolumeAuditor(volume).audit()
    return report.clean, len(report.orphaned_blobs)


@dataclass(frozen=True)
class Case:
    """One swept op, with its oracle predicates."""

    name: str
    #: state built before the op (by the first user, then unmounted).
    prepare: Callable[[SharoesFilesystem], None]
    #: the op whose SSP mutation sequence is swept.
    run: Callable[[SharoesFilesystem], None]
    #: every op of the cell took effect.
    applied: Callable[[SharoesFilesystem], bool]
    #: the swept op is fully absent (every rider still applied).
    rolled_back: Callable[[SharoesFilesystem], bool]
    #: ``(user id, op)`` riders injected at the interleaving point.
    others: tuple = ()


# -- the enterprise -----------------------------------------------------------


class Checkpoint(NamedTuple):
    blobs: dict
    next_inode: int
    now: float | None  # the shared clock, if the stack has one
    ring: object  # a sharded backend's active RingSpec, else None


class Stack:
    """One formatted volume on one backing server, restorable."""

    def __init__(self, server, registry: PrincipalRegistry, clock=None):
        self.server = server
        self.registry = registry
        self.clock = clock
        self.volume = SharoesVolume(server, registry, block_size=BLOCK,
                                    clock=clock)
        self.volume.format(root_owner="alice", root_group="eng")
        GroupKeyService(registry, server, CryptoProvider()).publish_all()
        self.base: Checkpoint | None = None

    def client(self, user_id: str, config: dict, server=None,
               consistency: bool = False) -> SharoesFilesystem:
        fs = SharoesFilesystem(self.volume, self.registry.user(user_id),
                               config=ClientConfig(**config), server=server)
        if consistency:
            fs.enable_consistency_log()
        fs.mount()
        return fs

    def checkpoint(self) -> Checkpoint:
        return Checkpoint(self.server.snapshot_blobs(),
                          self.volume.allocator._next,
                          None if self.clock is None else self.clock.now,
                          getattr(self.server, "ring", None))

    def restore(self, point: Checkpoint) -> None:
        """Back to ``point``; a sharded backend first drops its fault
        wrappers and returns to the checkpoint's ring."""
        if point.ring is not None:
            self.server.clear_wrappers()
            self.server.set_ring(point.ring.members, point.ring.replicas)
        self.server.restore_blobs(point.blobs)
        self.volume.allocator._next = point.next_inode
        if point.now is not None:
            self.clock.reset(point.now)


# -- the engine ---------------------------------------------------------------


class Matrix:
    """The sweep engine; each harness subclass is a config over it."""

    #: every user is in group ``eng``; the first owns the root and
    #: ``/d`` and runs every swept op.
    USERS: tuple = ("alice",)
    #: ``ClientConfig`` fields of the swept clients.
    CLIENT: dict = {"journal": True, "cache_bytes": 0}
    #: ``ClientConfig`` fields of the oracle's probe client.
    PROBE: dict = {"cache_bytes": 0}
    #: the sweep axis (recovery, mode or variant), in table order.
    AXIS: tuple = ()
    #: fault schedules swept outermost; ``None`` arms nothing.
    SCENARIOS: tuple = (None,)
    #: table columns ``(title, format spec, attribute name or getter)``,
    #: the rule width, and what the footer counts.
    COLUMNS: tuple = ()
    RULE = 100
    NOUN = "cells"

    def __init__(self, key_bits: int = 512):
        self.registry = PrincipalRegistry()
        for name in self.USERS:
            self.registry.add_user(User(
                user_id=name, keypair=rsa.generate_keypair(key_bits)))
        self.registry.create_group("eng", set(self.USERS),
                                   key_bits=key_bits)
        self.stacks: list[Stack] = []
        self.scenario = None

    # -- stacks ----------------------------------------------------------------

    def add_stack(self, server, clock=None, mode: int = 0o775,
                  files: tuple = ()) -> Stack:
        """Format a volume on ``server``, create ``/d`` holding
        ``files`` as ``/d/f0..``, and checkpoint that as its base."""
        stack = Stack(server, self.registry, clock)
        self.stacks.append(stack)
        fs = self.client(stack=stack)
        fs.mkdir("/d", mode=mode)
        for i, payload in enumerate(files):
            fs.create_file(f"/d/f{i}", mode=0o664)
            fs.write_file(f"/d/f{i}", payload)
        fs.unmount()
        stack.base = stack.checkpoint()
        return stack

    @property
    def server(self):
        return self.stacks[0].server

    @property
    def volume(self) -> SharoesVolume:
        return self.stacks[0].volume

    @property
    def clock(self):
        return self.stacks[0].clock

    def client(self, user_id: str | None = None, server=None,
               consistency: bool = False,
               stack: Stack | None = None) -> SharoesFilesystem:
        """A mounted swept client (``CLIENT`` config)."""
        return (stack or self.stacks[0]).client(
            user_id or self.USERS[0], self.CLIENT, server, consistency)

    def probe(self, stack: Stack | None = None) -> SharoesFilesystem:
        """A fresh client for oracle checks (``PROBE`` config)."""
        return (stack or self.stacks[0]).client(self.USERS[0], self.PROBE)

    def checkpoint(self) -> list[Checkpoint]:
        return [stack.checkpoint() for stack in self.stacks]

    def restore(self, points: list[Checkpoint] | None = None) -> None:
        """Every stack back to ``points`` (default: its base), then the
        scenario's fault schedule armed afresh."""
        for stack, point in zip(self.stacks, points or
                                [stack.base for stack in self.stacks]):
            stack.restore(point)
        self.arm()

    def arm(self) -> None:
        """Per-cell fault-schedule hook; runs after every restore."""

    # -- the sweep -------------------------------------------------------------

    def cases(self) -> list:
        raise NotImplementedError

    def run_cell(self, case, mode: str, point: int, total: int):
        raise NotImplementedError

    def prepare(self, case: Case) -> None:
        """Restore the base, then build the case's starting state."""
        self.restore()
        fs = self.client()
        case.prepare(fs)
        fs.unmount()

    def count_points(self, case: Case) -> int:
        """Counting run: T = the SSP mutations the case's op issues."""
        self.prepare(case)
        counter = CrashingServer(self.server)
        case.run(self.client(server=counter))
        return counter.mutations

    def points(self, mode: str, total: int):
        """The k values swept for one axis value."""
        return range(1, total + 1)

    def run_case(self, case, modes: tuple | None = None) -> list:
        """Count T, then sweep axis x k for one case."""
        total = self.count_points(case)
        return [self.run_cell(case, mode, k, total)
                for mode in self.AXIS if modes is None or mode in modes
                for k in self.points(mode, total)]

    def run(self, modes: tuple | None = None, names: tuple | None = None,
            scenarios: tuple | None = None) -> list:
        """The whole sweep: scenario x case x axis x k."""
        outcomes = []
        for scenario in self.SCENARIOS:
            if scenarios is not None and scenario.name not in scenarios:
                continue
            self.scenario = scenario
            for case in self.cases():
                if names is None or case.name in names:
                    outcomes.extend(self.run_case(case, modes))
        self.scenario = None
        return outcomes

    # -- the verdict -----------------------------------------------------------

    def ok(self, outcomes: list) -> bool:
        return all(o.consistent for o in outcomes)

    def table(self, outcomes: list, header: tuple = (),
              summary: tuple = ()) -> str:
        """Render the outcomes table (the CI artifact)."""
        columns = [(title, spec, attrgetter(get) if isinstance(get, str)
                    else get) for title, spec, get in self.COLUMNS]
        rule = "-" * self.RULE
        bad = sum(1 for o in outcomes if not o.consistent)
        return "\n".join([
            *header,
            " ".join(f"{title:{spec}}" for title, spec, _ in columns),
            rule,
            *(" ".join(f"{get(o):{spec}}" for _, spec, get in columns)
              for o in outcomes),
            rule,
            *summary,
            f"{len(outcomes)} {self.NOUN}, {bad} inconsistent"])
