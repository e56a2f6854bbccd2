"""Shared fixtures: a small enterprise with users, groups and a volume.

Key generation dominates test runtime, so user key pairs are minted once
per session and cloned into fresh registries per test.

The differential suites share one pinned-entropy run
(:func:`differential_run`): a seeded workload under the oracle's
:func:`~repro.tools.matrix.pinned_entropy`, so two runs that differ in
one config axis mint identical keys, IVs and nonces and must leave
byte-identical SSP state.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager, nullcontext

import pytest

from repro.crypto import rsa
from repro.crypto.provider import CryptoProvider
from repro.fs.client import ClientConfig, SharoesFilesystem
from repro.fs.permissions import AclEntry
from repro.fs.volume import SharoesVolume
from repro.principals.groups import GroupKeyService
from repro.principals.registry import PrincipalRegistry
from repro.principals.users import User
from repro.sim.costmodel import CostModel
from repro.sim.profiles import FREE, PAPER_2008
from repro.storage.server import StorageServer
from repro.tools.matrix import pinned_entropy, visible_tree
from repro.workloads.runner import BenchEnv, make_env

USER_NAMES = ("alice", "bob", "carol", "dave")


@pytest.fixture(scope="session")
def session_keypairs() -> dict[str, rsa.KeyPair]:
    """Expensive RSA key generation, done once per test session."""
    return {name: rsa.generate_keypair(512) for name in USER_NAMES}


@pytest.fixture
def registry(session_keypairs) -> PrincipalRegistry:
    """alice+bob in group eng; carol in group hr; dave groupless."""
    reg = PrincipalRegistry()
    for name in USER_NAMES:
        reg.add_user(User(user_id=name, keypair=session_keypairs[name]))
    reg.create_group("eng", {"alice", "bob"}, key_bits=512)
    reg.create_group("hr", {"carol"}, key_bits=512)
    return reg


@pytest.fixture
def server() -> StorageServer:
    return StorageServer()


@pytest.fixture
def volume(server, registry) -> SharoesVolume:
    """A formatted Scheme-2 volume rooted at alice:eng 0755."""
    vol = SharoesVolume(server, registry)
    vol.format(root_owner="alice", root_group="eng")
    GroupKeyService(registry, server, CryptoProvider()).publish_all()
    return vol


@pytest.fixture
def make_fs(volume, registry):
    """Factory: a mounted client for any user (zero-cost profile)."""

    def factory(user_id: str = "alice",
                config: ClientConfig | None = None,
                with_costs: bool = False) -> SharoesFilesystem:
        cost = CostModel(PAPER_2008 if with_costs else FREE)
        fs = SharoesFilesystem(volume, registry.user(user_id),
                               cost_model=cost, config=config)
        fs.mount()
        return fs

    return factory


@pytest.fixture
def alice_fs(make_fs) -> SharoesFilesystem:
    return make_fs("alice")


@pytest.fixture
def bob_fs(make_fs) -> SharoesFilesystem:
    return make_fs("bob")


@pytest.fixture
def carol_fs(make_fs) -> SharoesFilesystem:
    return make_fs("carol")


@pytest.fixture
def dave_fs(make_fs) -> SharoesFilesystem:
    return make_fs("dave")


# -- the pinned-entropy differential run --------------------------------------

#: the seeded workloads every differential suite replays.
WORKLOADS = ("postmark", "andrew", "createlist", "sharing")


@contextmanager
def _forced_config(**overrides):
    """Force config fields onto every client a run mounts.

    Workloads mount their own fresh clients with their own configs
    (cache settings etc.); the differential axis must apply to those
    too, so ``BenchEnv.fresh_client`` is wrapped to stamp the overrides
    onto whatever config the workload chose.
    """
    original = BenchEnv.fresh_client

    def stamped(self, config=None, reset_cost=True):
        config = config if config is not None else ClientConfig()
        for name, value in overrides.items():
            setattr(config, name, value)
        return original(self, config=config, reset_cost=reset_cost)

    BenchEnv.fresh_client = stamped
    try:
        yield
    finally:
        BenchEnv.fresh_client = original


def _sharing_script(env: BenchEnv) -> None:
    """Sharing/revocation mix: ACL grants, revocation (re-encryption),
    ownership churn, rename and unlink -- the mutation-heavy paths that
    fan multi-blob writes out and invalidate cached metadata."""
    fs = env.fs
    payload = b"collaborative document " * 40
    fs.mkdir("/proj", mode=0o755)
    for i in range(6):
        fs.create_file(f"/proj/f{i}", payload + bytes([i]), mode=0o644)
    fs.set_acl("/proj/f0", (AclEntry("bob", 0o4),))
    fs.set_acl("/proj/f1", (AclEntry("bob", 0o6),))
    fs.chmod("/proj/f2", 0o600)
    fs.chown("/proj/f3", "bob")
    # Revoke bob's grant: with immediate_revocation this re-encrypts.
    fs.set_acl("/proj/f0", ())
    fs.rename("/proj/f4", "/proj/g4")
    fs.unlink("/proj/f5")


def _run_workload(workload: str, env: BenchEnv) -> None:
    if workload == "postmark":
        from repro.workloads import postmark
        # Postmark namespaces each pass with a process-global counter;
        # pin it so both differential runs build identical paths.
        postmark._RUN_COUNTER = itertools.count()
        postmark.run_postmark(env, files=30, transactions=40, subdirs=3)
    elif workload == "andrew":
        from repro.workloads.andrew import run_andrew
        run_andrew(env)
    elif workload == "createlist":
        from repro.workloads.createlist import run_create_and_list
        run_create_and_list(env, files=60, dirs=6)
    elif workload == "sharing":
        _sharing_script(env)
    else:  # pragma: no cover
        raise AssertionError(workload)


@pytest.fixture(params=WORKLOADS)
def workload(request) -> str:
    return request.param


@pytest.fixture
def differential_run():
    """Factory: one seeded workload under pinned entropy.

    ``force`` stamps config fields onto every client the run mounts
    (and, unless ``config`` is given, onto the first one); ``before`` /
    ``after`` see the env around the workload, which may also be a
    callable.  Returns ``(env, snapshot)`` with the final ``blobs``,
    the visible ``tree``, the client's ``requests`` and the ``volume``;
    each suite reads its own extra fields off the env.
    """

    def run(workload, *, seed: int = 0x5EED, force: dict | None = None,
            config: ClientConfig | None = None, before=None, after=None,
            extra_users=("bob",), **env_kwargs):
        force = force or {}
        if config is None and force:
            config = ClientConfig(**force)
        with pinned_entropy(seed), (_forced_config(**force) if force
                                    else nullcontext()):
            env = make_env("sharoes", config=config,
                           extra_users=extra_users, **env_kwargs)
            if before is not None:
                before(env)
            if callable(workload):
                workload(env)
            else:
                _run_workload(workload, env)
            if after is not None:
                after(env)
            return env, {"blobs": env.server.raw_blobs(),
                         "tree": visible_tree(env.fs),
                         "requests": env.fs.request_count,
                         "volume": env._volume}

    return run
