"""The host's current speed, from a fixed reference kernel.

The benchmark shares a few cores of a host with other tenants, and the
speed of those cores drifts by a third and more from minute to minute
(neighbours on the sibling hyperthread, shared caches, frequency).  A
raw host time therefore says as much about the neighbours as about the
program.  So the driver runs :func:`kernel` -- fixed work of the same
kinds the program does (a byte-wise generator XOR, short SHA-256
digests, modular exponentiation, dict churn) that calls no
code of the program -- between operations, and scales each operation's
host time by ``NOMINAL_S / median(kernel time)`` of the kernel samples
taken around it.

A scaled time is the time the operation would take on a host on which
the kernel takes :data:`NOMINAL_S`; a change to the program moves it
exactly as it moves the raw time, since the kernel never runs program
code.  The raw times are kept and printed next to the scaled ones.
"""

from __future__ import annotations

import hashlib
import statistics
import time

#: kernel seconds of the nominal host the scaled times refer to (about
#: what one kernel call takes on a 2-vCPU x86_64 cloud VM).
NOMINAL_S = 0.0004

_A = bytes(range(256)) * 4
_B = bytes(reversed(range(256))) * 4
_PREFIX = b"reference-kernel" * 2
_MOD = (1 << 383) - 187
_BASE = 0x5DEECE66D * 0x9E3779B97F4A7C15


def kernel() -> int:
    """Fixed work, about :data:`NOMINAL_S` seconds; returns a checksum."""
    body = bytes(a ^ b for a, b in zip(_A, _B))
    digest = b""
    for counter in range(24):
        digest = hashlib.sha256(
            _PREFIX + counter.to_bytes(8, "big")).digest()
    acc = pow(_BASE, int.from_bytes(digest, "big"), _MOD)
    table = {}
    for i in range(200):
        table[i & 63] = table.get(i & 63, 0) + i
    return acc ^ body[7] ^ len(table)


#: kernel samples on each side of an operation whose median gives the
#: host's speed at that operation (a window of about a second or less).
NEIGHBOURS = 16


class HostSpeed:
    """Kernel samples, in wall and CPU seconds, taken between operations."""

    def __init__(self):
        self.wall: list[float] = []
        self.cpu: list[float] = []

    def sample(self) -> None:
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        kernel()
        self.wall.append(time.perf_counter() - t0)
        self.cpu.append(time.process_time() - cpu0)

    def samples(self, n: int) -> "HostSpeed":
        for _ in range(n):
            self.sample()
        return self

    @property
    def scale(self) -> float:
        """Factor from this host's wall seconds to the nominal host's,
        over every sample."""
        return NOMINAL_S / statistics.median(self.wall)

    def local_scales(self, cpu: bool = False) -> list[float]:
        """For sample ``i``: the factor from host seconds (wall, or CPU
        with ``cpu``) to the nominal host's, from the median of the
        samples within :data:`NEIGHBOURS` of ``i``."""
        values = self.cpu if cpu else self.wall
        return [NOMINAL_S / statistics.median(
                    values[max(0, i - NEIGHBOURS):i + NEIGHBOURS + 1])
                for i in range(len(values))]
