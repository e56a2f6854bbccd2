"""Per-layer metrics of a traced round, and the layer-accounting check.

:func:`probe_counters` snapshots the program's own counters (crypto op
counters, cache/mdcache/scheduler/lease statistics, server statistics,
request counts, finished operation spans) around the window;
:func:`per_layer` turns the tracer's spans plus those counters into the
per-layer metrics, after checking that the wrappers saw exactly what
the program counted.
"""

from __future__ import annotations

from repro.obs.tracing import phase_breakdown

from hostbench.layers import SETUP, WINDOW
from hostbench.workloads import CorrectnessError

#: public ``SharoesFilesystem``/``OpenFile`` functions with a self time.
CLIENT_OPS = ("mkdir", "mknod", "write_file", "create_file", "append_file",
              "read_file", "open", "getattr", "readdir", "unlink", "pwrite",
              "close")

LAYERS = ("crypto", "seal", "cache", "scheduler", "journal", "lease",
          "principals", "wire", "server", "sim", "obs", "fs.client")

_CALLS_SELF = ("crypto.esign.generate_keypair", "crypto.esign.sign",
               "crypto.esign.verify", "crypto.rsa.decrypt_blob",
               "crypto.rsa.generate_keypair", "seal.seal_and_sign",
               "seal.open_verified", "principals.groups.unwrap",
               "journal.seal_journal", "wire.dispatch_message",
               "obs.tracing.span")


def _units() -> dict[str, str]:
    units: dict[str, str] = {}
    for name in _CALLS_SELF:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in ("crypto.stream.seal", "crypto.stream.open_sealed",
                 "wire.client"):
        units[f"{name}.calls"] = "count"
        units[f"{name}.bytes"] = "bytes"
        units[f"{name}.self_s"] = "s"
    units.update({
        "crypto.primes.random_prime.calls": "count",
        "crypto.primes.is_prime.calls": "count",
        "crypto.primes.candidates_per_prime": "ratio",
        "principals.groups.unwraps_per_key": "ratio",
        "cache.hit_rate": "ratio", "cache.evictions": "count",
        "cache.mdcache.hit_rate": "ratio",
        "cache.mdcache.invalidations": "count",
        "fs.client.resolve.depth0.misses": "count",
        "fs.client.stale_reads": "count",
        "scheduler.fetch_flights": "count", "scheduler.dedup_hits": "count",
        "scheduler.flush_waves": "count",
        "scheduler.stale_drop_ratio": "ratio",
        "lease.acquires": "count", "lease.waits": "count",
        "lease.conflicts": "count", "lease.server_requests": "count",
        "journal.server_requests": "count",
        "wire.wait_s": "s",
        "server.requests": "count", "server.bytes_received": "bytes",
        "server.bytes_served": "bytes", "server.exists_probes": "count",
        "sim.costmodel.charge.calls": "count",
        "sim.costmodel.charge.self_s": "s",
        "fsck.audit_s": "s", "fsck.objects": "count",
        "trace.overhead_frac": "ratio",
        "setup.crypto.rsa.generate_keypair.calls": "count",
        "setup.crypto.rsa.generate_keypair.total_s": "s",
        "crypto.esign.generate_keypair.total_s": "s",
        "setup.crypto.esign.generate_keypair.calls": "count",
    })
    for phase in ("network", "crypto", "resolve", "cache", "other"):
        units[f"sim.phase.{phase}_s"] = "s"
    for op in CLIENT_OPS:
        units[f"fs.client.{op}.self_s"] = "s"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"setup.{layer}.self_s"] = "s"
    return units


PER_LAYER_UNITS = _units()


def _snapshot(workload) -> dict:
    """The program's own counters over the measuring clients."""
    snap: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        snap[key] = snap.get(key, 0) + value

    for fs in workload.clients:
        add("requests", fs.request_count)
        for kind in ("sym_encrypt", "sym_decrypt", "sign", "verify"):
            add(f"crypto.{kind}", fs.provider.counters.ops.get(kind, 0))
        stats = fs.cache.stats
        add("cache.hits", stats.hits)
        add("cache.misses", stats.misses)
        add("cache.evictions", stats.evictions)
        if fs.mdcache is not None:
            md = fs.mdcache.snapshot()
            for key in ("hits", "misses", "invalidations"):
                add(f"mdcache.{key}", md[key])
        add("depth0.misses",
            fs.walk_depth_stats().get("0", {}).get("misses", 0))
        if fs.scheduler is not None:
            sched = fs.scheduler.snapshot()
            for key in ("fetch_flights", "dedup_hits", "flush_waves",
                        "stale_drops", "fetched_ops"):
                add(f"scheduler.{key}", sched[key])
        registry = fs.metrics.snapshot()
        for key in ("lease.acquires", "lease.waits", "lease.conflicts"):
            add(key, registry.get(key, 0))
        add("roots", len(fs.tracer.finished))
    stats = workload.server.stats
    for key in ("puts", "gets", "deletes", "misses", "bytes_received",
                "bytes_served"):
        snap[f"server.{key}"] = getattr(stats, key)
    return snap


def probe_counters(out: dict):
    """A ``run_round`` probe storing counter deltas and window phases."""

    def probe(workload, when: str) -> None:
        if when == "before":
            out["before"] = _snapshot(workload)
            out["roots_before"] = [len(fs.tracer.finished)
                                   for fs in workload.clients]
            return
        after = _snapshot(workload)
        out["delta"] = {k: after[k] - out["before"].get(k, 0)
                        for k in after}
        phases = {"network": 0.0, "crypto": 0.0, "resolve": 0.0,
                  "cache": 0.0, "other": 0.0}
        for fs, n0 in zip(workload.clients, out["roots_before"]):
            for span in list(fs.tracer.finished)[n0:]:
                for phase, seconds in phase_breakdown(span).items():
                    phases[phase] += seconds
        out["phases"] = phases

    return probe


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def cross_check(window: dict, delta: dict, remote: bool) -> None:
    """Wrapper call counts must equal the program's own counters.

    ``client.requests`` counts the requests the client's own I/O paths
    issue.  It leaves out existence probes (``SharoesFilesystem._exists``
    calls ``server.exists`` uncounted) and the requests the lease
    manager and journal module send on their own, so the requests that
    reach the SSP are compared with ``client.requests`` plus those.
    """
    calls = window["calls"]
    entry = "wire" if remote else "server"
    uncounted = (window["top_calls"].get("server.exists", 0)
                 + window["entered_from"].get(f"{entry}<-lease", 0)
                 + window["entered_from"].get(f"{entry}<-journal", 0))
    pairs = [
        ("crypto.stream.seal", calls.get("crypto.stream.seal", 0),
         "client.crypto.ops.sym_encrypt", delta["crypto.sym_encrypt"]),
        ("crypto.stream.open_sealed",
         calls.get("crypto.stream.open_sealed", 0),
         "client.crypto.ops.sym_decrypt", delta["crypto.sym_decrypt"]),
        ("crypto.esign.sign", calls.get("crypto.esign.sign", 0),
         "client.crypto.ops.sign", delta["crypto.sign"]),
        ("crypto.esign.verify", calls.get("crypto.esign.verify", 0),
         "client.crypto.ops.verify", delta["crypto.verify"]),
        ("server.put", calls.get("server.put", 0),
         "server.stats.puts", delta["server.puts"]),
        ("server.get", calls.get("server.get", 0),
         "server.stats.gets+misses",
         delta["server.gets"] + delta["server.misses"]),
        ("server.delete", calls.get("server.delete", 0),
         "server.stats.deletes", delta["server.deletes"]),
    ]
    if remote:
        pairs += [
            ("wire.client", calls.get("wire.client", 0),
             "client.requests + uncounted", delta["requests"] + uncounted),
            ("wire.dispatch_message",
             calls.get("wire.dispatch_message", 0),
             "wire.client calls", calls.get("wire.client", 0)),
        ]
    else:
        top = sum(n for name, n in window["top_calls"].items()
                  if name.startswith("server."))
        pairs.append(("server requests entered", top,
                      "client.requests + uncounted",
                      delta["requests"] + uncounted))
    wrong = [f"{a}={x} vs {b}={y}" for a, x, b, y in pairs if x != y]
    if wrong:
        raise CorrectnessError("layer accounting mismatch: "
                               + "; ".join(wrong))


def per_layer(tracer, counters: dict, traced) -> dict:
    """Per-layer metrics of one traced round (after the cross-check)."""
    window = tracer.summary(WINDOW)
    setup = tracer.summary(SETUP)
    delta = counters["delta"]
    remote = window["calls"].get("wire.client", 0) > 0
    cross_check(window, delta, remote)
    calls, self_s = window["calls"], window["self_s"]
    total_s, nbytes = window["total_s"], window["bytes"]
    m: dict[str, float] = {}
    for name in _CALLS_SELF:
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in ("crypto.stream.seal", "crypto.stream.open_sealed",
                 "wire.client"):
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.bytes"] = nbytes.get(name, 0)
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
    primes = calls.get("crypto.primes.random_prime", 0)
    tests = calls.get("crypto.primes.is_prime", 0)
    m["crypto.primes.random_prime.calls"] = primes
    m["crypto.primes.is_prime.calls"] = tests
    m["crypto.primes.candidates_per_prime"] = _ratio(tests, primes)
    m["principals.groups.unwraps_per_key"] = _ratio(
        calls.get("principals.groups.unwrap", 0),
        len(tracer.unwrapped_keys))
    m["cache.hit_rate"] = _ratio(
        delta["cache.hits"], delta["cache.hits"] + delta["cache.misses"])
    m["cache.evictions"] = delta["cache.evictions"]
    m["cache.mdcache.hit_rate"] = _ratio(
        delta.get("mdcache.hits", 0),
        delta.get("mdcache.hits", 0) + delta.get("mdcache.misses", 0))
    m["cache.mdcache.invalidations"] = delta.get("mdcache.invalidations", 0)
    m["fs.client.resolve.depth0.misses"] = delta["depth0.misses"]
    m["fs.client.stale_reads"] = traced.stale_reads
    for key in ("fetch_flights", "dedup_hits", "flush_waves"):
        m[f"scheduler.{key}"] = delta.get(f"scheduler.{key}", 0)
    m["scheduler.stale_drop_ratio"] = _ratio(
        delta.get("scheduler.stale_drops", 0),
        delta.get("scheduler.fetched_ops", 0))
    for key in ("acquires", "waits", "conflicts"):
        m[f"lease.{key}"] = delta[f"lease.{key}"]
    m["wire.wait_s"] = (total_s.get("wire.client", 0.0)
                        - total_s.get("wire.dispatch_message", 0.0))
    m["server.requests"] = (delta["server.puts"] + delta["server.gets"]
                            + delta["server.deletes"])
    m["server.bytes_received"] = delta["server.bytes_received"]
    m["server.bytes_served"] = delta["server.bytes_served"]
    entry = "wire" if remote else "server"
    m["server.exists_probes"] = window["top_calls"].get("server.exists", 0)
    m["lease.server_requests"] = window["entered_from"].get(
        f"{entry}<-lease", 0)
    m["journal.server_requests"] = window["entered_from"].get(
        f"{entry}<-journal", 0)
    m["sim.costmodel.charge.calls"] = calls.get("sim.costmodel.charge", 0)
    m["sim.costmodel.charge.self_s"] = self_s.get("sim.costmodel.charge",
                                                  0.0)
    for phase, seconds in counters["phases"].items():
        m[f"sim.phase.{phase}_s"] = seconds
    for op in CLIENT_OPS:
        m[f"fs.client.{op}.self_s"] = self_s.get(f"fs.client.{op}", 0.0)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = window["layer_self_s"].get(layer, 0.0)
        m[f"setup.{layer}.self_s"] = setup["layer_self_s"].get(layer, 0.0)
    m["setup.crypto.rsa.generate_keypair.calls"] = setup["calls"].get(
        "crypto.rsa.generate_keypair", 0)
    # key generation's own code is tiny next to its prime search, so
    # its inclusive time is reported beside the self time.
    m["setup.crypto.rsa.generate_keypair.total_s"] = setup["total_s"].get(
        "crypto.rsa.generate_keypair", 0.0)
    m["crypto.esign.generate_keypair.total_s"] = total_s.get(
        "crypto.esign.generate_keypair", 0.0)
    m["setup.crypto.esign.generate_keypair.calls"] = setup["calls"].get(
        "crypto.esign.generate_keypair", 0)
    m["fsck.audit_s"] = traced.audit_s
    m["fsck.objects"] = traced.objects
    return m
