"""Remote shards: a multi-host serving ring on localhost sockets.

Walks the PR 10 remote tier end to end:

1. **A mixed ring** — two shard *server processes* (the multi-host stand-in:
   each speaks the length-prefixed batch protocol over TCP) plus one local
   dispatcher, joined into a single rendezvous ring by ``ClusterGateway``.
   Traffic routes by fingerprint exactly as in the single-host tiers.
2. **Replica failover** — one server process is killed mid-service.  The
   gateway's heartbeats notice, the reconnect budget is exhausted, the dead
   member's fingerprints re-rank onto the survivors, and the in-flight plus
   follow-up requests complete anyway.  ``stats.summary()["cluster"]``
   shows the failovers, the per-member link counters, and the corpse.

Run with:  PYTHONPATH=src python examples/remote_cluster.py
"""

import numpy as np

from repro import ClusterConfig, ClusterGateway, F3RConfig
from repro.matgen import poisson2d
from repro.serve import rank_members
from repro.serve.remote import spawn_server


def traffic(ops, n_rhs=12):
    rng = np.random.default_rng(7)
    return [(ops[i % len(ops)], rng.random(ops[i % len(ops)].nrows))
            for i in range(n_rhs)]


def show_cluster(summary):
    cl = summary["cluster"]
    for name, member in sorted(cl["members"].items()):
        print(f"  {name:>6}: kind={member['kind']:<6} "
              f"state={member['state']}")
    print(f"  failovers={cl['failovers']} hedges={cl['hedges']} "
          f"reconnects={cl['reconnects']} dead={cl['dead_members']}")


def main() -> None:
    config = F3RConfig(variant="fp32", m1=10)
    ops = [poisson2d(8), poisson2d(10)]

    print("=== 1. two shard servers + one local member, one ring ===")
    proc_a, addr_a = spawn_server(config=config, max_workers=1,
                                  heartbeat_interval=0.1)
    proc_b, addr_b = spawn_server(config=config, max_workers=1,
                                  heartbeat_interval=0.1)
    # name the doomed server (A) as the rendezvous *primary* for the hot
    # fingerprint, so killing it later exercises failover, not just
    # routing-around-a-known-corpse
    names = ["alpha", "beta", "gamma"]
    primary = rank_members(ops[0].fingerprint(), names)[0]
    others = [n for n in names if n != primary]
    cluster = ClusterConfig(
        members=((primary, "%s:%d" % tuple(addr_a)),
                 (others[0], "%s:%d" % tuple(addr_b)),
                 (others[1], "local")),
        max_batch=4, max_retries=4, retry_backoff=0.05,
        heartbeat_interval=0.1, miss_limit=3,
        reconnect_attempts=3, backoff_base=0.05, backoff_max=0.2,
        connect_timeout=2.0)
    gateway = ClusterGateway(config=config, cluster=cluster, max_workers=1)
    try:
        results = gateway.solve_many(traffic(ops))
        print(f"  {len(results)} solves converged: "
              f"{all(r.converged for r in results)}")
        show_cluster(gateway.stats.summary())

        print("\n=== 2. kill one replica; the ring heals ===")
        # submit immediately after the SIGKILL, while the gateway still
        # believes alpha is up: these batches dispatch to the corpse, the
        # reconnect budget exhausts, and the *failover* path (not plain
        # routing-around) re-ranks them onto the survivors
        proc_a.kill()
        print(f"  server A ({'%s:%d' % tuple(addr_a)}) killed mid-service")
        results = gateway.solve_many(traffic(ops))
        proc_a.join()
        print(f"  {len(results)} post-kill solves converged: "
              f"{all(r.converged for r in results)}")
        summary = gateway.stats.summary()
        show_cluster(summary)
    finally:
        gateway.close()
        proc_b.kill()
        proc_b.join()


if __name__ == "__main__":
    main()
