"""A6 — multiple TSM servers (§6.4's limitation, quantified).

Paper: "Having a single TSM server creates a single point of failure...
and a limitation when we need to scale beyond what a single TSM server
can provide... native support for multiple TSM servers would be
beneficial to maintain a single namespace."

Bench: a metadata-heavy store burst (many small objects; the server's
transaction engine is the bottleneck, as it is at hundreds of millions
of files) against 1, 2 and 4 sharded servers.
"""

from repro.sim import Environment
from repro.metrics import comparison_table
from repro.tapesim import TapeLibrary, TapeSpec
from repro.tsm import ShardedTsmStore, TsmServer

from _common import MB, small_tape_spec, write_report

N_OBJECTS = 240
OBJ_SIZE = 1 * MB
TXN_TIME = 0.1  # a loaded TSM 5.5 DB at hundreds of millions of objects


def _store_burst(n_servers):
    env = Environment()
    servers = []
    for _ in range(n_servers):
        lib = TapeLibrary(env, n_drives=4, spec=small_tape_spec(),
                          n_scratch=16, robot_exchange=3.0)
        servers.append(TsmServer(env, lib, txn_time=TXN_TIME))
    store = ShardedTsmStore(env, servers)
    sess = store.open_session("fta0")
    items = [(f"/d/f{i:05d}", OBJ_SIZE) for i in range(N_OBJECTS)]
    t0 = env.now
    env.run(store.store_objects(sess, "fs", items))
    return env.now - t0


def _run():
    return {n: _store_burst(n) for n in (1, 2, 4)}


def test_a6_multi_tsm_server_scaling():
    times = _run()
    tput = {n: N_OBJECTS / t for n, t in times.items()}

    rows = [
        ("1-server objects/s", 1 / TXN_TIME, tput[1]),
        ("2-server speedup", 2.0, tput[2] / tput[1]),
        ("4-server speedup", 4.0, tput[4] / tput[1]),
    ]
    table = comparison_table(rows)
    lines = "\n".join(
        f"  {n} server(s): {times[n]:7.1f}s  ({tput[n]:5.1f} objects/s)"
        for n in (1, 2, 4)
    )
    report = (
        f"A6  multi-TSM-server scaling ({N_OBJECTS} x {OBJ_SIZE/MB:.0f} MB "
        f"objects, {TXN_TIME*1000:.0f} ms txns)\n{lines}\n\n{table}"
    )
    print("\n" + report)
    write_report("A6", report)

    # the single server is txn-bound; shards relieve it near-linearly
    assert tput[1] <= 1 / TXN_TIME * 1.2
    assert tput[2] / tput[1] > 1.5
    assert tput[4] / tput[1] > 2.5
