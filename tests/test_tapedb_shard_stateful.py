"""Stateful property testing of the sharded tape index against a model.

Hypothesis drives random upsert/remove/lookup sequences and checks the
sharded index agrees with a plain-dict model after every step — the
same treatment ``test_namespace_stateful.py`` gives the namespace.  The
model tracks the global upsert sequence explicitly, so the invariants
prove the ``gseq`` plumbing (recall-order ties, duplicate-path
last-write-wins across shards) rather than assuming it.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.sim import Environment
from repro.tapedb import ShardedTapeIndex, TapeIndexDB

OIDS = st.integers(1, 12)
VOLS = st.integers(0, 5)
SEQS = st.integers(0, 4)
PATHS = st.integers(0, 8)


class ShardedIndexMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.env = Environment()
        self.db = ShardedTapeIndex(self.env, n_shards=3, cache_entries=4)
        #: model: oid -> (path, filespace, volume, seq, nbytes, gseq)
        self.model = {}
        self.gseq = 0

    # -- rules ---------------------------------------------------------
    @rule(oid=OIDS, v=VOLS, s=SEQS, p=PATHS)
    def upsert(self, oid, v, s, p):
        self.gseq += 1
        vol, path = f"V{v:02d}", f"/f{p:03d}"
        self.db.upsert(oid, path, "fs", vol, s, 10 * oid)
        self.model[oid] = (path, "fs", vol, s, 10 * oid, self.gseq)

    @rule(oid=OIDS)
    def remove(self, oid):
        assert self.db.remove(oid) == (oid in self.model)
        self.model.pop(oid, None)

    @rule(oid=OIDS)
    def lookup_by_oid(self, oid):
        loc = self.db.location_of(oid)
        if oid not in self.model:
            assert loc is None
        else:
            path, fs, vol, seq, nb, _ = self.model[oid]
            assert (loc.path, loc.filespace, loc.volume, loc.seq, loc.nbytes) == (
                path, fs, vol, seq, nb
            )

    @rule(p=PATHS)
    def lookup_by_path(self, p):
        path = f"/f{p:03d}"
        loc = self.db.object_for_path("fs", path)
        # last-write-wins: the matching row with the highest gseq
        want = max(
            (row for row in self.model.items() if row[1][0] == path),
            key=lambda kv: kv[1][5],
            default=None,
        )
        if want is None:
            assert loc is None
        else:
            assert loc.object_id == want[0]

    @rule(v=VOLS)
    def scan_volume(self, v):
        vol = f"V{v:02d}"
        got = [(loc.seq, loc.object_id) for loc in self.db.objects_on_volume(vol)]
        want = sorted(
            ((row[3], oid) for oid, row in self.model.items() if row[2] == vol),
            key=lambda t: t[0],
        )
        assert [seq for seq, _ in got] == [seq for seq, _ in want]
        assert {oid for _, oid in got} == {oid for _, oid in want}

    # -- invariants ----------------------------------------------------
    @invariant()
    def sizes_agree(self):
        assert len(self.db) == len(self.model)
        assert sum(self.db.shard_sizes()) == len(self.model)

    @invariant()
    def recall_order_matches_rebuilt_monolith(self):
        # replay the model into a fresh monolithic index in gseq order;
        # its flattened tape sort is the canonical recall order
        mono = TapeIndexDB(Environment())
        for oid, (path, fs, vol, seq, nb, _) in sorted(
            self.model.items(), key=lambda kv: kv[1][5]
        ):
            mono.upsert(oid, path, fs, vol, seq, nb)
        locs = [mono.location_of(r["object_id"]) for r in mono.table.scan()]
        want = [
            loc.object_id
            for run in TapeIndexDB.sort_tape_order(locs).values()
            for loc in run
        ]
        got = [loc.object_id for loc in self.db.iter_recall_order(batch=2)]
        assert got == want


ShardedIndexMachine.TestCase.settings = settings(
    max_examples=50, stateful_step_count=25, deadline=None
)
TestShardedIndex = ShardedIndexMachine.TestCase
