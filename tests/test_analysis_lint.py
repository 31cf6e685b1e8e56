"""Unit tests for the RA001-RA005 static rules and the lint runner.

Each rule gets a minimal synthetic violation (written to tmp_path) plus
a minimal clean counterpart; the last test pins the acceptance
criterion that the shipped tree lints clean.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.core import run_lint
from repro.analysis.lint import default_rules, main
from repro.analysis.rules_determinism import DeterminismRule
from repro.analysis.rules_protocol import PayloadSchemaRule, ProtocolRule
from repro.analysis.rules_queues import (
    BlockingReceiveRule,
    QueueComplexityRule,
    QueueDisciplineRule,
)

REPO = Path(__file__).resolve().parent.parent


def lint_source(tmp_path, source, rules, name="mod.py"):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return run_lint([tmp_path], rules)


# ---------------------------------------------------------------- RA001
def test_ra001_flags_host_entropy_and_clocks(tmp_path):
    result = lint_source(
        tmp_path,
        "import random\n"
        "import time\n"
        "def jitter():\n"
        "    return random.random() + time.time()\n",
        [DeterminismRule()],
    )
    messages = [f.message for f in result.findings]
    assert any("import of 'random'" in m for m in messages)
    assert any("random.random" in m for m in messages)
    assert any("time.time" in m for m in messages)
    # plain `import time` is fine; only the call is nondeterministic
    assert not any("'time'" in m for m in messages)


def test_ra001_flags_set_iteration(tmp_path):
    result = lint_source(
        tmp_path,
        "def walk(items):\n"
        "    for x in set(items):\n"
        "        yield x\n"
        "    return [y for y in {1, 2}]\n",
        [DeterminismRule()],
    )
    assert len(result.findings) == 2
    assert all("set" in f.message for f in result.findings)


def test_ra001_flags_module_level_counter(tmp_path):
    result = lint_source(
        tmp_path,
        "import itertools\n"
        "_seq = itertools.count(1)\n"
        "_ids: object = itertools.count()\n"
        "class Box:\n"
        "    def __init__(self):\n"
        "        self.seq = itertools.count(1)\n",
        [DeterminismRule()],
    )
    assert [f.line for f in result.findings] == [2, 3]
    assert all("itertools.count" in f.message for f in result.findings)


def test_ra001_allowlists_the_stream_factory(tmp_path):
    result = lint_source(
        tmp_path,
        "import random\n",
        [DeterminismRule()],
        name="sim/rng.py",
    )
    assert result.ok


# ---------------------------------------------------------------- RA002
PROTO_HEADER = "TAG_A = 1\nTAG_B = 2\n"


def test_ra002_orphan_tags(tmp_path):
    result = lint_source(
        tmp_path,
        PROTO_HEADER
        + "def sender(comm, p):\n"
        "    comm.send(0, 1, p, TAG_A)\n"
        "def receiver(comm):\n"
        "    return comm.recv(1, 0, TAG_A)\n",
        [ProtocolRule()],
    )
    messages = [f.message for f in result.findings]
    assert any("TAG_B is declared but never sent" in m for m in messages)
    assert any("TAG_B" in m and "no receive" in m for m in messages)
    assert not any("TAG_A" in m for m in messages)


def test_ra002_wildcard_recv_covers_all_tags(tmp_path):
    result = lint_source(
        tmp_path,
        PROTO_HEADER
        + "def sender(comm, p):\n"
        "    comm.send(0, 1, p, TAG_A)\n"
        "    comm.send(0, 1, p, TAG_B)\n"
        "def receiver(comm):\n"
        "    return comm.recv(1)\n",
        [ProtocolRule()],
    )
    assert result.ok


def test_ra002_non_exhaustive_dispatch(tmp_path):
    source = (
        PROTO_HEADER
        + "def sender(comm, p):\n"
        "    comm.send(0, 1, p, TAG_A)\n"
        "    comm.send(0, 1, p, TAG_B)\n"
        "def dispatch(comm):\n"
        "    msg = comm.recv(1)\n"
        "    if msg.tag == TAG_A:\n"
        "        return 'a'\n"
    )
    result = lint_source(tmp_path, source, [ProtocolRule()])
    assert any("non-exhaustive tag dispatch" in f.message for f in result.findings)
    assert any("TAG_B" in f.message for f in result.findings)

    # a terminal else makes the same chain exhaustive
    fixed = source + "    else:\n        return 'other'\n"
    assert lint_source(tmp_path, fixed, [ProtocolRule()]).ok


# ---------------------------------------------------------------- RA003
def test_ra003_queue_mutation_outside_manager(tmp_path):
    result = lint_source(
        tmp_path,
        "from collections import deque\n"
        "class Manager:\n"
        "    def __init__(self):\n"
        "        self.dir_q = deque()\n"
        "    def push(self, j):\n"
        "        self.dir_q.append(j)\n"
        "class Stealer:\n"
        "    def steal(self, mgr):\n"
        "        return mgr.dir_q.popleft()\n"
        "def drain(mgr):\n"
        "    mgr.copy_q.clear()\n"
        "    mgr.idle['worker'].append(3)\n"
        "    mgr.tape_q = deque()\n",
        [QueueDisciplineRule()],
    )
    flagged = sorted(f.line for f in result.findings)
    assert flagged == [9, 11, 12, 13]
    assert all("single-writer" in f.message for f in result.findings)


# ---------------------------------------------------------------- RA004
PAYLOAD_HEADER = (
    "TAG_A = 1\nTAG_B = 2\n"
    "class Ping: pass\n"
    "class Pong: pass\n"
    "TAG_PAYLOADS = {TAG_A: (Ping,), TAG_B: (Pong,)}\n"
)


def test_ra004_wrong_family_and_raw_payloads(tmp_path):
    result = lint_source(
        tmp_path,
        PAYLOAD_HEADER
        + "def bad(comm):\n"
        "    comm.send(0, 1, ('raw',), TAG_A)\n"
        "    comm.send(0, 1, Pong(), TAG_A)\n"
        "    p = Pong()\n"
        "    comm.send(0, 1, p, TAG_A)\n"
        "def good(comm):\n"
        "    comm.send(0, 1, Ping(), TAG_A)\n"
        "    comm.broadcast(0, Pong(), TAG_B)\n",
        [PayloadSchemaRule()],
    )
    assert len(result.findings) == 3
    assert any("raw tuple" in f.message for f in result.findings)
    assert sum("Pong" in f.message for f in result.findings) >= 2


def test_ra004_missing_table_entry(tmp_path):
    result = lint_source(
        tmp_path,
        "TAG_A = 1\nTAG_X = 9\n"
        "class Ping: pass\n"
        "TAG_PAYLOADS = {TAG_A: (Ping,)}\n"
        "def f(comm):\n"
        "    comm.send(0, 1, Ping(), TAG_X)\n",
        [PayloadSchemaRule()],
    )
    assert any("no entry in TAG_PAYLOADS" in f.message for f in result.findings)


# ---------------------------------------------------------------- RA005
def test_ra005_raced_receive_without_cancel(tmp_path):
    source = (
        "def leaky(env, comm):\n"
        "    while True:\n"
        "        wake = env.timeout(5)\n"
        "        incoming = comm.recv(2)\n"
        "        yield wake | incoming\n"
    )
    result = lint_source(tmp_path, source, [BlockingReceiveRule()])
    assert len(result.findings) == 1
    assert ".cancel() path" in result.findings[0].message

    fixed = source + (
        "        if not incoming.triggered:\n"
        "            incoming.cancel()\n"
    )
    assert lint_source(tmp_path, fixed, [BlockingReceiveRule()]).ok


def test_ra005_inline_receive_in_race(tmp_path):
    result = lint_source(
        tmp_path,
        "def leaky(env, comm):\n"
        "    yield env.timeout(5) | comm.recv(2)\n",
        [BlockingReceiveRule()],
    )
    assert len(result.findings) == 1
    assert "never be" in result.findings[0].message


# ------------------------------------------------------- runner / CLI
def test_noqa_suppression(tmp_path):
    result = lint_source(
        tmp_path,
        "import random  # noqa:RA001\n"
        "import secrets  # noqa\n"
        "def f():\n"
        "    return random.random()\n",
        [DeterminismRule()],
    )
    assert result.suppressed == 2
    assert len(result.findings) == 1  # the un-suppressed call on line 4
    assert result.findings[0].line == 4


def test_cli_json_output(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import random\n")
    status = main([str(tmp_path), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert status == 1
    assert payload["files_checked"] == 1
    assert payload["findings"][0]["code"] == "RA001"
    assert payload["findings"][0]["line"] == 1


def test_cli_select_restricts_rules(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import random\n")
    assert main([str(tmp_path), "--select", "RA003"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main([str(tmp_path), "--select", "RA999"])


def test_shipped_tree_lints_clean():
    """Acceptance criterion: the codebase ships lint-clean."""
    result = run_lint(
        [REPO / "src", REPO / "benchmarks"], default_rules()
    )
    assert result.ok, "\n".join(f.format() for f in result.findings)
    assert result.files_checked > 50


# ---------------------------------------------------------------- RA006
def test_ra006_flags_indexed_pop_and_remove_in_engine(tmp_path):
    result = lint_source(
        tmp_path,
        "class Store:\n"
        "    def cancel(self, g):\n"
        "        self._getq.remove(g)\n"
        "    def drain(self):\n"
        "        return self._putq.pop(0)\n",
        [QueueComplexityRule()],
        name="repro/sim/bad_store.py",
    )
    messages = [f.message for f in result.findings]
    assert len(messages) == 2
    assert any("_getq.remove" in m and "tombstone" in m for m in messages)
    assert any("_putq.pop" in m and "popleft" in m for m in messages)


def test_ra006_allows_o1_queue_idioms(tmp_path):
    result = lint_source(
        tmp_path,
        "class Store:\n"
        "    def ok(self, g):\n"
        "        self._getq.append(g)\n"
        "        self._getq.popleft()\n"
        "        self._call_pool.pop()\n"  # tail pop is O(1)
        "        self.users.remove(g)\n",  # not a covered queue attribute
        [QueueComplexityRule()],
        name="repro/netsim/good.py",
    )
    assert result.findings == []


def test_ra006_only_covers_engine_packages(tmp_path):
    result = lint_source(
        tmp_path,
        "def helper(q):\n"
        "    q._getq.remove(1)\n"
        "    q._getq.pop(0)\n",
        [QueueComplexityRule()],
        name="repro/pftool/elsewhere.py",
    )
    assert result.findings == []


# ---------------------------------------------------------------- RA007
def test_ra007_flags_unjournalled_archive_mutation(tmp_path):
    from repro.analysis.rules_recovery import JournalIntentRule

    result = lint_source(
        tmp_path,
        "class Deleter:\n"
        "    def delete(self, e):\n"
        "        def _proc():\n"
        "            yield self.fs.unlink_op(e.trash_path)\n"
        "            ok = yield self.tsm.delete_object(e.oid)\n"
        "        self.env.process(_proc())\n",
        [JournalIntentRule()],
        name="repro/archive/bad_deleter.py",
    )
    messages = [f.message for f in result.findings]
    assert len(messages) == 2
    assert any("unlink_op" in m for m in messages)
    assert any("delete_object" in m for m in messages)


def test_ra007_accepts_journal_bracket(tmp_path):
    from repro.analysis.rules_recovery import JournalIntentRule

    result = lint_source(
        tmp_path,
        "class Deleter:\n"
        "    def delete(self, e):\n"
        "        def _proc():\n"
        "            intent = self.journal.delete_intent(e.t, e.o, e.oid)\n"
        "            yield self.fs.unlink_op(e.trash_path)\n"
        "            ok = yield self.tsm.delete_object(e.oid)\n"
        "            self.journal.delete_done(intent)\n"
        "        self.env.process(_proc())\n",
        [JournalIntentRule()],
        name="repro/archive/good_deleter.py",
    )
    assert result.findings == []


def test_ra007_journal_write_must_precede_the_mutation(tmp_path):
    from repro.analysis.rules_recovery import JournalIntentRule

    # a journal call *after* the mutator is not a write-ahead intent
    result = lint_source(
        tmp_path,
        "def sweep(self, e):\n"
        "    yield self.fs.unlink_op(e.trash_path)\n"
        "    self.journal.delete_intent(e.t, e.o, None)\n",
        [JournalIntentRule()],
        name="repro/hsm/manager_ext.py",
    )
    assert len(result.findings) == 1
    assert "unlink_op" in result.findings[0].message


def test_ra007_only_covers_recovery_protocol_paths(tmp_path):
    from repro.analysis.rules_recovery import JournalIntentRule

    result = lint_source(
        tmp_path,
        "def walk_and_delete(self, oid):\n"
        "    yield self.tsm.delete_object(oid)\n",
        [JournalIntentRule()],
        name="repro/hsm/reconcile_like.py",  # legacy walk stays exempt
    )
    assert result.findings == []


# ---------------------------------------------------------------- RA008
def test_ra008_flags_module_global_written_by_two_processes(tmp_path):
    from repro.analysis.rules_races import SharedMutableStateRule

    result = lint_source(
        tmp_path,
        "registry = {}\n"
        "seen = set()\n"
        "def worker(env):\n"
        "    yield env.timeout(1)\n"
        "    registry['w'] = 1\n"
        "    seen.add('w')\n"
        "def manager(env):\n"
        "    yield env.timeout(1)\n"
        "    registry['m'] = 2\n"
        "    seen.add('m')\n",
        [SharedMutableStateRule()],
    )
    names = {f.message.split("'")[1] for f in result.findings}
    assert names == {"registry", "seen"}
    assert len(result.findings) == 4  # every write site is a finding


def test_ra008_class_attribute_counts_as_shared(tmp_path):
    from repro.analysis.rules_races import SharedMutableStateRule

    result = lint_source(
        tmp_path,
        "class Hub:\n"
        "    waiters = []\n"
        "def a(env):\n"
        "    yield env.timeout(1)\n"
        "    Hub.waiters.append(1)\n"
        "def b(env):\n"
        "    yield env.timeout(1)\n"
        "    Hub.waiters.append(2)\n",
        [SharedMutableStateRule()],
    )
    assert len(result.findings) == 2
    assert "Hub.waiters" in result.findings[0].message


def test_ra008_single_writer_and_locals_are_clean(tmp_path):
    from repro.analysis.rules_races import SharedMutableStateRule

    result = lint_source(
        tmp_path,
        "registry = {}\n"
        "def only_writer(env):\n"
        "    yield env.timeout(1)\n"
        "    registry['k'] = 1\n"
        "    registry['k2'] = 2\n"
        "def shadowing(env):\n"
        "    registry = {}\n"  # local shadows the global: not shared
        "    yield env.timeout(1)\n"
        "    registry['k'] = 3\n"
        "def plain_reader(env):\n"
        "    return registry.get('k')\n",  # not a generator, and a read
        [SharedMutableStateRule()],
    )
    assert result.findings == []


# ---------------------------------------------------------------- RA009
def test_ra009_flags_bare_blocking_wait_in_service_code(tmp_path):
    from repro.analysis.rules_races import UnboundedServiceWaitRule

    result = lint_source(
        tmp_path,
        "def serve(self, env):\n"
        "    while True:\n"
        "        msg = yield self.comm.recv(0)\n"
        "        item = yield self.queue.get()\n",
        [UnboundedServiceWaitRule()],
        name="repro/scheduler/service_like.py",
    )
    assert len(result.findings) == 2
    assert "timeout or cancellation" in result.findings[0].message


def test_ra009_timeout_race_and_non_service_paths_are_clean(tmp_path):
    from repro.analysis.rules_races import UnboundedServiceWaitRule

    clean = (
        "def serve(self, env):\n"
        "    while True:\n"
        "        got = yield self.queue.get() | env.timeout(5)\n"
        "        yield env.timeout(1)\n"
    )
    result = lint_source(
        tmp_path,
        clean,
        [UnboundedServiceWaitRule()],
        name="repro/scheduler/service_like.py",
    )
    assert result.findings == []
    # the same bare wait outside service paths is out of scope
    result = lint_source(
        tmp_path,
        "def worker(self, env):\n"
        "    msg = yield self.comm.recv(1)\n",
        [UnboundedServiceWaitRule()],
        name="repro/pftool/worker_like.py",
    )
    assert result.findings == []


# ---------------------------------------------------------------- RA010
def test_ra010_flags_zero_delay_without_priority(tmp_path):
    from repro.analysis.rules_races import UnorderedZeroDelayRule

    result = lint_source(
        tmp_path,
        "def kick(env, fn):\n"
        "    env.call_later(0, fn)\n"
        "    env.call_later(0.0, fn)\n",
        [UnorderedZeroDelayRule()],
    )
    assert len(result.findings) == 2
    assert "priority=" in result.findings[0].message


def test_ra010_pinned_priority_or_real_delay_is_clean(tmp_path):
    from repro.analysis.rules_races import UnorderedZeroDelayRule

    result = lint_source(
        tmp_path,
        "def kick(env, fn):\n"
        "    env.call_later(0, fn, priority=0)\n"
        "    env.call_later(1.5, fn)\n",
        [UnorderedZeroDelayRule()],
    )
    assert result.findings == []


# ---------------------------------------------------------------- RA011
def test_ra011_flags_loop_invariant_call_later(tmp_path):
    from repro.analysis.rules_races import UnbatchedTimerLoopRule

    result = lint_source(
        tmp_path,
        "def fanout(env, fns):\n"
        "    for fn in fns:\n"
        "        env.call_later(0.5, fn)\n"
        "def drain(env, q):\n"
        "    while q:\n"
        "        fn = q.pop()\n"
        "        env.call_later(1.0, fn)\n",
        [UnbatchedTimerLoopRule()],
    )
    assert len(result.findings) == 2
    assert "call_later_batch" in result.findings[0].message


def test_ra011_exempts_varying_delay_yields_and_priorities(tmp_path):
    from repro.analysis.rules_races import UnbatchedTimerLoopRule

    result = lint_source(
        tmp_path,
        "def staggered(env, jobs):\n"
        "    for i, fn in enumerate(jobs):\n"
        "        env.call_later(0.1 * i, fn)\n"
        "def paced(env, fns):\n"
        "    for fn in fns:\n"
        "        yield env.timeout(1.0)\n"
        "        env.call_later(0.5, fn)\n"
        "def ranked(env, fns):\n"
        "    for p, fn in fns:\n"
        "        env.call_later(1.0, fn, priority=p)\n"
        "def batched(env, fns):\n"
        "    env.call_later_batch(0.5, fns)\n",
        [UnbatchedTimerLoopRule()],
    )
    assert result.findings == []


def test_ra011_ignores_call_later_inside_nested_def(tmp_path):
    from repro.analysis.rules_races import UnbatchedTimerLoopRule

    result = lint_source(
        tmp_path,
        "def make(env, fns):\n"
        "    out = []\n"
        "    for fn in fns:\n"
        "        def later():\n"
        "            env.call_later(0.5, fn)\n"
        "        out.append(later)\n"
        "    return out\n",
        [UnbatchedTimerLoopRule()],
    )
    assert result.findings == []


# ---------------------------------------------------------------- RA012
def test_ra012_flags_silently_swallowed_fault(tmp_path):
    from repro.analysis.rules_health import SilentFaultSwallowRule

    result = lint_source(
        tmp_path,
        "from repro.faults import TsmFault, DriveFault\n"
        "def commit(tsm):\n"
        "    try:\n"
        "        tsm.begin_txn()\n"
        "    except TsmFault:\n"
        "        pass\n"
        "    try:\n"
        "        tsm.mount()\n"
        "    except (OSError, DriveFault) as exc:\n"
        "        log = str(exc)\n",
        [SilentFaultSwallowRule()],
    )
    messages = [f.message for f in result.findings]
    assert len(messages) == 2
    assert any("except TsmFault" in m for m in messages)
    assert any("except DriveFault" in m for m in messages)
    assert all("without recording" in m for m in messages)


def test_ra012_recording_or_reraise_is_clean(tmp_path):
    from repro.analysis.rules_health import SilentFaultSwallowRule

    result = lint_source(
        tmp_path,
        "from repro.faults import TsmFault, DriveFault, CatalogFault\n"
        "def commit(tsm, view, breaker):\n"
        "    try:\n"
        "        tsm.begin_txn()\n"
        "    except TsmFault:\n"
        "        view.on_fault('tsm', 'tsm')\n"
        "    try:\n"
        "        tsm.mount()\n"
        "    except DriveFault:\n"
        "        breaker.record_failure()\n"
        "    try:\n"
        "        tsm.lookup()\n"
        "    except CatalogFault as exc:\n"
        "        raise RuntimeError('fatal') from exc\n",
        [SilentFaultSwallowRule()],
    )
    assert result.findings == []


def test_ra012_ignores_non_fault_exceptions(tmp_path):
    from repro.analysis.rules_health import SilentFaultSwallowRule

    result = lint_source(
        tmp_path,
        "def best_effort(fn):\n"
        "    try:\n"
        "        fn()\n"
        "    except (KeyError, ValueError):\n"
        "        pass\n"
        "    except Exception:\n"
        "        pass\n",
        [SilentFaultSwallowRule()],
    )
    assert result.findings == []


# ----------------------------------------------------- CLI formats / exits
def test_cli_sarif_output_is_valid_sarif(tmp_path, capsys):
    bad = tmp_path / "mod.py"
    bad.write_text(
        "def kick(env, fn):\n"
        "    env.call_later(0, fn)\n"
    )
    code = main([str(tmp_path), "--format", "sarif", "--select", "RA010"])
    assert code == 1
    log = json.loads(capsys.readouterr().out)
    assert log["version"] == "2.1.0"
    run = log["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-analysis"
    rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert {"RA001", "RA008", "RA009", "RA010", "RA011"} <= rule_ids
    (finding,) = run["results"]
    assert finding["ruleId"] == "RA010"
    loc = finding["locations"][0]["physicalLocation"]
    assert loc["region"]["startLine"] == 2


def test_cli_exit_2_when_linter_crashes(tmp_path, monkeypatch, capsys):
    import repro.analysis.lint as lint_mod

    def boom(*args, **kwargs):
        raise RuntimeError("synthetic rule crash")

    monkeypatch.setattr(lint_mod, "run_lint", boom)
    (tmp_path / "mod.py").write_text("x = 1\n")
    assert lint_mod.main([str(tmp_path)]) == 2
    assert "synthetic rule crash" in capsys.readouterr().err
