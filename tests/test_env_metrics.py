"""The Environment's metrics registry speaks perfbench's vocabulary.

A small site runs archive -> migrate -> export -> tape-ordered retrieve;
every name ``env.metrics`` shares with perfbench's
``site_layer_counters`` must read the same value as that function's
public-attribute expression, and every name is ``<repro layer>.<noun>``.
"""

import importlib.util
import pathlib
import pkgutil
import re

import repro
from repro.archive import ArchiveParams, ParallelArchiveSystem
from repro.pftool import PftoolConfig
from repro.sim import Environment
from repro.tapesim import TapeSpec
from repro.workloads.generators import _instant_create

_PATH = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
_spec = importlib.util.spec_from_file_location("perfbench_workloads", _PATH)
perfbench_workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perfbench_workloads)

MB = 1_000_000
SPEC = TapeSpec(
    native_rate=120e6, load_time=5.0, unload_time=5.0, rewind_full=20.0,
    seek_base=0.5, locate_rate=10e9, label_verify=2.0,
    capacity=800_000 * MB,
)
LAYERS = {m.name for m in pkgutil.iter_modules(repro.__path__) if m.ispkg}
NAME = re.compile(r"^([a-z]+)\.[a-z][a-z0-9]*(_[a-z0-9]+)*$")


def _site(env):
    return ParallelArchiveSystem(env, ArchiveParams(
        n_fta=4, n_disk_servers=2, n_tape_drives=2, n_scratch_tapes=16,
        tape_spec=SPEC))


def _cfg():
    return PftoolConfig(num_workers=4, num_readdir=1, num_tapeprocs=2)


def _round_trip():
    env = Environment()
    system = _site(env)
    system.scratch_fs.mkdir("/src", parents=True)
    for i in range(8):
        _instant_create(system.scratch_fs, "setup", f"/src/f{i}",
                        (i + 1) * 4 * MB, 0xBE << 20)
    archived = system.archive("/src", "/arch", _cfg())
    env.run(archived.done)
    env.run(system.migrate_to_tape())
    env.run(system.exporter.run_once())
    restored = system.retrieve("/arch", "/back", _cfg())
    env.run(restored.done)
    env.run(system.recover())  # nothing dangling: recovery.* stay 0
    return env, system, [archived, restored]


def test_env_metrics_match_perfbench_layer_counters():
    env, system, jobs = _round_trip()
    snap = env.metrics.snapshot()
    layer = perfbench_workloads.site_layer_counters(system, jobs, 0)
    shared = snap.keys() & layer.keys()
    assert {
        "sim.events", "netsim.rate_recomputes", "netsim.bytes_delivered",
        "pfs.bytes_written", "pfs.bytes_read", "disksim.ops",
        "tsm.transactions", "hsm.files_migrated", "hsm.files_recalled",
        "tapesim.mounts", "tapedb.queries",
    } <= shared
    assert {name: snap[name] for name in shared} == {
        name: layer[name] for name in shared
    }
    # the round trip really exercised every layer; PFTool recalls through
    # TSM directly, not through HSM
    assert snap["hsm.files_migrated"] == snap["tsm.objects_stored"] == 8
    assert snap["tsm.objects_recalled"] == jobs[1].stats.tape_files_restored == 8
    assert snap["tapesim.mounts"] > 0 and snap["tapedb.queries"] > 0


def test_env_metric_names_are_layer_nouns():
    env, _system, _jobs = _round_trip()
    for name in env.metrics.snapshot():
        m = NAME.match(name)
        assert m, name
        assert m.group(1) in LAYERS, name


def test_second_environment_starts_from_zero():
    env, _system, _jobs = _round_trip()
    first = env.metrics.snapshot()
    second_env = Environment()
    _site(second_env)
    second = second_env.metrics.snapshot()
    assert list(second) == list(first)
    assert all(value == 0 for value in second.values()), second
