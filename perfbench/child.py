"""One repetition of one workload in a fresh interpreter.

``run.py`` starts this script once per repetition, so every repetition
begins with empty module state.  It prints one JSON object on its last
stdout line.  Modes:

* ``plain``: set up, run the timed phase with tracing off, check;
* ``setup``: set up only (an extra ``setup_s`` sample);
* ``traced``: as ``plain``, with the layer sampler on from set-up to the
  end of the timed phase and spans recorded around every layer call;
* ``history``: run the other workloads first in this same interpreter,
  then this one untraced, to show what process history changes.

``--spawned-at`` is the parent's ``time.monotonic()`` just before it
started this interpreter, so ``setup_s`` covers interpreter start,
imports, site build and input seeding.
"""

from __future__ import annotations

import argparse
import json
import resource
import time

#: workloads that run before the measured one in ``history`` mode, in
#: this order; archive_replay is left out as a polluter for its cost
HISTORY_POLLUTERS = ("tape_recall", "service_flood", "catalog_scan")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", default="plain",
                    choices=("plain", "setup", "traced", "history"))
    ap.add_argument("--spawned-at", type=float, required=True)
    args = ap.parse_args()

    from layers import NO_SPANS, LayerSampler, Spans
    from workloads import WORKLOADS

    out: dict = {}
    if args.mode == "history":
        for name in HISTORY_POLLUTERS:
            if name != args.workload:
                w = WORKLOADS[name](args.seed, NO_SPANS)
                w.setup()
                w.run()
                w.result()
        out["polluters"] = [n for n in HISTORY_POLLUTERS if n != args.workload]

    traced = args.mode == "traced"
    spans = Spans() if traced else NO_SPANS
    sampler = LayerSampler() if traced else None
    if sampler:
        sampler.start()
        t_prof = time.monotonic()
    w = WORKLOADS[args.workload](args.seed, spans)
    w.setup()
    t0 = time.monotonic()
    out["setup_s"] = t0 - args.spawned_at
    if args.mode != "setup":
        w.run()
        t1 = time.monotonic()
        out["wall_s"] = t1 - t0
        if sampler:
            sampler.stop()
            out["profiled_wall_s"] = t1 - t_prof
            out["cpu_s"] = sampler.cpu_s
            out["samples"] = sampler.samples
            out["spans"] = spans.summary()
        out.update(w.result())
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))


if __name__ == "__main__":
    main()
