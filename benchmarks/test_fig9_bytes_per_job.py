"""FIG9 — amount of data archived per job (paper Figure 9).

Paper: min 4 GB/job, max 32,593 GB/job, mean 2,442 GB/job (log10 plot).
"""

import numpy as np

from repro.metrics import comparison_table, render_series
from repro.workloads import PAPER_62_JOBS, generate_open_science_trace

from _common import GB, write_report


def test_fig9_bytes_per_job():
    trace = generate_open_science_trace(seed=2009)
    gb = trace.bytes_per_job() / GB

    rows = [
        ("GB/job min", PAPER_62_JOBS["bytes_min"] / GB, float(gb.min())),
        ("GB/job max", PAPER_62_JOBS["bytes_max"] / GB, float(gb.max())),
        ("GB/job mean", PAPER_62_JOBS["bytes_mean"] / GB, float(gb.mean())),
        ("total archived TB", 62 * PAPER_62_JOBS["bytes_mean"] / 1e12,
         float(gb.sum() * GB / 1e12)),
    ]
    table = comparison_table(rows)
    series = render_series("Figure 9: GB archived per job", gb, unit=" GB",
                           log10=True)
    report = f"{series}\n\n{table}"
    print("\n" + report)
    write_report("FIG9", report)

    assert gb.min() * GB == PAPER_62_JOBS["bytes_min"]
    assert gb.max() * GB == PAPER_62_JOBS["bytes_max"]
    assert abs(gb.mean() * GB / PAPER_62_JOBS["bytes_mean"] - 1) < 0.05
    # the paper's "over four petabytes within six months" is consistent
    # with ~150 TB over the 18 monitored operation days
    assert 100 < gb.sum() / 1000 < 200  # TB
