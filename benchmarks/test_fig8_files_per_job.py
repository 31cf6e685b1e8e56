"""FIG8 — number of files archived per job (paper Figure 8).

The paper reports, over 62 production jobs: min 1 file/job, max
2,920,088 files/job, mean 167,491 files/job, plotted on a log10 scale.
This bench regenerates the calibrated trace and reproduces the series.
"""

import numpy as np

from repro.metrics import comparison_table, render_series
from repro.workloads import PAPER_62_JOBS, generate_open_science_trace

from _common import write_report


def test_fig8_files_per_job():
    trace = generate_open_science_trace(seed=2009)
    files = trace.files_per_job()

    rows = [
        ("files/job min", PAPER_62_JOBS["files_min"], float(files.min())),
        ("files/job max", PAPER_62_JOBS["files_max"], float(files.max())),
        ("files/job mean", PAPER_62_JOBS["files_mean"], float(files.mean())),
    ]
    table = comparison_table(rows)
    series = render_series("Figure 8: files archived per job", files, log10=True)
    report = f"{series}\n\n{table}"
    print("\n" + report)
    write_report("FIG8", report)


    assert files.min() == PAPER_62_JOBS["files_min"]
    assert files.max() == PAPER_62_JOBS["files_max"]
    assert abs(files.mean() / PAPER_62_JOBS["files_mean"] - 1) < 0.05
    # log10 spread covers the paper's six decades
    assert np.log10(files.max()) - np.log10(max(files.min(), 1)) >= 6
