"""FIG11 — average file size archived per job (paper Figure 11).

Paper: min 4 KB/file, max 4,220 MB/file, mean 596 MB/file across the 62
jobs — the spread that demonstrates the diversity of the Open Science
projects' data characteristics.
"""

from repro.metrics import comparison_table, render_series
from repro.workloads import PAPER_62_JOBS, generate_open_science_trace

from _common import MB, write_report


def test_fig11_avg_file_size_per_job():
    trace = generate_open_science_trace(seed=2009)
    mb = trace.mean_size_per_job() / MB

    rows = [
        ("avg size/job min MB", PAPER_62_JOBS["mean_size_min"] / MB, float(mb.min())),
        ("avg size/job max MB", PAPER_62_JOBS["mean_size_max"] / MB, float(mb.max())),
        ("avg size/job mean MB", PAPER_62_JOBS["mean_size_mean"] / MB, float(mb.mean())),
    ]
    table = comparison_table(rows)
    series = render_series(
        "Figure 11: average file size per job", mb, unit=" MB", log10=True
    )
    report = f"{series}\n\n{table}"
    print("\n" + report)
    write_report("FIG11", report)

    assert abs(mb.min() * MB / PAPER_62_JOBS["mean_size_min"] - 1) < 0.02
    assert abs(mb.max() * MB / PAPER_62_JOBS["mean_size_max"] - 1) < 0.02
    assert abs(mb.mean() * MB / PAPER_62_JOBS["mean_size_mean"] - 1) < 0.10
