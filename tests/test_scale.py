"""Ingest at scale: memory in proportion to the arrays, an edge writer whose
memory does not grow with the edges, and a 1e5-rows-per-period run."""

import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from netjps.io import read_edges_csv, read_panel_csv, write_edges_csv, write_panel_csv
from netjps.network import build_adjacency
from netjps.synth import OutcomeRule, Scenario, generate_sparse

SRC = Path(__file__).resolve().parents[1] / "src"

# one block's cells and row lists, plus the label dicts of a few thousand units
BLOCK_ALLOWANCE = 2_000_000


def sparse_scenario(n_units, in_degree, n_periods=2, seed=1):
    return Scenario(
        n_units=n_units, n_periods=n_periods, weight_log_mean=math.log(n_units / in_degree),
        weight_log_sd=0.8, treatment_intercept=0.55,
        treatment_coefs=(0.3,), outcome=OutcomeRule(intercept=1.0, z=1.0, g=0.5), seed=seed,
    )


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak of what the call allocated (tracemalloc)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_ingest_memory_is_a_small_multiple_of_the_arrays(tmp_path):
    # 5000 units x 10 in-edges x 2 periods: 100k edge rows
    ds, adj = generate_sparse(sparse_scenario(5000, 10), 10)
    path = tmp_path / "edges.csv"
    write_edges_csv(adj, path)
    nodes = list(zip(map(str, ds.units), map(str, ds.periods)))

    table, read_peak = traced_peak(read_edges_csv, path)
    assert len(table) == 100_000
    nbytes = sum(a.nbytes for a in (table.source, table.target, table.period, table.weight))
    assert read_peak <= 3 * nbytes + BLOCK_ALLOWANCE, (read_peak, nbytes)

    built, build_peak = traced_peak(build_adjacency, table, nodes)
    assert sum(b.w.nnz for b in built.blocks.values()) == 100_000
    assert build_peak <= 3 * nbytes + BLOCK_ALLOWANCE, (build_peak, nbytes)


def test_ingest_bytes_per_edge(tmp_path):
    # the table is 20 bytes an edge (three int32 codes and a float64
    # weight); the read adds the label dicts and one block, the build each
    # period's int32 positions and int64 keys beside the CSRs it returns
    ds, adj = generate_sparse(sparse_scenario(5000, 10), 10)
    path = tmp_path / "edges.csv"
    write_edges_csv(adj, path)
    nodes = list(zip(map(str, ds.units), map(str, ds.periods)))

    table, read_peak = traced_peak(read_edges_csv, path)
    assert read_peak / len(table) <= 45, read_peak
    built, build_peak = traced_peak(build_adjacency, table, nodes)
    assert sum(b.w.nnz for b in built.blocks.values()) == len(table) == 100_000
    assert build_peak / len(table) <= 50, build_peak


def test_edge_writer_memory_does_not_grow_with_the_edges(tmp_path):
    # 100k edges written a block at a time: one block's cells and each
    # period's unit labels, not a Python object per edge (about 9.6 MB)
    _, adj = generate_sparse(sparse_scenario(5000, 10), 10)
    _, write_peak = traced_peak(write_edges_csv, adj, tmp_path / "edges.csv")
    assert write_peak <= BLOCK_ALLOWANCE, write_peak
    assert len(read_edges_csv(tmp_path / "edges.csv")) == 100_000


# runs the CLI and prints the process's peak RSS (Linux VmHWM) in kB
PEAK_RSS_RUNNER = """
import sys
from netjps.cli import main
code = main(sys.argv[1:])
try:
    with open("/proc/self/status") as fh:
        print(next(line for line in fh if line.startswith("VmHWM")).split()[1], file=sys.stderr)
except (OSError, StopIteration):
    pass
sys.exit(code)
"""


def test_exposure_at_1e5_rows_per_period(tmp_path):
    ds, adj = generate_sparse(sparse_scenario(100_000, 3, n_periods=1), 3)
    assert ds.n == 100_000 and sum(b.w.nnz for b in adj.blocks.values()) == 300_000
    write_panel_csv(ds, tmp_path / "panel.csv")
    write_edges_csv(adj, tmp_path / "edges.csv")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"panel = {tmp_path / 'panel.csv'}\nedges = {tmp_path / 'edges.csv'}\n"
                   f"out = {tmp_path / 'out'}\nexposure.mode = plain\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", PEAK_RSS_RUNNER, "exposure", "--config", str(cfg)],
                          env=env, capture_output=True, text=True, timeout=300)
    wall_s = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    # shown with ``pytest -rP``; record_property would warn under junit_family xunit2
    peak_mb = round(int(proc.stderr) / 1024, 1) if proc.stderr.strip().isdigit() else None
    print(f"wall_s={wall_s:.2f} peak_rss_mb={peak_mb}")
    # a few seconds on two cores; a quadratic step would take minutes
    assert wall_s < 60

    units, periods, columns = read_panel_csv(tmp_path / "out" / "exposure.csv", "unit", "period")
    assert units.tolist() == [str(u) for u in ds.units.tolist()]
    assert periods.tolist() == [str(p) for p in ds.periods.tolist()]
    np.testing.assert_allclose(columns["g"], ds.g, rtol=1e-9)
