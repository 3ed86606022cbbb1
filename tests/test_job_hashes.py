"""``job_hashes.py`` runs every job of a benchmark workload in process."""

from pathlib import Path

from job_hashes import _load_workloads, job_hashes

ROOT = Path(__file__).resolve().parents[1]


def test_one_hash_per_delta_scan_job():
    graphs, jobs = _load_workloads(ROOT).SPECS["delta_scan"]
    assert jobs is None  # one hyperbolicity job per graph
    rows = job_hashes(ROOT, "delta_scan", 1)
    assert len(rows) == len(graphs) == len({job_id for job_id, _, _ in rows})
    assert all(code == 0 for _, code, _ in rows)
    assert all(len(digest) == 64 for _, _, digest in rows)
