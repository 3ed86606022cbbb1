"""``job_hashes.py`` runs every job of a benchmark workload, and its fixed
``generate`` list, in process."""

from pathlib import Path

from job_hashes import GENERATE_REFUSALS, _load_workloads, generate_hashes, generate_runs, job_hashes

ROOT = Path(__file__).resolve().parents[1]


def test_one_hash_per_delta_scan_job():
    graphs, jobs = _load_workloads(ROOT).SPECS["delta_scan"]
    assert jobs is None  # one hyperbolicity job per graph
    rows = job_hashes(ROOT, "delta_scan", 1)
    assert len(rows) == len(graphs) == len({job_id for job_id, _, _ in rows})
    assert all(code == 0 for _, code, _ in rows)
    assert all(len(digest) == 64 for _, _, digest in rows)


def test_one_hash_per_generate_run():
    from hypercore.generators import KINDS

    rows = generate_hashes(ROOT)
    runs = generate_runs(KINDS)
    assert [(seed, run_id) for seed, run_id, _, _ in rows] == [(s, i) for s, i, _ in runs]
    assert len({(seed, run_id) for seed, run_id, _, _ in rows}) == len(rows)
    # per kind: two parameter sets at two seeds, then one parameter it does not read
    assert len(rows) == 5 * len(KINDS) + len(GENERATE_REFUSALS)
    codes = [code for _, _, code, _ in rows]
    assert codes == ([0] * 4 + [1]) * len(KINDS) + [1] * len(GENERATE_REFUSALS)
    assert len({digest for _, _, _, digest in rows}) == len(rows)
