"""Shape of the kernel bench document: what each timing field measures."""

from __future__ import annotations

from repro.bench.perf import bench_landmark


def test_landmark_stages_add_up_to_the_run():
    block = bench_landmark([600], n_iter=12, n_landmarks=64, bh_max=0)
    (run,) = block["runs"]
    stages = run["stages"]
    assert set(stages) == {"select_seconds", "embed_seconds", "place_seconds"}
    # Each of the four figures is rounded to 1e-4 s.
    assert sum(stages.values()) <= run["fast_seconds"] + 4 * 0.5e-4
    # The standalone cross-distance pass is reported beside the stages.
    assert run["cross_distances_microbench_seconds"] >= 0.0
