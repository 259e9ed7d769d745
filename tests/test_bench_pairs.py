import importlib.util
import json
import os
import sys

SCRIPT = os.path.join(os.path.dirname(__file__), "..", "scripts", "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BENCH = {"end_to_end": [
    {"name": "step_s_p50", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "eval_images_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]}


def _line(step, evals, failed=0):
    """One run's last output line, as `perfbench/run.py` prints it."""
    return json.dumps({"correct": not failed, "attempted": 40, "failed": failed, "metrics": {
        "step_s_p50": {"value": step, "unit": "s"}, "eval_images_per_s": {"value": evals, "unit": "1/s"}}})


def _pairs(*rows):
    return [tuple(json.loads(_line(*run)) if run else None for run in row) for row in rows]


def test_summary_reports_medians_quartiles_and_wins():
    pairs = _pairs(((1.0, 40.0), (0.9, 41.0)), ((1.2, 38.0), (1.1, 37.0)),
                   ((1.1, 39.0), (1.2, 39.5)), ((1.3, 40.0), (1.0, 42.0)))
    lines, ok = bench_pairs.summarize(BENCH, pairs)
    assert ok
    assert lines == [
        "step_s_p50 (lower is better, bound 25%): parent 1.15 [1.075, 1.225] -> "
        "change 1.05 [0.975, 1.125] s, -8.7%, change better in 3/4",
        "eval_images_per_s (higher is better, bound 25%): parent 39.5 [38.75, 40] -> "
        "change 40.25 [38.88, 41.25] 1/s, +1.9%, change better in 3/4",
    ]


def test_a_median_beyond_its_bound_fails():
    pairs = _pairs(((1.0, 40.0), (1.3, 40.0)), ((1.0, 40.0), (1.3, 29.0)))
    lines, ok = bench_pairs.summarize(BENCH, pairs)
    assert not ok
    assert lines[0].endswith("+30.0%, change better in 0/2  WORSE THAN THE BOUND")
    assert not lines[1].endswith("BOUND")  # 40 -> 34.5 is -13.75%


def test_a_failed_run_fails_and_leaves_its_pair_out():
    pairs = _pairs(((1.0, 40.0), (1.0, 40.0, 1)), ((1.0, 40.0), None), ((1.0, 40.0), (0.9, 41.0)))
    lines, ok = bench_pairs.summarize(BENCH, pairs)
    assert not ok
    assert lines[:2] == ["pair 0: the change run failed", "pair 1: the change run failed"]
    assert lines[2].endswith("-10.0%, change better in 1/1")


def _runs(pairs):
    return [{"seed": 40 + i, "first": ("parent", "change")[i % 2], "parent": p, "change": c}
            for i, (p, c) in enumerate(pairs)]


def test_source_hash_covers_the_names_and_bytes_of_the_package_sources(tmp_path):
    pkg = tmp_path / "src" / "attndistill"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1\n")
    (pkg / "notes.txt").write_text("not hashed")
    first = bench_pairs.source_sha256(str(tmp_path))
    (pkg / "notes.txt").write_text("still not hashed")
    assert bench_pairs.source_sha256(str(tmp_path)) == first
    (pkg / "a.py").rename(pkg / "b.py")
    assert bench_pairs.source_sha256(str(tmp_path)) != first


def test_a_written_file_reads_back_to_its_summary(tmp_path, capsys):
    pairs = _pairs(((1.0, 40.0), (0.9, 41.0)), ((1.2, 38.0), (1.1, 37.0)), ((1.1, 39.0), None))
    for pair in pairs:
        for run in pair:
            if run:
                run["fingerprint"] = {"cpu": "x", "numpy": "2"}
    lines, ok = bench_pairs.summarize(BENCH, pairs)
    path = tmp_path / "BENCH_1_toy.json"
    trees = {"parent": {"src_sha256": "a"}, "change": {"src_sha256": "b"}}
    bench_pairs.write_bench(str(path), BENCH, "toy", trees, _runs(pairs), lines, ok)
    record = json.loads(path.read_text())
    assert record["fingerprint"] == {"cpu": "x", "numpy": "2"} and record["trees"] == trees
    assert [(r["seed"], r["first"]) for r in record["runs"]] == [(40, "parent"), (41, "change"), (42, "parent")]
    assert record["runs"][2]["change"] is None and record["summary"] == lines and not record["ok"]
    assert bench_pairs.read_bench(str(path)) == (lines, False)
    assert bench_pairs.main(["--read", str(path)]) == 1
    assert capsys.readouterr().out.splitlines() == lines


def test_reading_a_file_whose_summary_was_edited_fails(tmp_path):
    pairs = _pairs(((1.0, 40.0), (0.9, 41.0)), ((1.2, 38.0), (1.1, 37.0)))
    lines, ok = bench_pairs.summarize(BENCH, pairs)
    assert ok
    path = tmp_path / "BENCH_1_toy.json"
    bench_pairs.write_bench(str(path), BENCH, "toy", {}, _runs(pairs), lines, ok)
    assert bench_pairs.read_bench(str(path)) == (lines, True)
    record = json.loads(path.read_text())
    record["summary"][0] = record["summary"][0].replace("-", "+")
    path.write_text(json.dumps(record))
    assert bench_pairs.read_bench(str(path)) == (lines, False)


def test_a_run_reports_the_fingerprint_line_it_printed(tmp_path):
    script = tmp_path / "run.py"
    script.write_text("print('fingerprint nproc=2 cpu=Intel(R) Xeon(R) Processor numpy=2.4.6 blas_threads_pinned=1')\n"
                      f"print({_line(1.0, 40.0)!r})\n")
    summary = bench_pairs.run_once(str(tmp_path), [sys.executable, str(script)])
    assert summary["fingerprint"] == {"nproc": "2", "cpu": "Intel(R) Xeon(R) Processor", "numpy": "2.4.6",
                                      "blas_threads_pinned": "1"}
    assert summary["metrics"]["step_s_p50"]["value"] == 1.0


def test_trajectory_prints_each_files_medians_in_pr_order_and_marks_a_new_machine(tmp_path):
    """PR 12 sorts after PR 3, and its runs ran on another CPU."""
    for pr, cpu, rows in ((12, "y", (((1.0, 40.0), (0.8, 41.0)), ((1.2, 38.0), None), ((1.4, 39.0), (1.0, 42.0)))),
                          (3, "x", (((2.0, 40.0), (1.5, 41.0)),))):
        pairs = _pairs(*rows)
        for pair in pairs:
            for run in pair:
                if run:
                    run["fingerprint"] = {"cpu": cpu}
        lines, ok = bench_pairs.summarize(BENCH, pairs)
        bench_pairs.write_bench(str(tmp_path / f"BENCH_{pr}_toy.json"), BENCH, "toy", {}, _runs(pairs), lines, ok)
    assert bench_pairs.trajectory("step_s_p50", str(tmp_path)) == [
        "PR 3 toy: parent 2 -> change 1.5 s",
        "PR 12 toy: parent 1.2 -> change 0.9 s  [fingerprint differs from PR 3]",
    ]
    assert bench_pairs.trajectory("setup_s", str(tmp_path)) == ["PR 3 toy: no setup_s values",
                                                               "PR 12 toy: no setup_s values  "
                                                               "[fingerprint differs from PR 3]"]
