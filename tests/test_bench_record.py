"""tools/bench_record.py's parsing and summary on canned perfbench output."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
br = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(br)


def _stdout(wall, correct=True, failed=0):
    metrics = {"wall_s": {"value": wall, "unit": "s"},
               "sites_per_s": {"value": 1000.0 / wall, "unit": "1/s"}}
    return "some log line\n" + json.dumps({"correct": correct, "attempted": 12,
                                           "failed": failed, "metrics": metrics}) + "\n"


_STDERR = ("perfbench: synthesize: warming up\n"
           "perfbench: unscaled wall_s=0.3125 setup_s=0.52 kernel_s=0.0405\n")


def _run(workload, seed, side, wall, **kw):
    rec = br.parse_run(0, _stdout(wall, **kw), _STDERR)
    rec.update(workload=workload, seed=seed, side=side, position=0)
    return rec


class TestParse:
    def test_ok_run(self):
        rec = br.parse_run(0, _stdout(0.25), _STDERR)
        assert rec["ok"] and rec["exit_code"] == 0
        assert rec["result"]["metrics"]["wall_s"]["value"] == 0.25
        assert rec["unscaled"] == {"wall_s": 0.3125, "setup_s": 0.52, "kernel_s": 0.0405}

    @pytest.mark.parametrize("exit_code, stdout", [
        (0, _stdout(0.25, correct=False)),
        (0, _stdout(0.25, failed=2)),
        (1, _stdout(0.25)),
        (2, ""),
        (0, "not json\n"),
    ])
    def test_bad_runs_are_kept_and_marked(self, exit_code, stdout):
        rec = br.parse_run(exit_code, stdout, "")
        assert rec["ok"] is False and rec["exit_code"] == exit_code
        assert rec["unscaled"] is None

    def test_seed_ranges(self):
        assert br.parse_seeds("1-8") == list(range(1, 9))
        assert br.parse_seeds("1-3,7") == [1, 2, 3, 7]
        assert br.parse_seeds("4") == [4]


BETTER = {"wall_s": "lower", "sites_per_s": "higher"}


class TestSummary:
    def test_medians_quartiles_ratios_and_wins(self):
        runs = [_run("synth_5rF", 1, "parent", 0.30), _run("synth_5rF", 1, "change", 0.24),
                _run("synth_5rF", 2, "change", 0.22), _run("synth_5rF", 2, "parent", 0.20),
                _run("synth_5rF", 3, "parent", 0.40), _run("synth_5rF", 3, "change", 0.30)]
        got = br.summarize(runs, BETTER)["synth_5rF"]
        assert got["runs"] == 6 and got["not_ok"] == 0 and got["pairs"] == 3
        wall = got["metrics"]["wall_s"]
        assert wall["parent"] == {"median": 0.30, "q1": 0.20, "q3": 0.40}
        assert wall["change"]["median"] == 0.24
        assert wall["ratios"] == pytest.approx([0.8, 1.1, 0.75])
        assert wall["median_ratio"] == pytest.approx(0.8)
        assert wall["wins"] == 2
        # higher is better for a rate: the same pairs win
        assert got["metrics"]["sites_per_s"]["wins"] == 2

    def test_a_failed_run_is_counted_not_summarized(self):
        runs = [_run("certify_deep", 1, "parent", 0.02), _run("certify_deep", 1, "change", 0.01),
                _run("certify_deep", 2, "parent", 0.02),
                _run("certify_deep", 2, "change", 0.001, correct=False)]
        got = br.summarize(runs, BETTER)["certify_deep"]
        assert got["not_ok"] == 1 and got["pairs"] == 1
        assert got["metrics"]["wall_s"]["change"]["median"] == 0.01
        assert got["metrics"]["wall_s"]["ratios"] == pytest.approx([0.5])

    def test_workloads_stay_apart_and_unknown_metrics_win_nothing(self):
        runs = [_run("a", 1, "parent", 1.0), _run("a", 1, "change", 0.5),
                _run("b", 1, "parent", 1.0), _run("b", 1, "change", 2.0)]
        got = br.summarize(runs, {})
        assert got["a"]["metrics"]["wall_s"]["median_ratio"] == 0.5
        assert got["b"]["metrics"]["wall_s"]["median_ratio"] == 2.0
        assert got["a"]["metrics"]["wall_s"]["wins"] == 0

    def test_workloads_run_length_and_directions_read_from_the_benchmark(self):
        spec = json.loads((br.ROOT / "BENCHMARK.json").read_text())
        bench = br.benchmark(br.ROOT)
        assert bench["workloads"] == [w["name"] for w in spec["workloads"]]
        assert bench["seconds"] == spec["run_seconds"]
        assert bench["better"]["wall_s"] == "lower"
        assert bench["better"]["sites_per_s"] == "higher"


class TestRevision:
    def test_a_dirty_tree_is_named_by_its_content(self, tmp_path):
        def git(*args):
            subprocess.run(["git", "-C", str(tmp_path), *args], check=True, capture_output=True)

        git("init", "-q")
        (tmp_path / "a.py").write_text("x = 1\n")
        git("add", "a.py")
        git("-c", "user.name=t", "-c", "user.email=t@t", "commit", "-qm", "a")
        clean = br.git_revision(tmp_path)
        assert clean["dirty"] is False and "tree_sha256" not in clean
        assert len(clean["rev"]) == 40
        (tmp_path / "BENCH_1.json").write_text("{}\n")
        assert br.git_revision(tmp_path) == clean
        (tmp_path / "a.py").write_text("x = 2\n")
        first = br.git_revision(tmp_path)
        assert first["dirty"] is True and first["rev"] == clean["rev"]
        (tmp_path / "b.py").write_text("y = 1\n")
        second = br.git_revision(tmp_path)
        (tmp_path / "b.py").write_text("y = 2\n")
        third = br.git_revision(tmp_path)
        assert len({first["tree_sha256"], second["tree_sha256"], third["tree_sha256"]}) == 3
