import importlib.util
import math
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(values, name="items_per_s"):
    return [{name: v} for v in values]


def test_summary_counts_wins_and_ties_in_the_better_direction(tool):
    parent = _runs([10.0, 11.0, 12.0, 13.0, 14.0])
    change = _runs([12.0, 11.0, 15.0, 12.5, 20.0])
    higher = tool.summarize(parent, change, {"items_per_s": "higher"})["items_per_s"]
    assert (higher["wins"], higher["ties"], higher["pairs"]) == (3, 1, 5)
    lower = tool.summarize(parent, change, {"items_per_s": "lower"})["items_per_s"]
    assert (lower["wins"], lower["ties"]) == (1, 1)
    assert not higher["gain"] and not lower["gain"]


def test_summary_quartiles_and_parent_iqr(tool):
    parent = _runs([10.0, 11.0, 12.0, 13.0, 14.0])
    change = _runs([20.0, 21.0, 22.0, 23.0, 24.0])
    row = tool.summarize(parent, change, {"items_per_s": "higher"})["items_per_s"]
    assert row["parent"] == (11.0, 12.0, 13.0)
    assert row["change"] == (21.0, 22.0, 23.0)
    assert row["parent_iqr"] == 2.0
    # five pairs won of five is p = 0.0625 on the sign test: no gain yet
    assert row["wins"] == 5 and row["p_value"] == 0.0625 and not row["gain"]


def test_a_gain_needs_nine_tenths_of_the_pairs_and_the_interval_beyond_the_noise_floor(tool):
    parent = _runs([100.0 + k for k in range(10)])
    # every pair won, but by 0.91% to 0.99%, inside the 1% noise floor
    close = tool.summarize(parent, _runs([101.0 + k for k in range(10)]),
                           {"items_per_s": "higher"})["items_per_s"]
    assert tool.NOISE_FLOOR == 0.01
    assert close["wins"] == 10 and close["log_ratio_interval"][1] < 0.01 and not close["gain"]
    # a large median gain with only 8 of 10 pairs won is no gain either
    eight = _runs([120.0 + k for k in range(8)] + [50.0, 50.0])
    row = tool.summarize(parent, eight, {"items_per_s": "higher"})["items_per_s"]
    assert row["wins"] == 8 and not row["gain"]
    nine = _runs([120.0 + k for k in range(9)] + [50.0])
    assert tool.summarize(parent, nine, {"items_per_s": "higher"})["items_per_s"]["gain"]


def test_a_gain_needs_the_sign_test_as_well(tool):
    # Three pairs all won, the medians 25 apart against a parent IQR of 5:
    # the sign test gives 3 of 3 p = 0.25 and the interval is unbounded, no gain.
    parent, change = [5500.0, 5505.0, 5510.0], [5530.0, 5531.0, 5540.0]
    for row in _both_directions(tool, parent, change):
        assert (row["wins"], row["losses"], row["p_value"]) == (3, 0, 0.25)
        assert abs(row["change"][1] - row["parent"][1]) > row["parent_iqr"]
        assert not row["gain"] and not row["worse"]
    # Ten of ten, each by 2%, is a gain.
    parent = [5000.0 * d for d in DRIFT]
    for row in _both_directions(tool, parent, [1.02 * p for p in parent]):
        assert (row["wins"], row["p_value"]) == (10, 0.001953125) and row["gain"]


def test_summary_of_one_pair_and_lower_is_better_metrics(tool):
    row = tool.summarize(_runs([5.0], "peak_rss_mb"), _runs([4.0], "peak_rss_mb"),
                         {"peak_rss_mb": "lower"})["peak_rss_mb"]
    assert row["parent"] == (5.0, 5.0, 5.0) and row["parent_iqr"] == 0.0
    assert row["wins"] == 1 and row["p_value"] == 1.0 and not row["gain"]
    with pytest.raises(ValueError):
        tool.summarize([], [], {"peak_rss_mb": "lower"})


def test_worse_needs_the_interval_beyond_the_noise_floor(tool):
    parent = [100.0 + k for k in range(10)]
    for better, sign in (("higher", 1.0), ("lower", -1.0)):
        def row(shift):  # the change's values move by shift in the better direction
            change = [p + sign * shift for p in parent]
            return tool.summarize(_runs(parent), _runs(change), {"items_per_s": better})[
                "items_per_s"]

        slightly = row(-0.5)  # worse by 0.46% to 0.50%
        assert slightly["losses"] == 10 and not slightly["worse"] and not slightly["gain"]
        assert row(-2.0)["worse"]  # worse by 1.8% to 2%
        better_row = row(20.0)
        assert better_row["gain"] and not better_row["worse"]


def test_mismatch_names_the_tree_that_alone_holds_the_bytecode_cache(tool, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for root in (a, b):
        (root / "src" / "bosonic_bounds").mkdir(parents=True)
    assert tool.mismatch(a, b) is None
    (b / tool.BYTECODE_CACHE).mkdir()
    for reason in (tool.mismatch(a, b), tool.mismatch(b, a)):
        assert reason.startswith(f"{b} holds {tool.BYTECODE_CACHE} and the other tree")
    (a / tool.BYTECODE_CACHE).mkdir()
    assert tool.mismatch(a, b) is None


def test_main_refuses_trees_whose_caches_differ_before_any_run(tool, tmp_path, monkeypatch, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    (parent / tool.BYTECODE_CACHE).mkdir(parents=True)
    (change / "src" / "bosonic_bounds").mkdir(parents=True)
    (change / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    monkeypatch.setattr(tool, "ROOT", str(change))
    monkeypatch.setattr(tool, "run_bench", lambda *a: pytest.fail("a run started"))
    argv = ["--parent", str(parent), "--workload", "cli-requests", "--seed", "1"]
    assert tool.main(argv) == 2
    assert f"{parent} holds {tool.BYTECODE_CACHE}" in capsys.readouterr().err


def test_mismatch_takes_only_trees_in_one_directory(tool, tmp_path):
    a, b, deeper = tmp_path / "a", tmp_path / "b", tmp_path / "sub" / "b"
    for root in (a, b, deeper):
        root.mkdir(parents=True)
    assert tool.mismatch(a, b) is None and tool.mismatch(f"{a}/", str(b)) is None
    for pair in ((a, deeper), (deeper, a)):
        assert "are not in the same directory" in tool.mismatch(*pair)


def test_main_refuses_trees_in_different_directories_before_any_run(
    tool, tmp_path, monkeypatch, capsys
):
    parent, change = tmp_path / "parent", tmp_path / "sub" / "change"
    for root in (parent, change):
        (root / "src" / "bosonic_bounds").mkdir(parents=True)
    (change / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    monkeypatch.setattr(tool, "ROOT", str(change))
    monkeypatch.setattr(tool, "run_bench", lambda *a: pytest.fail("a run started"))
    argv = ["--parent", str(parent), "--workload", "cli-requests", "--seed", "1"]
    assert tool.main(argv) == 2
    err = capsys.readouterr().err
    assert f"{parent} and {change} are not in the same directory" in err


@pytest.mark.parametrize(
    "flag, value", [("--pairs", "0"), ("--pairs", "-3"), ("--workload", "no-such-workload")]
)
def test_main_refuses_bad_pairs_and_unknown_workloads_before_any_run(
    tool, tmp_path, monkeypatch, capsys, flag, value
):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for root in (parent, change):
        (root / "src" / "bosonic_bounds").mkdir(parents=True)
    (change / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    monkeypatch.setattr(tool, "ROOT", str(change))
    monkeypatch.setattr(tool, "run_bench", lambda *a: pytest.fail("a run started"))
    opts = {"--parent": str(parent), "--workload": "cli-requests", "--seed": "1", flag: value}
    with pytest.raises(SystemExit) as exit_info:
        tool.main([token for item in opts.items() for token in item])
    assert exit_info.value.code == 2
    assert flag in capsys.readouterr().err


def test_sign_test_p_value_is_exact(tool):
    assert tool.sign_test_p(9, 1) == 0.021484375  # 2 (1 + 10) / 2^10
    assert tool.sign_test_p(1, 9) == 0.021484375
    assert tool.sign_test_p(5, 5) == 1.0 and tool.sign_test_p(0, 0) == 1.0
    assert tool.sign_test_p(5, 0) == 0.0625 and tool.sign_test_p(6, 0) == 0.03125


def test_median_interval_takes_the_order_statistics_binomial_coverage_allows(tool):
    ratios = [0.05, -0.01, 0.03, 0.02, 0.08, 0.04, -0.02, 0.06, 0.01, 0.07]
    # n = 10: P(B <= 0) = 1/1024, P(B <= 1) = 11/1024, P(B <= 2) = 56/1024, so the
    # 2nd smallest and 2nd largest cover with 1 - 22/1024; the 3rd would give 1 - 112/1024
    assert tool.median_interval(ratios) == (-0.01, 0.07, 1.0 - 22 / 1024)
    # n = 12: 2 P(B <= 2) = 158/4096 <= 0.05 < 2 P(B <= 3) = 598/4096, so the 3rd from each end
    twelve = [7.0, 2.0, 11.0, 4.0, 9.0, 1.0, 12.0, 5.0, 3.0, 10.0, 6.0, 8.0]
    assert tool.median_interval(twelve) == (3.0, 10.0, 1.0 - 158 / 4096)
    # six values are the fewest whose extremes reach 95%: 1 - 2/64
    assert tool.median_interval([3.0, 1.0, 2.0, 6.0, 5.0, 4.0]) == (1.0, 6.0, 0.96875)
    assert tool.median_interval([1.0, 2.0, 3.0, 4.0, 5.0]) == (-math.inf, math.inf, 1.0)
    row = tool.summarize(_runs([100.0] * 10), _runs([100.0 * math.exp(r) for r in ratios]),
                         {"items_per_s": "higher"})["items_per_s"]
    lo, hi, coverage = row["log_ratio_interval"]
    assert (lo, hi) == pytest.approx((-0.01, 0.07)) and coverage == 1.0 - 22 / 1024


# The host's speed drifts from pair to pair, and both runs of a pair share it.
DRIFT = [1.0, 0.996, 1.004, 0.992, 1.006, 0.998, 0.994, 1.002, 0.997, 1.005]


def _both_directions(tool, parent, change):
    for better, flip in (("higher", 1.0), ("lower", -1.0)):
        runs = [_runs([v ** flip for v in side]) for side in (parent, change)]
        yield tool.summarize(*runs, {"items_per_s": better})["items_per_s"]


def test_a_shared_drift_between_equal_trees_reads_not_worse(tool):
    # Each side's own noise, in parts per thousand of the drifted value.
    noise = {"parent": [1, -1, 2, 0, -2, 1, 1, -1, 0, 2],
             "change": [0, 1, -1, 1, 1, -2, 0, 2, -1, 1]}
    parent, change = ([5000.0 * d * (1.0 + 1e-3 * e) for d, e in zip(DRIFT, noise[side])]
                      for side in ("parent", "change"))
    for row in _both_directions(tool, parent, change):
        assert abs(row["log_ratio_median"]) < 2e-3
        assert row["p_value"] > 0.5 and not row["worse"] and not row["gain"]


def test_a_median_gap_beyond_a_narrow_parent_iqr_is_not_worse_without_lost_pairs(tool):
    # Three pairs: the change's median trails by 25 against a parent IQR of 5,
    # but it loses two pairs and wins one, a split the sign test gives p = 1.
    parent, change = [5500.0, 5505.0, 5510.0], [5470.0, 5480.0, 5520.0]
    row = tool.summarize(_runs(parent), _runs(change), {"items_per_s": "higher"})["items_per_s"]
    assert row["change"][1] - row["parent"][1] < -row["parent_iqr"]
    assert (row["wins"], row["losses"], row["p_value"]) == (1, 2, 1.0) and not row["worse"]


def test_a_five_percent_loss_in_nine_of_ten_pairs_reads_worse(tool):
    parent = [5000.0 * d for d in DRIFT]
    change = [p * (0.95 if k else 1.01) for k, p in enumerate(parent)]
    for row in _both_directions(tool, parent, change):
        assert (row["wins"], row["losses"], row["ties"]) == (1, 9, 0)
        assert row["p_value"] == 0.021484375 and row["worse"] and not row["gain"]
    higher, _ = _both_directions(tool, parent, change)
    assert higher["log_ratio_median"] == pytest.approx(math.log(0.95))


def test_mismatch_compares_the_trees_directory_name_lengths(tool, tmp_path):
    assert tool.mismatch(tmp_path / "parent", tmp_path / "change") is None
    assert tool.mismatch(f"{tmp_path}/parent/", tmp_path / "paren2") is None
    reason = tool.mismatch(tmp_path / "parent", tmp_path / "aa")
    assert "have directory names of different lengths" in reason


def test_main_refuses_trees_whose_names_differ_in_length_before_any_run(
    tool, tmp_path, monkeypatch, capsys
):
    parent, change = tmp_path / "parent", tmp_path / "aa"
    for root in (parent, change):
        (root / "src" / "bosonic_bounds").mkdir(parents=True)
    (change / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    monkeypatch.setattr(tool, "ROOT", str(change))
    monkeypatch.setattr(tool, "run_bench", lambda *a: pytest.fail("a run started"))
    argv = ["--parent", str(parent), "--workload", "cli-requests", "--seed", "1"]
    assert tool.main(argv) == 2
    err = capsys.readouterr().err
    assert f"{parent} and {change} have directory names of different lengths" in err


def _benchmark_tree(root):
    """A tree holding a copy of this tree's BENCHMARK.json and bench/ files."""
    (root / "src" / "bosonic_bounds").mkdir(parents=True)
    (root / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    for path in (ROOT / "bench").rglob("*.py"):
        copy = root / path.relative_to(ROOT)
        copy.parent.mkdir(parents=True, exist_ok=True)
        copy.write_bytes(path.read_bytes())


@pytest.mark.parametrize(
    "edit, differing",
    [
        (lambda root: (root / "BENCHMARK.json").write_text("{}"), "BENCHMARK.json"),
        (lambda root: (root / "bench" / "run.py").write_text("# edited\n"), "bench/run.py"),
        (lambda root: (root / "bench" / "tests" / "test_bench.py").unlink(),
         "bench/tests/test_bench.py"),
        (lambda root: (root / "bench" / "extra.py").write_text(""), "bench/extra.py"),
    ],
    ids=["benchmark-json", "edited", "missing", "added"],
)
def test_main_refuses_trees_whose_benchmarks_differ_before_any_run(
    tool, tmp_path, monkeypatch, capsys, edit, differing
):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for root in (parent, change):
        _benchmark_tree(root)
    # bytecode caches under bench/ are written by runs, not part of the benchmark
    (parent / "bench" / "__pycache__").mkdir()
    (parent / "bench" / "__pycache__" / "run.cpython-311.pyc").write_bytes(b"\0")
    assert tool.mismatch(parent, change) is None
    edit(parent)
    monkeypatch.setattr(tool, "ROOT", str(change))
    monkeypatch.setattr(tool, "run_bench", lambda *a: pytest.fail("a run started"))
    argv = ["--parent", str(parent), "--workload", "cli-requests", "--seed", "1"]
    assert tool.main(argv) == 2
    assert f"{differing} differs between {parent} and {change}" in capsys.readouterr().err


def test_a_steady_rss_offset_inside_the_noise_floor_is_not_worse(tool):
    # cli-requests peak_rss_mb at +0.66% in all 10 pairs, a heap-layout offset
    # that the parent's IQR alone read as worse
    parent = [41.70 + 0.01 * e for e in (1, -1, 2, 0, -2, 1, 1, -1, 0, 2)]
    change = [1.0066 * p for p in parent]
    row = tool.summarize(_runs(parent, "peak_rss_mb"), _runs(change, "peak_rss_mb"),
                         {"peak_rss_mb": "lower"})["peak_rss_mb"]
    assert (row["wins"], row["losses"], row["p_value"]) == (0, 10, 0.001953125)
    assert row["change"][1] - row["parent"][1] > row["parent_iqr"]
    assert row["log_ratio_median"] == pytest.approx(math.log(1.0066))
    assert not row["worse"] and not row["gain"]
