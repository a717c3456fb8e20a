import importlib.util
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
    assert row["wins"] == 5 and row["gain"]


def test_a_gain_needs_nine_tenths_of_the_pairs_and_more_than_the_parent_iqr(tool):
    parent = _runs([100.0 + k for k in range(10)])
    # every pair won, but the medians differ by 1, less than the parent's IQR of 4.5
    close = tool.summarize(parent, _runs([101.0 + k for k in range(10)]),
                           {"items_per_s": "higher"})["items_per_s"]
    assert close["wins"] == 10 and close["parent_iqr"] == 4.5 and not close["gain"]
    # a large median gain with only 8 of 10 pairs won is no gain either
    eight = _runs([120.0 + k for k in range(8)] + [50.0, 50.0])
    row = tool.summarize(parent, eight, {"items_per_s": "higher"})["items_per_s"]
    assert row["wins"] == 8 and not row["gain"]
    nine = _runs([120.0 + k for k in range(9)] + [50.0])
    assert tool.summarize(parent, nine, {"items_per_s": "higher"})["items_per_s"]["gain"]


def test_summary_of_one_pair_and_lower_is_better_metrics(tool):
    row = tool.summarize(_runs([5.0], "peak_rss_mb"), _runs([4.0], "peak_rss_mb"),
                         {"peak_rss_mb": "lower"})["peak_rss_mb"]
    assert row["parent"] == (5.0, 5.0, 5.0) and row["parent_iqr"] == 0.0
    assert row["wins"] == 1 and row["gain"]
    with pytest.raises(ValueError):
        tool.summarize([], [], {"peak_rss_mb": "lower"})


def test_worse_needs_the_median_to_lose_by_more_than_the_parent_iqr(tool):
    parent = [100.0 + k for k in range(10)]  # median 104.5, IQR 4.5
    for better, sign in (("higher", 1.0), ("lower", -1.0)):
        def row(change):
            runs = _runs([sign * p for p in parent]), _runs([sign * c for c in change])
            return tool.summarize(*runs, {"items_per_s": better})["items_per_s"]

        slightly = row([p - 4.0 for p in parent])  # worse by 4 < 4.5
        assert slightly["wins"] == 0 and not slightly["worse"] and not slightly["gain"]
        assert row([p - 5.0 for p in parent])["worse"]  # worse by 5 > 4.5
        better_row = row([p + 20.0 for p in parent])
        assert better_row["gain"] and not better_row["worse"]


def test_cache_mismatch_names_the_tree_that_alone_holds_the_bytecode_cache(tool, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for root in (a, b):
        (root / "src" / "bosonic_bounds").mkdir(parents=True)
    assert tool.cache_mismatch(a, b) is None
    (b / tool.BYTECODE_CACHE).mkdir()
    assert tool.cache_mismatch(a, b) == b and tool.cache_mismatch(b, a) == b
    (a / tool.BYTECODE_CACHE).mkdir()
    assert tool.cache_mismatch(a, b) is None


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


def test_siblings_holds_only_for_trees_in_one_directory(tool, tmp_path):
    a, b, deeper = tmp_path / "a", tmp_path / "b", tmp_path / "sub" / "b"
    for root in (a, b, deeper):
        root.mkdir(parents=True)
    assert tool.siblings(a, b) and tool.siblings(f"{a}/", str(b))
    assert not tool.siblings(a, deeper) and not tool.siblings(deeper, a)


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
