import csv
import difflib
import importlib.util
import io
import pathlib


def _lines(label: str, data: bytes) -> list[str]:
    """The lines to diff: one column=value line per cell of a one-row CSV."""
    text = data.decode()
    rows = list(csv.reader(io.StringIO(text))) if "--format csv" in label else []
    if len(rows) == 2:
        return [f"{column}={value}\n" for column, value in zip(*rows)]
    return text.splitlines(keepends=True)


def test_outputs_equal_the_golden_files(tmp_path, monkeypatch):
    """Golden files pin stability, not correctness; tools/freeze_outputs.py writes them."""
    path = pathlib.Path(__file__).resolve().parents[1] / "tools" / "freeze_outputs.py"
    spec = importlib.util.spec_from_file_location("freeze_outputs", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("BOSONIC_BOUNDS_SEED", raising=False)
    got = tool.golden_outputs()
    stored = {p.name for p in tool.GOLDEN.iterdir()}
    problems = [f"{name}: stale golden file" for name in sorted(stored - got.keys())]
    for name, (label, data) in got.items():
        want = (tool.GOLDEN / name).read_bytes() if name in stored else None
        if want is None:
            problems.append(f"{label}: no golden file {name}")
        elif want != data:
            diff = difflib.unified_diff(_lines(label, want), _lines(label, data), "golden", "now")
            problems.append(f"{label}:\n" + ("".join(diff) or "bytes differ, lines do not\n"))
    assert not problems, "outputs differ from tests/golden/:\n" + "\n".join(problems)
