"""The preset comparison script reports each CSV as identical or by its
largest change."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "compare_presets.py"


@pytest.fixture(scope="module")
def compare():
    spec = importlib.util.spec_from_file_location("compare_presets", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(path, text):
    path.write_text(text)
    return path


def test_identical_files_read_identical(compare, tmp_path):
    text = "tf,population\n0.5,0.25\n1,0.5\n"
    a, b = _write(tmp_path / "a.csv", text), _write(tmp_path / "b.csv", text)
    assert compare.compare_csv(a, b) == "identical"


def test_the_largest_change_is_named_with_its_column_and_row(compare, tmp_path):
    a = _write(tmp_path / "a.csv", "tf,fidelity,N\n5,0.9,3\n10,0.99,3\n20,0.999,9\n")
    b = _write(tmp_path / "b.csv", "tf,fidelity,N\n5,0.9000001,3\n10,0.9899,3\n20,0.999,9\n")
    assert compare.compare_csv(a, b) == "largest change 0.0001 in fidelity at row 1 (tf = 10)"


def test_a_point_failed_on_one_side_and_other_shapes(compare, tmp_path):
    a = _write(tmp_path / "a.csv", "tf,population\n1,0.5\n2,0.25\n")
    b = _write(tmp_path / "b.csv", "tf,population\n1,0.5\n2,nan\n")
    assert compare.compare_csv(a, b) == "largest change inf in population at row 1 (tf = 2)"
    c = _write(tmp_path / "c.csv", "tf,population\n1,0.5\n")
    assert compare.compare_csv(a, c) == "shapes differ (2 against 1 rows)"
    d = _write(tmp_path / "d.csv", "tf,fidelity\n1,0.5\n2,0.25\n")
    assert compare.compare_csv(a, d) == "headers differ"
    e = _write(tmp_path / "e.csv", "epsilon,fidelity,protocol\n0,0.5,linear\n")
    f = _write(tmp_path / "f.csv", "epsilon,fidelity,protocol\n0,0.5,faquad\n")
    assert compare.compare_csv(e, f) == "1 text fields differ, first in protocol at row 0"
