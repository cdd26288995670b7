import json

import pytest

from compare_reports import compare


def write(root, files):
    root.mkdir()
    for name, text in files.items():
        (root / name).write_text(text, encoding="utf-8")
    return root


REPORT = {"verdict": "ok", "data": {"eps_blocks": [{"max_ode_residual": 2e-16,
                                                    "value": [[0.5, 0.0]]}]}}
FILES = {"exit_codes.txt": "a.json 0\n", "a.json": json.dumps(REPORT),
         "a.csv": "eps,re,im\n0.1,0.5,0.0\n"}


def test_identical(tmp_path, capsys):
    assert compare(write(tmp_path / "a", FILES), write(tmp_path / "b", FILES)) == 0
    assert capsys.readouterr().out == ("3 of 3 files byte-identical; "
                                       "largest relative change 0\n")


def test_numbers_by_field(tmp_path, capsys):
    moved = json.loads(json.dumps(REPORT))
    moved["data"]["eps_blocks"][0]["value"][0][0] = 0.625
    moved["data"]["eps_blocks"][0]["max_ode_residual"] = 4e-17
    b = dict(FILES, **{"a.json": json.dumps(moved), "a.csv": "eps,re,im\n0.1,0.5,1e-300\n"})
    assert compare(write(tmp_path / "a", FILES), write(tmp_path / "b", b)) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == ("a.csv: 1 of 3 numbers differ, largest relative change 1; "
                      "by field: im 1")
    assert out[1] == ("a.json: 2 of 3 numbers differ, largest relative change 0.8; "
                      "by field: max_ode_residual 0.8, value 0.2")
    assert out[2] == "1 of 3 files byte-identical; largest relative change 1 in a.csv"


@pytest.mark.parametrize("name, text", [
    ("exit_codes.txt", "a.json 1\n"),
    ("a.json", json.dumps(dict(REPORT, verdict="error"))),
    ("a.json", json.dumps({"data": REPORT["data"], "verdict": "ok"})),
    ("a.json", json.dumps(dict(REPORT, data={"eps_blocks": []}))),
    ("a.csv", "eps,re,im\n0.1,0.5\n"),
    ("a.csv", "eps,re,imag\n0.1,0.5,0.0\n"),
])
def test_structural(tmp_path, name, text):
    b = dict(FILES, **{name: text})
    assert compare(write(tmp_path / "a", FILES), write(tmp_path / "b", b)) == 1


def test_file_lists(tmp_path):
    b = dict(FILES, **{"extra.json": "{}"})
    assert compare(write(tmp_path / "a", FILES), write(tmp_path / "b", b)) == 1
