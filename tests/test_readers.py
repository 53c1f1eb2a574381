"""Every CSV input format rejects malformed files with a located DataError."""

import pytest

from rankrefine.cli import _load_predictions, _load_table, main
from rankrefine.core import load_dataset_csv, load_references_csv
from rankrefine.errors import DataError
from rankrefine.rankers import load_comparisons_csv

LOADERS = {
    "predictions": _load_predictions,
    "references": load_references_csv,
    "dataset": load_dataset_csv,
    "comparisons": lambda path: load_comparisons_csv(path, {"r1": 1.0, "r2": 2.0}),
    "queries": _load_table,
}

# (format, case, file content, fragments the message must contain besides the path)
CASES = [
    ("predictions", "empty", "", ["empty file"]),
    ("predictions", "missing column", "id,y_reg\nq1,1.0\n", ["'var_reg'"]),
    ("predictions", "short row", "id,y_reg,var_reg\nq1,1.0\n", ["row 2"]),
    ("predictions", "unparsable", "id,y_reg,var_reg\nq1,1.0,1.0\n\nq2,foo,1.0\n",
     ["row 4", "'y_reg'", "'foo'"]),
    ("predictions", "non-finite", "id,y_reg,var_reg\nq1,1.0,inf\n", ["row 2", "'var_reg'"]),
    ("predictions", "duplicate id", "id,y_reg,var_reg\nq1,1.0,1.0\n q1 ,2.0,1.0\n",
     ["row 3", "'id'", "'q1'"]),
    ("predictions", "var_reg zero", "id,y_reg,var_reg\nq1,1.0,0.0\n", ["row 2", "'var_reg'"]),
    ("predictions", "var_reg negative", "id,y_reg,var_reg\n\nq1,1.0,-2\n",
     ["row 3", "'var_reg'"]),
    ("references", "empty", "\n\n", ["empty file"]),
    ("references", "missing column", "id,label\nr1,1.0\n", ["'y'"]),
    ("references", "short row", "id,y\nr1\n", ["row 2"]),
    ("references", "unparsable", "id,y\nA,1.0\n\nB,foo\n", ["row 4", "'y'", "'foo'"]),
    ("references", "non-finite", "id,y\nr1,nan\n", ["row 2", "'y'"]),
    ("references", "duplicate id", "id,y\nr1,1.0\nr2,2.0\nr1,3.0\n", ["row 4", "'id'"]),
    ("dataset", "empty", "", ["empty file"]),
    ("dataset", "missing column", "id,x0\na,0.5\n", ["'y'"]),
    ("dataset", "short row", "id,x0,y\na,0.5,1.0\nb,0.5\n", ["row 3"]),
    ("dataset", "unparsable", "id,x0,y\na,hello,1.0\n", ["row 2", "'x0'", "'hello'"]),
    ("dataset", "non-finite", "id,x0,y\n\n\na,0.5,-inf\n", ["row 4", "'y'"]),
    ("dataset", "duplicate id", "id,x0,y\na,0.5,1.0\na,0.6,2.0\n", ["row 3", "'id'"]),
    ("comparisons", "empty", "", ["empty file"]),
    ("comparisons", "missing column", "query_id,ref_id\nq,r1\n", ["outcome"]),
    ("comparisons", "short row", "query_id,ref_id,outcome\nq,r1,1\nq,r2\n", ["row 3"]),
    ("comparisons", "unparsable", "query_id,ref_id,outcome\n\nq,r1,maybe\n",
     ["row 3", "'outcome'", "'maybe'"]),
    ("comparisons", "duplicate pair", "query_id,ref_id,outcome\nq,r1,1\nq,r1,0\n",
     ["duplicate", "'r1'"]),
    ("queries", "empty", "", ["empty file"]),
    ("queries", "missing column", "name,y\nq1,1.0\n", ["'id'"]),
    ("queries", "short row", "id,y,text\nq1,1.0\n", ["row 2"]),
    ("queries", "unparsable", "id,y\nq1,1.0\n\nq2,abc\n", ["row 4", "'y'", "'abc'"]),
    ("queries", "non-finite", "id,y\nq1,inf\n", ["row 2", "'y'"]),
    ("queries", "duplicate id", "id,text\nq1,a\nq1,b\n", ["row 3", "'id'"]),
]


@pytest.mark.parametrize(
    "fmt,content,fragments",
    [case[0:1] + case[2:] for case in CASES],
    ids=[f"{case[0]}-{case[1]}" for case in CASES],
)
def test_malformed_file_raises_located_data_error(fmt, content, fragments, tmp_path):
    path = tmp_path / f"{fmt}.csv"
    path.write_text(content)
    with pytest.raises(DataError) as info:
        LOADERS[fmt](path)
    message = str(info.value)
    assert message.startswith(str(path))
    for fragment in fragments:
        assert fragment in message


def test_missing_file_is_data_error(tmp_path):
    with pytest.raises(DataError, match="cannot read"):
        load_references_csv(tmp_path / "absent.csv")


@pytest.mark.parametrize(
    "content",
    [case[2] for case in CASES if case[0] == "predictions"],
    ids=[case[1] for case in CASES if case[0] == "predictions"],
)
def test_refine_exits_3_on_malformed_predictions(content, tmp_path, capsys):
    predictions = tmp_path / "pred.csv"
    predictions.write_text(content)
    references = tmp_path / "refs.csv"
    references.write_text("id,y\nr1,1.0\n")
    comparisons = tmp_path / "comp.csv"
    comparisons.write_text("query_id,ref_id,outcome\n")
    code = main([
        "refine", "--predictions", str(predictions), "--references", str(references),
        "--comparisons", str(comparisons), "--out", str(tmp_path / "out.csv"),
    ])
    assert code == 3
    assert str(predictions) in capsys.readouterr().err
