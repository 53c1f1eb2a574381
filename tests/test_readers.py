"""Every CSV input format rejects malformed files with a located DataError."""

import codecs

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

# Past the csv module's default field size limit of 131,072 characters.
LONG = "1" * 131_073
NOT_UTF8 = ["cannot read", "can't decode byte 0xe9"]
TOO_LONG = ["row 2: cannot read", "field larger than field limit"]

# (format, case, file content, fragments the message must contain besides the path);
# bytes content is written as it stands.
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
    ("predictions", "empty id", "id,y_reg,var_reg\nq1,1.0,1.0\n,2.0,1.0\n",
     ["row 3", "column 'id': empty id"]),
    ("predictions", "non-UTF-8", b"id,y_reg,var_reg\nq\xe91,1.0,1.0\n", NOT_UTF8),
    ("predictions", "over-long cell", f"id,y_reg,var_reg\nq1,{LONG},1.0\n", TOO_LONG),
    ("references", "empty", "\n\n", ["empty file"]),
    ("references", "missing column", "id,label\nr1,1.0\n", ["'y'"]),
    ("references", "short row", "id,y\nr1\n", ["row 2"]),
    ("references", "unparsable", "id,y\nA,1.0\n\nB,foo\n", ["row 4", "'y'", "'foo'"]),
    ("references", "non-finite", "id,y\nr1,nan\n", ["row 2", "'y'"]),
    ("references", "duplicate id", "id,y\nr1,1.0\nr2,2.0\nr1,3.0\n", ["row 4", "'id'"]),
    ("references", "empty id", "id,y\n,1.0\n", ["row 2", "column 'id': empty id"]),
    ("references", "non-UTF-8", b"id,y\nr\xe91,1.0\n", NOT_UTF8),
    # An unclosed quote runs its cell on through the rest of the file.
    ("references", "over-long cell", 'id,y\n"r1,1.0\n' + "r2,2.0\n" * 20_000, TOO_LONG[1:]),
    ("dataset", "empty", "", ["empty file"]),
    ("dataset", "missing column", "id,x0\na,0.5\n", ["'y'"]),
    ("dataset", "short row", "id,x0,y\na,0.5,1.0\nb,0.5\n", ["row 3"]),
    ("dataset", "unparsable", "id,x0,y\na,hello,1.0\n", ["row 2", "'x0'", "'hello'"]),
    ("dataset", "non-finite", "id,x0,y\n\n\na,0.5,-inf\n", ["row 4", "'y'"]),
    ("dataset", "duplicate id", "id,x0,y\na,0.5,1.0\na,0.6,2.0\n", ["row 3", "'id'"]),
    ("dataset", "empty id", "id,x0,y\na,0.5,1.0\n ,0.6,2.0\n", ["row 3", "column 'id': empty id"]),
    ("dataset", "non-UTF-8", b"id,x0,y\n\xe9,0.5,1.0\n", NOT_UTF8),
    ("dataset", "over-long cell", f"id,x0,y\na,{LONG},1.0\n", TOO_LONG),
    ("comparisons", "empty", "", ["empty file"]),
    ("comparisons", "missing column", "query_id,ref_id\nq,r1\n", ["outcome"]),
    ("comparisons", "short row", "query_id,ref_id,outcome\nq,r1,1\nq,r2\n", ["row 3"]),
    ("comparisons", "unparsable", "query_id,ref_id,outcome\n\nq,r1,maybe\n",
     ["row 3", "'outcome'", "'maybe'"]),
    ("comparisons", "duplicate pair", "query_id,ref_id,outcome\nq,r1,1\nq,r1,0\n",
     ["row 3", "column 'ref_id'", "duplicate", "'r1'"]),
    ("comparisons", "unknown ref", "query_id,ref_id,outcome\nq,r1,1\n\nq,r9,0\n",
     ["row 4", "column 'ref_id'", "unknown", "'r9'"]),
    ("comparisons", "empty query id", "query_id,ref_id,outcome\nq,r1,1\n ,r2,0\n",
     ["row 3", "column 'query_id': empty id"]),
    ("comparisons", "non-UTF-8", b"query_id,ref_id,outcome\nq\xe9,r1,1\n", NOT_UTF8),
    ("comparisons", "over-long cell", f"query_id,ref_id,outcome\n{LONG},r1,1\n", TOO_LONG),
    ("queries", "empty", "", ["empty file"]),
    ("queries", "missing column", "name,y\nq1,1.0\n", ["'id'"]),
    ("queries", "short row", "id,y,text\nq1,1.0\n", ["row 2"]),
    ("queries", "unparsable", "id,y\nq1,1.0\n\nq2,abc\n", ["row 4", "'y'", "'abc'"]),
    ("queries", "non-finite", "id,y\nq1,inf\n", ["row 2", "'y'"]),
    ("queries", "duplicate id", "id,text\nq1,a\nq1,b\n", ["row 3", "'id'"]),
    ("queries", "empty id", "id,text\n,a\n", ["row 2", "column 'id': empty id"]),
    ("queries", "non-UTF-8", b"id,text\nq1,caf\xe9\n", NOT_UTF8),
    ("queries", "over-long cell", f"id,text\nq1,{LONG}\n", TOO_LONG),
]


def _write(path, content):
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)


@pytest.mark.parametrize(
    "fmt,content,fragments",
    [case[0:1] + case[2:] for case in CASES],
    ids=[f"{case[0]}-{case[1]}" for case in CASES],
)
def test_malformed_file_raises_located_data_error(fmt, content, fragments, tmp_path):
    path = tmp_path / f"{fmt}.csv"
    _write(path, content)
    with pytest.raises(DataError) as info:
        LOADERS[fmt](path)
    message = str(info.value)
    assert message.startswith(str(path))
    for fragment in fragments:
        assert fragment in message


# One valid file per format; its first header cell is the one a byte-order mark would hide.
VALID = {
    "predictions": "id,y_reg,var_reg\nq1,1.0,0.5\nq2,2.0,1.5\n",
    "references": "id,y\nr1,1.0\nr2,2.0\n",
    "dataset": "id,x0,y\na,0.5,1.0\nb,0.6,2.0\n",
    "comparisons": "query_id,ref_id,outcome\nq,r1,1\nq,r2,0\n",
    "queries": "id,y,text\nq1,1.0,first\nq2,2.0,second\n",
}


@pytest.mark.parametrize("fmt", sorted(VALID))
def test_byte_order_mark_reads_as_the_plain_file(fmt, tmp_path):
    # Excel's "CSV UTF-8" files start with a UTF-8 byte-order mark.
    plain, marked = tmp_path / "plain" / f"{fmt}.csv", tmp_path / "marked" / f"{fmt}.csv"
    plain.parent.mkdir()
    marked.parent.mkdir()
    plain.write_bytes(VALID[fmt].encode("utf-8"))
    marked.write_bytes(codecs.BOM_UTF8 + VALID[fmt].encode("utf-8"))
    assert repr(LOADERS[fmt](marked)) == repr(LOADERS[fmt](plain))


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
    _write(predictions, content)
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


def test_rank_oracle_exits_3_on_empty_query_id(tmp_path, capsys):
    queries = tmp_path / "queries.csv"
    queries.write_text("id,y\nq1,0.5\n,1.0\n")
    references = tmp_path / "refs.csv"
    references.write_text("id,y\nr1,0.0\nr2,2.0\n")
    code = main([
        "rank", "--source", "oracle", "--queries", str(queries),
        "--references", str(references), "--k", "2", "--out", str(tmp_path / "out.csv"),
    ])
    assert code == 3
    assert f"{queries}: row 3, column 'id': empty id" in capsys.readouterr().err


def test_rank_file_exits_3_on_empty_query_id(tmp_path, capsys):
    comparisons = tmp_path / "comp.csv"
    comparisons.write_text("query_id,ref_id,outcome\n,r1,1\nq,r2,0\n")
    references = tmp_path / "refs.csv"
    references.write_text("id,y\nr1,1.0\nr2,2.0\n")
    out = tmp_path / "out.csv"
    code = main([
        "rank", "--source", "file", "--comparisons", str(comparisons),
        "--references", str(references), "--out", str(out),
    ])
    assert code == 3
    assert f"{comparisons}: row 2, column 'query_id': empty id" in capsys.readouterr().err
    assert not out.exists()
