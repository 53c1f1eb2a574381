"""Command-line behavior: outputs, exit codes, determinism."""

import csv
import importlib
import io
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import golden
import rankrefine
from rankrefine import cli, forest
from rankrefine.cli import _parse_float_list, _parse_int_list, main
from rankrefine.core import Dataset, load_dataset_csv, save_dataset_csv
from rankrefine.experiments import DEFAULT_ACCURACIES, make_synthetic_dataset
from rankrefine.errors import RankRefineError, ValidationError
from rankrefine.rankers import load_replay_transport

REPLAY_FIXTURE = Path(__file__).parent / "data" / "llm_replay.json"
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _write(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture
def refine_inputs(tmp_path):
    predictions = _write(
        tmp_path / "pred.csv",
        "id,y_reg,var_reg\nq1,1.0,1.0\nq2,5.0,2.0\nq3,-1.0,0.5\n",
    )
    references = _write(
        tmp_path / "refs.csv",
        "id,y\nr1,-1.0\nr2,1.0\nr3,3.0\n",
    )
    comparisons = _write(
        tmp_path / "comp.csv",
        "query_id,ref_id,outcome\nq1,r1,1\nq1,r2,0\nq2,r1,1\nq2,r3,1\n",
    )
    return predictions, references, comparisons


class TestArgParsing:
    def test_float_list_comma_form(self):
        assert _parse_float_list("0.5, 0.7,1.0", "x") == (0.5, 0.7, 1.0)

    def test_float_list_range_form(self):
        assert _parse_float_list("0.50:0.05:0.65", "x") == (0.5, 0.55, 0.6, 0.65)
        assert _parse_float_list("0.5:0.2:1.0", "x") == (0.5, 0.7, 0.9)

    def test_float_list_rejects_garbage(self):
        with pytest.raises(ValidationError):
            _parse_float_list("0.5:0.1", "x")
        with pytest.raises(ValidationError):
            _parse_float_list("a,b", "x")
        with pytest.raises(ValidationError):
            _parse_float_list("1.0:-0.1:0.5", "x")

    @pytest.mark.parametrize("text", ["0:1:inf", "0.5:0.05:nan", "0.5:nan:1"])
    def test_float_list_rejects_non_finite_range(self, text):
        # Each of these once looped forever, growing its value list.
        with pytest.raises(ValidationError, match="finite"):
            _parse_float_list(text, "x")

    def test_fine_step_range_lists_each_value_once(self):
        # Values within 1e-9 past stop count as stop; each once listed it again.
        values = _parse_float_list("0:1e-10:1e-8", "x")
        assert len(values) == 101
        assert values[-1] == 1e-8
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_range_at_the_cap_parses(self):
        values = _parse_float_list("0:1e-5:0.99999", "x")
        assert len(values) == cli.MAX_RANGE_VALUES == 100_000
        assert values[-1] == 0.99999

    @pytest.mark.parametrize(
        "text, count", [("0:1e-5:1", "100001"), ("0:1e-10:1", "10000000001")]
    )
    def test_range_past_the_cap_is_refused(self, text, count):
        # The second once built its 1e10 values and never returned.
        with pytest.raises(ValidationError, match=f": {count} values, more than the 100000"):
            _parse_float_list(text, "x")

    @pytest.mark.parametrize("text", ["0:4e-11:1e-8", "0:1e-300:1", "0.5:1e-13:1.0"])
    def test_float_list_rejects_sub_resolution_step(self, text):
        # Values round to 10 decimals, so a finer step repeats them or never ends.
        with pytest.raises(ValidationError, match="1e-10 range resolution"):
            _parse_float_list(text, "x")

    def test_ranges_match_the_plain_rounding_loop(self):
        """Every range keeps the values of the loop it replaced, minus repeats."""

        def plain(start, step, stop):
            values, i = [], 0
            while (v := round(start + i * step, 10)) <= stop + 1e-9:
                values.append(min(v, stop))
                i += 1
            return tuple(dict.fromkeys(values))

        assert _parse_float_list("0.50:0.05:1.00", "x") == DEFAULT_ACCURACIES
        rng = np.random.default_rng(5)
        for _ in range(300):
            start = float(rng.choice([0.0, 0.5, -1.25, rng.uniform(-10, 10)]))
            step = float(10.0 ** rng.uniform(-10, 1))
            stop = start + float(rng.choice([0.0, step * rng.integers(0, 50), rng.uniform(0, 5)]))
            if (stop - start) / step > 2000:
                continue
            text = f"{start!r}:{step!r}:{stop!r}"
            assert _parse_float_list(text, "x") == plain(start, step, stop), text

    @pytest.mark.parametrize(
        "argv",
        [["noise", "--bs", "0:1e-300:1"], ["sweep", "--accuracies", "0.5:1e-13:1.0"]],
        ids=["noise", "sweep"],
    )
    def test_sub_resolution_step_flag_is_usage_error(self, argv, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert main([*argv, "--out", str(out)]) == 2
        assert "range resolution" in capsys.readouterr().err
        assert not out.exists()

    def test_range_past_the_cap_flag_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "n.csv"
        assert main(["noise", "--bs", "0:1e-10:1", "--out", str(out)]) == 2
        assert "10000000001 values" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_range_flag_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "n.csv"
        assert main(["noise", "--bs", "0:1:inf", "--out", str(out)]) == 2
        assert "need finite values" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_k_list_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--ks", ",", "--out", str(out)]) == 2
        assert "at least one k is required" in capsys.readouterr().err
        assert not out.exists()

    def test_int_list(self):
        assert _parse_int_list("10,20,30", "k") == (10, 20, 30)
        with pytest.raises(ValidationError):
            _parse_int_list("ten", "k")

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert main([]) == 2
        capsys.readouterr()


class TestRefine:
    def test_writes_fused_rows(self, refine_inputs, tmp_path, capsys):
        predictions, references, comparisons = refine_inputs
        out = tmp_path / "refined.csv"
        code = main([
            "refine", "--predictions", predictions, "--references", references,
            "--comparisons", comparisons, "--out", str(out),
        ])
        assert code == 0
        assert "refined 2 of 3" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert lines[0] == "id,y_reg,var_reg,y_rank,var_rank,y_fused,var_fused,clamped"
        rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
        # q1 sits between r1 and r2: two-sided, not clamped.
        assert rows["q1"][7] == "false"
        assert float(rows["q1"][6]) < 1.0  # fused variance below var_reg
        # q2's comparisons all point up: clamped one-sided estimate.
        assert rows["q2"][7] == "true"
        # q3 has no comparisons: passes through with empty rank cells.
        assert rows["q3"][3] == "" and rows["q3"][7] == ""
        assert float(rows["q3"][5]) == -1.0

    def test_idempotent_bytes(self, refine_inputs, tmp_path, capsys):
        predictions, references, comparisons = refine_inputs
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main([
                "refine", "--predictions", predictions, "--references", references,
                "--comparisons", comparisons, "--out", str(out),
            ]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_clamp_c_floors_rank_variance(self, refine_inputs, tmp_path, capsys):
        predictions, references, comparisons = refine_inputs
        plain, clamped = tmp_path / "plain.csv", tmp_path / "clamped.csv"
        main([
            "refine", "--predictions", predictions, "--references", references,
            "--comparisons", comparisons, "--out", str(plain),
        ])
        main([
            "refine", "--predictions", predictions, "--references", references,
            "--comparisons", comparisons, "--out", str(clamped), "--clamp-c", "100",
        ])
        capsys.readouterr()
        var_plain = float(plain.read_text().splitlines()[1].split(",")[4])
        var_clamped = float(clamped.read_text().splitlines()[1].split(",")[4])
        assert var_clamped == pytest.approx(100.0)  # 100 * var_reg(q1)
        assert var_plain < var_clamped

    @pytest.mark.parametrize("clamp_c", ["-1", "nan"])
    def test_invalid_clamp_c_is_usage_error(self, refine_inputs, tmp_path, capsys, clamp_c):
        predictions, references, comparisons = refine_inputs
        out = tmp_path / "refined.csv"
        code = main([
            "refine", "--predictions", predictions, "--references", references,
            "--comparisons", comparisons, "--out", str(out), "--clamp-c", clamp_c,
        ])
        assert code == 2
        assert "clamp_c must be >= 0 (0 disables)" in capsys.readouterr().err
        assert not out.exists()
        # Checked before any file is read: a missing input does not turn it into exit 3.
        code = main([
            "refine", "--predictions", str(tmp_path / "missing.csv"),
            "--references", references, "--comparisons", comparisons,
            "--out", str(out), "--clamp-c", clamp_c,
        ])
        assert code == 2
        capsys.readouterr()

    def test_unknown_query_in_comparisons_is_data_error(self, refine_inputs, tmp_path, capsys):
        predictions, references, _ = refine_inputs
        comparisons = _write(
            tmp_path / "bad.csv", "query_id,ref_id,outcome\nmystery,r1,1\n"
        )
        code = main([
            "refine", "--predictions", predictions, "--references", references,
            "--comparisons", comparisons, "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 3
        assert "error" in capsys.readouterr().err

    def test_unwritable_out_is_data_error(self, refine_inputs, tmp_path, capsys):
        predictions, references, comparisons = refine_inputs
        out = tmp_path / "missing" / "o.csv"
        for argv in (
            ["refine", "--predictions", predictions, "--references", references,
             "--comparisons", comparisons],
            ["validate-bound", "--alphas", "0.5", "--samples", "10000"],
        ):
            assert main([*argv, "--out", str(out)]) == 3
            err = capsys.readouterr().err
            assert f"cannot write {out}" in err
            assert "Traceback" not in err

    def test_overflowing_label_range_is_numeric_error(self, tmp_path, capsys):
        predictions = _write(tmp_path / "pred.csv", "id,y_reg,var_reg\np1,0.0,1.0\n")
        references = _write(tmp_path / "refs.csv", "id,y\nr1,1e308\nr2,-1e308\n")
        comparisons = _write(tmp_path / "comp.csv", "query_id,ref_id,outcome\np1,r1,0\np1,r2,1\n")
        out = tmp_path / "refined.csv"
        code = main([
            "refine", "--predictions", predictions, "--references", references,
            "--comparisons", comparisons, "--out", str(out),
        ])
        assert code == 4
        assert "label range [-1e+308, 1e+308]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sign", ["", "-"], ids=["positive", "negative"])
    def test_overflowing_midpoint_is_numeric_error(self, sign, tmp_path, capsys):
        predictions = _write(tmp_path / "pred.csv", "id,y_reg,var_reg\np1,0.0,1.0\n")
        references = _write(tmp_path / "refs.csv", f"id,y\nr1,{sign}1e308\nr2,{sign}1.05e308\n")
        comparisons = _write(tmp_path / "comp.csv", "query_id,ref_id,outcome\np1,r1,1\np1,r2,0\n")
        out = tmp_path / "refined.csv"
        code = main([
            "refine", "--predictions", predictions, "--references", references,
            "--comparisons", comparisons, "--out", str(out),
        ])
        assert code == 4
        err = capsys.readouterr().err
        assert "label range" in err and "Traceback" not in err
        assert not out.exists()

    def test_overflowing_precision_is_one_line_numeric_error(self, tmp_path):
        # 1 / 1e-320 overflows float64. The run must say so in one line naming
        # that row's two variances, with no numpy warning and no array dump.
        predictions = _write(
            tmp_path / "pred.csv", "id,y_reg,var_reg\np1,0.0,1e-320\np2,0.0,1.0\n"
        )
        references = _write(tmp_path / "refs.csv", "id,y\nr1,1.0\n")
        comparisons = _write(tmp_path / "comp.csv", "query_id,ref_id,outcome\np1,r1,0\np2,r1,1\n")
        out = tmp_path / "refined.csv"
        argv = [
            "refine", "--predictions", predictions, "--references", references,
            "--comparisons", comparisons, "--out", str(out),
        ]
        code = "import sys; from rankrefine.cli import main; sys.exit(main(sys.argv[1:]))"
        result = subprocess.run(
            [sys.executable, "-c", code, *argv], capture_output=True, text=True, timeout=60,
            env=_checkout_env(),
        )
        assert result.returncode == 4, result.stderr
        assert "RuntimeWarning" not in result.stderr
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and "cannot fuse variances 1e-320 and " in lines[0], lines
        assert not out.exists()

    def test_id_with_a_comma_stays_one_cell(self, tmp_path, capsys):
        predictions = _write(tmp_path / "pred.csv", 'id,y_reg,var_reg\n"a,b",1.0,1.0\n')
        references = _write(tmp_path / "refs.csv", "id,y\nr1,0.0\n")
        comparisons = _write(tmp_path / "comp.csv", 'query_id,ref_id,outcome\n"a,b",r1,1\n')
        out = tmp_path / "refined.csv"
        assert main([
            "refine", "--predictions", predictions, "--references", references,
            "--comparisons", comparisons, "--out", str(out),
        ]) == 0
        capsys.readouterr()
        rows = list(csv.reader(io.StringIO(out.read_text())))
        assert [len(row) for row in rows] == [8, 8]
        assert rows[1][0] == "a,b" and rows[1][7] == "true"


class TestRankOracle:
    def _inputs(self, tmp_path):
        queries = _write(tmp_path / "queries.csv", "id,y\nq1,2.5\nq2,-2.5\n")
        references = _write(
            tmp_path / "refs.csv",
            "id,y\n" + "".join(f"r{i},{i - 3}.0\n" for i in range(7)),
        )
        return queries, references

    def test_perfect_oracle_reports_truth(self, tmp_path, capsys):
        queries, references = self._inputs(tmp_path)
        out = tmp_path / "comp.csv"
        code = main([
            "rank", "--source", "oracle", "--queries", queries,
            "--references", references, "--k", "7", "--accuracy", "1.0",
            "--out", str(out),
        ])
        assert code == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        assert lines[0] == "query_id,ref_id,outcome"
        assert len(lines) == 15
        for line in lines[1:]:
            qid, rid, flag = line.split(",")
            y_query = 2.5 if qid == "q1" else -2.5
            y_ref = float(rid[1:]) - 3.0
            assert flag == ("1" if y_query > y_ref else "0")

    def test_deterministic_across_runs(self, tmp_path, capsys):
        queries, references = self._inputs(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            main([
                "rank", "--source", "oracle", "--queries", queries,
                "--references", references, "--k", "4", "--accuracy", "0.7",
                "--seed", "5", "--out", str(out),
            ])
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_tied_references_warn_once_per_run(self, tmp_path, capsys, caplog):
        _, references = self._inputs(tmp_path)  # labels -3.0 .. 3.0
        queries = _write(tmp_path / "tied.csv", "id,y\nq1,1.0\nq2,2.0\nq3,0.5\n")
        with caplog.at_level("WARNING", logger="rankrefine"):
            code = main([
                "rank", "--source", "oracle", "--queries", queries,
                "--references", references, "--k", "6", "--out", str(tmp_path / "c.csv"),
            ])
        assert code == 0
        capsys.readouterr()
        assert [r.getMessage() for r in caplog.records] == [
            "rank --source oracle: excluded 2 references tied with their query, in 2 queries"
        ]

    def test_accuracy_out_of_range_is_usage_error(self, tmp_path, capsys):
        queries, references = self._inputs(tmp_path)
        code = main([
            "rank", "--source", "oracle", "--queries", queries,
            "--references", references, "--accuracy", "0.3",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2
        capsys.readouterr()


class TestRankFile:
    def test_validates_and_rewrites(self, tmp_path, capsys):
        references = _write(tmp_path / "refs.csv", "id,y\nr1,1.0\n")
        comparisons = _write(
            tmp_path / "comp.csv", "query_id,ref_id,outcome\nq,r1,1\n"
        )
        out = tmp_path / "out.csv"
        assert main([
            "rank", "--source", "file", "--references", references,
            "--comparisons", comparisons, "--out", str(out),
        ]) == 0
        capsys.readouterr()
        assert out.read_text() == "query_id,ref_id,outcome\nq,r1,1\n"

    def test_bad_header_is_data_error(self, tmp_path, capsys):
        references = _write(tmp_path / "refs.csv", "id,y\nr1,1.0\n")
        comparisons = _write(tmp_path / "comp.csv", "a,b,c\nq,r1,1\n")
        assert main([
            "rank", "--source", "file", "--references", references,
            "--comparisons", comparisons, "--out", str(tmp_path / "x.csv"),
        ]) == 3
        capsys.readouterr()

    def test_missing_references_is_usage_error(self, tmp_path, capsys):
        """Omitting a per-source required flag is exit 2, not a traceback."""
        comparisons = _write(
            tmp_path / "comp.csv", "query_id,ref_id,outcome\nq,r1,1\n"
        )
        assert main([
            "rank", "--source", "file",
            "--comparisons", comparisons, "--out", str(tmp_path / "x.csv"),
        ]) == 2
        assert "--references" in capsys.readouterr().err


class TestRankInteractive:
    def test_scripted_session(self, tmp_path, capsys, monkeypatch):
        queries = _write(tmp_path / "queries.csv", "id,text\nq1,ethanol\n")
        references = _write(
            tmp_path / "refs.csv", "id,y,text\nr1,1.0,octane\nr2,2.0,phenol\n"
        )
        out = tmp_path / "out.csv"
        monkeypatch.setattr("sys.stdin", io.StringIO("y\nn\n"))
        assert main([
            "rank", "--source", "interactive", "--queries", queries,
            "--references", references, "--property", "solubility",
            "--out", str(out),
        ]) == 0
        capsys.readouterr()
        assert out.read_text() == "query_id,ref_id,outcome\nq1,r1,1\nq1,r2,0\n"


class TestRankLlmReplay:
    EXPECTED = (
        "query_id,ref_id,outcome\n"
        "q1,r1,1\n"
        "q1,r2,0\n"
        "q1,r3,0\n"
        "q2,r1,1\n"
        "q2,r2,0\n"
        "q2,r3,0\n"
    )

    def _inputs(self, tmp_path):
        queries = _write(
            tmp_path / "queries.csv", "id,text\nq1,CCO\nq2,c1ccccc1O\n"
        )
        references = _write(
            tmp_path / "refs.csv",
            "id,y,text\nr1,-5.2,CCCCCCCC\nr2,1.1,CC(=O)O\nr3,0.6,CCN\n",
        )
        truth = _write(
            tmp_path / "truth.csv",
            "id,y\nq1,0.8\nq2,0.0\nr1,-5.2\nr2,1.1\nr3,0.6\n",
        )
        return queries, references, truth

    def test_replay_is_bit_exact(self, tmp_path, capsys):
        queries, references, _ = self._inputs(tmp_path)
        out = tmp_path / "out.csv"
        code = main([
            "rank", "--source", "llm", "--queries", queries,
            "--references", references, "--k", "3",
            "--endpoint", "https://example.invalid/v1/chat/completions",
            "--model", "solubility-ranker",
            "--replay", str(REPLAY_FIXTURE),
            "--out", str(out),
        ])
        assert code == 0
        assert "ranked 6 of 6 pairs" in capsys.readouterr().out
        assert out.read_text() == self.EXPECTED

    def test_zero_k_pairs_every_reference(self, tmp_path, capsys):
        queries, references, _ = self._inputs(tmp_path)
        out = tmp_path / "out.csv"
        code = main([
            "rank", "--source", "llm", "--queries", queries,
            "--references", references, "--k", "0",
            "--endpoint", "https://example.invalid/v1/chat/completions",
            "--model", "solubility-ranker",
            "--replay", str(REPLAY_FIXTURE),
            "--out", str(out),
        ])
        assert code == 0
        assert "ranked 6 of 6 pairs" in capsys.readouterr().out
        assert out.read_text() == self.EXPECTED

    def test_repeated_texts_keep_their_own_ids(self, tmp_path, capsys):
        """q1 and q3 share a text, so their text pairs are identical; each
        answer still lands on its own (query id, reference id), in pair order."""
        _, references, _ = self._inputs(tmp_path)
        queries = _write(
            tmp_path / "queries.csv", "id,text\nq1,CCO\nq2,c1ccccc1O\nq3,CCO\n"
        )
        out = tmp_path / "out.csv"
        code = main([
            "rank", "--source", "llm", "--queries", queries,
            "--references", references, "--k", "0",
            "--endpoint", "https://example.invalid/v1/chat/completions",
            "--model", "solubility-ranker",
            "--replay", str(REPLAY_FIXTURE),
            "--out", str(out),
        ])
        assert code == 0
        assert "ranked 9 of 9 pairs" in capsys.readouterr().out
        assert out.read_text() == self.EXPECTED + "q3,r1,1\nq3,r2,0\nq3,r3,0\n"

    def test_negative_k_is_usage_error_before_any_request(self, tmp_path, capsys, monkeypatch):
        queries, references, _ = self._inputs(tmp_path)
        transports = []

        def recording_replay(path):
            transports.append(load_replay_transport(path))
            return transports[-1]

        monkeypatch.setattr(cli, "load_replay_transport", recording_replay)
        out = tmp_path / "out.csv"
        code = main([
            "rank", "--source", "llm", "--queries", queries,
            "--references", references, "--k", "-1",
            "--endpoint", "https://example.invalid/v1/chat/completions",
            "--model", "solubility-ranker",
            "--replay", str(REPLAY_FIXTURE),
            "--out", str(out),
        ])
        assert code == 2
        assert "k must be >= 0" in capsys.readouterr().err
        assert not out.exists()
        assert not any(t.requests for t in transports)

    def test_replay_scores_pra_against_truth(self, tmp_path, capsys):
        queries, references, truth = self._inputs(tmp_path)
        out = tmp_path / "out.csv"
        code = main([
            "rank", "--source", "llm", "--queries", queries,
            "--references", references, "--k", "3",
            "--endpoint", "https://example.invalid/v1/chat/completions",
            "--model", "solubility-ranker",
            "--replay", str(REPLAY_FIXTURE),
            "--truth", truth,
            "--out", str(out),
        ])
        assert code == 0
        # One of the six recorded answers disagrees with the labels.
        assert "PRA against truth: 0.8333" in capsys.readouterr().out

    def test_no_answered_pair_leaves_pra_undefined(self, tmp_path, capsys):
        queries, references, truth = self._inputs(tmp_path)
        replay = _write(tmp_path / "replay.json", '["no answer here"]')
        out = tmp_path / "out.csv"
        code = main([
            "rank", "--source", "llm", "--queries", queries,
            "--references", references, "--k", "3",
            "--endpoint", "https://example.invalid/v1/chat/completions",
            "--model", "solubility-ranker",
            "--replay", replay, "--max-retries", "0",
            "--truth", truth,
            "--out", str(out),
        ])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert out.read_text() == "query_id,ref_id,outcome\n"
        assert "ranked 0 of 6 pairs" in captured.out
        assert "PRA against truth: undefined (pra of an empty outcome list" in captured.out

    def test_all_tied_truth_leaves_pra_undefined(self, tmp_path, capsys):
        queries, references, _ = self._inputs(tmp_path)
        truth = _write(
            tmp_path / "truth.csv", "id,y\nq1,1.0\nq2,1.0\nr1,1.0\nr2,1.0\nr3,1.0\n"
        )
        out = tmp_path / "out.csv"
        code = main([
            "rank", "--source", "llm", "--queries", queries,
            "--references", references, "--k", "3",
            "--endpoint", "https://example.invalid/v1/chat/completions",
            "--model", "solubility-ranker",
            "--replay", str(REPLAY_FIXTURE),
            "--truth", truth,
            "--out", str(out),
        ])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert out.read_text() == self.EXPECTED
        assert "PRA against truth: undefined (pra is undefined: every pair was a tie)" in (
            captured.out
        )

    def test_truth_may_cover_queries_only(self, tmp_path, capsys):
        """Reference labels come from the references CSV; the truth file
        only has to label the queries."""
        queries, references, _ = self._inputs(tmp_path)
        truth = _write(tmp_path / "truth.csv", "id,y\nq1,0.8\nq2,0.0\n")
        code = main([
            "rank", "--source", "llm", "--queries", queries,
            "--references", references, "--k", "3",
            "--endpoint", "https://example.invalid/v1/chat/completions",
            "--model", "solubility-ranker",
            "--replay", str(REPLAY_FIXTURE),
            "--truth", truth,
            "--out", str(tmp_path / "out.csv"),
        ])
        assert code == 0
        assert "PRA against truth: 0.8333" in capsys.readouterr().out

    def test_live_mode_requires_env_key(self, tmp_path, capsys, monkeypatch):
        queries, references, _ = self._inputs(tmp_path)
        monkeypatch.delenv("RANKREFINE_API_KEY", raising=False)
        code = main([
            "rank", "--source", "llm", "--queries", queries,
            "--references", references,
            "--endpoint", "https://example.invalid/v1/chat/completions",
            "--model", "solubility-ranker",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 5
        assert "RANKREFINE_API_KEY" in capsys.readouterr().err

    def test_missing_text_column_is_data_error(self, tmp_path, capsys):
        queries = _write(tmp_path / "queries.csv", "id,y\nq1,1.0\n")
        references = _write(tmp_path / "refs.csv", "id,y,text\nr1,1.0,CCO\n")
        code = main([
            "rank", "--source", "llm", "--queries", queries,
            "--references", references,
            "--endpoint", "https://example.invalid", "--model", "m",
            "--replay", str(REPLAY_FIXTURE),
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 3
        capsys.readouterr()

    @pytest.mark.parametrize("flag", ["--replay", "--prompt-template", "--examples"])
    @pytest.mark.parametrize("problem", ["missing", "directory", "non-UTF-8"])
    def test_unreadable_input_exits_3_naming_it(self, flag, problem, tmp_path, capsys):
        queries, references, _ = self._inputs(tmp_path)
        path = tmp_path / "input"
        if problem == "directory":
            path.mkdir()
        elif problem == "non-UTF-8":
            path.write_bytes(b'["caf\xe9"]')
        replay = [] if flag == "--replay" else ["--replay", str(REPLAY_FIXTURE)]
        code = main([
            "rank", "--source", "llm", "--queries", queries,
            "--references", references,
            "--endpoint", "https://example.invalid", "--model", "m",
            *replay, flag, str(path),
            "--out", str(tmp_path / "x.csv"),
        ])
        err = capsys.readouterr().err
        assert code == 3
        assert "Traceback" not in err
        [line] = err.splitlines()
        assert line.startswith(f"error: {path}: cannot read: ")


SMALL_DATA = [
    "--synthetic-n", "75", "--synthetic-d", "4", "--synthetic-noise-sd", "1.0",
]


class TestExperimentCommands:
    def test_tied_references_warn_once_per_seed(self, tmp_path, caplog):
        # The tie-heavy golden sweep: 2 seeds x 4 cells x 30 queries, most of
        # whose reference pools hold labels tied with the query's.
        with caplog.at_level("WARNING", logger="rankrefine"):
            golden.run("sweep-ties", tmp_path)
        messages = [r.getMessage() for r in caplog.records]
        assert len(messages) == 2
        assert [m.split(":")[0] for m in messages] == ["seed 0", "seed 1"]
        assert all("references tied with their query" in m for m in messages)

    def test_sweep_rerun_is_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = [
            "sweep", *SMALL_DATA, "--accuracies", "0.9", "--ks", "3",
            "--seeds", "1",
        ]
        assert main([*base, "--out", str(a)]) == 0
        assert main([*base, "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().splitlines()
        assert lines[0].startswith("dataset,seed,accuracy,k,")
        assert len(lines) == 2

    def test_baseline_command(self, tmp_path, capsys):
        out = tmp_path / "delta.csv"
        assert main([
            "baseline", *SMALL_DATA, "--method", "projection",
            "--accuracies", "0.9", "--k", "3", "--seeds", "1",
            "--out", str(out),
        ]) == 0
        capsys.readouterr()
        assert out.read_text().splitlines()[0] == (
            "dataset,seed,accuracy,k,beta_fused,beta_baseline,delta"
        )

    def test_noise_command(self, tmp_path, capsys):
        out = tmp_path / "noise.csv"
        assert main([
            "noise", *SMALL_DATA, "--bs", "0,1", "--k", "3",
            "--accuracy", "0.9", "--seeds", "1", "--out", str(out),
        ]) == 0
        assert "rank variance mean" in capsys.readouterr().out
        assert len(out.read_text().splitlines()) >= 3

    def test_noise_reports_the_rows_it_wrote(self, tmp_path, capsys):
        out = tmp_path / "noise.csv"
        assert main([
            "noise", *SMALL_DATA, "--bs", "0,1,1", "--k", "3",
            "--accuracy", "0.9", "--seeds", "2", "--out", str(out),
        ]) == 0
        assert "wrote 2 records" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["0.0", "1.0"]

    @pytest.mark.parametrize(
        "command",
        [
            ["sweep", "--ks", "70"],
            ["baseline", "--method", "rbr", "--k", "70"],
            ["noise", "--k", "70"],
        ],
    )
    def test_k_beyond_train_size_is_usage_error_before_fitting(
        self, command, tmp_path, capsys, monkeypatch
    ):
        def no_fit(*args, **kwargs):
            raise AssertionError("forest.fit called")

        monkeypatch.setattr(forest, "fit", no_fit)
        out = tmp_path / "out.csv"
        argv = [*command, "--synthetic-n", "80", "--train-size", "20", "--out", str(out)]
        assert main(argv) == 2
        assert "k=70 exceeds the 20 training rows" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_labels_are_numeric_error(self, tmp_path, capsys):
        ds = make_synthetic_dataset(n=80)
        data = tmp_path / "huge.csv"
        save_dataset_csv(Dataset(ids=ds.ids, features=ds.features, y=ds.y * 1e200), data)
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--dataset", str(data), "--train-size", "20", "--seeds", "1",
                "--accuracies", "0.8", "--ks", "5", "--out", str(out)]
        assert main(argv) == 4
        assert "overflow" in capsys.readouterr().err
        assert not out.exists()

    def test_validate_bound_command(self, tmp_path, capsys):
        out = tmp_path / "bound.csv"
        assert main([
            "validate-bound", "--alphas", "0.5", "--samples", "20000",
            "--out", str(out),
        ]) == 0
        assert "max |empirical - alpha|" in capsys.readouterr().out
        assert out.read_text().splitlines()[0] == "alpha,empirical_beta,n_samples"

    def test_validate_bound_without_alphas_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "z.csv"
        assert main(["validate-bound", "--alphas", "", "--out", str(out)]) == 2
        assert "at least one alpha" in capsys.readouterr().err
        assert not out.exists()

    def test_make_synthetic_round_trips(self, tmp_path, capsys):
        out = tmp_path / "data.csv"
        assert main(["make-synthetic", "--n", "80", "--out", str(out)]) == 0
        capsys.readouterr()
        ds = load_dataset_csv(out)
        assert len(ds) == 80
        assert ds.features.shape == (80, 12)

    def test_make_synthetic_idempotent(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["make-synthetic", "--n", "80", "--out", str(a)])
        main(["make-synthetic", "--n", "80", "--out", str(b)])
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()


def _checkout_env():
    """The environment with the imported package's ``src`` first on PYTHONPATH."""
    src = str(Path(rankrefine.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


class TestEntryPoint:
    def test_console_script_installed(self):
        # Checked from the declaration an install reads, so it holds in a
        # checkout too; an executable already on PATH is checked as well.
        if sys.version_info >= (3, 11):
            import tomllib
        else:
            tomllib = pytest.importorskip("tomli")
        with open(PYPROJECT, "rb") as fh:
            scripts = tomllib.load(fh)["project"].get("scripts", {})
        assert "rankrefine" in scripts, "pyproject.toml should declare the console script"
        module, _, attr = scripts["rankrefine"].partition(":")
        assert callable(getattr(importlib.import_module(module), attr))

        # The launcher an install writes for a console script.
        wrapper = (
            f"import sys; from {module} import {attr}; "
            f"sys.argv[0] = 'rankrefine'; sys.exit({attr}())"
        )
        runs = [([sys.executable, "-c", wrapper, "--help"], _checkout_env())]
        exe = shutil.which("rankrefine")
        if exe:
            runs.append(([exe, "--help"], None))
        for command, run_env in runs:
            result = subprocess.run(
                command, capture_output=True, text=True, timeout=60, env=run_env
            )
            assert result.returncode == 0, result.stderr
            assert result.stdout.startswith("usage: rankrefine")
            assert "refine" in result.stdout

    def test_start_up_does_not_import_requests(self):
        # Only the HTTP transport needs requests, so no command pays for it.
        code = "import sys, rankrefine.cli; print('requests' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
            env=_checkout_env(),
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"

    def test_start_up_does_not_import_scipy(self):
        # The solver's sigmoids are numpy's own; scipy is only a test dependency.
        code = "import sys, rankrefine.cli; print('scipy' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
            env=_checkout_env(),
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"

    # ArgumentDefaultsHelpFormatter formats each help string only for its own
    # subcommand's --help, so every subcommand is asked for it.
    @pytest.mark.parametrize(
        "command",
        ["refine", "rank", "sweep", "baseline", "noise", "validate-bound", "make-synthetic"],
    )
    def test_module_main_help_exits_zero(self, command, capsys):
        assert main([command, "--help"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: rankrefine {command} ")
        assert "--out OUT" in out
        # Defaults are shown, but not a default of None.
        assert "(default: None)" not in " ".join(out.split())
        if command in ("refine", "sweep", "baseline"):
            assert "clamp rank variance below at c * var_reg (0 disables) (default: 0.0)" in (
                " ".join(out.split())
            )

    def test_each_package_error_has_its_exit_code(self, tmp_path, capsys, monkeypatch):
        assert set(cli.EXIT_CODES) == set(RankRefineError.__subclasses__())
        for error, code in cli.EXIT_CODES.items():

            def fail(args, error=error):
                raise error("it went wrong")

            monkeypatch.setattr(cli, "cmd_validate_bound", fail)
            assert main(["validate-bound", "--out", str(tmp_path / "z.csv")]) == code
            captured = capsys.readouterr()
            assert captured.err == "error: it went wrong\n"
            assert captured.out == ""
