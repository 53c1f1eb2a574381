"""Command-line behavior: outputs, exit codes, determinism."""

import csv
import importlib
import io
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import rankrefine
from rankrefine.cli import _parse_float_list, _parse_int_list, main
from rankrefine.core import load_dataset_csv
from rankrefine.errors import ValidationError

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


SMALL_DATA = [
    "--synthetic-n", "75", "--synthetic-d", "4", "--synthetic-noise-sd", "1.0",
]


class TestExperimentCommands:
    def test_sweep_and_thread_invariance(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = [
            "sweep", *SMALL_DATA, "--accuracies", "0.9", "--ks", "3",
            "--seeds", "1",
        ]
        assert main([*base, "--threads", "1", "--out", str(a)]) == 0
        assert main([*base, "--threads", "4", "--out", str(b)]) == 0
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

    def test_validate_bound_command(self, tmp_path, capsys):
        out = tmp_path / "bound.csv"
        assert main([
            "validate-bound", "--alphas", "0.5", "--samples", "20000",
            "--out", str(out),
        ]) == 0
        assert "max |empirical - alpha|" in capsys.readouterr().out
        assert out.read_text().splitlines()[0] == "alpha,empirical_beta,n_samples"

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
        src = str(Path(rankrefine.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        runs = [([sys.executable, "-c", wrapper, "--help"], env)]
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

    def test_module_main_help_exits_zero(self, capsys):
        assert main(["sweep", "--help"]) == 0
        assert "--accuracies" in capsys.readouterr().out
