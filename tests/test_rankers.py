"""Comparison sources: oracle, CSV, interactive session, and LLM client."""

import io
import json
import tracemalloc

import numpy as np
import pytest
import requests

from rankrefine.core import ComparisonOutcome
from rankrefine.errors import DataError, TransportError, ValidationError
from rankrefine.rankers import (
    DEFAULT_PROMPT_TEMPLATE,
    TIMEOUT_S,
    LlmRankerConfig,
    ReplayTransport,
    check_accuracy,
    draw_oracle,
    generate_comparisons,
    interactive_rank,
    judged_correct,
    llm_rank_batch,
    load_comparisons_csv,
    load_replay_transport,
    log_tied_references,
    make_http_transport,
    parse_ranking_response,
    render_prompt,
    save_comparisons_csv,
)
from rankrefine.seeding import derive_rng, unit_uniforms

from conftest import unit_uniform


def _refs(labels):
    return {f"ref{i}": float(v) for i, v in enumerate(labels)}


def oracle_compare(query_id, y_query, ref_id, ref_label, accuracy, seed, pair_index):
    # The per-pair judge that the draw-then-judge oracle replaced, kept as
    # the scalar reference it must match outcome for outcome.
    if y_query == ref_label:
        raise ValidationError(f"query {query_id!r} ties reference {ref_id!r}")
    truth = y_query > ref_label
    u = unit_uniform("oracle", seed, query_id, pair_index)
    query_above = truth if u < accuracy else not truth
    return ComparisonOutcome(query_id=query_id, ref_id=ref_id, query_above=query_above)


def _reference_comparisons(query_id, y_query, labels_by_id, k, accuracy, seed, rng):
    # The per-cell generator that drew and judged in one pass: ties leave
    # the pool, the first k of a permutation are judged with pair index i.
    eligible = [(rid, label) for rid, label in labels_by_id.items() if label != y_query]
    if k > len(eligible):
        raise ValidationError(
            f"query {query_id!r}: k={k} exceeds the {len(eligible)} eligible references"
        )
    order = rng.permutation(len(eligible))
    return [
        oracle_compare(query_id, y_query, *eligible[j], accuracy, seed, i)
        for i, j in enumerate(order[:k])
    ]


def _judge(query_id, y_query, labels, k, accuracy, seed=0, rng_key=0):
    draws = draw_oracle(query_id, y_query, labels, k, seed, derive_rng("refs", rng_key))
    return generate_comparisons(draws, k, accuracy)


class TestOracle:
    def test_config_accuracy_domain(self):
        check_accuracy(0.5)
        check_accuracy(1.0)
        for bad in (0.49, 1.01, float("nan")):
            with pytest.raises(ValidationError, match="oracle accuracy must lie in"):
                check_accuracy(bad)

    def test_judging_rule(self):
        flips = unit_uniforms(200, "judge", 0)
        flips[::7] = np.nan
        judged = [judged_correct(flips, a) for a in (0.5, 0.62, 0.8, 0.95, 1.0)]
        for correct in judged:
            assert not correct[::7].any()  # a NaN flip is never correct
        for lo, hi in zip(judged, judged[1:]):
            assert np.all(hi[lo])  # correct at a lower accuracy stays correct
        assert judged[-1].sum() == 200 - flips[::7].size  # every drawn flip lies below 1.0
        for bad in (0.49, 1.01, float("nan")):
            with pytest.raises(ValidationError, match="oracle accuracy must lie in"):
                judged_correct(flips, bad)

    def test_perfect_oracle_always_truthful(self):
        refs = _refs([1.0] * 200)
        assert all(out.query_above for out in _judge("q", 2.0, refs, 200, 1.0))
        assert not any(out.query_above for out in _judge("q", 0.0, refs, 200, 1.0))

    def test_tie_rejected(self):
        # A tied pair has no correct answer: it never reaches the judge.
        with pytest.raises(ValidationError):
            _judge("q", 1.0, {"r": 1.0}, 1, 0.9)

    def test_realized_accuracy_matches_configured(self):
        # Binomial: at n=5000 the realized rate sits within ~3 sigma.
        refs = _refs([0.0] * 100)
        for acc in (0.62, 0.8):
            hits = sum(
                out.query_above
                for j in range(50)
                for out in _judge(f"q{j}", 1.0, refs, 100, acc, seed=3)
            )
            sigma = (acc * (1 - acc) / 5000) ** 0.5
            assert abs(hits / 5000 - acc) < 3.5 * sigma

    def test_shared_draws_across_accuracies(self):
        # The flip draw depends only on (seed, query, pair), so raising the
        # accuracy never turns a correct answer into a wrong one.
        draws = draw_oracle("q", 1.0, _refs([0.0] * 500), 500, 9, derive_rng("refs", 0))
        lo = generate_comparisons(draws, 500, 0.6)
        hi = generate_comparisons(draws, 500, 0.9)
        for correct_lo, correct_hi in zip(lo, hi):
            assert correct_hi.query_above or not correct_lo.query_above

    def test_judge_matches_per_pair_reference(self):
        # Labels on a small integer grid tie each other and the query; every
        # k up to the drawn width, at accuracies across [0.5, 1].
        fuzz = np.random.default_rng(12)
        for case in range(40):
            labels = _refs(fuzz.integers(-4, 5, size=int(fuzz.integers(1, 25))))
            y_query = float(fuzz.integers(-4, 5))
            n_eligible = sum(label != y_query for label in labels.values())
            if n_eligible == 0:
                continue
            k_max = int(fuzz.integers(1, n_eligible + 1))
            qid = f"q{case}"
            draws = draw_oracle(qid, y_query, labels, k_max, case, derive_rng("refs", case))
            assert draws.n_eligible == n_eligible
            for accuracy in map(float, (0.5, 1.0, *fuzz.uniform(0.5, 1.0, size=3))):
                for k in range(1, k_max + 1):
                    expected = _reference_comparisons(
                        qid, y_query, labels, k, accuracy, case, derive_rng("refs", case)
                    )
                    got = generate_comparisons(draws, k, accuracy)
                    assert got == expected
                    assert all(type(out.query_above) is bool for out in got)

    def test_judge_checks_accuracy_and_k(self):
        draws = draw_oracle("q", 7.5, _refs(range(30)), 5, 0, derive_rng("refs", 0))
        with pytest.raises(ValidationError, match="oracle accuracy must lie in"):
            generate_comparisons(draws, 5, 1.01)
        with pytest.raises(ValidationError, match="outside the 5 drawn pairs"):
            generate_comparisons(draws, 6, 0.8)
        with pytest.raises(ValidationError, match="outside the 5 drawn pairs"):
            generate_comparisons(draws, 0, 0.8)


class TestGenerateComparisons:
    def test_draws_k_distinct_references(self):
        outcomes = _judge("q", 7.5, _refs(range(30)), 10, 1.0)
        assert len(outcomes) == 10
        assert len({o.ref_id for o in outcomes}) == 10

    def test_smaller_k_is_a_prefix_of_larger(self):
        refs = _refs(range(30))
        small = [o.ref_id for o in _judge("q", 7.5, refs, 5, 1.0, rng_key=1)]
        large = draw_oracle("q", 7.5, refs, 15, 0, derive_rng("refs", 1))
        assert list(large.ref_ids[:5]) == small
        assert [o.ref_id for o in generate_comparisons(large, 5, 1.0)] == small

    def test_ties_excluded_from_pool(self, caplog):
        refs = _refs([1.0, 2.0, 2.0, 3.0])
        with caplog.at_level("WARNING", logger="rankrefine.rankers"):
            draws = draw_oracle("q", 2.0, refs, 2, 0, derive_rng("refs", 2))
        assert not caplog.records  # the draw counts ties; callers log them once
        outcomes = generate_comparisons(draws, 2, 1.0)
        assert draws.n_eligible == 2
        assert len(outcomes) == 2
        assert all(o.ref_id in ("ref0", "ref3") for o in outcomes)
        untied = draw_oracle("q", 9.0, refs, 2, 0, derive_rng("refs", 2))
        with caplog.at_level("WARNING", logger="rankrefine.rankers"):
            log_tied_references([draws, untied, draws], len(refs), "here")
            log_tied_references([untied], len(refs), "nowhere")
        messages = [r.getMessage() for r in caplog.records]
        assert messages == ["here: excluded 4 references tied with their query, in 2 queries"]

    def test_k_beyond_pool_rejected(self):
        refs = _refs([1.0, 2.0])
        with pytest.raises(ValidationError, match="k=3 exceeds the 2 eligible"):
            _judge("q", 5.0, refs, 3, 1.0, rng_key=3)
        with pytest.raises(ValidationError):
            _judge("q", 5.0, refs, 0, 1.0, rng_key=3)
        with pytest.raises(ValidationError, match="exceeds the 0 eligible"):
            _judge("q", 5.0, {}, 1, 1.0, rng_key=3)

    @pytest.mark.parametrize(
        "labels",
        [
            {"": 1.0, "b": 2.0},
            {"a": float("nan")},
            {"a": 1.0, "b": float("inf")},
            {"a": float("-inf")},
        ],
        ids=["empty id", "nan", "inf", "-inf"],
    )
    def test_malformed_references_rejected(self, labels):
        with pytest.raises(ValidationError, match="non-empty ids and finite labels"):
            draw_oracle("q", 5.0, labels, 1, 0, derive_rng("refs", 4))


class TestComparisonsCsv:
    def test_round_trip_groups_by_query(self, tmp_path):
        outcomes = [
            ComparisonOutcome("q1", "a", True),
            ComparisonOutcome("q1", "b", False),
            ComparisonOutcome("q2", "a", False),
        ]
        path = tmp_path / "comp.csv"
        save_comparisons_csv(outcomes, path)
        labels = {"a": 1.0, "b": 2.0}
        grouped = load_comparisons_csv(path, labels)
        assert list(grouped) == ["q1", "q2"]
        assert list(grouped["q1"].items()) == [("a", True), ("b", False)]
        assert grouped["q2"] == {"a": False}

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "comp.csv"
        path.write_text("who,what,how\nq,a,1\n")
        with pytest.raises(DataError):
            load_comparisons_csv(path, {"a": 1.0})

    def test_bad_outcome_rejected(self, tmp_path):
        path = tmp_path / "comp.csv"
        path.write_text("query_id,ref_id,outcome\nq,a,maybe\n")
        with pytest.raises(DataError):
            load_comparisons_csv(path, {"a": 1.0})

    def test_unknown_reference_rejected(self, tmp_path):
        path = tmp_path / "comp.csv"
        path.write_text("query_id,ref_id,outcome\nq,mystery,1\n")
        with pytest.raises(DataError):
            load_comparisons_csv(path, {"a": 1.0})


    def test_rows_are_held_in_bounded_memory(self, tmp_path):
        # 400 queries, each judged against 25 of 300 references: 10,000 rows.
        rng = np.random.default_rng(28)
        labels = {f"r{i:03d}": float(i) for i in range(300)}
        refs = list(labels)
        lines = ["query_id,ref_id,outcome"]
        for q in range(400):
            for r in rng.choice(len(refs), size=25, replace=False):
                lines.append(f"q{q:03d},{refs[r]},{int(rng.random() < 0.5)}")
        path = tmp_path / "comp.csv"
        path.write_text("\n".join(lines) + "\n")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            grouped = load_comparisons_csv(path, labels)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        rows = sum(map(len, grouped.values()))
        assert rows == 10_000
        assert held / rows <= 50, f"{held / rows:.1f} B held per comparison row"


class TestInteractive:
    def test_scripted_session(self):
        out = io.StringIO()
        outcomes = interactive_rank(
            "q",
            ["ref0", "ref1", "ref2"],
            property_name="solubility",
            input_stream=io.StringIO("y\nn\ns\n"),
            output_stream=out,
        )
        assert [(o.ref_id, o.query_above) for o in outcomes] == [
            ("ref0", True),
            ("ref1", False),
        ]
        assert "solubility" in out.getvalue()

    def test_invalid_answer_reprompts(self):
        out = io.StringIO()
        outcomes = interactive_rank(
            "q",
            ["ref0"],
            input_stream=io.StringIO("what\nyes\n"),
            output_stream=out,
        )
        assert [o.query_above for o in outcomes] == [True]
        assert "answer y, n, or s" in out.getvalue()

    def test_eof_returns_partial_session(self, caplog):
        with caplog.at_level("WARNING", logger="rankrefine.rankers"):
            outcomes = interactive_rank(
                "q",
                ["ref0", "ref1", "ref2"],
                input_stream=io.StringIO("y\n"),
                output_stream=io.StringIO(),
            )
        assert len(outcomes) == 1
        assert any("partial" in (r.getMessage()) for r in caplog.records)

    def test_shows_texts_when_given(self):
        out = io.StringIO()
        interactive_rank(
            "q",
            ["ref0"],
            query_text="aspirin",
            ref_texts={"ref0": "caffeine"},
            input_stream=io.StringIO("y\n"),
            output_stream=out,
        )
        prompt = out.getvalue()
        assert "aspirin" in prompt and "caffeine" in prompt


def _response(rows):
    lines = ["molecule_a, molecule_b, is_a_greater"]
    lines += [f"{a},{b},{1 if flag else 0}" for a, b, flag in rows]
    return "\n".join(lines)


def _config(**overrides):
    return LlmRankerConfig(**{"property_description": "aqueous solubility", **overrides})


def _transport(*replies):
    """A transport that records each prompt on ``.prompts`` and gives the next
    reply: a string is returned, an exception raised."""
    prompts = []

    def transport(prompt):
        prompts.append(prompt)
        reply = replies[len(prompts) - 1]
        if isinstance(reply, Exception):
            raise reply
        return reply

    transport.prompts = prompts
    return transport


class TestPromptRendering:
    def test_placeholders_filled(self):
        config = _config(examples="CCO,CCN,1")
        prompt = render_prompt(config, [("CCO", "CCC"), ("CCN", "CCO")])
        assert "aqueous solubility" in prompt
        assert "CCO,CCC" in prompt and "CCN,CCO" in prompt
        assert "{pairs}" not in prompt and "{examples}" not in prompt

    def test_braces_in_texts_survive(self):
        prompt = render_prompt(_config(), [("a{x}", "b{y}")])
        assert "a{x},b{y}" in prompt

    def test_template_must_have_all_placeholders(self):
        with pytest.raises(ValidationError):
            _config(prompt_template="no placeholders here")

    def test_default_template_declares_wire_format(self):
        assert "molecule_a, molecule_b, is_a_greater" in DEFAULT_PROMPT_TEMPLATE


class TestResponseParsing:
    def test_parses_rows_and_skips_header(self):
        content = _response([("CCO", "CCC", True), ("CCN", "CCO", False)])
        parsed = parse_ranking_response(content)
        assert parsed == {("CCO", "CCC"): True, ("CCN", "CCO"): False}

    def test_tolerates_surrounding_prose(self):
        content = "Sure, here are the answers:\n" + _response(
            [("a", "b", True)]
        ) + "\nHope that helps!"
        assert parse_ranking_response(content) == {("a", "b"): True}

    def test_first_occurrence_wins(self):
        content = _response([("a", "b", True), ("a", "b", False)])
        assert parse_ranking_response(content) == {("a", "b"): True}

    def test_malformed_rows_ignored(self):
        content = "a,b\n" + "a,b,2\n" + "a,b,c,d\n" + "a,b,1\n"
        assert parse_ranking_response(content) == {("a", "b"): True}

    def test_empty_content(self):
        assert parse_ranking_response("") == {}


class TestLlmRankBatch:
    def test_single_batch_success(self):
        pairs = [("CCO", "CCC"), ("CCN", "CCO")]
        transport = ReplayTransport(
            [_response([("CCO", "CCC", True), ("CCN", "CCO", False)])]
        )
        answers = llm_rank_batch(pairs, _config(), transport=transport)
        assert answers == {0: True, 1: False}
        assert len(transport.prompts) == 1

    def test_batching_respects_batch_size(self):
        pairs = [(f"a{i}", f"b{i}") for i in range(5)]
        responses = [_response([(a, b, True)]) for a, b in pairs]
        transport = ReplayTransport(responses)
        outcomes = llm_rank_batch(pairs, _config(batch_size=1), transport=transport)
        assert len(outcomes) == 5
        assert len(transport.prompts) == 5

    def test_missing_answer_retried_then_recovered(self):
        pairs = [("a", "b"), ("c", "d")]
        transport = ReplayTransport(
            [
                _response([("a", "b", True)]),      # first reply forgets (c, d)
                _response([("c", "d", False)]),     # retry answers it
            ]
        )
        answers = llm_rank_batch(pairs, _config(), transport=transport)
        assert answers == {0: True, 1: False}
        assert len(transport.prompts) == 2

    def test_unanswerable_pair_excluded_with_warning(self, caplog):
        pairs = [("a", "b"), ("c", "d")]
        useless = _response([("a", "b", True)])
        transport = ReplayTransport([useless] * 4)  # initial + 3 retries
        with caplog.at_level("WARNING", logger="rankrefine.rankers"):
            answers = llm_rank_batch(pairs, _config(max_retries=3), transport=transport)
        assert answers == {0: True}
        assert any("excluding" in (r.getMessage()) for r in caplog.records)

    def test_transport_error_retried_then_raised_on_final_attempt(self):
        slept = []
        flaky = _transport(*[TransportError("boom")] * 3)
        with pytest.raises(TransportError):
            llm_rank_batch(
                [("a", "b")], _config(max_retries=2), transport=flaky, sleep=slept.append
            )
        assert len(flaky.prompts) == 3  # initial attempt plus two retries
        assert slept == [1.0, 2.0]  # backs off before each retry, not after the last

    def test_transport_error_recovery_before_final_attempt(self):
        slept = []
        flaky = _transport(TransportError("first call drops"), _response([("a", "b", True)]))
        answers = llm_rank_batch([("a", "b")], _config(), transport=flaky, sleep=slept.append)
        assert answers == {0: True}
        assert len(flaky.prompts) == 2
        assert slept == [1.0]

    @pytest.mark.parametrize(
        "retry_after, expected",
        [
            (None, [1.0, 2.0, 4.0, 8.0, 16.0, 30.0]),
            (7.0, [7.0] * 6),
            (900.0, [30.0] * 6),
            (0.0, [0.0] * 6),
        ],
        ids=["exponential", "asked", "capped", "asked zero"],
    )
    def test_backoff_honours_retry_after_within_the_cap(self, retry_after, expected):
        slept = []
        refusals = [TransportError("HTTP 429", retry_after=retry_after)] * 6
        limited = _transport(*refusals, _response([("a", "b", True)]))
        config = _config(max_retries=6)
        answers = llm_rank_batch([("a", "b")], config, transport=limited, sleep=slept.append)
        assert answers == {0: True}
        assert slept == expected

    def test_parse_failures_retry_without_waiting(self):
        slept = []
        transport = ReplayTransport([_response([]), _response([("a", "b", True)])])
        answers = llm_rank_batch([("a", "b")], _config(), transport=transport, sleep=slept.append)
        assert answers == {0: True}
        assert slept == []

    def test_not_retryable_error_raises_at_once(self):
        slept = []
        refused = _transport(TransportError("authentication failed: HTTP 401", retryable=False))
        with pytest.raises(TransportError, match="authentication"):
            llm_rank_batch([("a", "b")], _config(), transport=refused, sleep=slept.append)
        assert len(refused.prompts) == 1
        assert slept == []

    def test_exhausted_replay_raises_without_backoff(self):
        # A replay that has run out cannot recover, so no retry waits for it.
        calls = []
        with pytest.raises(TransportError, match="no responses left"):
            llm_rank_batch(
                [("a", "b")], _config(), transport=ReplayTransport([]), sleep=calls.append
            )
        assert calls == []

    def test_empty_pair_text_rejected(self):
        with pytest.raises(ValidationError):
            llm_rank_batch([("", "b")], _config(), transport=ReplayTransport([]))


class _FakeResponse:
    def __init__(self, status_code=200, body=None, text="broken", headers=None):
        self.status_code = status_code
        self._body = body
        self.text = text
        self.headers = headers or {}

    def json(self):
        if self._body is None:
            raise ValueError("not json")
        return self._body


def _http():
    return make_http_transport("https://x.invalid", "test-model")


class TestHttpTransport:
    @staticmethod
    def _capture(monkeypatch):
        """Patch requests.post to record each request and answer (a, b) with 1."""
        sent = []

        def post(url, **request):
            sent.append({"url": url, **request})
            return _FakeResponse(200, {"choices": [{"message": {"content": "a,b,1"}}]})

        monkeypatch.setattr(requests, "post", post)
        return sent

    def test_api_key_read_from_named_env_var(self, monkeypatch):
        sent = self._capture(monkeypatch)
        monkeypatch.setenv("RANKREFINE_API_KEY", "sk-test-123")
        llm_rank_batch([("a", "b")], _config(), transport=_http())
        assert sent[0]["headers"] == {
            "Content-Type": "application/json",
            "Authorization": "Bearer sk-test-123",
        }

    def test_api_key_read_at_request_time_from_the_named_variable(self, monkeypatch):
        sent = self._capture(monkeypatch)
        monkeypatch.delenv("RANKREFINE_API_KEY", raising=False)
        transport = make_http_transport("https://x.invalid", "m", api_key_env_var="OTHER_KEY")
        monkeypatch.setenv("OTHER_KEY", "sk-other")
        transport("p")
        assert sent[0]["headers"]["Authorization"] == "Bearer sk-other"

    def test_no_auth_header_without_key(self, monkeypatch):
        sent = self._capture(monkeypatch)
        monkeypatch.delenv("RANKREFINE_API_KEY", raising=False)
        llm_rank_batch([("a", "b")], _config(), transport=_http())
        assert sent[0]["headers"] == {"Content-Type": "application/json"}

    def test_payload_carries_model_and_prompt(self, monkeypatch):
        sent = self._capture(monkeypatch)
        monkeypatch.delenv("RANKREFINE_API_KEY", raising=False)
        llm_rank_batch([("a", "b")], _config(), transport=_http())
        prompt = render_prompt(_config(), [("a", "b")])
        assert "a,b" in prompt
        assert sent == [
            {
                "url": "https://x.invalid",
                "headers": {"Content-Type": "application/json"},
                "json": {"model": "test-model", "messages": [{"role": "user", "content": prompt}]},
                "timeout": TIMEOUT_S,
            }
        ]

    @pytest.mark.parametrize(
        "endpoint_url, model_name, message",
        [("", "m", "endpoint_url must be non-empty"), ("u", "", "model_name must be non-empty")],
        ids=["endpoint", "model"],
    )
    def test_endpoint_and_model_must_be_non_empty(self, endpoint_url, model_name, message):
        with pytest.raises(ValidationError, match=message):
            make_http_transport(endpoint_url, model_name)

    def test_returns_message_content(self, monkeypatch):
        body = {"choices": [{"message": {"content": "the reply"}}]}
        monkeypatch.setattr(
            requests, "post", lambda *a, **k: _FakeResponse(200, body)
        )
        assert _http()("a prompt") == "the reply"

    def test_auth_failure(self, monkeypatch):
        monkeypatch.setattr(requests, "post", lambda *a, **k: _FakeResponse(401))
        with pytest.raises(TransportError, match="authentication"):
            _http()("a prompt")

    @pytest.mark.parametrize("status", [401, 403])
    def test_auth_failure_is_not_retried(self, monkeypatch, status):
        calls = []

        def refuse(*a, **k):
            calls.append(status)
            return _FakeResponse(status, headers={"Retry-After": "5"})

        monkeypatch.setattr(requests, "post", refuse)
        slept = []
        with pytest.raises(TransportError, match="authentication") as info:
            llm_rank_batch(
                [("a", "b")], _config(), transport=_http(), sleep=slept.append
            )
        assert (info.value.retryable, info.value.retry_after) == (False, None)
        assert calls == [status]
        assert slept == []

    @pytest.mark.parametrize(
        "status, header, expected",
        [
            (429, "12", 12.0),
            (503, " 3 ", 3.0),
            (503, "Wed, 21 Oct 2015 07:28:00 GMT", None),
            (429, None, None),
            (500, "12", None),
        ],
        ids=["429 seconds", "503 seconds", "http date", "no header", "500"],
    )
    def test_retry_after_read_from_429_and_503(self, monkeypatch, status, header, expected):
        headers = {} if header is None else {"Retry-After": header}
        monkeypatch.setattr(
            requests, "post", lambda *a, **k: _FakeResponse(status, headers=headers)
        )
        with pytest.raises(TransportError, match=str(status)) as info:
            _http()("a prompt")
        assert info.value.retry_after == expected
        assert info.value.retryable

    def test_server_error(self, monkeypatch):
        monkeypatch.setattr(requests, "post", lambda *a, **k: _FakeResponse(503))
        with pytest.raises(TransportError, match="503"):
            _http()("a prompt")

    def test_connection_error(self, monkeypatch):
        def boom(*a, **k):
            raise requests.ConnectionError("no route")

        monkeypatch.setattr(requests, "post", boom)
        with pytest.raises(TransportError, match="failed"):
            _http()("a prompt")

    def test_malformed_body(self, monkeypatch):
        monkeypatch.setattr(requests, "post", lambda *a, **k: _FakeResponse(200, None))
        with pytest.raises(TransportError, match="malformed"):
            _http()("a prompt")

    def test_timeout_forwarded(self, monkeypatch):
        seen = {}

        def capture(url, headers=None, json=None, timeout=None):
            seen["timeout"] = timeout
            return _FakeResponse(200, {"choices": [{"message": {"content": "ok"}}]})

        monkeypatch.setattr(requests, "post", capture)
        _http()("a prompt")
        assert seen["timeout"] == TIMEOUT_S


class TestReplayTransport:
    def test_exhausted_raises(self):
        transport = ReplayTransport(["only one"])
        transport("p")
        with pytest.raises(TransportError):
            transport("p")

    def test_load_from_list_file(self, tmp_path):
        path = tmp_path / "replay.json"
        path.write_text(json.dumps(["r1", "r2"]))
        transport = load_replay_transport(path)
        assert transport("p1") == "r1"
        assert transport("p2") == "r2"
        assert transport.prompts == ["p1", "p2"]

    def test_load_from_object_file(self, tmp_path):
        path = tmp_path / "replay.json"
        path.write_text(json.dumps({"responses": ["r1"]}))
        assert load_replay_transport(path)("p") == "r1"

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "replay.json"
        path.write_text("{broken")
        with pytest.raises(DataError):
            load_replay_transport(path)

    def test_wrong_shape_rejected(self, tmp_path):
        path = tmp_path / "replay.json"
        path.write_text(json.dumps({"responses": [1, 2]}))
        with pytest.raises(DataError):
            load_replay_transport(path)
