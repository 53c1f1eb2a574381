"""Sources of pairwise comparisons: oracle, file, interactive, and LLM.

Every ranker answers the same question (is the query's property value above
this reference's?) and emits at most one outcome per (query, reference)
pair, so downstream code never cares where comparisons came from. Failures
are excluded, never guessed.

Rankers work in ids and never see the solver: each returns outcomes keyed
by (query id, reference id), or, for the LLM, answers keyed by pair
position. Callers resolve one query's ids to the labels of a
``ComparisonSet`` only where they solve. The oracle draws references and
flips once (``draw_oracle``), then judges any (accuracy, k) from them. The
LLM ranker renders prompts and parses replies; a transport carries each
prompt, over HTTP or from a recorded session.
"""

from __future__ import annotations

import csv
import io
import logging
import math
import os
import time
from itertools import repeat
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence, TextIO

import numpy as np

from .core import ComparisonOutcome, open_input, read_table, write_table
from .errors import DataError, TransportError, ValidationError
from .seeding import unit_uniforms

logger = logging.getLogger(__name__)

COMPARISONS_HEADER = ("query_id", "ref_id", "outcome")


def check_accuracy(accuracy: float) -> None:
    """Reject an oracle accuracy outside [0.5, 1.0]: the chance it judges a pair correctly."""
    if not (math.isfinite(accuracy) and 0.5 <= accuracy <= 1.0):
        raise ValidationError(f"oracle accuracy must lie in [0.5, 1.0], got {accuracy!r}")


def judged_correct(flips: np.ndarray, accuracy: float) -> np.ndarray:
    """Which pairs an oracle of this accuracy judges correctly: flip below it, never NaN."""
    check_accuracy(accuracy)
    return flips < accuracy


@dataclass(frozen=True, eq=False)
class OracleDraws:
    """One query's sampled references, true answers, flips and untied pool size."""

    query_id: str
    ref_ids: tuple[str, ...]
    truth: np.ndarray
    flips: np.ndarray
    n_eligible: int


def draw_oracle(
    query_id: str, y_query: float, labels_by_id: Mapping[str, float], k: int, seed: int,
    rng: np.random.Generator,
) -> OracleDraws:
    """Sample up to k references for the query and draw each pair's flip.

    ``labels_by_id`` maps each reference id to its known label; ids must be
    non-empty and labels finite. References tying the query's value have no
    correct answer and are ineligible. The references are the first k of a
    permutation of the eligible pool, in mapping order, drawn from ``rng``,
    so a larger k extends a smaller k's sample. Pair i's flip is keyed by
    (seed, query id, i) only; one ``unit_uniforms`` call draws the query's flips.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if "" in labels_by_id or not all(map(math.isfinite, labels_by_id.values())):
        raise ValidationError("references need non-empty ids and finite labels")
    eligible = [(rid, label) for rid, label in labels_by_id.items() if label != y_query]
    chosen = [eligible[j] for j in rng.permutation(len(eligible))[:k]]
    return OracleDraws(
        query_id=query_id,
        ref_ids=tuple(rid for rid, _ in chosen),
        truth=np.array([y_query > label for _, label in chosen], dtype=bool),
        flips=unit_uniforms(len(chosen), "oracle", seed, query_id),
        n_eligible=len(eligible),
    )


def log_tied_references(draws: Sequence[OracleDraws], n_references: int, where: str) -> None:
    """Warn once about every reference excluded for tying its query's value."""
    if tied := [n_references - d.n_eligible for d in draws if d.n_eligible < n_references]:
        message = "%s: excluded %d references tied with their query, in %d queries"
        logger.warning(message, where, sum(tied), len(tied))


def generate_comparisons(draws: OracleDraws, k: int, accuracy: float) -> list[ComparisonOutcome]:
    """Judge the query's first k drawn pairs at one accuracy, drawing nothing new.

    Pair i is answered correctly exactly when its flip lies below ``accuracy``,
    however far apart the two values are, so a higher accuracy flips a subset of
    a lower one's outcomes: sweeps stay paired.
    """
    correct = judged_correct(draws.flips[:k], accuracy)
    query, pool = draws.query_id, draws.n_eligible
    if k > pool:
        raise ValidationError(f"query {query!r}: k={k} exceeds the {pool} eligible references")
    if not 1 <= k <= len(draws.ref_ids):
        raise ValidationError(f"k={k} lies outside the {len(draws.ref_ids)} drawn pairs")
    above = (draws.truth[:k] == correct).tolist()
    # ComparisonOutcome's own __new__ is Python code; tuple.__new__ builds the
    # same named tuple in C, as ComparisonOutcome._make does.
    triples = zip(repeat(query), draws.ref_ids, above)
    return list(map(tuple.__new__, repeat(ComparisonOutcome), triples))


# ---------------------------------------------------------------------------
# Comparison files


def load_comparisons_csv(
    path: str | Path,
    labels_by_id: Mapping[str, float],
) -> dict[str, dict[str, bool]]:
    """Read a comparisons CSV and group its rows by query.

    Returns query id -> reference id -> query_above, in file order within
    each query and in order of first appearance across queries. Expected
    header: ``query_id,ref_id,outcome`` with outcome 1 meaning the query is
    above the reference. Empty query ids, unknown reference ids, repeated
    pairs, and outcomes other than 0/1 are data errors that name the file line.
    """
    path = Path(path)
    header, rows = read_table(path)
    if header != COMPARISONS_HEADER:
        raise DataError(
            f"{path}: expected header {','.join(COMPARISONS_HEADER)}, got {','.join(header)}"
        )
    # Every row keys its judgement by the references' own id string, so a
    # reference id is held once however many rows name it.
    shared_ids = {rid: rid for rid in labels_by_id}
    grouped: dict[str, dict[str, bool]] = {}
    for line, (query_id, ref_id, outcome) in rows:
        query_id, ref_id, outcome = query_id.strip(), ref_id.strip(), outcome.strip()
        if not query_id:
            raise DataError(f"{path}: row {line}, column 'query_id': empty id")
        if outcome not in ("0", "1"):
            raise DataError(
                f"{path}: row {line}, column 'outcome': outcome must be 0 or 1, got {outcome!r}"
            )
        ref = shared_ids.get(ref_id)
        if ref is None:
            raise DataError(
                f"{path}: row {line}, column 'ref_id': unknown reference id {ref_id!r}"
            )
        judged = grouped.setdefault(query_id, {})
        if ref_id in judged:
            raise DataError(
                f"{path}: row {line}, column 'ref_id': duplicate comparison for pair "
                f"{(query_id, ref_id)}"
            )
        judged[ref] = outcome == "1"
    return grouped


def save_comparisons_csv(outcomes: Iterable[ComparisonOutcome], path: str | Path) -> None:
    """Write outcomes in the ``query_id,ref_id,outcome`` format."""
    write_table(
        path,
        COMPARISONS_HEADER,
        ([out.query_id, out.ref_id, "1" if out.query_above else "0"] for out in outcomes),
    )


# ---------------------------------------------------------------------------
# Interactive ranker


def interactive_rank(
    query_id: str,
    ref_ids: Sequence[str],
    property_name: str = "the property",
    query_text: str | None = None,
    ref_texts: Mapping[str, str] | None = None,
    input_stream: TextIO | None = None,
    output_stream: TextIO | None = None,
) -> list[ComparisonOutcome]:
    """Collect comparisons from a human over a line-based prompt session.

    One question per reference id, in order; answers y/n record an outcome,
    s(kip) asks nothing further about that pair, and anything else
    re-prompts. End of input ends the session early with whatever was
    collected so far.
    """
    import sys

    stdin = input_stream if input_stream is not None else sys.stdin
    stdout = output_stream if output_stream is not None else sys.stdout
    shown_query = query_text if query_text else query_id
    texts = ref_texts or {}
    outcomes: list[ComparisonOutcome] = []
    ended_early = False
    for ref_id in ref_ids:
        shown_ref = texts.get(ref_id, ref_id)
        while True:
            stdout.write(
                f"Is {property_name} of {shown_query} greater than that of {shown_ref}? [y/n/s] "
            )
            stdout.flush()
            line = stdin.readline()
            if line == "":
                ended_early = True
                break
            answer = line.strip().lower()
            if answer in ("y", "yes"):
                outcomes.append(ComparisonOutcome(query_id, ref_id, True))
                break
            if answer in ("n", "no"):
                outcomes.append(ComparisonOutcome(query_id, ref_id, False))
                break
            if answer in ("s", "skip"):
                break
            stdout.write("Please answer y, n, or s to skip this pair.\n")
        if ended_early:
            break
    if ended_early:
        logger.warning(
            "query %s: input ended after %d of %d pairs; returning the partial session",
            query_id,
            len(outcomes),
            len(ref_ids),
        )
    return outcomes


# ---------------------------------------------------------------------------
# LLM ranker

# The response wire format the parser expects; prompts must instruct the
# model to answer in exactly this shape.
RESPONSE_HEADER = ("molecule_a", "molecule_b", "is_a_greater")

PROMPT_PLACEHOLDERS = ("{property_description}", "{examples}", "{pairs}")

DEFAULT_PROMPT_TEMPLATE = """\
You are a careful domain expert comparing items by a single property.

Property to compare: {property_description}

Worked examples, if any, in the answer format:
{examples}

For each pair below, decide whether the first item's property value is
greater than the second item's. The pairs, one per line as item_a,item_b:
{pairs}

Answer in CSV only, starting with the exact header line
molecule_a, molecule_b, is_a_greater
and then one row per pair: echo the two items exactly as given, then 1 if
the first item's value is greater, otherwise 0. Output only 0 or 1 in the
last column, with no other commentary.
"""

# A transport takes one rendered prompt and returns the model's reply; it alone
# knows where the prompt goes, so a replayed session and every test avoid the network.
Transport = Callable[[str], str]
RETRY_BASE_S, RETRY_CAP_S = 1.0, 30.0  # llm_rank_batch's backoff, in seconds
TIMEOUT_S = 60.0  # the HTTP transport's limit on one request, in seconds


@dataclass(frozen=True)
class LlmRankerConfig:
    """How pairs are put to an LLM: the prompt and its batches, whatever the transport.

    The prompt template must contain the ``{property_description}``,
    ``{examples}``, and ``{pairs}`` placeholders.
    """

    prompt_template: str = DEFAULT_PROMPT_TEMPLATE
    property_description: str = "the property of interest"
    examples: str = ""
    batch_size: int = 20
    max_retries: int = 3

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValidationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_retries < 0:
            raise ValidationError(f"max_retries must be >= 0, got {self.max_retries}")
        if missing := [p for p in PROMPT_PLACEHOLDERS if p not in self.prompt_template]:
            raise ValidationError(f"prompt template is missing placeholders: {', '.join(missing)}")


def make_http_transport(
    endpoint_url: str, model_name: str, api_key_env_var: str = "RANKREFINE_API_KEY"
) -> Transport:
    """Transport that POSTs each prompt to a chat-completion endpoint as one user message.

    The API key is read from the environment variable named by
    ``api_key_env_var`` at request time, and sent as a Bearer token when set;
    it is never accepted as a literal value or read from a file. Each request
    waits ``TIMEOUT_S`` at most.
    """
    if not endpoint_url:
        raise ValidationError("endpoint_url must be non-empty")
    if not model_name:
        raise ValidationError("model_name must be non-empty")
    import requests  # imported here so only this transport pays its start-up cost

    def transport(prompt: str) -> str:
        headers = {"Content-Type": "application/json"}
        if api_key := os.environ.get(api_key_env_var, ""):
            headers["Authorization"] = f"Bearer {api_key}"
        payload = {"model": model_name, "messages": [{"role": "user", "content": prompt}]}
        try:
            response = requests.post(endpoint_url, headers=headers, json=payload, timeout=TIMEOUT_S)
        except requests.RequestException as exc:
            raise TransportError(f"request to {endpoint_url} failed: {exc}") from exc
        status = response.status_code
        if status in (401, 403):
            raise TransportError(f"authentication failed: HTTP {status}", retryable=False)
        if status != 200:
            asked = response.headers.get("Retry-After", "").strip() if status in (429, 503) else ""
            retry_after = float(asked) if asked.isdecimal() else None
            raise TransportError(f"endpoint returned HTTP {status}", retry_after)
        try:
            data = response.json()
            return data["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"malformed response body from {endpoint_url}") from exc

    return transport


class ReplayTransport:
    """Transport double that returns recorded responses in submission order.

    Used to replay a captured LLM session deterministically (in tests and in
    the CLI's replay mode), with no endpoint, model or key. Prompts are
    recorded on ``self.prompts`` for inspection.
    """

    def __init__(self, responses: Sequence[str]):
        self._responses = list(responses)
        self.prompts: list[str] = []

    def __call__(self, prompt: str) -> str:
        self.prompts.append(prompt)
        if not self._responses:
            raise TransportError("replay transport has no responses left", retryable=False)
        return self._responses.pop(0)


def load_replay_transport(path: str | Path) -> ReplayTransport:
    """Build a replay transport from a JSON file of recorded responses.

    The file holds either a JSON list of response strings or an object with
    a ``responses`` list.
    """
    import json

    path = Path(path)
    with open_input(path) as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: invalid JSON: {exc}") from exc
    if isinstance(data, dict):
        data = data.get("responses")
    if not isinstance(data, list) or not all(isinstance(r, str) for r in data):
        raise DataError(f"{path}: expected a list of response strings")
    return ReplayTransport(data)


def render_prompt(config: LlmRankerConfig, pairs: Sequence[tuple[str, str]]) -> str:
    """Fill the prompt template for one batch of text pairs."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(pairs)
    # Plain replacement instead of str.format: item texts and user templates
    # may legitimately contain braces.
    return (
        config.prompt_template.replace("{property_description}", config.property_description)
        .replace("{examples}", config.examples)
        .replace("{pairs}", buffer.getvalue().rstrip("\n"))
    )


def parse_ranking_response(content: str) -> dict[tuple[str, str], bool]:
    """Extract (item_a, item_b) -> is_a_greater from a model reply.

    Tolerates prose around the CSV block: a line counts only if it parses as
    exactly three CSV cells whose last cell is 0 or 1. The header row and
    repeated pairs after the first occurrence are ignored.
    """
    parsed: dict[tuple[str, str], bool] = {}
    for row in csv.reader(io.StringIO(content)):
        if len(row) != 3:
            continue
        a, b, flag = (cell.strip() for cell in row)
        if flag in ("0", "1") and (a.lower(), b.lower()) != RESPONSE_HEADER[:2]:
            parsed.setdefault((a, b), flag == "1")
    return parsed


def llm_rank_batch(
    pairs: Sequence[tuple[str, str]],
    config: LlmRankerConfig,
    transport: Transport,
    sleep: Callable[[float], None] = time.sleep,
) -> dict[int, bool]:
    """Rank text pairs with an LLM, in batches, with per-pair retries.

    Each batch's rendered prompt goes to ``transport``, which returns the
    reply: ``make_http_transport`` for an endpoint, a ``ReplayTransport`` for
    a recorded session. Returns pair index -> is_a_greater in index order, so
    callers match each answer to their own ids by position, whether or not
    texts repeat. Pairs whose answers cannot be parsed are resubmitted up to
    ``config.max_retries`` more times and then left out with a warning. A
    failed transport call ``sleep``s ``min(RETRY_CAP_S, wait)`` seconds, where
    ``wait`` is its ``retry_after`` (0 too) or else ``RETRY_BASE_S * 2**attempt``;
    failures on the final attempt, or not retryable, propagate.
    """
    pair_list = [(str(a), str(b)) for a, b in pairs]
    if not all(a and b for a, b in pair_list):
        raise ValidationError("pair texts must be non-empty")
    results: dict[int, bool] = {}
    pending = list(range(len(pair_list)))
    attempt = 0
    while pending and attempt <= config.max_retries:
        still_pending: list[int] = []
        for start in range(0, len(pending), config.batch_size):
            batch = pending[start : start + config.batch_size]
            try:
                content = transport(render_prompt(config, [pair_list[i] for i in batch]))
            except TransportError as exc:
                if attempt == config.max_retries or not exc.retryable:
                    raise
                wait = RETRY_BASE_S * 2**attempt if exc.retry_after is None else exc.retry_after
                sleep(min(RETRY_CAP_S, wait))
                still_pending.extend(batch)
                continue
            parsed = parse_ranking_response(content)
            for i in batch:
                answer = parsed.get(pair_list[i])
                if answer is None:
                    still_pending.append(i)
                else:
                    results[i] = answer
        pending = still_pending
        attempt += 1

    if pending:
        message = "%d of %d pairs had no parseable answer after %d attempts; excluding them"
        logger.warning(message, len(pending), len(pair_list), config.max_retries + 1)
    return {i: results[i] for i in sorted(results)}
