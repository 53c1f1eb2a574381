"""Sources of pairwise comparisons: oracle, file, interactive, and LLM.

Every ranker answers the same question (is the query's property value above
this reference's?) and emits at most one outcome per (query, reference)
pair, so downstream code never cares where comparisons came from. Failures
are excluded, never guessed.
"""

from __future__ import annotations

import csv
import io
import logging
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping, MutableMapping, Sequence, TextIO

import numpy as np
import requests

from .core import (
    ComparisonOutcome,
    ComparisonSet,
    LabeledReference,
    ReferenceSet,
    read_table,
)
from .errors import DataError, TransportError, ValidationError
from .seeding import unit_uniform

logger = logging.getLogger(__name__)

# A ranker maps (query_id, query_value, reference, pair_index) to an outcome.
# The pair index identifies the comparison within the query's batch so that
# stateless rankers can derive independent randomness per pair.
Ranker = Callable[[str, float, LabeledReference, int], ComparisonOutcome]

COMPARISONS_HEADER = ("query_id", "ref_id", "outcome")


@dataclass(frozen=True)
class OracleRankerConfig:
    """A simulated ranker with a known probability of answering correctly.

    With ``magnitude_sensitive`` off (the default) every pair is judged
    correctly with probability ``accuracy``, independent of how far apart
    the two values are. When on, close pairs are harder: the probability of
    a correct answer falls from ``accuracy`` toward a coin flip as the gap
    shrinks below ``difficulty_scale``.
    """

    accuracy: float
    seed: int = 0
    magnitude_sensitive: bool = False
    difficulty_scale: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.accuracy) and 0.5 <= self.accuracy <= 1.0):
            raise ValidationError(
                f"oracle accuracy must lie in [0.5, 1.0], got {self.accuracy!r}"
            )
        if not (math.isfinite(self.difficulty_scale) and self.difficulty_scale > 0.0):
            raise ValidationError(
                f"difficulty_scale must be positive, got {self.difficulty_scale!r}"
            )


def oracle_compare(
    query_id: str,
    y_query: float,
    reference: LabeledReference,
    config: OracleRankerConfig,
    pair_index: int,
) -> ComparisonOutcome:
    """Judge one pair with the configured error rate.

    The flip draw is keyed by (seed, query id, pair index) only, so raising
    the accuracy flips a subset of the outcomes seen at a lower accuracy
    rather than resampling them all; sweeps across accuracies share their
    randomness, which keeps paired comparisons low-variance.
    """
    if y_query == reference.label:
        raise ValidationError(
            f"query {query_id!r} ties reference {reference.id!r}; a tied pair has no "
            "correct answer and must be excluded upstream"
        )
    truth = y_query > reference.label
    p_correct = config.accuracy
    if config.magnitude_sensitive:
        gap = abs(y_query - reference.label)
        p_correct = 0.5 + (config.accuracy - 0.5) * gap / (gap + config.difficulty_scale)
    u = unit_uniform("oracle", config.seed, query_id, pair_index)
    query_above = truth if u < p_correct else not truth
    return ComparisonOutcome(query_id=query_id, ref_id=reference.id, query_above=query_above)


def make_oracle_ranker(config: OracleRankerConfig) -> Ranker:
    """Adapt an oracle config to the common ranker callable shape."""

    def ranker(
        query_id: str, y_query: float, reference: LabeledReference, pair_index: int
    ) -> ComparisonOutcome:
        return oracle_compare(query_id, y_query, reference, config, pair_index)

    return ranker


def generate_comparisons(
    query_id: str,
    y_query: float,
    references: ReferenceSet,
    k: int,
    ranker: Ranker,
    rng: np.random.Generator,
) -> ComparisonSet:
    """Ask the ranker to judge the query against k sampled references.

    References tying the query's value are ineligible (no correct answer
    exists for them). The k references are the first k of a permutation of
    the eligible pool drawn from ``rng``, so with the same generator state a
    larger k extends the smaller k's sample rather than replacing it.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    eligible = [ref for ref in references.references if ref.label != y_query]
    skipped = len(references) - len(eligible)
    if skipped:
        logger.warning(
            "query %s: excluded %d references tied with the query value", query_id, skipped
        )
    if k > len(eligible):
        raise ValidationError(
            f"query {query_id!r}: k={k} exceeds the {len(eligible)} eligible references"
        )
    order = rng.permutation(len(eligible))
    chosen = [eligible[i] for i in order[:k]]
    outcomes = [ranker(query_id, y_query, ref, i) for i, ref in enumerate(chosen)]
    return ComparisonSet.from_outcomes(outcomes, references.labels_by_id())


# ---------------------------------------------------------------------------
# Comparison files


def load_comparisons_csv(
    path: str | Path,
    labels_by_id: Mapping[str, float],
) -> dict[str, ComparisonSet]:
    """Read a comparisons CSV and group it into per-query comparison sets.

    Expected header: ``query_id,ref_id,outcome`` with outcome 1 meaning the
    query is above the reference. Unknown reference ids, repeated pairs, and
    outcomes other than 0/1 are data errors. File order is preserved within
    each query.
    """
    path = Path(path)
    header, rows = read_table(path)
    if header != COMPARISONS_HEADER:
        raise DataError(
            f"{path}: expected header {','.join(COMPARISONS_HEADER)}, got {','.join(header)}"
        )
    grouped: dict[str, list[ComparisonOutcome]] = {}
    for line, cells in rows:
        query_id, ref_id, outcome = (cells[column].strip() for column in COMPARISONS_HEADER)
        if outcome not in ("0", "1"):
            raise DataError(
                f"{path}: row {line}, column 'outcome': outcome must be 0 or 1, got {outcome!r}"
            )
        grouped.setdefault(query_id, []).append(
            ComparisonOutcome(query_id=query_id, ref_id=ref_id, query_above=outcome == "1")
        )
    try:
        return {
            qid: ComparisonSet.from_outcomes(outs, labels_by_id)
            for qid, outs in grouped.items()
        }
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def save_comparisons_csv(
    outcomes: Iterable[ComparisonOutcome],
    path_or_handle: str | Path | TextIO,
) -> None:
    """Write outcomes in the ``query_id,ref_id,outcome`` format."""

    def write(handle: TextIO) -> None:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(COMPARISONS_HEADER)
        for out in outcomes:
            writer.writerow([out.query_id, out.ref_id, "1" if out.query_above else "0"])

    if isinstance(path_or_handle, (str, Path)):
        with open(path_or_handle, "w", newline="") as handle:
            write(handle)
    else:
        write(path_or_handle)


# ---------------------------------------------------------------------------
# Interactive ranker


def interactive_rank(
    query_id: str,
    references: ReferenceSet,
    property_name: str = "the property",
    query_text: str | None = None,
    ref_texts: Mapping[str, str] | None = None,
    input_stream: TextIO | None = None,
    output_stream: TextIO | None = None,
) -> ComparisonSet:
    """Collect comparisons from a human over a line-based prompt session.

    One question per reference; answers y/n record an outcome, s(kip) asks
    nothing further about that pair, and anything else re-prompts. End of
    input ends the session early with whatever was collected so far.
    """
    import sys

    stdin = input_stream if input_stream is not None else sys.stdin
    stdout = output_stream if output_stream is not None else sys.stdout
    shown_query = query_text if query_text else query_id
    texts = ref_texts or {}
    outcomes: list[ComparisonOutcome] = []
    ended_early = False
    for ref in references.references:
        shown_ref = texts.get(ref.id, ref.id)
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
                outcomes.append(ComparisonOutcome(query_id, ref.id, True))
                break
            if answer in ("n", "no"):
                outcomes.append(ComparisonOutcome(query_id, ref.id, False))
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
            len(references),
        )
    return ComparisonSet.from_outcomes(outcomes, references.labels_by_id())


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

# Transport callables take (endpoint_url, headers, payload) and return the
# model's text reply; swapping the transport is how tests avoid the network.
Transport = Callable[[str, Mapping[str, str], Mapping[str, object]], str]


@dataclass(frozen=True)
class LlmRankerConfig:
    """Settings for ranking pairs with a chat-completion endpoint.

    The API key is read from the environment variable named by
    ``api_key_env_var`` at request time; it is never accepted as a literal
    value or read from a file. The prompt template must contain the
    ``{property_description}``, ``{examples}``, and ``{pairs}`` placeholders.
    """

    endpoint_url: str
    model_name: str
    prompt_template: str = DEFAULT_PROMPT_TEMPLATE
    api_key_env_var: str = "RANKREFINE_API_KEY"
    property_description: str = "the property of interest"
    examples: str = ""
    batch_size: int = 20
    max_retries: int = 3
    timeout: float = 60.0

    def __post_init__(self) -> None:
        if not self.endpoint_url:
            raise ValidationError("endpoint_url must be non-empty")
        if not self.model_name:
            raise ValidationError("model_name must be non-empty")
        if self.batch_size < 1:
            raise ValidationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_retries < 0:
            raise ValidationError(f"max_retries must be >= 0, got {self.max_retries}")
        missing = [p for p in PROMPT_PLACEHOLDERS if p not in self.prompt_template]
        if missing:
            raise ValidationError(
                f"prompt template is missing placeholders: {', '.join(missing)}"
            )


def make_http_transport(timeout: float = 60.0) -> Transport:
    """Transport that POSTs a chat-completion request over HTTP."""

    def transport(url: str, headers: Mapping[str, str], payload: Mapping[str, object]) -> str:
        try:
            response = requests.post(
                url, headers=dict(headers), json=dict(payload), timeout=timeout
            )
        except requests.RequestException as exc:
            raise TransportError(f"request to {url} failed: {exc}") from exc
        if response.status_code in (401, 403):
            raise TransportError(f"authentication failed: HTTP {response.status_code}")
        if response.status_code != 200:
            raise TransportError(f"endpoint returned HTTP {response.status_code}")
        try:
            data = response.json()
            return data["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"malformed response body from {url}") from exc

    return transport


class ReplayTransport:
    """Transport double that returns recorded responses in submission order.

    Used to replay a captured LLM session deterministically (in tests and in
    the CLI's replay mode). Requests are recorded on ``self.requests`` for
    inspection.
    """

    def __init__(self, responses: Sequence[str]):
        self._responses = list(responses)
        self.requests: list[Mapping[str, object]] = []

    def __call__(
        self, url: str, headers: Mapping[str, str], payload: Mapping[str, object]
    ) -> str:
        self.requests.append(payload)
        if not self._responses:
            raise TransportError("replay transport has no responses left")
        return self._responses.pop(0)


def load_replay_transport(path: str | Path) -> ReplayTransport:
    """Build a replay transport from a JSON file of recorded responses.

    The file holds either a JSON list of response strings or an object with
    a ``responses`` list.
    """
    import json

    path = Path(path)
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
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
    writer = csv.writer(buffer, lineterminator="\n")
    for a, b in pairs:
        writer.writerow([a, b])
    rendered = config.prompt_template
    # Plain replacement instead of str.format: item texts and user templates
    # may legitimately contain braces.
    rendered = rendered.replace("{property_description}", config.property_description)
    rendered = rendered.replace("{examples}", config.examples)
    rendered = rendered.replace("{pairs}", buffer.getvalue().rstrip("\n"))
    return rendered


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
        if (a.lower(), b.lower()) == RESPONSE_HEADER[:2]:
            continue
        if flag not in ("0", "1"):
            continue
        key = (a, b)
        if key not in parsed:
            parsed[key] = flag == "1"
    return parsed


def _chunks(items: list[int], size: int) -> Iterable[list[int]]:
    for start in range(0, len(items), size):
        yield items[start : start + size]


def llm_rank_batch(
    pairs: Sequence[tuple[str, str]],
    config: LlmRankerConfig,
    transport: Transport | None = None,
    cache: MutableMapping[tuple[str, str, str, str], bool] | None = None,
) -> list[ComparisonOutcome]:
    """Rank text pairs with an LLM, in batches, with per-pair retries.

    Each outcome's ids are the pair's texts (callers map texts back to their
    own ids). Pairs whose answers cannot be parsed are resubmitted up to
    ``config.max_retries`` more times and then excluded with a warning;
    transport failures on the final attempt propagate. When a cache mapping
    is supplied, previously answered (model, property, a, b) keys are served
    from it without any request.
    """
    if transport is None:
        transport = make_http_transport(config.timeout)
    pair_list = [(str(a), str(b)) for a, b in pairs]
    for a, b in pair_list:
        if not a or not b:
            raise ValidationError("pair texts must be non-empty")
    results: dict[int, bool] = {}
    pending: list[int] = []
    for i, (a, b) in enumerate(pair_list):
        key = (config.model_name, config.property_description, a, b)
        if cache is not None and key in cache:
            results[i] = cache[key]
        else:
            pending.append(i)

    api_key = os.environ.get(config.api_key_env_var, "")
    headers: dict[str, str] = {"Content-Type": "application/json"}
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"

    attempt = 0
    while pending and attempt <= config.max_retries:
        still_pending: list[int] = []
        for batch in _chunks(pending, config.batch_size):
            batch_pairs = [pair_list[i] for i in batch]
            payload: dict[str, object] = {
                "model": config.model_name,
                "messages": [
                    {"role": "user", "content": render_prompt(config, batch_pairs)}
                ],
            }
            try:
                content = transport(config.endpoint_url, headers, payload)
            except TransportError:
                if attempt == config.max_retries:
                    raise
                still_pending.extend(batch)
                continue
            parsed = parse_ranking_response(content)
            for i in batch:
                answer = parsed.get(pair_list[i])
                if answer is None:
                    still_pending.append(i)
                else:
                    results[i] = answer
                    if cache is not None:
                        a, b = pair_list[i]
                        cache[(config.model_name, config.property_description, a, b)] = answer
        pending = still_pending
        attempt += 1

    if pending:
        logger.warning(
            "%d of %d pairs had no parseable answer after %d attempts; excluding them",
            len(pending),
            len(pair_list),
            config.max_retries + 1,
        )
    return [
        ComparisonOutcome(query_id=pair_list[i][0], ref_id=pair_list[i][1], query_above=results[i])
        for i in sorted(results)
    ]
