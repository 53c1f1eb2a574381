"""Command-line interface.

One subcommand per workflow: refine predictions from files, generate
comparisons with any ranker source, and run the sweep, baseline, noise,
and bound-validation protocols. Exit codes: 0 success, 2 bad usage or
arguments, 3 malformed data or a file that cannot be read or written,
4 numeric failure, 5 network trouble.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from functools import partial
from itertools import repeat
from operator import itemgetter
from pathlib import Path

import numpy as np

from .core import (
    ComparisonOutcome,
    ComparisonSet,
    Dataset,
    Estimate,
    load_dataset_csv,
    load_references_csv,
    open_input,
    pra,
    read_table,
    save_dataset_csv,
    write_table,
)
from .errors import DataError, NumericError, TransportError, ValidationError
from .experiments import (
    DEFAULT_ALPHAS,
    SweepGrid,
    make_synthetic_dataset,
    run_baseline_delta,
    run_noise_sweep,
    run_oracle_sweep,
    validate_bound,
    write_baseline_csv,
    write_bound_csv,
    write_noise_csv,
    write_sweep_csv,
)
from .fusion import check_clamp_c, fuse, regularize_rank_variance
from .rank import solve_rank_estimates
from .rankers import (
    DEFAULT_PROMPT_TEMPLATE,
    LlmRankerConfig,
    check_accuracy,
    draw_oracle,
    generate_comparisons,
    interactive_rank,
    llm_rank_batch,
    load_comparisons_csv,
    load_replay_transport,
    log_tied_references,
    save_comparisons_csv,
)
from .seeding import derive_rng

logger = logging.getLogger(__name__)

REFINE_HEADER = (
    "id",
    "y_reg",
    "var_reg",
    "y_rank",
    "var_rank",
    "y_fused",
    "var_fused",
    "clamped",
)

# The exit code of each error a command may raise; 0 is success.
EXIT_CODES = {ValidationError: 2, DataError: 3, NumericError: 4, TransportError: 5}

RANGE_RESOLUTION = 1e-10  # range values are rounded to 10 decimals
MAX_RANGE_VALUES = 100_000  # a longer range is a usage error, not a list to build


def _parse_float_list(text: str, what: str) -> tuple[float, ...]:
    """Parse "a,b,c" or an inclusive "start:step:stop" range.

    A range lists each value once, increasing, rounded to 10 decimals and
    ending at or before ``stop``; a value up to 1e-9 past ``stop`` counts as
    ``stop``, which absorbs the float error of the last step. A range of more
    than ``MAX_RANGE_VALUES`` steps from ``start`` to ``stop``, or of more
    than ``MAX_RANGE_VALUES`` values, is refused.
    """
    text = text.strip()
    try:
        if ":" in text:
            parts = text.split(":")
            if len(parts) != 3:
                raise ValueError("expected start:step:stop")
            start, step, stop = (float(p) for p in parts)
            if not (np.all(np.isfinite((start, step, stop))) and step > 0 and stop >= start):
                raise ValueError("need finite values, step > 0 and stop >= start")
            if step < RANGE_RESOLUTION:
                raise ValueError(f"step must be >= the {RANGE_RESOLUTION:g} range resolution")
            # The loop takes about this many steps plus one, and at most 11 more
            # up to the 1e-9 tolerance, so it is bounded before it starts.
            steps = (stop - start) / step
            if steps > MAX_RANGE_VALUES:
                raise ValueError(f"{steps + 1:.0f} values, more than the {MAX_RANGE_VALUES} allowed")
            values: list[float] = []
            i = 0
            while (v := round(start + i * step, 10)) <= stop + 1e-9:
                if not values or min(v, stop) > values[-1]:
                    values.append(min(v, stop))
                i += 1
            if len(values) > MAX_RANGE_VALUES:
                raise ValueError(f"{len(values)} values, more than the {MAX_RANGE_VALUES} allowed")
            return tuple(values)
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ValidationError(f"cannot parse {what} {text!r}: {exc}") from exc


def _parse_int_list(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ValidationError(f"cannot parse {what} {text!r}") from exc


def _load_table(
    path: str | Path, required: tuple[str, ...] = ("id",)
) -> tuple[list[str], dict[str, str], dict[str, float]]:
    """Read any CSV with an ``id`` column; returns (ids, texts, labels).

    ``texts`` has entries only when a ``text`` column exists, ``labels``
    only when a ``y`` column exists.
    """
    header, rows = read_table(path, required, numeric=("y",), key="id")
    table = [row for _, row in rows]
    if not table:
        raise DataError(f"{path}: no data rows")
    ids = list(map(itemgetter(header.index("id")), table))
    texts, labels = (
        dict(zip(ids, map(itemgetter(header.index(c)), table))) if c in header else {}
        for c in ("text", "y")
    )
    return ids, texts, labels


def _load_predictions(path: str | Path) -> tuple[list[str], Estimate]:
    """Read ``id,y_reg,var_reg`` rows; returns the ids and their estimates as arrays."""
    columns = ("id", "y_reg", "var_reg")
    header, rows = read_table(path, columns, numeric=columns[1:], key="id")
    id_at, value_at, variance_at = (header.index(c) for c in columns)
    ids: list[str] = []
    values: list[float] = []
    variances: list[float] = []
    for line, row in rows:
        if row[variance_at] <= 0:
            raise DataError(
                f"{path}: row {line}, column 'var_reg': var_reg must be positive, "
                f"got {row[variance_at]!r}"
            )
        ids.append(row[id_at])
        values.append(row[value_at])
        variances.append(row[variance_at])
    if not ids:
        raise DataError(f"{path}: no data rows")
    return ids, Estimate(np.array(values), np.array(variances))


def _dataset_from_args(args: argparse.Namespace) -> Dataset:
    if args.dataset is not None:
        return load_dataset_csv(args.dataset)
    return make_synthetic_dataset(
        n=args.synthetic_n,
        d=args.synthetic_d,
        noise_sd=args.synthetic_noise_sd,
        seed=args.synthetic_seed,
    )


def _add_protocol_options(parser: argparse.ArgumentParser) -> None:
    # The dataset and re-split flags that sweep, baseline and noise share.
    parser.add_argument(
        "--dataset",
        default=None,
        help="dataset CSV (header with y target, optional id/text, numeric features); "
        "omit to use the built-in synthetic benchmark",
    )
    parser.add_argument("--synthetic-n", type=int, default=260, help="synthetic rows")
    parser.add_argument("--synthetic-d", type=int, default=12, help="synthetic features")
    parser.add_argument(
        "--synthetic-noise-sd", type=float, default=2.2, help="synthetic label noise"
    )
    parser.add_argument("--synthetic-seed", type=int, default=7, help="synthetic data seed")
    parser.add_argument("--seeds", type=int, default=5, help="number of re-split seeds")
    parser.add_argument("--train-size", type=int, default=50, help="training rows per split")
    parser.add_argument("--seed", type=int, default=0, help="master seed")


def _grid_from_args(args: argparse.Namespace, ks: tuple[int, ...] | None = None) -> SweepGrid:
    # sweep passes no ks, so its --ks is parsed after --accuracies, as always.
    return SweepGrid(
        accuracies=_parse_float_list(args.accuracies, "accuracies"),
        ks=_parse_int_list(args.ks, "ks") if ks is None else ks,
        seeds=args.seeds,
        train_size=args.train_size,
        clamp_c=args.clamp_c,
    )


# ---------------------------------------------------------------------------
# Subcommands


def cmd_refine(args: argparse.Namespace) -> None:
    check_clamp_c(args.clamp_c)
    ids, reg = _load_predictions(args.predictions)
    labels = load_references_csv(args.references)
    grouped = load_comparisons_csv(args.comparisons, labels)
    known = set(ids)
    for qid in grouped:
        if qid not in known:
            raise DataError(
                f"{args.comparisons}: comparisons reference unknown prediction id {qid!r}"
            )
    refined = [i for i, pid in enumerate(ids) if pid in grouped]
    # A generator, so the solver holds one chunk of comparison sets at a time.
    # The comparisons are released once solved, before the output is written.
    estimates = solve_rank_estimates(
        ComparisonSet.from_outcomes(
            zip(repeat(ids[i]), grouped[ids[i]].keys(), grouped[ids[i]].values()), labels
        )
        for i in refined
    )
    del grouped
    reg_var = reg.variance[refined]
    rank_var = np.array([est.variance for est in estimates])
    if args.clamp_c > 0:
        rank_var = regularize_rank_variance(rank_var, reg_var, args.clamp_c)
    rank = Estimate(np.array([est.value for est in estimates]), rank_var)
    fused = fuse(Estimate(reg.value[refined], reg_var), rank)
    clamped = ["true" if est.clamped else "false" for est in estimates]

    # Rows stream to the writer in input order. Queries without comparisons
    # pass through with empty rank cells.
    ranked = zip(
        rank.value.tolist(), rank.variance.tolist(), fused.value.tolist(),
        fused.variance.tolist(), clamped,
    )
    has_rank = np.zeros(len(ids), dtype=bool)
    has_rank[refined] = True
    rows = (
        (pid, y, v, *next(ranked)) if ok else (pid, y, v, "", "", y, v, "")
        for pid, y, v, ok in zip(ids, reg.value.tolist(), reg.variance.tolist(), has_rank.tolist())
    )
    write_table(args.out, REFINE_HEADER, rows)
    print(f"refined {len(refined)} of {len(ids)} predictions -> {args.out}")


def cmd_rank(args: argparse.Namespace) -> None:
    required, handler = RANK_SOURCES[args.source]
    missing = [name for name in required if getattr(args, name) is None]
    if missing:
        flags = ", ".join("--" + name for name in missing)
        raise ValidationError(f"--source {args.source} requires {flags}")
    handler(args)


def _rank_oracle(args: argparse.Namespace) -> None:
    queries = load_references_csv(args.queries)
    references = load_references_csv(args.references)
    check_accuracy(args.accuracy)
    draws = [
        draw_oracle(qid, y, references, args.k, args.seed, derive_rng("refs", args.seed, qid))
        for qid, y in queries.items()
    ]
    log_tied_references(draws, len(references), "rank --source oracle")
    outcomes = [out for d in draws for out in generate_comparisons(d, args.k, args.accuracy)]
    save_comparisons_csv(outcomes, args.out)
    print(f"wrote {len(outcomes)} comparisons -> {args.out}")


def _rank_file(args: argparse.Namespace) -> None:
    grouped = load_comparisons_csv(args.comparisons, load_references_csv(args.references))
    save_comparisons_csv(
        (
            ComparisonOutcome(qid, rid, above)
            for qid, judged in grouped.items()
            for rid, above in judged.items()
        ),
        args.out,
    )
    print(f"validated {sum(map(len, grouped.values()))} comparisons -> {args.out}")


def _rank_interactive(args: argparse.Namespace) -> None:
    query_ids, query_texts, _ = _load_table(args.queries)
    # y is required and parsed as for the other sources, though a human answers without it.
    ref_ids, ref_texts, _ = _load_table(args.references, required=("id", "y"))
    outcomes = []
    for qid in query_ids:
        outcomes.extend(
            interactive_rank(
                qid,
                ref_ids,
                property_name=args.property,
                query_text=query_texts.get(qid),
                ref_texts=ref_texts,
            )
        )
    save_comparisons_csv(outcomes, args.out)
    print(f"collected {len(outcomes)} comparisons -> {args.out}")


def _read_text(path: str) -> str:
    with open_input(path) as handle:
        return handle.read()


def _rank_llm(args: argparse.Namespace) -> None:
    if args.k < 0:
        raise ValidationError(f"k must be >= 0 (0 means every reference), got {args.k}")
    query_ids, query_texts, _ = _load_table(args.queries)
    ref_ids, ref_texts, ref_labels = _load_table(args.references)
    for qid in query_ids:
        if qid not in query_texts or not query_texts[qid]:
            raise DataError(f"{args.queries}: query {qid!r} has no text to rank by")
    for rid in ref_ids:
        if rid not in ref_texts or not ref_texts[rid]:
            raise DataError(f"{args.references}: reference {rid!r} has no text to rank by")

    template = (
        _read_text(args.prompt_template) if args.prompt_template else DEFAULT_PROMPT_TEMPLATE
    )
    examples = _read_text(args.examples) if args.examples else ""
    config = LlmRankerConfig(
        endpoint_url=args.endpoint,
        model_name=args.model,
        prompt_template=template,
        api_key_env_var=args.api_key_env,
        property_description=args.property,
        examples=examples,
        batch_size=args.batch_size,
        max_retries=args.max_retries,
    )
    if args.replay:
        transport = load_replay_transport(args.replay)
    else:
        if not os.environ.get(config.api_key_env_var):
            raise TransportError(
                f"environment variable {config.api_key_env_var} is not set; "
                "the API key is only ever read from it"
            )
        transport = None

    pair_ids: list[tuple[str, str]] = []
    for qid in query_ids:
        chosen = list(ref_ids)
        if args.k and args.k < len(chosen):
            rng = derive_rng("refs", args.seed, qid)
            order = rng.permutation(len(chosen))
            chosen = [chosen[i] for i in order[: args.k]]
        pair_ids.extend((qid, rid) for rid in chosen)
    pairs = [(query_texts[qid], ref_texts[rid]) for qid, rid in pair_ids]

    answers = llm_rank_batch(pairs, config, transport)
    outcomes = [ComparisonOutcome(*pair_ids[i], above) for i, above in answers.items()]
    save_comparisons_csv(outcomes, args.out)
    print(f"ranked {len(outcomes)} of {len(pairs)} pairs -> {args.out}")
    if args.truth:
        # Reference labels are already known; the truth file only has to
        # cover the queries (it may restate or override references).
        labels = {**ref_labels, **load_references_csv(args.truth)}
        try:
            score = pra(outcomes, labels)
        except ValidationError as exc:  # no answered pair, or every one a tie
            print(f"PRA against truth: undefined ({exc})")
        else:
            print(f"PRA against truth: {score:.4f} over {len(outcomes)} pairs")


# --source name -> (the flags it requires, its handler), in --source's choice order.
RANK_SOURCES = {
    "oracle": (("queries", "references"), _rank_oracle),
    "file": (("comparisons", "references"), _rank_file),
    "interactive": (("queries", "references"), _rank_interactive),
    "llm": (("queries", "references"), _rank_llm),
}


def cmd_sweep(args: argparse.Namespace) -> None:
    dataset = _dataset_from_args(args)
    grid = _grid_from_args(args)
    records = run_oracle_sweep(dataset, grid, master_seed=args.seed)
    write_sweep_csv(records, args.out)
    print(f"wrote {len(records)} sweep records -> {args.out}")


def cmd_baseline(args: argparse.Namespace) -> None:
    dataset = _dataset_from_args(args)
    grid = _grid_from_args(args, (args.k,))
    records = run_baseline_delta(dataset, grid, args.method, master_seed=args.seed)
    write_baseline_csv(records, args.out)
    print(f"wrote {len(records)} baseline records -> {args.out}")


def cmd_noise(args: argparse.Namespace) -> None:
    dataset = _dataset_from_args(args)
    result = run_noise_sweep(
        dataset,
        bs=_parse_float_list(args.bs, "bs"),
        k=args.k,
        accuracy=args.accuracy,
        seeds=args.seeds,
        train_size=args.train_size,
        master_seed=args.seed,
    )
    write_noise_csv(result, args.out)
    print(
        f"rank variance mean {result.rank_var_mean:.3f}, sd {result.rank_var_sd:.3f}; "
        f"wrote {len({r.b for r in result.records})} records -> {args.out}"
    )


def cmd_validate_bound(args: argparse.Namespace) -> None:
    alphas = _parse_float_list(args.alphas, "alphas")
    results = validate_bound(alphas, n_samples=args.samples, seed=args.seed)
    write_bound_csv(results, args.samples, args.out)
    worst = max(abs(ratio - alpha) for alpha, ratio in results)
    print(f"max |empirical - alpha| = {worst:.5f} over {len(results)} alphas -> {args.out}")


def cmd_make_synthetic(args: argparse.Namespace) -> None:
    dataset = make_synthetic_dataset(
        n=args.n, d=args.d, noise_sd=args.noise_sd, seed=args.seed
    )
    save_dataset_csv(dataset, args.out)
    print(f"wrote {len(dataset)} rows -> {args.out}")


# ---------------------------------------------------------------------------
# Parser


class _DefaultsHelpFormatter(argparse.ArgumentDefaultsHelpFormatter):
    """Appends each option's default to its help, unless the default is None."""

    def _get_help_string(self, action: argparse.Action) -> str | None:
        if action.default is None:
            return action.help
        return super()._get_help_string(action)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankrefine",
        description="Refine regression predictions with pairwise-ranking evidence.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress details")
    # Every subcommand's --help shows the defaults.
    command = parser.add_subparsers(
        dest="command",
        required=True,
        parser_class=partial(argparse.ArgumentParser, formatter_class=_DefaultsHelpFormatter),
    ).add_parser

    def out(p: argparse.ArgumentParser, func) -> None:
        # Every subcommand writes one file, named by its required --out. It is
        # added where --out stands in the subcommand's usage and errors.
        p.add_argument("--out", required=True, help="output CSV path")
        p.set_defaults(func=func)

    refine = command("refine", help="fuse regressor predictions with comparisons from files")
    refine.add_argument("--predictions", required=True, help="CSV with id,y_reg,var_reg")
    refine.add_argument("--references", required=True, help="CSV with id,y for the references")
    refine.add_argument("--comparisons", required=True, help="CSV with query_id,ref_id,outcome")
    out(refine, cmd_refine)

    p = command("rank", help="generate a comparisons CSV from a ranker source")
    p.add_argument(
        "--source", required=True, choices=tuple(RANK_SOURCES), help="where comparisons come from"
    )
    p.add_argument("--queries", help="CSV of queries (id column; text/y as the source needs)")
    p.add_argument("--references", help="CSV of references (id,y; text for llm/interactive)")
    p.add_argument("--comparisons", help="existing comparisons CSV (file source)")
    out(p, cmd_rank)
    p.add_argument(
        "--k",
        type=int,
        default=20,
        help="references compared per query (llm: 0 means every reference; "
        "interactive asks every reference and reads neither --k nor --seed)",
    )
    p.add_argument("--seed", type=int, default=0, help="sampling / oracle seed")
    p.add_argument("--accuracy", type=float, default=0.8, help="oracle accuracy")
    p.add_argument("--property", default="the property of interest", help="property name")
    p.add_argument("--endpoint", default="", help="chat-completion endpoint URL (llm)")
    p.add_argument("--model", default="", help="model name (llm)")
    p.add_argument(
        "--api-key-env",
        default="RANKREFINE_API_KEY",
        help="environment variable holding the API key (llm)",
    )
    p.add_argument("--prompt-template", default=None, help="prompt template file (llm)")
    p.add_argument("--examples", default=None, help="few-shot examples file (llm)")
    p.add_argument("--batch-size", type=int, default=20, help="pairs per request (llm)")
    p.add_argument("--max-retries", type=int, default=3, help="retries per pair (llm)")
    p.add_argument(
        "--replay",
        default=None,
        help="JSON file of recorded responses; answers come from it instead of the network (llm)",
    )
    p.add_argument("--truth", default=None, help="CSV with id,y to score PRA against (llm)")

    # The protocols list the dataset and re-split options, then --out, then their own.
    sweep = command("sweep", help="run the oracle-ranker sweep over (seed, accuracy, k)")
    baseline = command(
        "baseline", help="compare fusion against projection or neighbor smoothing"
    )
    noise = command("noise", help="perturb rank variances and measure the effect on beta")
    for p, func in ((sweep, cmd_sweep), (baseline, cmd_baseline), (noise, cmd_noise)):
        _add_protocol_options(p)
        out(p, func)
    baseline.add_argument("--method", required=True, choices=("projection", "rbr"))
    for p in (sweep, baseline):
        p.add_argument(
            "--accuracies",
            default="0.50:0.05:1.00",
            help="comma list or start:step:stop range of oracle accuracies",
        )
    sweep.add_argument("--ks", default="10,20,30", help="comma list of comparison counts")
    baseline.add_argument("--k", type=int, default=30, help="comparisons per query")
    for p in (refine, sweep, baseline):
        p.add_argument(
            "--clamp-c",
            type=float,
            default=0.0,
            help="clamp rank variance below at c * var_reg (0 disables)",
        )
    noise.add_argument("--bs", default="0,1,2,3,5,10", help="perturbation half-widths")
    noise.add_argument("--k", type=int, default=30, help="comparisons per query")
    noise.add_argument("--accuracy", type=float, default=0.8, help="oracle accuracy")

    p = command("validate-bound", help="Monte-Carlo check of the fusion error-ratio guarantee")
    p.add_argument(
        "--alphas", default=",".join(str(a) for a in DEFAULT_ALPHAS), help="target error ratios"
    )
    p.add_argument("--samples", type=int, default=1_000_000, help="Monte-Carlo draws")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    out(p, cmd_validate_bound)

    p = command("make-synthetic", help="write the synthetic benchmark dataset as CSV")
    p.add_argument("--n", type=int, default=260, help="rows")
    p.add_argument("--d", type=int, default=12, help="features")
    p.add_argument("--noise-sd", type=float, default=2.2, help="label noise sd")
    p.add_argument("--seed", type=int, default=7, help="data seed")
    out(p, cmd_make_synthetic)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code is None or exc.code == 0:
            return 0
        return int(exc.code) if isinstance(exc.code, int) else 2
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        args.func(args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CODES[type(exc)]
    return 0


if __name__ == "__main__":
    sys.exit(main())
