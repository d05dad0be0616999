"""Command line front end: ingest/stats, tokenizer and LM training,
generation, evaluation and significance testing.

Every run is reproducible from its flags; the invocation config is
echoed into each output artifact.
"""

from __future__ import annotations

import json
import logging
import math
import sys
from contextlib import nullcontext
from itertools import zip_longest

import click

from . import corpus, formats, generation, ngram, tokenizers, validation
from .corpus import CorpusFormatError, MeterLabel, YearBucket, json_isinstance
from .formats import DataFormat, FormatError
from .generation import GenerationError, GenerationRequest
from .phonology import Syllabifier
from .tokenizers import TokenizerError, TokenizerKind

EXIT_MISSING_FILE = 3
EXIT_SCHEMA = 4
EXIT_OTHER = 5
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports it

log = logging.getLogger(__name__)


def _config(ctx) -> dict:
    cfg = {"subcommand": ctx.command.name}
    cfg.update({k: v for k, v in ctx.params.items() if v is not None})
    return cfg


def _syllabifier(path) -> Syllabifier | None:
    return Syllabifier.from_exceptions_file(path) if path else None


@click.group()
def cli():
    """Strophe generation and formal evaluation for Czech poetry.

    Corpus files are JSON lines, one poem per line:
    {"year": 1900, "strophes": [[{"text", "rhyme", "meter"}, ...], ...]}.
    Strophe text formats: basic (header + plain verses), verse_par
    (verses prefixed "SYL # HINT # "), meter_verse (verses prefixed
    "METER # SYL # HINT # ").
    """


format_option = click.option("--format", "fmt", default="meter_verse",
                             show_default=True, help="strophe text format")
exceptions_option = click.option("--exceptions", default=None, type=click.Path(),
                                 help="syllabification exceptions file")


@cli.command()
@click.option("--corpus", "corpus_path", required=True, type=click.Path())
@click.option("--stats-out", required=True, type=click.Path())
@click.option("--min-scheme-count", default=0, show_default=True,
              help="drop strophes whose scheme occurs fewer times")
@click.pass_context
def ingest(ctx, corpus_path, stats_out, min_scheme_count):
    """Validate a corpus file and write distribution statistics."""
    corpus.check_directory(stats_out)
    strophes = corpus.ingest(corpus_path)
    if min_scheme_count > 0:
        counts = corpus.stats(strophes).scheme_counts
        strophes = [s for s in strophes if counts[s.scheme] >= min_scheme_count]
    st = corpus.stats(strophes)
    with corpus.replacing(stats_out) as f:
        json.dump({"config": _config(ctx), "stats": st.to_dict()}, f,
                  ensure_ascii=False, indent=2)
    click.echo(f"{st.n_strophes} strophes, {st.n_verses} verses, {st.n_poems} poems")


@cli.command()
@click.option("--corpus", "corpus_path", required=True, type=click.Path())
@click.option("--top", default=10, show_default=True)
def stats(corpus_path, top):
    """Print scheme/meter/year distribution tables."""
    st = corpus.stats(corpus.ingest(corpus_path))
    click.echo(f"strophes\t{st.n_strophes}")
    click.echo(f"verses\t{st.n_verses}")
    click.echo(f"poems\t{st.n_poems}")
    for name, counter in (("scheme", st.scheme_counts),
                          ("meter", st.meter_counts),
                          ("year", st.year_counts)):
        for key, count in counter.most_common(top):
            key = key.value if isinstance(key, MeterLabel) else key
            click.echo(f"{name}\t{key}\t{count}")


@cli.command("train-tokenizer")
@click.option("--corpus", "corpus_path", required=True, type=click.Path())
@click.option("--kind", default="unicode", show_default=True)
@click.option("--vocab-size", default=40000, show_default=True)
@click.option("--out", required=True, type=click.Path())
@format_option
@exceptions_option
@click.pass_context
def train_tokenizer(ctx, corpus_path, kind, vocab_size, out, fmt, exceptions):
    """Build a tokenizer vocabulary from format-encoded strophes."""
    corpus.check_directory(out)
    kind = TokenizerKind.parse(kind)
    syllabifier = _syllabifier(exceptions)
    fmt = DataFormat.parse(fmt)
    texts = [formats.encode(s, fmt, syllabifier) for s in corpus.ingest(corpus_path)]
    vocab = tokenizers.build_vocab(kind, texts, vocab_size, syllabifier)
    tokenizers.save_vocab(vocab, out, _config(ctx))
    click.echo(f"{len(vocab)} tokens ({kind.value}) -> {out}")


@cli.command("train-lm")
@click.option("--corpus", "corpus_path", required=True, type=click.Path())
@click.option("--vocab", "vocab_path", required=True, type=click.Path())
@click.option("--order", default=None, type=int, help="n-gram order (default per tokenizer kind)")
@click.option("--discount", default=ngram.DEFAULT_DISCOUNT, show_default=True)
@click.option("--test-fraction", default=0.05, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--out", required=True, type=click.Path())
@format_option
@exceptions_option
@click.pass_context
def train_lm(ctx, corpus_path, vocab_path, order, discount, test_fraction, seed,
             out, fmt, exceptions):
    """Train the n-gram model on the train split of the corpus and log
    its perplexity on the held-out split."""
    corpus.check_directory(out)
    vocab = tokenizers.load_vocab(vocab_path)
    syllabifier = _syllabifier(exceptions)
    if order is None:
        order = ngram.DEFAULT_ORDER[vocab.kind]
    fmt = DataFormat.parse(fmt)
    strophes = corpus.ingest(corpus_path)
    train_set, held_out = corpus.split(strophes, test_fraction, seed)

    def sequences(split):
        return (tokenizers.encode(vocab, formats.encode(s, fmt, syllabifier), syllabifier)
                + [vocab.eos_id] for s in split)

    model = ngram.train(sequences(train_set), order, vocab, discount)
    ngram.save(model, out, _config(ctx))
    click.echo(f"order-{order} model over {model.vocab_size} tokens -> {out}")
    log.info("contexts per order: %s",
             " ".join(f"{k}:{n}" for k, n in enumerate(model.contexts_per_length(), 1) if n))
    if held_out:
        log.info("held-out perplexity %.4f over %d strophes",
                 model.perplexity(sequences(held_out)), len(held_out))
    else:
        log.info("held-out split is empty; no perplexity")


_OPTIONAL_FIELD_TYPES = (
    ("meters", list), ("temperature", (int, float)), ("seed", int), ("max_tokens", int),
)


def _request_from_dict(d, fmt, where=None) -> GenerationRequest:
    """The request of a JSON record; a null optional field is absent.  An
    error names ``where``, the record's ``path:line``, when given.

    The scheme must be in the canonical form that ``evaluate`` compares
    predicted schemes in, the ``derive_rhyme_scheme`` of its own letters
    (X as no group): ``BABA`` is refused as ``ABAB``, and ``ABAC`` as
    ``AXAX``, since neither could ever score a rhyme hit."""
    at = f"{where}: " if where else ""
    if not isinstance(d.get("scheme"), str):
        raise FormatError(f"{at}a request needs a string 'scheme'")
    for key, types in _OPTIONAL_FIELD_TYPES:
        if d.get(key) is not None and not json_isinstance(d[key], types):
            raise FormatError(f"{at}bad {key!r} {d[key]!r}")
    d = {key: value for key, value in d.items() if value is not None}
    meters = d.get("meters")
    try:
        request = GenerationRequest(
            scheme=d["scheme"],
            year_bucket=YearBucket.parse(str(d.get("year", "NaN"))),
            fmt=fmt,
            strophe_meter=MeterLabel.parse(d["strophe_meter"]) if d.get("strophe_meter") else None,
            per_verse_meters=tuple(MeterLabel.parse(m) for m in meters) if meters else None,
            **{key: d[key] for key in ("temperature", "seed", "max_tokens") if key in d},
        )
    except (CorpusFormatError, GenerationError) as e:
        raise type(e)(f"{at}{e}") from None
    canonical = corpus.derive_rhyme_scheme([None if c == "X" else c for c in request.scheme])
    if canonical != request.scheme:
        raise GenerationError(f"{at}scheme {request.scheme!r} is not in canonical form; "
                              f"write it {canonical!r}")
    return request


@cli.command()
@click.option("--model", "model_path", required=True, type=click.Path())
@click.option("--vocab", "vocab_path", required=True, type=click.Path())
@click.option("--scheme", default=None)
@click.option("--year", default="NaN", show_default=True)
@click.option("--meters", default=None, help="comma-separated per-verse meters")
@click.option("--strophe-meter", default=None)
@click.option("--decoding", type=click.Choice(["basic", "forced"]),
              help="[default: basic for --format basic, else forced]")
@click.option("--temperature", default=1.0, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--max-tokens", default=2000, show_default=True)
@click.option("--requests", "requests_path", default=None, type=click.Path(),
              help="JSONL batch of requests instead of flags")
@click.option("--out", default=None, type=click.Path(),
              help="JSONL output for batch mode")
@format_option
@exceptions_option
@click.pass_context
def generate(ctx, model_path, vocab_path, scheme, year, meters, strophe_meter,
             decoding, temperature, seed, max_tokens, requests_path, out, fmt,
             exceptions):
    """Generate strophes; single request to stdout, batches to JSONL."""
    vocab = tokenizers.load_vocab(vocab_path)
    model = ngram.load(model_path, vocab)
    syllabifier = _syllabifier(exceptions)
    fmt = DataFormat.parse(fmt)
    if decoding is None:
        decoding = ctx.params["decoding"] = "basic" if fmt is DataFormat.BASIC else "forced"
    decode_fn = generation.generate_forced if decoding == "forced" else generation.generate_basic

    if requests_path:
        n_done = 0
        with open(requests_path, encoding="utf-8") as f, \
                (open(out, "w", encoding="utf-8") if out else nullcontext(sys.stdout)) as sink:
            for i, where, line in corpus.numbered_lines(f, requests_path):
                d = corpus.record(line, where)
                for key, value in (("temperature", temperature), ("seed", seed + i),
                                   ("max_tokens", max_tokens)):
                    if d.get(key) is None:
                        d[key] = value
                req = _request_from_dict(d, fmt, where)
                gen = decode_fn(model, vocab, req, syllabifier)
                sink.write(json.dumps({
                    "raw_text": gen.raw_text,
                    "forced": list(gen.forced_flags),
                    "truncated": gen.truncated,
                    "parse_error": gen.parse_error,
                    "request": d,
                }, ensure_ascii=False) + "\n")
                sink.flush()
                n_done += 1
        click.echo(f"{n_done} strophes generated", err=True)
        return

    if scheme is None:
        raise click.UsageError("either --scheme or --requests is required")
    req = _request_from_dict({
        "scheme": scheme, "year": year,
        "meters": meters.split(",") if meters else None,
        "strophe_meter": strophe_meter,
        "temperature": temperature, "seed": seed, "max_tokens": max_tokens,
    }, fmt)
    gen = decode_fn(model, vocab, req, syllabifier)
    click.echo("# machine-generated")
    click.echo(f"# config {json.dumps(_config(ctx))}")
    click.echo(gen.raw_text)
    if gen.parse_error:
        click.echo(f"# parse-error: {gen.parse_error}", err=True)


def _pairs(requests, generations, fmt):
    """Each (request, generated strophe) of the ``numbered_lines`` of a
    request and a generation file, read in step.  When one file ends
    before the other, the rest of the longer one is counted without
    being parsed, and the two counts are raised as a ``FormatError``."""
    for n, (r, g) in enumerate(zip_longest(requests, generations)):
        if r is None or g is None:
            # the shorter file ended after n records: count the longer one's rest
            longer = n + 1 + sum(1 for _ in (requests if g is None else generations))
            n_requests, n_generations = (longer, n) if g is None else (n, longer)
            raise FormatError(f"{n_requests} requests but {n_generations} generations")
        (_, r_where, r_line), (_, g_where, g_line) = r, g
        req = _request_from_dict(corpus.record(r_line, r_where), fmt, r_where)
        d = corpus.record(g_line, g_where)
        raw_text, forced = d.get("raw_text"), d.get("forced", [])
        truncated = d.get("truncated", False)
        if not isinstance(raw_text, str) or not isinstance(forced, list):
            raise FormatError(
                f"{g_where}: a generation needs a string 'raw_text' and a list 'forced'")
        if not all(isinstance(f, bool) for f in forced) or not isinstance(truncated, bool):
            raise FormatError(
                f"{g_where}: 'forced' must hold booleans and 'truncated' be a boolean")
        yield req, generation.GeneratedStrophe.from_text(raw_text, req, truncated, forced)


@cli.command()
@click.option("--requests", "requests_path", required=True, type=click.Path())
@click.option("--generations", "generations_path", required=True, type=click.Path())
@click.option("--report", "report_path", required=True, type=click.Path())
@click.option("--threshold", default=validation.DEFAULT_THRESHOLD, show_default=True,
              help="meter agreement below this classifies as N")
@format_option
@exceptions_option
@click.pass_context
def evaluate(ctx, requests_path, generations_path, report_path, threshold, fmt,
             exceptions):
    """Compute the five adherence metrics over generated strophes.

    The two files are read in step and each pair is scored as it is
    read, so memory does not grow with the files."""
    corpus.check_directory(report_path)
    fmt = DataFormat.parse(fmt)
    syllabifier = _syllabifier(exceptions)
    with open(requests_path, encoding="utf-8") as rf, \
            open(generations_path, encoding="utf-8") as gf:
        report = validation.evaluate(
            _pairs(corpus.numbered_lines(rf, requests_path),
                   corpus.numbered_lines(gf, generations_path), fmt),
            syllabifier, threshold)
    for key, value in report.to_dict().items():
        click.echo(f"{key}\t{value}")
    with corpus.replacing(report_path) as f:
        json.dump({"config": _config(ctx), "report": report.to_dict()}, f, indent=2)


@cli.command()
@click.option("--a", "path_a", required=True, type=click.Path())
@click.option("--b", "path_b", required=True, type=click.Path())
@click.option("--repetitions", default=100, show_default=True)
@click.option("--seed", default=0, show_default=True)
def significance(path_a, path_b, repetitions, seed):
    """Paired permutation test over two score files (one value per line)."""
    def read(path):
        scores = []
        with open(path, encoding="utf-8") as f:
            for _, where, line in corpus.numbered_lines(f, path):
                try:
                    values = [float(v) for v in line.split()]
                except ValueError as e:
                    raise FormatError(f"{where}: {e}") from None
                if len(values) > 1:
                    raise FormatError(
                        f"{where}: {len(values)} values; expected one score per line")
                if not math.isfinite(values[0]):
                    raise FormatError(f"{where}: {values[0]} is not a finite score")
                scores += values
        return scores
    p = validation.permutation_test(read(path_a), read(path_b), repetitions, seed)
    click.echo(f"p-value\t{p}")


def main(argv=None):
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.Abort:
        click.echo("aborted", err=True)
        return EXIT_INTERRUPTED
    except click.UsageError as e:
        click.echo(f"usage error: {e.format_message()}", err=True)
        return 2
    except FileNotFoundError as e:
        click.echo(f"missing file: {e}", err=True)
        return EXIT_MISSING_FILE
    except OSError as e:
        click.echo(f"cannot open file: {e}", err=True)
        return EXIT_MISSING_FILE
    except (CorpusFormatError, FormatError, TokenizerError) as e:
        click.echo(f"schema error: {e}", err=True)
        return EXIT_SCHEMA
    except ValueError as e:
        click.echo(f"error: {e}", err=True)
        return EXIT_OTHER
    return 0


if __name__ == "__main__":
    sys.exit(main())
