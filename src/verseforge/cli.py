"""Command line front end: ingest/stats, tokenizer and LM training,
generation, evaluation and significance testing.

Every run is reproducible from its flags; the invocation config is
echoed into each output artifact.
"""

from __future__ import annotations

import json
import sys
from contextlib import nullcontext

import click

from . import corpus, formats, generation, ngram, tokenizers, validation
from .corpus import CorpusFormatError, MeterLabel, YearBucket
from .formats import DataFormat, FormatError
from .generation import GenerationError, GenerationRequest
from .ngram import NGramError
from .phonology import PhonologyError, Syllabifier
from .tokenizers import TokenizerError, TokenizerKind

EXIT_MISSING_FILE = 3
EXIT_SCHEMA = 4
EXIT_OTHER = 5


def _config(ctx) -> dict:
    cfg = {"subcommand": ctx.command.name}
    cfg.update({k: v for k, v in ctx.params.items() if v is not None})
    return cfg


def _syllabifier(path) -> Syllabifier | None:
    return Syllabifier.from_exceptions_file(path) if path else None


def _numbered_lines(f, path) -> list[tuple[str, str]]:
    """The non-blank lines of a file, each with its ``path:lineno``."""
    return [(f"{path}:{n}", line) for n, line in enumerate(f, 1) if line.strip()]


def _format_lines(strophes, fmt, syllabifier):
    return [formats.encode(s, fmt, syllabifier) for s in strophes]


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
    strophes = corpus.ingest(corpus_path)
    if min_scheme_count > 0:
        counts = corpus.stats(strophes).scheme_counts
        strophes = [s for s in strophes if counts[s.scheme] >= min_scheme_count]
    st = corpus.stats(strophes)
    with open(stats_out, "w", encoding="utf-8") as f:
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
    kind = TokenizerKind.parse(kind)
    syllabifier = _syllabifier(exceptions)
    lines = []
    for text in _format_lines(corpus.ingest(corpus_path), DataFormat.parse(fmt), syllabifier):
        lines.extend(text.split("\n"))
    vocab = tokenizers.build_vocab(kind, lines, vocab_size, syllabifier)
    tokenizers.save_vocab(vocab, out)
    with open(out, "a", encoding="utf-8") as f:
        f.write(f"#! config\t{json.dumps(_config(ctx))}\n")
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
    """Train the n-gram model on the train split of the corpus."""
    vocab = tokenizers.load_vocab(vocab_path)
    syllabifier = _syllabifier(exceptions)
    order = order or ngram.DEFAULT_ORDER[vocab.kind]
    strophes = corpus.ingest(corpus_path)
    train_set, _ = corpus.split(strophes, test_fraction, seed)
    seqs = (tokenizers.encode(vocab, text, syllabifier) + [vocab.eos_id]
            for text in _format_lines(train_set, DataFormat.parse(fmt), syllabifier))
    model = ngram.train(seqs, order, vocab, discount)
    ngram.save(model, out)
    with open(out, "a", encoding="utf-8") as f:
        f.write(f"config\t{json.dumps(_config(ctx))}\n")
    click.echo(f"order-{order} model over {model.vocab_size} tokens -> {out}")


def _record(line: str, where: str) -> dict:
    """One JSONL line, which must hold an object."""
    try:
        d = json.loads(line)
    except json.JSONDecodeError as e:
        raise FormatError(f"{where}: {e}") from None
    if not isinstance(d, dict):
        raise FormatError(f"{where}: expected a JSON object, got {type(d).__name__}")
    return d


_OPTIONAL_FIELD_TYPES = (
    ("meters", list), ("temperature", (int, float)), ("seed", int), ("max_tokens", int),
)


def _request_from_dict(d, fmt, where="request") -> GenerationRequest:
    if not isinstance(d.get("scheme"), str):
        raise FormatError(f"{where}: a request needs a string 'scheme'")
    for key, types in _OPTIONAL_FIELD_TYPES:
        if d.get(key) is not None and not isinstance(d[key], types):
            raise FormatError(f"{where}: bad {key!r} {d[key]!r}")
    meters = d.get("meters")
    return GenerationRequest(
        scheme=d["scheme"],
        year_bucket=YearBucket.parse(str(d.get("year", "NaN"))),
        fmt=fmt,
        strophe_meter=MeterLabel.parse(d["strophe_meter"]) if d.get("strophe_meter") else None,
        per_verse_meters=tuple(MeterLabel.parse(m) for m in meters) if meters else None,
        temperature=d.get("temperature", 1.0),
        seed=d.get("seed", 0),
        max_tokens=d.get("max_tokens", 2000),
    )


@cli.command()
@click.option("--model", "model_path", required=True, type=click.Path())
@click.option("--vocab", "vocab_path", required=True, type=click.Path())
@click.option("--scheme", default=None)
@click.option("--year", default="NaN", show_default=True)
@click.option("--meters", default=None, help="comma-separated per-verse meters")
@click.option("--strophe-meter", default=None)
@click.option("--decoding", default="forced", show_default=True,
              type=click.Choice(["basic", "forced"]))
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
    decode_fn = generation.generate_forced if decoding == "forced" else generation.generate_basic

    if requests_path:
        n_done = 0
        with open(requests_path, encoding="utf-8") as f, \
                (open(out, "w", encoding="utf-8") if out else nullcontext(sys.stdout)) as sink:
            for i, line in enumerate(f):
                line = line.strip()
                if not line:
                    continue
                where = f"{requests_path}:{i + 1}"
                d = _record(line, where)
                d.setdefault("temperature", temperature)
                d.setdefault("seed", seed + i)
                d.setdefault("max_tokens", max_tokens)
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
    """Compute the five adherence metrics over generated strophes."""
    fmt = DataFormat.parse(fmt)
    syllabifier = _syllabifier(exceptions)
    pairs = []
    with open(requests_path, encoding="utf-8") as rf, \
            open(generations_path, encoding="utf-8") as gf:
        req_lines = _numbered_lines(rf, requests_path)
        gen_lines = _numbered_lines(gf, generations_path)
    if len(req_lines) != len(gen_lines):
        raise FormatError(
            f"{len(req_lines)} requests but {len(gen_lines)} generations")
    for (r_where, rl), (g_where, gl) in zip(req_lines, gen_lines):
        req = _request_from_dict(_record(rl, r_where), fmt, r_where)
        g = _record(gl, g_where)
        raw_text, forced = g.get("raw_text"), g.get("forced", [])
        if not isinstance(raw_text, str) or not isinstance(forced, list):
            raise FormatError(
                f"{g_where}: a generation needs a string 'raw_text' and a list 'forced'")
        try:
            parsed = formats.parse(raw_text, fmt)
            error = None
        except FormatError as e:
            parsed, error = None, str(e)
        gen = generation.GeneratedStrophe(
            raw_text=raw_text, request=req, parsed=parsed,
            parse_error=error, truncated=bool(g.get("truncated")),
            forced_flags=tuple(forced))
        pairs.append((req, gen))
    report = validation.evaluate(pairs, syllabifier, threshold)
    for key, value in report.to_dict().items():
        click.echo(f"{key}\t{value}")
    with open(report_path, "w", encoding="utf-8") as f:
        json.dump({"config": _config(ctx), "report": report.to_dict()}, f, indent=2)


@cli.command()
@click.option("--a", "path_a", required=True, type=click.Path())
@click.option("--b", "path_b", required=True, type=click.Path())
@click.option("--repetitions", default=100, show_default=True)
@click.option("--seed", default=0, show_default=True)
def significance(path_a, path_b, repetitions, seed):
    """Paired permutation test over two score files (one value per line)."""
    def read(path):
        with open(path, encoding="utf-8") as f:
            return [float(l) for l in f.read().split()]
    p = validation.permutation_test(read(path_a), read(path_b), repetitions, seed)
    click.echo(f"p-value\t{p}")


def main(argv=None):
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as e:
        return e.exit_code
    except click.UsageError as e:
        click.echo(f"usage error: {e.format_message()}", err=True)
        return 2
    except FileNotFoundError as e:
        click.echo(f"missing file: {e}", err=True)
        return EXIT_MISSING_FILE
    except (CorpusFormatError, FormatError, TokenizerError) as e:
        click.echo(f"schema error: {e}", err=True)
        return EXIT_SCHEMA
    except (NGramError, PhonologyError, GenerationError, ValueError) as e:
        click.echo(f"error: {e}", err=True)
        return EXIT_OTHER
    return 0


if __name__ == "__main__":
    sys.exit(main())
