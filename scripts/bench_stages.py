#!/usr/bin/env python3
"""Time the stages that turn a gold strophe into token ids and a model,
and the model into scored strophes: ingest (``corpus.ingest``), format
encode (``formats.encode``),
tokenizer encode (``tokenizers.encode``) of each tokenizer kind, the
vocabulary build (``tokenizers.build_vocab``) of ``syllable`` and ``our``
as ``train-tokenizer`` runs it, and for
``unicode`` at its default order the model's training (``ngram.train``),
its held-out perplexity (``NGramModel.perplexity``), ``save``, ``load``
through the image, the parse of its text alone (``ngram._parse``) and
forced generation (``generation.generate_forced``); and the evaluation
(``validation.evaluate``) of the gold strophes, and the parse of their
texts (``GeneratedStrophe.from_text``); on the fixture corpus and on a 2x
scaled copy of it.

Run from the repo root:

    python3 scripts/bench_stages.py [--checkout DIR[=LABEL] ...] \\
        [--repeats N] [--seed S] [--out FILE]

Each ``--checkout`` (default: this repository) is a source tree whose
``src/verseforge`` is measured; with two or more, the runs of each stage
alternate between them, so that a slow spell of the host falls on both.
Every run is a process of its own, which ingests the corpus, builds
what the stage needs untimed and then times one pass of the stage over
every item, on a cold token memo.  ``ingest`` reads the corpus file
once; its items are the strophes it returns.  The model stages read a
model that an earlier process of the same checkout trained on the whole
corpus and saved, so that a load run's peak RSS is the load's own; their
item count is the model's contexts, and ``lm_train``'s is the tokens it counts,
end-of-strophe ids included.  ``vocab_build`` builds the vocabulary of
the encoded texts at ``train-tokenizer``'s default budget
(``VOCAB_BUDGET``) in one call; its items are the texts.
``perplexity`` trains a model on the train split of ``train-lm``'s defaults (``TEST_FRACTION``, seed 0)
untimed and times one ``perplexity`` over the held-out split; its items
are the tokens scored, and the row holds the perplexity.  ``generate`` runs ``GENERATE_REQUESTS``
forced requests, spread over the corpus's strophes, each with its
scheme, year and gold meters and its index as seed, on that model; its
items are strophes, and its tokens the ids of the generated texts, fed
annotation prefixes included, and its row holds the hits and misses of
the model's table cache, counted by a second, untimed pass of the same
requests on a freshly loaded model: a draw that finds no table calls
``next_dist`` once.  ``evaluate`` scores the ``meter_verse``
text of every strophe against a request of its scheme, year and gold
meters, in calls of ``EVAL_BATCH`` strophes, on a fresh syllabifier;
its items are verses, and the row holds the hits and misses of the
token memo and of ``validation``'s caches during the pass (null for a
cache the checkout lacks).  ``parse`` reads the ``meter_verse`` text of
every strophe with ``GeneratedStrophe.from_text`` against its request,
on cold parse memos, in three variants named in the kind column:
``encoded``, the text as ``formats.encode`` writes it; ``forced_floor``,
where each verse's ending hint is made unique, but a verse that rhymes
with an earlier one copies that verse's annotation prefix, as forced
decoding does; and ``no_repeat``, where every hint is unique.  Its items
are strophes, and the row holds the hits and misses of the memos of
header lines, annotation prefixes and year buckets (null where the
checkout lacks them); a ``tokenizer_encode`` row of ``our`` holds
those of the vocabulary's piece memo, and one of ``syllable`` those of
the syllabifier's, emptied after the vocabulary is built (null where the
checkout lacks it).  The corpora come from this
repository: its fixture, and ``perfbench/synth.py``'s ``scaled_corpus``
of it with 2 copies and seed ``--seed``.  Times are scaled by
``perfbench/hostspeed.py``'s reference, timed around each window of
``WINDOW`` items, so that they read as on a host where the reference
takes 1 ms, as the benchmark's end-to-end times do.

One JSON row per checkout, stage, corpus and kind: the checkout's label
(``git describe --always --dirty`` unless given), the stage, corpus,
tokenizer kind (null for ingest, format encode and evaluate; the
variant for parse) and format
(null for ingest), the item
count, the median scaled wall time of the repeats with each repeat's, the
items per second at that median and the largest peak RSS of the runs;
``generate`` rows add the tokens and tokens per second, ``perplexity``
rows the perplexity, and the rows of the stages with caches their
counts.  The rows
are printed, and with ``--out`` written to that JSON file's ``"stages"``
list, its other keys kept.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
FIXTURE = ROOT / "tests" / "data" / "fixture_corpus.jsonl"
SCALED_COPIES = 2
WINDOW = 100            # items per window between two host-speed references
BPE_VOCAB_SIZE = 200    # the size of the benchmark's ``our`` vocabulary
VOCAB_BUDGET = 40000    # train-tokenizer's default --vocab-size, of the vocab_build stage
FORMAT = "meter_verse"  # the format whose texts the tokenizers encode
MODEL_KIND = "unicode"  # the kind whose model the model stages train, save and load
MODEL_STAGES = ("save", "load", "load_text")  # the stages that read the saved model
GENERATE_REQUESTS = 200  # forced requests of the generate stage
TEST_FRACTION = 0.05     # the held-out share of the perplexity stage, train-lm's default
EVAL_BATCH = 50          # strophes per evaluate call, as in the benchmark's workload
PARSE_VARIANTS = ("encoded", "forced_floor", "no_repeat")  # the texts the parse stage reads
# (stage, tokenizer kind, format)
STAGES = [("ingest", None, None), ("format_encode", None, "verse_par"),
          ("format_encode", None, "meter_verse")] + [
    ("tokenizer_encode", kind, FORMAT) for kind in ("unicode", "syllable", "our")] + [
    ("vocab_build", kind, FORMAT) for kind in ("syllable", "our")] + [
    (stage, MODEL_KIND, FORMAT)
    for stage in ("lm_train", "perplexity", *MODEL_STAGES, "generate")] + [
    ("evaluate", None, FORMAT)] + [("parse", variant, FORMAT) for variant in PARSE_VARIANTS]


def encoded(corpus_path: str, fmt: str, kind: str):
    """The ``fmt`` texts of the corpus's strophes and the ``kind``
    vocabulary built from them."""
    from verseforge import corpus, formats, tokenizers
    from verseforge.formats import DataFormat
    from verseforge.tokenizers import TokenizerKind

    texts = [formats.encode(s, DataFormat.parse(fmt)) for s in corpus.ingest(corpus_path)]
    return texts, tokenizers.build_vocab(TokenizerKind.parse(kind), texts, BPE_VOCAB_SIZE)


def sequences(vocab, texts) -> list[list[int]]:
    from verseforge import tokenizers

    return [tokenizers.encode(vocab, t) + [vocab.eos_id] for t in texts]


def save_model(corpus_path: str, model_dir: str) -> None:
    """Train the ``MODEL_KIND`` model of the corpus at its default order
    and save it, text and image, as ``model_dir/model.ngram``, and its
    vocabulary as ``model_dir/model.vocab``."""
    from verseforge import ngram, tokenizers

    texts, vocab = encoded(corpus_path, FORMAT, MODEL_KIND)
    model = ngram.train(sequences(vocab, texts), ngram.DEFAULT_ORDER[vocab.kind], vocab)
    ngram.save(model, os.path.join(model_dir, "model.ngram"))
    tokenizers.save_vocab(vocab, os.path.join(model_dir, "model.vocab"))


def gold_requests(strophes, fmt):
    """A request of each strophe's scheme, year and gold meters, seeded
    by its index."""
    from verseforge.generation import GenerationRequest

    return [GenerationRequest(s.scheme, s.year_bucket, fmt, seed=i,
                              per_verse_meters=tuple(v.gold_meter for v in s.verses))
            for i, s in enumerate(strophes)]


def variant_text(text: str, scheme: str, variant: str, tag: str) -> str:
    """The ``meter_verse`` ``text`` of a strophe of ``scheme`` as the
    parse stage reads it in ``variant``; ``tag``, unique to the strophe,
    and the verse's index make a hint unique."""
    if variant == "encoded":
        return text
    header, *lines = text.split("\n")
    sep = " # "
    out, first = [header], {}
    for i, (letter, line) in enumerate(zip(scheme, lines)):
        meter, syl, hint, verse = line.split(sep, 3)
        prefix = sep.join([meter, syl, f"{hint}{tag}.{i}"])
        if variant == "forced_floor" and letter != "X":
            prefix = first.setdefault(letter, prefix)
        out.append(prefix + sep + verse)
    return "\n".join(out)


def parse_memos(fmt) -> dict:
    """The memos that parsing ``fmt`` text reads, None for one that the
    package lacks."""
    from verseforge import corpus, formats

    headers, annotations = (getattr(formats, name, None) for name in ("_HEADERS", "_ANNOTATIONS"))
    return {"headers": headers and headers[fmt], "annotations": annotations and annotations[fmt],
            "buckets": getattr(corpus, "_BUCKETS", None)}


def cache_counts() -> dict:
    """[hits, misses] so far of each of ``validation``'s caches, None for
    one that the package lacks."""
    from verseforge import validation

    caches = {name: getattr(validation, name, None)
              for name in ("_pattern_scores", "_pooled", "normalize_clausula")}
    return {name: cache and list(cache.cache_info()[:2]) for name, cache in caches.items()}


def table_counts(model, vocab, requests) -> list[int]:
    """[hits, misses] of ``model``'s table cache over the forced
    generation of ``requests``: every draw is a lookup, and every miss
    calls ``next_dist`` once."""
    from verseforge import generation, ngram

    draws = misses = 0
    sample, next_dist = ngram.sample_with_rng, model.next_dist

    def counted_sample(*args):
        nonlocal draws
        draws += 1
        return sample(*args)

    def counted_next_dist(context):
        nonlocal misses
        misses += 1
        return next_dist(context)

    model.next_dist, ngram.sample_with_rng = counted_next_dist, counted_sample
    try:
        for request in requests:
            generation.generate_forced(model, vocab, request)
    finally:
        ngram.sample_with_rng = sample
    return [draws - misses, misses]


def run_stage(stage: str, kind: str | None, fmt: str | None, corpus_path: str,
              model_dir: str) -> dict:
    """One timed pass of ``stage`` over the strophes of ``corpus_path``,
    or over the model that ``save_model`` saved in ``model_dir``."""
    import hostspeed
    from verseforge import corpus, formats, generation, ngram, phonology, tokenizers, validation
    from verseforge.formats import DataFormat

    model_path = os.path.join(model_dir, "model.ngram")
    extra = {}
    if stage == "ingest":
        items = [corpus_path]
        step = corpus.ingest
    elif stage == "format_encode":
        fmt = DataFormat.parse(fmt)
        items = corpus.ingest(corpus_path)

        def step(s):
            formats.encode(s, fmt)
    elif stage == "tokenizer_encode":
        items, vocab = encoded(corpus_path, fmt, kind)
        # the piece memo, None where the checkout lacks it; building a
        # syllable vocabulary fills the syllabifier's
        owner = phonology._DEFAULT if kind == "syllable" else vocab
        memo = getattr(owner, "piece_tokens", None)
        if memo:
            memo.clear()

        def step(text):
            tokenizers.encode(vocab, text)
    elif stage == "vocab_build":
        kind = tokenizers.TokenizerKind.parse(kind)
        items = [[formats.encode(s, DataFormat.parse(fmt)) for s in corpus.ingest(corpus_path)]]

        def step(texts):
            return tokenizers.build_vocab(kind, texts, VOCAB_BUDGET)
    elif stage == "lm_train":
        texts, vocab = encoded(corpus_path, fmt, kind)
        items = [sequences(vocab, texts)]

        def step(seqs):
            return ngram.train(seqs, ngram.DEFAULT_ORDER[vocab.kind], vocab)
    elif stage == "perplexity":
        texts, vocab = encoded(corpus_path, fmt, kind)
        train_set, held_out = corpus.split(list(range(len(texts))), TEST_FRACTION, 0)
        model = ngram.train(sequences(vocab, [texts[i] for i in train_set]),
                            ngram.DEFAULT_ORDER[vocab.kind], vocab)
        items = [sequences(vocab, [texts[i] for i in held_out])]
        step = model.perplexity
    elif stage == "save":
        items = [ngram.load(model_path)]

        def step(model):
            ngram.save(model, os.path.join(model_dir, "resaved.ngram"))
            return model
    elif stage == "generate":
        vocab = tokenizers.load_vocab(os.path.join(model_dir, "model.vocab"))
        model = ngram.load(model_path, vocab)
        strophes = corpus.ingest(corpus_path)
        items = gold_requests(strophes[::max(len(strophes) // GENERATE_REQUESTS, 1)],
                              DataFormat.parse(fmt))[:GENERATE_REQUESTS]

        def step(request):
            return generation.generate_forced(model, vocab, request)
    elif stage == "evaluate":
        fmt = DataFormat.parse(fmt)
        strophes = corpus.ingest(corpus_path)
        pairs = [(r, generation.GeneratedStrophe.from_text(formats.encode(s, fmt), r))
                 for s, r in zip(strophes, gold_requests(strophes, fmt))]
        items = [pairs[lo:lo + EVAL_BATCH] for lo in range(0, len(pairs), EVAL_BATCH)]
        syllabifier = phonology.Syllabifier()
        before = cache_counts()

        def step(batch):
            return validation.evaluate(batch, syllabifier)
    elif stage == "parse":
        fmt = DataFormat.parse(fmt)
        strophes = corpus.ingest(corpus_path)
        items = [(variant_text(formats.encode(s, fmt), s.scheme, kind, f"~{i}"), r)
                 for i, (s, r) in enumerate(zip(strophes, gold_requests(strophes, fmt)))]
        memos = parse_memos(fmt)
        for memo in filter(None, memos.values()):
            memo.clear()

        def step(item):
            return generation.GeneratedStrophe.from_text(*item)
    else:
        items = [model_path]
        step = ngram.load if stage == "load" else ngram._parse
    clock = time.perf_counter
    windows = hostspeed.Windows()
    windows.start()
    raw_s = scaled_s = 0.0
    # only the stages whose counts read every output keep them
    outs = [] if stage in ("generate", "evaluate", "parse") else None
    for lo in range(0, len(items), WINDOW):
        t = clock()
        for item in items[lo:lo + WINDOW]:
            out = step(item)
            if outs is not None:
                outs.append(out)
        raw = clock() - t
        raw_s += raw
        scaled_s += raw * windows.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if stage in ("lm_train", "perplexity"):
        n = sum(map(len, items[0]))
    elif stage in MODEL_STAGES:
        n = len(out.counts)
    elif stage == "ingest":
        n = len(out)
    elif stage == "vocab_build":
        n = len(items[0])
    elif stage == "evaluate":
        verses = [text for _, g in pairs if g.parsed for _, text in g.parsed.lines]
        n = len(verses)
        assert sum(report.n_verses for report in outs) == n
        # the token memo, fresh and never full here, misses once per distinct token
        misses = len(syllabifier._tokens)
        extra["caches"] = {"token_memo": [sum(len(t.split()) for t in verses) - misses, misses]}
        for name, counts in cache_counts().items():
            extra["caches"][name] = counts and [a - b for a, b in zip(counts, before[name])]
    else:
        n = len(items)
    if stage == "perplexity":
        extra["perplexity"] = out
    elif stage == "tokenizer_encode" and kind != "unicode":
        # a memo emptied before the pass, never full here, misses once per distinct piece
        lookups = sum(len(tokenizers.pieces(line)) for text in items for line in text.split("\n"))
        extra["caches"] = {"piece_memo": memo and [lookups - len(memo), len(memo)]}
    elif stage == "parse":
        assert not any(g.parse_error for g in outs)
        # memos emptied before the pass, never full here, miss once per
        # distinct key: each text looks its header line up, each verse
        # its prefix, and each header that misses its year bucket
        lookups = {"headers": len(items), "annotations": sum(len(g.parsed.lines) for g in outs),
                   "buckets": memos["headers"] and len(memos["headers"])}
        extra["caches"] = {name: None if memo is None else [lookups[name] - len(memo), len(memo)]
                           for name, memo in memos.items()}
    elif stage == "generate":
        extra["tokens"] = sum(len(tokenizers.encode(vocab, g.raw_text)) for g in outs)
        extra["caches"] = {"tables": table_counts(ngram.load(model_path, vocab), vocab, items)}
    return {"items": n, "wall_s": scaled_s, "raw_s": raw_s, "peak_rss_mb": peak_rss_mb,
            **extra}


def label_of(checkout: Path) -> str:
    try:
        return subprocess.run(["git", "-C", str(checkout), "describe", "--always", "--dirty"],
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return checkout.name


def child(checkout: Path, *args) -> str:
    """This script with ``args`` in a process of its own, on
    ``checkout``'s package; its standard output."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(checkout / "src"), str(PERFBENCH)]))
    return subprocess.run([sys.executable, __file__, *map(str, args)],
                          env=env, capture_output=True, text=True, check=True).stdout


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--checkout", action="append", default=[],
                    help="DIR or DIR=LABEL of a source tree to measure (repeatable)")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--seed", default="0", help="seed of the scaled corpus")
    ap.add_argument("--out", help="JSON file whose 'stages' list the rows replace")
    ap.add_argument("--run-stage", nargs=5,
                    metavar=("STAGE", "KIND", "FORMAT", "CORPUS", "MODEL_DIR"),
                    help=argparse.SUPPRESS)
    ap.add_argument("--save-model", nargs=2, metavar=("CORPUS", "MODEL_DIR"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.run_stage:
        stage, kind, fmt, corpus_path, model_dir = args.run_stage
        print(json.dumps(run_stage(stage, kind or None, fmt or None, corpus_path, model_dir)))
        return
    if args.save_model:
        save_model(*args.save_model)
        return

    sys.path.insert(0, str(PERFBENCH))
    import synth

    checkouts = []
    for spec in args.checkout or [str(ROOT)]:
        path, _, label = spec.partition("=")
        path = Path(path).resolve()
        checkouts.append((path, label or label_of(path)))
    with tempfile.TemporaryDirectory() as tmp:
        corpora = {"fixture": FIXTURE, f"scaled{SCALED_COPIES}x": Path(tmp) / "scaled.jsonl"}
        synth.write_jsonl(synth.scaled_corpus(synth.read_jsonl(FIXTURE), SCALED_COPIES,
                                              args.seed), corpora[f"scaled{SCALED_COPIES}x"])
        model_dirs = {}
        for i, (path, label) in enumerate(checkouts):
            for name, corpus_path in corpora.items():
                model_dirs[label, name] = Path(tmp) / f"model-{i}-{name}"
                model_dirs[label, name].mkdir()
                child(path, "--save-model", corpus_path, model_dirs[label, name])
        runs = {}
        for r in range(args.repeats):
            for name, corpus_path in corpora.items():
                for stage, kind, fmt in STAGES:
                    # alternate which checkout runs first
                    for path, label in checkouts[r % 2:] + checkouts[:r % 2]:
                        out = child(path, "--run-stage", stage, kind or "", fmt or "", corpus_path,
                                    model_dirs[label, name])
                        runs.setdefault((label, stage, name, kind, fmt), []).append(
                            json.loads(out.splitlines()[-1]))
    rows = []
    for (label, stage, name, kind, fmt), results in runs.items():
        wall = statistics.median(x["wall_s"] for x in results)
        rows.append({"commit": label, "stage": stage, "corpus": name, "kind": kind,
                     "format": fmt, "items": results[0]["items"], "wall_s": round(wall, 5),
                     "wall_s_runs": [round(x["wall_s"], 5) for x in results],
                     "items_per_s": round(results[0]["items"] / wall, 1),
                     "peak_rss_mb": round(max(x["peak_rss_mb"] for x in results), 1)})
        if "tokens" in results[0]:
            rows[-1].update(tokens=results[0]["tokens"],
                            tokens_per_s=round(results[0]["tokens"] / wall, 1))
        for key in ("perplexity", "caches"):
            if key in results[0]:
                rows[-1][key] = results[0][key]
    rows.sort(key=lambda row: (row["stage"], row["corpus"], row["kind"] or "",
                               row["format"] or "", row["commit"]))
    for row in rows:
        print(json.dumps(row))
    if args.out:
        doc = json.loads(Path(args.out).read_text(encoding="utf-8")) if Path(args.out).exists() \
            else {}
        doc["stages"] = rows
        Path(args.out).write_text(json.dumps(doc, indent=1, ensure_ascii=False) + "\n",
                                  encoding="utf-8")


if __name__ == "__main__":
    main()
