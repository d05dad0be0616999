"""Build the seed-independent artifacts the workloads need, with the code
under test, before any measured process starts:

- ``fixture_meter_verse.json``: the ``meter_verse`` text of every fixture
  strophe (the annotations that rewritten copies keep);
- ``model.vocab`` / ``model.ngram``: the ``unicode`` vocabulary and the
  order-10 model trained on ``MODEL_COPIES`` rewritten copies of the
  fixture poems that are not held out.

Usage: python3 perfbench/prepare.py --fixture FIXTURE --out DIR
"""

from __future__ import annotations

import argparse
import json
import sys

from verseforge import corpus, formats, ngram, tokenizers
from verseforge.formats import DataFormat
from verseforge.tokenizers import TokenizerKind

import synth

ORDER = 10
MODEL_SEED = "model"


def encode_all(strophes) -> list[str]:
    return [formats.encode(s, DataFormat.METER_VERSE) for s in strophes]


def train_unicode(texts, order):
    vocab = tokenizers.build_vocab(TokenizerKind.UNICODE,
                                   [line for t in texts for line in t.split("\n")])
    seqs = [tokenizers.encode(vocab, t) + [vocab.eos_id] for t in texts]
    return vocab, ngram.train(seqs, order, vocab)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--fixture", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    with open(f"{args.out}/fixture_meter_verse.json", "w", encoding="utf-8") as f:
        json.dump(encode_all(corpus.ingest(args.fixture)), f, ensure_ascii=False)

    poems = synth.scaled_corpus(synth.model_poems(synth.read_jsonl(args.fixture)),
                                synth.MODEL_COPIES, MODEL_SEED)
    synth.write_jsonl(poems, f"{args.out}/model_corpus.jsonl")
    vocab, model = train_unicode(encode_all(corpus.ingest(f"{args.out}/model_corpus.jsonl")), ORDER)
    tokenizers.save_vocab(vocab, f"{args.out}/model.vocab")
    ngram.save(model, f"{args.out}/model.ngram")
    print(f"prepare: model over {len(vocab)} tokens, {len(model.counts)} contexts, "
          f"{synth.distinct_words(poems)} distinct words", file=sys.stderr)


if __name__ == "__main__":
    main()
