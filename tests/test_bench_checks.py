"""The benchmark's output checks accept a correctly trained model.

``perfbench/checks.py`` reads ``NGramModel.counts`` (items, in any
order) and ``next_dist``; a change to the model's store that broke those
reads would fail every ``train`` round of the benchmark.  The checks
import ``synth`` from their own directory, so both are loaded by file
path, ``synth`` under its own name as the checks expect.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from verseforge import ngram, tokenizers as tok

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_by_path(name):
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


@pytest.fixture(scope="module")
def checks():
    load_by_path("synth")
    return load_by_path("checks")


@pytest.mark.parametrize("order", [1, 3, 10])
def test_checks_pass_on_a_trained_fixture_model(checks, fixture_strophes, order):
    lines = [v.text for s in fixture_strophes[:60] for v in s.verses]
    vocab = tok.build_vocab(tok.TokenizerKind.UNICODE, lines)
    seqs = [tok.encode(vocab, line) + [vocab.eos_id] for line in lines]
    model = ngram.train(seqs, order=order, vocab=vocab)
    assert checks.check_context_counts(model, seqs) == []
    assert checks.check_next_dist_rows(model, seqs, 50, "fixture") == []
    assert len(model.counts) == sum(1 for _ in model.counts) > 0


@pytest.mark.parametrize("order", [3, 10])
def test_checks_catch_a_count_written_through_a_bucket(checks, fixture_strophes, order):
    """The benchmark's planted fault: one count raised through
    ``model.counts[ctx][tok]`` breaks the count sums but leaves every
    row a distribution."""
    lines = [v.text for s in fixture_strophes[:60] for v in s.verses]
    vocab = tok.build_vocab(tok.TokenizerKind.UNICODE, lines)
    seqs = [tok.encode(vocab, line) + [vocab.eos_id] for line in lines]
    model = ngram.train(seqs, order=order, vocab=vocab)
    ctx = next(c for c in model.counts if len(c) == 2)
    token = next(iter(model.counts[ctx]))
    model.counts[ctx][token] += 1
    assert checks.check_context_counts(model, seqs)
    assert checks.check_next_dist_rows(model, seqs, 50, "fixture") == []
