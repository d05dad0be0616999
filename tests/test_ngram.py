import json
import logging
import math
import operator
import re
import tracemalloc
import warnings
from array import array
from bisect import bisect_left, bisect_right
from pathlib import Path
from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from verseforge import formats, ngram, tokenizers as tok
from verseforge.formats import DataFormat
from verseforge.ngram import DEFAULT_DISCOUNT, NGramError, NGramModel
from verseforge.tokenizers import TokenizerKind


BIG = 2**63


def counted(order, vocab_size, *seqs):
    """A model holding the counts of ``seqs``, built by hand."""
    return NGramModel.from_counts(reference_counts(seqs, order), order, vocab_size)


def tiny_model():
    """order-2 model over a 3-token vocabulary, trained on [0, 0, 1]."""
    return counted(2, 3, [0, 0, 1])


def test_absolute_discounting_by_hand():
    m = tiny_model()
    # unigram level: counts {0: 2, 1: 1}, discount 0.75, uniform base 1/3
    # p1 = [(2-d)/3, (1-d)/3, 0] + (d*2/3) * uniform
    p1 = m.next_dist([2])  # context unseen at the bigram level
    assert p1 == pytest.approx([1.25 / 3 + 0.5 / 3, 0.25 / 3 + 0.5 / 3, 0.5 / 3])
    # bigram level on context (0,): counts {0: 1, 1: 1}
    # p2 = [(1-d)/2, (1-d)/2, 0] + (d*2/2) * p1
    p2 = m.next_dist([0])
    assert p2 == pytest.approx([0.125 + 0.75 * p1[0],
                                0.125 + 0.75 * p1[1],
                                0.75 * p1[2]])


def test_distributions_sum_to_one():
    m = tiny_model()
    for ctx in ([], [0], [1], [2], [0, 1], [1, 0, 2]):
        assert m.next_dist(ctx).sum() == pytest.approx(1.0)
        assert (m.next_dist(ctx) >= 0).all()


def test_only_trailing_order_minus_one_tokens_matter():
    m = tiny_model()
    assert np.array_equal(m.next_dist([2, 1, 0]), m.next_dist([0]))


def test_argmax_continuation():
    vocab = tok.build_vocab(tok.TokenizerKind.UNICODE, ["abababab"])
    m = ngram.train([tok.encode(vocab, "abababab")], order=3, vocab=vocab)
    dist = m.next_dist(tok.encode(vocab, "ab"))
    assert int(np.argmax(dist)) == vocab.id_of["a"]
    dist = m.next_dist(tok.encode(vocab, "ba"))
    assert int(np.argmax(dist)) == vocab.id_of["b"]


def test_constructor_validation():
    with pytest.raises(NGramError, match="order"):
        NGramModel(order=0, vocab_size=3)
    with pytest.raises(NGramError, match="discount"):
        NGramModel(order=2, vocab_size=3, discount=1.5)
    with pytest.raises(NGramError, match="empty"):
        ngram.train([], order=2, vocab=tok.build_vocab(tok.TokenizerKind.UNICODE, ["ab"]))


def reference_counts(sequences, order):
    """What ``train`` counts, as a loop over every context of up to
    ``order - 1`` ids of every position."""
    counts = {}
    for ids in sequences:
        ids = list(ids)
        for i, token in enumerate(ids):
            for k in range(min(order, i + 1)):
                bucket = counts.setdefault(tuple(ids[i - k:i]), {})
                bucket[token] = bucket.get(token, 0) + 1
    return counts


id_sequences = st.lists(st.lists(st.integers(0, 4), max_size=14), min_size=1, max_size=5)


@settings(max_examples=300, deadline=None)
@given(order=st.integers(1, 6), sequences=id_sequences)
@example(order=3, sequences=[[]])
def test_counts_match_the_per_position_loop(order, sequences):
    vocab = tok.build_vocab(tok.TokenizerKind.UNICODE, ["ab"])
    model = ngram.train(iter(sequences), order, vocab)
    assert model.counts == reference_counts(sequences, order)


def cached_table(model, context, temperature):
    """The table that ``sample_with_rng`` draws from after ``context``,
    read from the model's cache after one draw."""
    ngram.sample_with_rng(model, context, temperature, np.random.default_rng(0))
    n = model.order - 1
    return model._tables[tuple(context[-n:]) if n else (), temperature]


def test_sample_determinism_and_temperature():
    m = tiny_model()
    def sample(temperature, seed):
        return ngram.sample_with_rng(m, [0], temperature, np.random.default_rng(seed))

    draws = {sample(1.0, s) for s in range(50)}
    assert len(draws) > 1  # actually stochastic across seeds
    assert sample(1.0, 7) == sample(1.0, 7)
    # near-zero temperature collapses onto the argmax
    top = int(np.argmax(m.next_dist([0])))
    assert all(sample(0.01, s) == top for s in range(20))
    with pytest.raises(NGramError, match="temperature"):
        sample(0.0, 1)


def test_high_temperature_flattens():
    m = tiny_model()
    rng = np.random.default_rng(0)
    hot = [ngram.sample_with_rng(m, [0], 50.0, rng) for _ in range(600)]
    # at T=50 the distribution is near-uniform over 3 symbols
    freqs = np.bincount(hot, minlength=3) / len(hot)
    assert freqs.min() > 0.2


def test_perplexity():
    vocab = tok.build_vocab(tok.TokenizerKind.UNICODE, ["abababab"])
    m = ngram.train([tok.encode(vocab, "abababab")], order=3, vocab=vocab)
    seen = m.perplexity([tok.encode(vocab, "abab")])
    assert 1.0 < seen < len(vocab)
    assert seen < m.perplexity([tok.encode(vocab, "bbaa")])
    with pytest.raises(NGramError):
        m.perplexity([])


def test_logprob_is_finite_negative():
    m = tiny_model()
    lp = m.logprob([0, 0, 1, 2])
    assert np.isfinite(lp) and lp < 0


def corpus_model(fixture_strophes):
    lines = [v.text for s in fixture_strophes[:40] for v in s.verses]
    vocab = tok.build_vocab(tok.TokenizerKind.UNICODE, lines)
    seqs = [tok.encode(vocab, line) + [vocab.eos_id] for line in lines]
    return ngram.train(seqs, order=5, vocab=vocab), vocab, seqs


def load_by(path, vocab=None, *, image: bool):
    """``ngram.load`` through the image that ``save`` wrote beside
    ``path``, failing if the text is parsed; or, with the image removed,
    through the text."""
    if not image:
        Path(f"{path}.img").unlink(missing_ok=True)
        return ngram.load(path, vocab)
    with patch.object(ngram, "_parse", side_effect=AssertionError("the text was parsed")):
        return ngram.load(path, vocab)


# Each test that takes these loads a saved model first through its image,
# then, with the image removed, through the text.
IMAGE_THEN_TEXT = (True, False)


def test_save_load_reproduces_distributions(tmp_path, fixture_strophes):
    m, vocab, seqs = corpus_model(fixture_strophes)
    path = tmp_path / "m.ngram"
    ngram.save(m, path)
    for image in IMAGE_THEN_TEXT:
        loaded = load_by(path, vocab, image=image)
        assert loaded.order == m.order and loaded.discount == m.discount
        assert loaded.counts == m.counts
        rng = np.random.default_rng(3)
        flat = [i for s in seqs for i in s]
        for _ in range(50):
            at = rng.integers(4, len(flat))
            ctx = flat[at - 4:at]
            assert np.array_equal(loaded.next_dist(ctx), m.next_dist(ctx))


def trie_layout(model):
    """The node arrays of a model's store, with each node's events in
    place of its bucket id (a loaded model shares equal buckets)."""
    trie = model._trie
    return (list(trie.kids), list(trie.tok), trie.starts,
            [trie.events(b) if b >= 0 else None for b in trie.bucket])


def test_train_keys_no_more_digits_than_its_longest_sequence_holds(fixture_strophes):
    """Past its longest sequence, ``order`` changes no node: the model
    holds the layout of one trained at that length + 1."""
    _, vocab, seqs = corpus_model(fixture_strophes)
    longest = max(map(len, seqs))
    shift = ngram._Keys.shift
    with patch.object(ngram._Keys, "shift", autospec=True, side_effect=shift) as spy:
        past = ngram.train(seqs, 4 * longest, vocab)
    assert spy.call_args.args[2] == longest
    assert trie_layout(past) == trie_layout(ngram.train(seqs, longest + 1, vocab))


def test_trained_loaded_and_hand_built_models_share_one_layout(tmp_path, fixture_strophes):
    m, _, _ = corpus_model(fixture_strophes)
    path = tmp_path / "m.ngram"
    ngram.save(m, path)
    built = NGramModel.from_counts(m.counts, m.order, m.vocab_size)
    for image in IMAGE_THEN_TEXT:
        loaded = load_by(path, image=image)
        assert trie_layout(loaded) == trie_layout(built) == trie_layout(m)
        assert len(loaded._trie.total) == len(m._trie.total)  # both share equal buckets
    # in reversed order every context comes before its prefixes
    items = list(m.counts.items())
    shuffled = [items[i] for i in np.random.default_rng(7).permutation(len(items))]
    for ordered in (items[::-1], shuffled):
        rebuilt = NGramModel.from_counts(dict(ordered), m.order, m.vocab_size)
        assert trie_layout(rebuilt) == trie_layout(m)


def resigned(edit):
    """An image mutation: ``edit(head, arrays)`` applied to the decoded
    image, whose sha256 is then computed afresh, as ``save`` computes
    it, so that only the checks after it can refuse the image."""
    def mutate(raw, path):
        at = len(ngram.IMAGE_MAGIC) + 8
        offset = at + int.from_bytes(raw[at - 8:at], "little")
        head, arrays = json.loads(raw[at:offset]), {}
        for name, n in zip(ngram.IMAGE_ARRAYS, head["lengths"]):
            dtype = np.float64 if name == "total" else np.int64
            arrays[name] = np.frombuffer(raw, dtype, n, offset).copy()
            offset += 8 * n
        del head["sha256"]
        edit(head, arrays)
        head["sha256"] = ngram._image_digest(path, head, arrays.values())
        data = json.dumps(head).encode()
        return b"".join([ngram.IMAGE_MAGIC, len(data).to_bytes(8, "little"), data,
                         *(a.tobytes() for a in arrays.values())])
    return mutate


def set_item(name, at, value):
    return resigned(lambda head, arrays: arrays[name].__setitem__(at, value))


def set_field(key, value):
    return resigned(lambda head, arrays: head.__setitem__(key, value))


HEAD = len(ngram.IMAGE_MAGIC) + 8  # where an image's JSON header starts


@pytest.mark.parametrize("mutate, reason", [
    (lambda raw, path: b"X" + raw[1:], "not a model image"),
    (lambda raw, path: raw[:HEAD + 5], "header runs past the end"),
    (lambda raw, path: raw[:HEAD] + b"[" + raw[HEAD + 1:], "Expecting"),
    (lambda raw, path: ngram.IMAGE_MAGIC + (100_000).to_bytes(8, "little") + b"[" * 100_000,
     "malformed header"),
    (lambda raw, path: raw.replace(b'"order"', b'"ordex"', 1), "malformed header"),
    (lambda raw, path: re.sub(rb'"lengths": \[\d', b'"lengths": [-', raw, count=1),
     "malformed header"),
    (lambda raw, path: raw + b"\0", "bytes where the header gives"),
    (lambda raw, path: raw[:-8], "bytes where the header gives"),
    (lambda raw, path: raw[:-1] + bytes([raw[-1] ^ 1]), "sha256 differs"),
    (set_item("kids", 0, 2), "kids does not hold a trie"),
    (set_item("kids", 5, 0), "kids does not hold a trie"),
    (set_item("bucket", 0, -2), "bucket does not hold a trie"),
    (resigned(lambda head, arrays: arrays["bucket"].__setitem__(-1, len(arrays["total"]))),
     "bucket does not hold a trie"),
    (set_item("ev_off", 1, 0), "ev_off does not hold a trie"),
    (resigned(lambda head, arrays: head["starts"].__setitem__(-1, head["starts"][-1] + 1)),
     "starts does not hold a trie"),
    (set_field("order", "3"), "malformed header"),
    (set_field("order", 2.5), "malformed header"),
    (set_field("order", True), "malformed header"),
    (set_field("discount", "0.75"), "malformed header"),
    (set_field("vocab_size", 6.0), "malformed header"),
    (set_field("vocab_hash", None), "malformed header"),
    (set_field("starts", None), "malformed header"),
    (resigned(lambda head, arrays: head["starts"].__setitem__(1, 1.0)), "malformed header"),
    (resigned(lambda head, arrays: head["starts"].__setitem__(1, 1 << 64)),
     "starts does not hold a trie"),
    (set_field("order", 1), "header differs from the text's"),
    (set_field("order", 1 << 70), "header differs from the text's"),
    (set_field("discount", 0.5), "header differs from the text's"),
    (set_field("vocab_hash", "0" * 64), "header differs from the text's"),
    (resigned(lambda head, arrays: head["starts"].insert(1, 1)), "starts does not hold a trie"),
], ids=["magic", "header-cut", "header-json", "header-deep", "header-key", "header-length",
        "longer", "shorter", "array-byte", "kids-first", "kids-order", "bucket-below",
        "bucket-above", "ev_off-order", "starts-end", "order-str", "order-float", "order-bool",
        "discount-str",
        "vocab_size-float", "vocab_hash-null", "starts-null", "starts-float",
        "starts-beyond-64-bits", "order-other", "order-beyond-64-bits", "discount-other",
        "vocab_hash-other", "starts-deeper-than-order"])
def test_a_refused_image_is_logged_and_the_text_parsed(tmp_path, caplog, fixture_strophes,
                                                       mutate, reason):
    m, vocab, _ = corpus_model(fixture_strophes)
    path = tmp_path / "m.ngram"
    ngram.save(m, path)
    img = Path(f"{path}.img")
    img.write_bytes(mutate(img.read_bytes(), path))
    files = {p: p.read_bytes() for p in tmp_path.iterdir()}
    caplog.set_level(logging.WARNING, logger="verseforge.ngram")
    loaded = ngram.load(path, vocab)
    [message] = [r.getMessage() for r in caplog.records if r.name == "verseforge.ngram"]
    assert message.startswith(f"{img}: model image not used: ") and reason in message
    assert {p: p.read_bytes() for p in tmp_path.iterdir()} == files  # load writes nothing
    assert_same_model(loaded, reference_load(path), tmp_path)
    assert_same_rows(loaded, m, list(m.counts)[::50])


def saved_files(path) -> dict:
    """The bytes of each file in ``path``'s directory, by name."""
    return {p.name: p.read_bytes() for p in Path(path).parent.iterdir()}


def test_a_save_that_fails_in_the_text_leaves_the_model_before_it(tmp_path):
    vocab = tok.build_vocab(tok.TokenizerKind.UNICODE, ["abcd"])
    old, new = (ngram.train([tok.encode(vocab, t)], 3, vocab) for t in ("abcd", "dcba"))
    path = tmp_path / "m.ngram"
    with pytest.raises(TypeError):  # a config json.dumps refuses, written after the counts
        ngram.save(new, path, {"bad": object()})
    assert saved_files(path) == {}
    ngram.save(old, path)
    before = saved_files(path)
    with pytest.raises(TypeError):
        ngram.save(new, path, {"bad": object()})
    assert saved_files(path) == before
    assert load_by(path, vocab, image=True).counts == old.counts


def test_a_save_that_fails_in_the_image_leaves_the_new_text_and_the_old_image(
        tmp_path, caplog):
    """The text is replaced first, so a save cut short in the image
    leaves the new text beside the old image, whose sha256 fails: the
    text is parsed, and the new model loads."""
    vocab = tok.build_vocab(tok.TokenizerKind.UNICODE, ["abcd"])
    old, new = (ngram.train([tok.encode(vocab, t)], 3, vocab) for t in ("abcd", "dcba"))
    path = tmp_path / "m.ngram"
    ngram.save(new, tmp_path / "new.ngram")
    new_text = (tmp_path / "new.ngram").read_bytes()
    for p in list(tmp_path.iterdir()):
        p.unlink()
    ngram.save(old, path)
    old_image = Path(f"{path}.img").read_bytes()
    with patch.object(ngram, "IMAGE_MAGIC", "not bytes"), pytest.raises(TypeError):
        ngram.save(new, path)
    assert saved_files(path) == {"m.ngram": new_text, "m.ngram.img": old_image}
    caplog.set_level(logging.WARNING, logger="verseforge.ngram")
    assert ngram.load(path, vocab).counts == new.counts
    assert "model image not used: sha256 differs" in caplog.text


def test_a_model_is_saved_through_a_symlink(tmp_path):
    """The text goes into the file the link names; the image, as the
    name ``load`` looks for, beside the link."""
    vocab = tok.build_vocab(tok.TokenizerKind.UNICODE, ["abcd"])
    model = ngram.train([tok.encode(vocab, "abcd")], 3, vocab)
    (tmp_path / "real").mkdir()
    target, link = tmp_path / "real" / "m.ngram", tmp_path / "link.ngram"
    link.symlink_to(target)
    ngram.save(model, link)
    assert link.is_symlink() and list(target.parent.iterdir()) == [target]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.ngram", "link.ngram.img", "real"]
    assert load_by(link, vocab, image=True).counts == model.counts
    assert load_by(link, vocab, image=False).counts == model.counts


def test_an_image_holds_little_endian_arrays_on_any_host(tmp_path, fixture_strophes):
    """On a big-endian host ``save`` swaps each array's bytes and ``load``
    swaps them back: here, a little-endian host that calls itself
    big-endian writes byte-swapped arrays, which only it reads back."""
    m, vocab, _ = corpus_model(fixture_strophes)
    path = tmp_path / "m.ngram"
    ngram.save(m, path)
    native = Path(f"{path}.img").read_bytes()
    with patch.object(ngram.sys, "byteorder", "big"):
        ngram.save(m, path)
        assert trie_layout(load_by(path, vocab, image=True)) == trie_layout(m)
    swapped = Path(f"{path}.img").read_bytes()
    assert len(swapped) == len(native) and swapped[-8:] == native[-8:][::-1]
    with patch.object(ngram, "_parse", wraps=ngram._parse) as parse:
        ngram.load(path, vocab)  # the kids start at 1 << 56, so the image is refused
    parse.assert_called_once()


def test_counts_is_a_view_in_tuple_order(fixture_strophes):
    m, _, _ = corpus_model(fixture_strophes)
    keys = list(m.counts)
    assert keys == sorted(keys) and len(keys) == len(m.counts)
    ctx = keys[len(keys) // 2]
    assert m.counts[ctx] == m.counts[ctx] and m.counts[ctx] is not m.counts[ctx]
    assert (1, 2, 3, 4, 5, 6, 7) not in m.counts and [] not in m.counts
    with pytest.raises(TypeError):
        m.counts[ctx] = {0: 1}


def wide_vocabulary_model(tokens, order):
    """A model trained on random sequences over ``tokens`` ids, deep
    enough that ``tokens + 1`` to the power ``order - 1`` passes 2**63."""
    vocab = tok.Vocab(TokenizerKind.UNICODE,
                      [*tok.SPECIALS, *(chr(0x100 + i) for i in range(tokens))])
    rng = np.random.default_rng(tokens)
    seqs = [rng.integers(0, len(vocab), 3 * order).tolist() for _ in range(40)]
    return ngram.train(seqs, order, vocab)


@pytest.mark.parametrize("tokens, order, words", [(300, 9, 2), (300, 16, 3), (20, 6, 1)])
def test_tuple_order_holds_when_a_key_needs_several_words(tokens, order, words):
    """The walk's keys of a wide vocabulary's deep contexts span more
    than one int64 word, and they still sort the nodes into tuple order,
    each context before its extensions."""
    trie = wide_vocabulary_model(tokens, order)._trie
    keys = ngram._Keys(np.frombuffer(trie.tok, np.int64)[1:])
    keys.walk(trie.parents() - 1)
    assert len(keys.words) == words
    contexts = [ctx for ctx, _ in trie.contexts()]
    assert contexts == sorted(contexts)


def test_a_bucket_reprs_as_its_events():
    m = tiny_model()
    assert repr(m.counts[(0,)]) == repr({0: 1, 1: 1})


def test_a_changed_bucket_is_written_back_to_its_context_alone(tmp_path):
    """Loaded contexts with equal events share one bucket in the store;
    a write through one of them reaches that context and no other.  Any
    other change to a bucket raises and leaves the model as it was."""
    path = tmp_path / "m.ngram"
    write_model(path, dict(HEADER, order="3"),
                ["C\t\t0:2 1:1", "C\t0\t1:1", "C\t1\t1:1", "C\t0,1\t1:1"])
    model = ngram.load(path)
    counts = model.counts
    expected = {ctx: dict(bucket) for ctx, bucket in counts.items()}
    rows = {ctx: model.next_dist(ctx) for ctx in expected}
    bucket = counts[(1,)]
    bucket[1] += 2
    bucket[0] = 1
    expected[(1,)] = {1: 3, 0: 1}
    assert {ctx: dict(b) for ctx, b in model.counts.items()} == expected
    assert counts == expected  # a view taken before the change sees it
    for ctx in [(), (0,)]:  # (0, 1) backs off to (1,)
        np.testing.assert_array_equal(model.next_dist(ctx), rows[ctx])
    fresh = NGramModel.from_counts(expected, 3, 3)
    for ctx in [(1,), (0, 1)]:
        np.testing.assert_array_equal(model.next_dist(ctx), fresh.next_dist(ctx))
    expected = {ctx: dict(b) for ctx, b in model.counts.items()}
    rows = {ctx: model.next_dist(ctx) for ctx in expected}
    for change, error in [(lambda: operator.delitem(bucket, 1), AttributeError),
                          (lambda: bucket.update({2: 1}), AttributeError),
                          (lambda: bucket.pop(1), AttributeError),
                          (lambda: bucket.setdefault(2, 5), AttributeError),
                          (lambda: bucket.popitem(), AttributeError),
                          (lambda: operator.ior(bucket, {0: 1}), TypeError),
                          (lambda: bucket.clear(), AttributeError)]:
        with pytest.raises(error):
            change()
        assert {ctx: dict(b) for ctx, b in model.counts.items()} == expected
        for ctx, row in rows.items():
            np.testing.assert_array_equal(model.next_dist(ctx), row)


def fixture_unicode_model(fixture_strophes):
    """The order-8 ``unicode`` model of every fixture strophe in the
    ``meter_verse`` format: 13,981 contexts, which share 4,205 buckets."""
    texts = [formats.encode(s, DataFormat.METER_VERSE) for s in fixture_strophes]
    vocab = tok.build_vocab(TokenizerKind.UNICODE,
                            [line for text in texts for line in text.split("\n")])
    seqs = [tok.encode(vocab, text) + [vocab.eos_id] for text in texts]
    return ngram.train(seqs, ngram.DEFAULT_ORDER[TokenizerKind.UNICODE], vocab)


# A write-back appends one bucket; rebuilding the store for it peaked at
# 6.1-6.5 MiB on the fixture's order-8 model.
WRITE_BACK_BYTES = 1 << 20


def test_a_write_back_appends_one_bucket_within_a_small_memory_bound(fixture_strophes):
    model = fixture_unicode_model(fixture_strophes)
    trie = model._trie
    nodes, buckets = len(trie.tok), len(trie.total)
    assert (len(model.counts), buckets) == (13_981, 4_205)
    counts = {ctx: dict(bucket) for ctx, bucket in model.counts.items()}
    ctx = list(counts)[len(counts) // 2]
    bucket = model.counts[ctx]
    token = next(iter(bucket))
    _, peak = traced_peak(lambda: bucket.__setitem__(token, bucket[token] + 1))
    assert peak < WRITE_BACK_BYTES
    assert model._trie is trie and (len(trie.tok), len(trie.total)) == (nodes, buckets + 1)
    counts[ctx][token] += 1
    assert model.counts == counts
    fresh = NGramModel.from_counts(counts, model.order, model.vocab_size)
    # the rows of the contexts that back off through ``ctx``
    assert_same_rows(model, fresh, [c for c in counts if c[len(c) - len(ctx):] == ctx][:20])


@pytest.mark.parametrize("token, count", [(1, BIG), (1, -BIG - 1), (BIG, 1), (-BIG - 1, 1)],
                         ids=["count", "negative-count", "id", "negative-id"])
def test_a_write_back_beyond_64_bits_leaves_the_model_as_it_was(token, count):
    m = tiny_model()
    contexts = ([], [0], [1], [2])
    for ctx in contexts:
        ngram.sample_with_rng(m, ctx, 1.0, np.random.default_rng(0))
    rows = [m.next_dist(ctx) for ctx in contexts]
    counts = {ctx: dict(b) for ctx, b in m.counts.items()}
    tables = dict(m._tables)
    arrays = [bytes(getattr(m._trie, name)) for name in ngram.IMAGE_ARRAYS]
    bucket = m.counts[(0,)]
    with pytest.raises(OverflowError):
        bucket[token] = count
    assert dict(bucket) == counts[(0,)]
    assert {ctx: dict(b) for ctx, b in m.counts.items()} == counts
    assert [bytes(getattr(m._trie, name)) for name in ngram.IMAGE_ARRAYS] == arrays
    assert list(m._tables) == list(tables)
    assert all(m._tables[key] is table for key, table in tables.items())
    for ctx, row in zip(contexts, rows):
        assert np.array_equal(m.next_dist(ctx), row)


def test_load_rejects_wrong_vocab(tmp_path, fixture_strophes):
    m, vocab, _ = corpus_model(fixture_strophes)
    path = tmp_path / "m.ngram"
    ngram.save(m, path)
    other = tok.build_vocab(tok.TokenizerKind.UNICODE, ["zcela jiný text"])
    for image in IMAGE_THEN_TEXT:
        with pytest.raises(NGramError, match="different vocabulary"):
            load_by(path, other, image=image)
        load_by(path, image=image)  # without a vocab the check is skipped


def test_an_image_cannot_pair_its_text_with_another_vocabulary(tmp_path):
    """An image re-signed with another vocabulary's hash is refused, so the
    text's hash is checked against the vocabulary."""
    vocab = tok.build_vocab(tok.TokenizerKind.UNICODE, ["abcd"])
    other = tok.build_vocab(tok.TokenizerKind.UNICODE, ["wxyz"])
    assert len(other) == len(vocab) and other.content_hash() != vocab.content_hash()
    path = tmp_path / "m.ngram"
    ngram.save(ngram.train([tok.encode(vocab, "abcd")], 3, vocab), path)
    img = Path(f"{path}.img")
    img.write_bytes(set_field("vocab_hash", other.content_hash())(img.read_bytes(), path))
    with pytest.raises(NGramError, match="different vocabulary"):
        ngram.load(path, other)


def test_load_rejects_vocab_size_mismatch(tmp_path, fixture_strophes):
    m, vocab, _ = corpus_model(fixture_strophes)
    path = tmp_path / "m.ngram"
    m.vocab_size = len(vocab) + 5  # saved with the vocab's own hash
    ngram.save(m, path)
    assert f"vocab_size\t{len(vocab) + 5}\n" in path.read_text(encoding="utf-8")
    for image in IMAGE_THEN_TEXT:
        with pytest.raises(NGramError, match="vocab_size"):
            load_by(path, vocab, image=image)


def test_load_rejects_foreign_file(tmp_path):
    path = tmp_path / "m.ngram"
    path.write_text("not a model\n")
    with pytest.raises(NGramError, match="not a verseforge"):
        ngram.load(path)


def test_default_orders():
    assert ngram.DEFAULT_ORDER[TokenizerKind.UNICODE] > ngram.DEFAULT_ORDER[TokenizerKind.SYLLABLE]
    assert set(ngram.DEFAULT_ORDER) == set(TokenizerKind)


def write_model(path, header, lines):
    path.write_text("\n".join([ngram.MODEL_MAGIC]
                              + [f"{k}\t{v}" for k, v in header.items()]
                              + lines) + "\n", encoding="utf-8")


HEADER = {"order": "2", "discount": "0.75", "vocab_size": "3", "vocab_hash": ""}


@pytest.mark.parametrize("missing", list(HEADER))
def test_load_rejects_missing_header_key(tmp_path, missing):
    path = tmp_path / "m.ngram"
    write_model(path, {k: v for k, v in HEADER.items() if k != missing}, ["C\t\t0:2 1:1"])
    with pytest.raises(NGramError, match=missing):
        ngram.load(path)


@pytest.mark.parametrize("bad_id", [3, 7, -1])
@pytest.mark.parametrize("ctx", ["", "0"], ids=["unigram", "bigram"])
def test_token_id_out_of_range_is_an_ngram_error(tmp_path, bad_id, ctx):
    path = tmp_path / "m.ngram"
    write_model(path, HEADER, ["C\t\t0:2 1:1", f"C\t{ctx}\t0:1 {bad_id}:1"])
    model = ngram.load(path)
    with pytest.raises(NGramError, match="out of range"):
        model.next_dist([0])
    with pytest.raises(NGramError, match="out of range"):
        ngram.sample_with_rng(model, [0], 1.0, np.random.default_rng(0))


@pytest.mark.parametrize("events", ["0:0 1:0", "0:2 1:0", "0:2 1:-1"])
@pytest.mark.parametrize("ctx", ["", "0"], ids=["unigram", "bigram"])
def test_count_below_one_is_an_ngram_error(tmp_path, events, ctx):
    path = tmp_path / "m.ngram"
    write_model(path, HEADER, ["C\t\t0:2 1:1", f"C\t{ctx}\t{events}"])
    model = ngram.load(path)
    for _ in range(2):  # nothing is cached past the error
        with pytest.raises(NGramError, match=rf"count below 1 after context \[{ctx}\]"):
            model.next_dist([0])
    with pytest.raises(NGramError, match="count below 1"):
        ngram.sample_with_rng(model, [0], 1.0, np.random.default_rng(0))


@pytest.mark.parametrize("line", [
    f"C\t\t0:{BIG}", f"C\t\t{BIG}:1", f"C\t\t0:1 1:{-BIG - 1}", f"C\t\t{-BIG - 1}:1",
    f"C\t{BIG}\t0:1", f"C\t0,{BIG}\t0:1", f"C\t1,{-BIG - 1},0\t0:1",
], ids=["count", "id", "negative-count", "negative-id", "context", "context-tail",
        "context-inner"])
def test_load_refuses_ids_and_counts_beyond_64_bits(tmp_path, line):
    path = tmp_path / "m.ngram"
    write_model(path, HEADER, ["C\t\t0:2 1:1", "C\t0\t1:1", line])
    with pytest.raises(NGramError, match=rf"^{path}:8: .*64-bit"):
        ngram.load(path)


def test_load_keeps_ids_and_counts_at_the_64_bit_bounds(tmp_path):
    path = tmp_path / "m.ngram"
    write_model(path, HEADER, ["C\t\t0:2 1:1", f"C\t0\t1:{BIG - 1}",
                               f"C\t{-BIG}\t{-BIG}:1", f"C\t{BIG - 1}\t{BIG - 1}:1"])
    model = ngram.load(path)
    assert model.counts[(0,)] == {1: BIG - 1}
    assert model.counts[(-BIG,)] == {-BIG: 1} and model.counts[(BIG - 1,)] == {BIG - 1: 1}
    trained = ngram.train([[-BIG, BIG - 1]], 2,
                          tok.build_vocab(tok.TokenizerKind.UNICODE, ["ab"]))
    assert trained.counts[(-BIG,)] == {BIG - 1: 1} and trained.counts[()] == {-BIG: 1, BIG - 1: 1}
    # the greatest id alone
    write_model(path, HEADER, [f"C\t{BIG - 1}\t0:1"])
    assert dict(ngram.load(path).counts.items()) == {(BIG - 1,): {0: 1}}
    trained = ngram.train([[BIG - 1]], 2,
                          tok.build_vocab(tok.TokenizerKind.UNICODE, ["ab"]))
    assert dict(trained.counts.items()) == {(): {BIG - 1: 1}}
    row = model.next_dist([0])
    assert row.sum() == pytest.approx(1.0) and row[1] > 0.99
    with pytest.raises(NGramError, match="out of range"):
        model.next_dist([-BIG])


@pytest.mark.parametrize("order, lines, lineno, ids", [
    ("3", ["C\t\t0:1", "C\t0,1\t1:1", "C\t0,1,2\t1:1"], 8, 3),
    ("3", ["C\t0,1,2\t1:1", "C\t0,1,2,0\t1:1", "C\t1,2,0,1\t1:1"], 7, 4),
    ("1", ["C\t\t0:1", "C\t5\t0:1"], 7, 1),
    ("2", ["C\t\t0:1", "C\t1,2\t0:1", "C\t1,2\t0:2"], 7, 2),
], ids=["one-too-many", "longest-named", "order-1", "repeated"])
def test_load_refuses_a_context_of_order_or_more_ids(tmp_path, order, lines, lineno, ids):
    path = tmp_path / "m.ngram"
    write_model(path, dict(HEADER, order=order), lines)
    with pytest.raises(NGramError, match=rf"^{path}:{lineno}: a context of {ids} ids, where "
                                         rf"an order-{order} model reads at most "):
        ngram.load(path)


def test_from_counts_refuses_a_context_of_order_or_more_ids():
    for order, ctx in [(1, (0,)), (3, (0, 1, 2)), (3, (0, 1, 2, 0))]:
        with pytest.raises(NGramError, match=f"a context of {len(ctx)} ids, where an "
                                             f"order-{order} model reads at most {order - 1}"):
            NGramModel.from_counts({(): {0: 1}, ctx: {1: 1}}, order, 3)


# Numbering every substring of a context of 2,000 ids made 2,001,001
# nodes and peaked at 94 MiB.
LONG_CONTEXT_BYTES = 1 << 20


def test_a_long_context_is_refused_before_its_substrings_are_numbered(tmp_path):
    path = tmp_path / "m.ngram"
    write_model(path, dict(HEADER, order="3"),
                ["C\t\t0:1", f"C\t{','.join(map(str, range(2000)))}\t0:1"])
    assert path.stat().st_size < 9 << 10

    def load():
        with pytest.raises(NGramError, match=rf"^{path}:7: a context of 2000 ids"):
            ngram.load(path)

    _, peak = traced_peak(load)
    assert peak < LONG_CONTEXT_BYTES


def test_an_image_deeper_than_its_order_is_refused_and_so_is_its_text(tmp_path, caplog):
    vocab = tok.build_vocab(TokenizerKind.UNICODE, ["abcd"])
    model = ngram.train([tok.encode(vocab, "abcabd")], 4, vocab)
    model.order = 3  # its contexts of 3 ids are one too many
    path = tmp_path / "m.ngram"
    ngram.save(model, path)
    caplog.set_level(logging.WARNING, logger="verseforge.ngram")
    with pytest.raises(NGramError, match=rf"^{path}:\d+: a context of 3 ids"):
        ngram.load(path, vocab)
    [message] = [r.getMessage() for r in caplog.records if r.name == "verseforge.ngram"]
    assert message.endswith("model image not used: starts does not hold a trie")


@pytest.mark.parametrize("ids", [[0, 4, 2], [0, 9, 2]], ids=["in-range", "out-of-range"])
def test_an_image_whose_bucket_ids_do_not_ascend_is_refused(tmp_path, caplog, ids):
    """A bucket's ids ascend in every store: the text's parse sorts them,
    and a row's range check and ``prob``'s ``bisect`` rely on it.  The
    image of a model whose ids were reordered in memory is refused, and
    the text, whose parse sorts them again, is read: its rows and ``prob``
    agree, or its out-of-range id is refused as for any parsed model."""
    model = NGramModel.from_counts({(): {0: 2, 2: 1, 4: 3}, (1,): {2: 1}, (3,): {0: 1, 1: 1}},
                                   2, 5)
    trie = model._trie
    at = trie.ev_off[trie.bucket[0]]
    trie.ev_id[at:at + 3] = array("q", ids)
    path = tmp_path / "m.ngram"
    ngram.save(model, path)
    caplog.set_level(logging.WARNING, logger="verseforge.ngram")
    loaded = ngram.load(path)
    [message] = [r.getMessage() for r in caplog.records if r.name == "verseforge.ngram"]
    assert message.endswith("model image not used: ev_id does not hold a trie")
    assert loaded.counts == ngram._parse(path).counts
    assert list(loaded.counts[()]) == sorted(ids)
    for ctx in [(), (1,), (3,), (0,)]:
        if max(ids) < 5:
            row = loaded.next_dist(ctx)
            assert [loaded.prob(ctx, t) for t in range(5)] == row.tolist()
        else:
            for read in (loaded.next_dist, lambda c: loaded.prob(c, 2)):
                with pytest.raises(NGramError, match=r"^token id out of range \[0, 5\) after "
                                                     r"context \[\]: \[0, 2, 9\]$"):
                    read(ctx)


def generated_model():
    """An order-6 model of tens of thousands of contexts: 400 random
    sequences of 60 ids over a 15-token vocabulary."""
    vocab = tok.build_vocab(tok.TokenizerKind.UNICODE, ["abcdefghijkl"])
    rng = np.random.default_rng(5)
    seqs = [rng.integers(0, len(vocab), 60).tolist() for _ in range(400)]
    return seqs, vocab


def traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


# Bytes per context of the store's arrays and of the transient state that
# builds them.  The dict of context tuples to bucket dicts that the arrays
# replace peaked at about 370 bytes per context to train this model and
# 340 to load it.
TRAIN_BYTES_PER_CONTEXT = 300
LOAD_BYTES_PER_CONTEXT = 250
# The per-line loop that ``save`` ran before it rendered its text in
# blocks peaked at about 88 bytes per context on this model.
SAVE_BYTES_PER_CONTEXT = 80
# Iterating ``counts.items()`` while ``_Trie.contexts`` held each node's
# order, depth and last id as Python lists peaked at about 80 bytes per
# context on this model.
ITEMS_BYTES_PER_CONTEXT = 64


def test_train_memory_stays_within_a_per_context_bound():
    seqs, vocab = generated_model()
    model, peak = traced_peak(lambda: ngram.train(seqs, 6, vocab))
    assert len(model.counts) > 30_000
    assert peak < TRAIN_BYTES_PER_CONTEXT * len(model.counts)


def test_load_memory_stays_within_a_per_context_bound(tmp_path):
    seqs, vocab = generated_model()
    model = ngram.train(seqs, 6, vocab)
    path = tmp_path / "m.ngram"
    ngram.save(model, path)
    n = len(model.counts)
    model = None
    for image in IMAGE_THEN_TEXT:
        loaded, peak = traced_peak(lambda: load_by(path, vocab, image=image))
        assert len(loaded.counts) == n > 30_000
        assert peak < LOAD_BYTES_PER_CONTEXT * n
        loaded = None


def test_from_counts_memory_stays_within_a_per_context_bound():
    seqs, vocab = generated_model()
    model = ngram.train(seqs, 6, vocab)
    counts = {ctx: dict(bucket) for ctx, bucket in model.counts.items()}  # in tuple order
    n = len(counts)
    model = None
    built, peak = traced_peak(lambda: NGramModel.from_counts(counts, 6, len(vocab)))
    assert len(built.counts) == n > 30_000
    assert peak < LOAD_BYTES_PER_CONTEXT * n


def test_save_memory_stays_within_a_per_context_bound(tmp_path):
    seqs, vocab = generated_model()
    model = ngram.train(seqs, 6, vocab)
    n = len(model.counts)
    _, peak = traced_peak(lambda: ngram.save(model, tmp_path / "m.ngram"))
    assert n > 30_000
    assert peak < SAVE_BYTES_PER_CONTEXT * n


def test_iterating_counts_stays_within_a_per_context_bound():
    seqs, vocab = generated_model()
    model = ngram.train(seqs, 6, vocab)
    n, peak = traced_peak(lambda: sum(1 for _ in model.counts.items()))
    assert n == len(model.counts) > 30_000
    assert peak < ITEMS_BYTES_PER_CONTEXT * n


def test_table_cache_is_bounded_and_evicts_least_recently_used(monkeypatch):
    m = tiny_model()
    monkeypatch.setattr(ngram, "TABLE_CACHE_BYTES", 3 * 8 * m.vocab_size)
    rng = np.random.default_rng(0)
    for ctx in ([0], [1], [0], [2]):
        ngram.sample_with_rng(m, ctx, 1.0, rng)
        assert len(m._tables) <= 3
    # [1] was used least recently when [2] arrived; every miss uses the
    # empty context's row, (root node, None)
    assert list(m._tables) == [((0,), 1.0), (0, None), ((2,), 1.0)]
    ngram.sample_with_rng(m, [0], 0.5, rng)
    assert list(m._tables) == [((2,), 1.0), (0, None), ((0,), 0.5)]


def test_save_skips_a_context_with_an_empty_bucket(tmp_path):
    built = NGramModel.from_counts({(): {0: 2, 1: 1}, (0,): {}}, 2, 3)
    assert (0,) not in built.counts
    path = tmp_path / "m.ngram"
    ngram.save(built, path)
    assert "C\t0\t\n" not in path.read_text(encoding="utf-8")
    loaded = ngram.load(path)
    for ctx in ([], [0], [1], [2]):
        assert np.array_equal(loaded.next_dist(ctx), built.next_dist(ctx))


def test_sampling_refuses_a_temperature_that_is_not_positive():
    m = tiny_model()
    for temperature in (float("nan"), 0.0, -1.0):
        with pytest.raises(NGramError, match="temperature must be > 0"):
            ngram.sample_with_rng(m, [0], temperature, np.random.default_rng(0))


def test_a_write_back_drops_stale_tables():
    m = tiny_model()
    before = cached_table(m, [0], 1.0)
    m.counts[()][2] = 3
    assert not m._tables
    counts = reference_counts([[0, 0, 1]], 2)
    counts[()][2] = 3
    fresh = NGramModel.from_counts(counts, 2, 3)
    for ctx in ([], [0], [1], [2]):
        assert np.array_equal(m.next_dist(ctx), fresh.next_dist(ctx))
    after = cached_table(m, [0], 1.0)
    assert np.array_equal(after, ngram.sampling_table(fresh.next_dist([0]), 1.0))
    assert not np.array_equal(before, after)


def test_tables_match_choice_and_reject_bad_rows():
    m = tiny_model()
    for ctx in ([0], [1], [2]):
        for temperature in (1.0, 0.3):
            expected = np.random.default_rng(5)
            got = np.random.default_rng(5)
            p = m.next_dist(ctx)
            if temperature != 1.0:
                p = np.exp(np.log(p) / temperature - np.max(np.log(p) / temperature))
            q = p / p.sum()
            cdf = q.cumsum()
            cdf /= cdf[-1]  # as Generator.choice builds it
            assert np.array_equal(cached_table(m, ctx, temperature), cdf)
            draws = [int(expected.choice(len(q), p=q)) for _ in range(20)]
            assert [ngram.sample_with_rng(m, ctx, temperature, got)
                    for _ in range(20)] == draws
    with np.errstate(invalid="ignore"):
        for row in ([0.5, np.nan, 0.5], [1.0, -0.5, 0.5], [0.0, 0.0, 0.0]):
            with pytest.raises(NGramError, match="NaN or negative"):
                ngram.sampling_table(np.array(row), 1.0)
        # underflow: the argmax, without a draw
        zeros = SimpleNamespace(vocab_size=3, next_dist=lambda ctx: np.zeros(3))
        rng = np.random.default_rng(1)
        assert ngram.sample_with_rng(zeros, [], 0.5, rng) == 0
        assert rng.random() == np.random.default_rng(1).random()


@settings(max_examples=150, deadline=None)
@given(row=st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1e3)), min_size=1, max_size=40)
       .filter(lambda r: sum(r) > 0),
       temperature=st.sampled_from([1.0, 0.3, 0.7, 2.5]),
       us=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=10))
@example(row=[0.5, 0.0, 0.0, 0.25, 0.25], temperature=1.0, us=[0.5])
@example(row=[1.0, 0.0, 3.0, 0.0, 0.0], temperature=0.3, us=[0.25])
@example(row=[0.0, 2.0, 0.0, 1.0, 0.0], temperature=2.5, us=[])
def test_bisect_on_a_table_finds_the_index_of_searchsorted(row, temperature, us):
    """The draw's ``bisect_right`` picks the index that ``searchsorted``
    on the same table picks, for random draws, 0.0, each table entry and
    the greatest draw below 1.0.  At temperature 1 the table holds the
    bytes of ``Generator.choice``'s cumulative distribution."""
    p = np.array(row)
    table = ngram.sampling_table(p, temperature)
    cdf = np.asarray(table)
    if temperature == 1.0:
        q = p / p.sum()
        expected = q.cumsum()
        expected /= expected[-1]
        assert bytes(table) == expected.tobytes()
    for u in us + [0.0, float(np.nextafter(1.0, 0.0))] + list(table):
        assert bisect_right(table, u) == int(np.searchsorted(cdf, u, side="right"))


def test_a_table_is_an_array_of_8_bytes_per_vocabulary_entry():
    """The size that the table cache's byte budget counts per table."""
    m = counted(2, 73, [0, 5, 72, 5])
    for table in (cached_table(m, [5], 1.0), cached_table(m, [5], 0.3),
                  ngram.sampling_table(m.next_dist([72]), 1.0)):
        assert type(table) is array and table.typecode == "d"
        assert memoryview(table).nbytes == 8 * m.vocab_size


def reference_next_dist(model, context):
    """``next_dist`` as a fresh per-level loop: one ``np.zeros(V)`` row
    filled, divided and blended at each backoff level."""
    ctx = model._context(context)
    p = np.full(model.vocab_size, 1.0 / model.vocab_size)
    d = model.discount
    for k in range(len(ctx) + 1):
        sub = ctx[len(ctx) - k:]
        bucket = model.counts.get(sub)
        if not bucket:
            continue
        if min(bucket) < 0 or max(bucket) >= model.vocab_size:
            raise NGramError(
                f"token id out of range [0, {model.vocab_size}) after context "
                f"{list(sub)}: {sorted(bucket)}")
        total = sum(bucket.values())
        arr = np.zeros(model.vocab_size)
        for t, c in bucket.items():
            arr[t] = c - d if c > d else 0.0
        arr /= total
        p = arr + (d * len(bucket) / total) * p
    return p


@st.composite
def small_models(draw):
    """A model of order 1-6 over 2-9 tokens, some of whose context buckets
    may be dropped, so that a longer context can be known while one of
    its shorter suffixes is not."""
    order = draw(st.integers(1, 6))
    vocab_size = draw(st.integers(2, 9))
    tokens = st.integers(0, vocab_size - 1)
    discount = draw(st.sampled_from([0.1, 0.5, DEFAULT_DISCOUNT, 0.9]))
    counts = reference_counts(
        draw(st.lists(st.lists(tokens, max_size=12), min_size=1, max_size=4)), order)
    if counts:
        for ctx in draw(st.sets(st.sampled_from(sorted(counts)), max_size=3)):
            del counts[ctx]
    model = NGramModel.from_counts(counts, order, vocab_size, discount=discount)
    contexts = draw(st.lists(st.lists(tokens, max_size=order + 1), min_size=1, max_size=12))
    return model, contexts, draw(st.lists(tokens, max_size=8))


@settings(max_examples=200, deadline=None)
@given(case=small_models(), budget_rows=st.sampled_from([None, 1, 2, 3]))
def test_next_dist_is_the_per_level_loop(case, budget_rows):
    model, contexts, more = case
    budget = (ngram.TABLE_CACHE_BYTES if budget_rows is None
              else budget_rows * 8 * model.vocab_size)
    rng = np.random.default_rng(0)
    with patch.object(ngram, "TABLE_CACHE_BYTES", budget):
        for _ in range(2):  # cold, then warm (or evicted)
            for ctx in contexts + [[]]:
                assert np.array_equal(model.next_dist(ctx), reference_next_dist(model, ctx))
                ngram.sample_with_rng(model, ctx, 1.0, rng)
            assert len(model._tables) * 8 * model.vocab_size <= budget
        # a write-back to the root bucket must also drop the shared row of ()
        root = model.counts.get(())
        if root is not None:
            for t in more:
                root[t] = root.get(t, 0) + 1
        for ctx in contexts:
            assert np.array_equal(model.next_dist(ctx), reference_next_dist(model, ctx))


def deep_model():
    """order 6 over 5 tokens, trained so that every level has a bucket."""
    return counted(6, 5, [0, 1, 2, 3, 4, 0, 1, 2, 3, 0, 1, 2, 4, 4, 1])


@pytest.mark.parametrize("make, ctx", [
    (lambda: counted(1, 4, [0, 1, 1, 3]), []),
    (lambda: deep_model(), []),
    (lambda: deep_model(), [1]),
    (lambda: deep_model(), [0, 1, 2]),
    (lambda: deep_model(), [0, 1, 2, 3, 4]),
    (lambda: deep_model(), [4, 4, 4, 4, 4]),  # upper buckets all empty
    (lambda: deep_model(), [3, 3, 3, 0, 1]),  # only the short ones known
], ids=["order-1", "empty", "one", "three", "five", "unseen", "short-only"])
def test_next_dist_rows_belong_to_the_caller(make, ctx):
    m = make()
    first = m.next_dist(ctx)
    expected = first.copy()
    first[:] = -1.0
    assert np.array_equal(m.next_dist(ctx), expected)
    assert np.array_equal(m.next_dist(ctx), reference_next_dist(m, ctx))
    assert m.next_dist(ctx) is not m.next_dist(ctx)


@pytest.mark.parametrize("bad_ctx", ["", "1", "0,1", "2,0,1"])
def test_out_of_range_short_bucket_raises_on_every_call(tmp_path, bad_ctx):
    path = tmp_path / "m.ngram"
    header = dict(HEADER, order="6", vocab_size="3")
    buckets = {"": "0:2 1:1", "1": "0:1", "0,1": "2:1", "2,0,1": "0:1",
               "1,2,0,1": "1:1"}
    buckets[bad_ctx] += " 9:1"
    write_model(path, header, [f"C\t{ctx}\t{ev}" for ctx, ev in buckets.items()])
    model = ngram.load(path)
    for _ in range(3):
        with pytest.raises(NGramError, match="out of range"):
            model.next_dist([0, 1, 2, 0, 1])
        with pytest.raises(NGramError, match="out of range"):
            ngram.sample_with_rng(model, [1, 2, 0, 1], 1.0, np.random.default_rng(0))


def row_logprob(model, ids):
    """``logprob`` as a sum over ``next_dist`` rows, one row per token."""
    lp = 0.0
    for i, token in enumerate(ids):
        lp += math.log(model.next_dist(ids[max(0, i - model.order + 1):i])[token])
    return lp


def assert_probs_are_the_rows(model, contexts):
    for ctx in contexts:
        row = reference_next_dist(model, ctx)
        for t in range(model.vocab_size):
            assert model.prob(ctx, t) == row[t]
            assert type(model.prob(ctx, t)) is float


@settings(max_examples=200, deadline=None)
@given(case=small_models())
def test_prob_is_the_entry_of_the_row(case):
    """Cold (no row or table built yet), then warm (after every row and a
    draw), ``prob`` gives each entry of ``next_dist`` bit for bit, and
    ``logprob`` and ``perplexity`` give the sums over rows."""
    model, contexts, more = case
    contexts = contexts + [[]]
    assert model._prep is None and not model._tables
    assert_probs_are_the_rows(model, contexts)
    for ctx in contexts:
        assert np.array_equal(model.next_dist(ctx), reference_next_dist(model, ctx))
        ngram.sample_with_rng(model, ctx, 1.0, np.random.default_rng(0))
    assert_probs_are_the_rows(model, contexts)
    seqs = [ctx + more for ctx in contexts]
    for seq in seqs:
        assert model.logprob(seq) == row_logprob(model, seq)
    lp = sum(row_logprob(model, seq) for seq in seqs)
    n = sum(map(len, seqs))
    if n:
        assert model.perplexity(seqs) == math.exp(-lp / n)


def test_prob_refuses_a_token_outside_the_vocabulary():
    m = tiny_model()
    for token in (-1, 3, BIG):
        with pytest.raises(NGramError, match=rf"token id {token} out of range \[0, 3\)"):
            m.prob([0], token)
    with pytest.raises(NGramError, match="out of range"):
        m.logprob([0, 3])


@settings(max_examples=150, deadline=None)
@given(case=small_models(), data=st.data())
def test_a_write_back_extends_the_prepared_buckets(case, data):
    """Rows and ``prob`` after each of a few count write-backs, with the
    prepared arrays built before them, equal the reference on the edited
    counts, and equal a model built afresh from those counts."""
    model, contexts, _ = case
    counts = {ctx: dict(bucket) for ctx, bucket in model.counts.items()}
    if not counts:
        return
    contexts = contexts + [[]]
    for ctx in contexts:
        model.next_dist(ctx)
    tokens = st.integers(0, model.vocab_size - 1)
    for _ in range(data.draw(st.integers(1, 3))):
        ctx = data.draw(st.sampled_from(sorted(counts)))
        token, count = data.draw(tokens), data.draw(st.integers(1, 5))
        model.counts[ctx][token] = count
        counts[ctx][token] = count
        fresh = NGramModel.from_counts(counts, model.order, model.vocab_size,
                                       discount=model.discount)
        for c in contexts:
            row = model.next_dist(c)
            assert np.array_equal(row, reference_next_dist(fresh, c))
            assert np.array_equal(row, fresh.next_dist(c))
        assert_probs_are_the_rows(model, contexts)
    assert len(model._prep.weight) == len(model._trie.total)
    assert len(model._prep.share) == len(model._trie.ev_id)


def bad_bucket_model(bad):
    """An order-4 model over 3 tokens whose path to the context (0, 1, 2)
    holds the buckets of ``bad``, context -> events, beside good ones."""
    counts = {(): {0: 2, 1: 1}, (2,): {0: 1}, (1, 2): {1: 1, 2: 1}, (0, 1, 2): {2: 3}}
    return NGramModel.from_counts({**counts, **bad}, 4, 3)


BAD_BUCKETS = {
    "id-above": ({(1, 2): {1: 1, 9: 1}},
                 "token id out of range [0, 3) after context [1, 2]: [1, 9]"),
    "id-below": ({(2,): {-1: 1, 0: 1}},
                 "token id out of range [0, 3) after context [2]: [-1, 0]"),
    "count-0": ({(0, 1, 2): {2: 0}}, "count below 1 after context [0, 1, 2]"),
    "total-0": ({(): {0: 1, 1: -1}}, "count below 1 after context []"),
    "both": ({(2,): {0: 0, 5: 1}},
             "token id out of range [0, 3) after context [2]: [0, 5]"),
    # the shallowest bad bucket on the path is named
    "two": ({(): {0: 1, 1: 0}, (1, 2): {7: 1}}, "count below 1 after context []"),
}


@pytest.mark.parametrize("bad, message", BAD_BUCKETS.values(), ids=BAD_BUCKETS.keys())
def test_a_bad_bucket_raises_on_every_call_without_a_warning(bad, message):
    """A bucket with an id out of range or a count below 1 raises the same
    ``NGramError`` from ``next_dist``, ``prob``, ``logprob`` and a draw,
    each time, and numpy warns of nothing, also where its total is 0."""
    model = bad_bucket_model(bad)
    calls = [lambda: model.next_dist([0, 1, 2]), lambda: model.prob([0, 1, 2], 1),
             lambda: model.logprob([0, 1, 2, 1]),
             lambda: ngram.sample_with_rng(model, [0, 1, 2], 1.0, np.random.default_rng(0))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(3):
            for call in calls:
                with pytest.raises(NGramError) as e:
                    call()
                assert str(e.value) == message


def test_a_write_back_of_a_bad_count_raises_and_a_good_one_mends_it():
    model = bad_bucket_model({})
    good = model.next_dist([0, 1, 2])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model.counts[(1, 2)][2] = 0
        for call in (lambda: model.next_dist([0, 1, 2]), lambda: model.prob([1, 2], 0)):
            with pytest.raises(NGramError, match=r"^count below 1 after context \[1, 2\]$"):
                call()
        model.counts[(1, 2)][2] = 1
        assert np.array_equal(model.next_dist([0, 1, 2]), good)
        assert model.prob([0, 1, 2], 2) == good[2]


@pytest.mark.parametrize("bad", [np.nan, -0.5, -np.inf, np.inf], ids=str)
@pytest.mark.parametrize("at", [0, 2, 4])
def test_sampling_table_refuses_nan_and_negative_rows(bad, at):
    row = np.array([0.5, 0.25, 0.125, 0.0, 0.125])
    row[at] = bad
    with np.errstate(invalid="ignore", divide="ignore"):
        with pytest.raises(NGramError, match="NaN or negative"):
            ngram.sampling_table(row, 1.0)
    row[at] = -0.0  # a negative zero is no negative entry
    assert np.asarray(ngram.sampling_table(row, 1.0))[-1] == 1.0


def reference_save(model, path, config=None):
    """``save`` as it was before contexts reused their parent's text: each
    context and bucket formatted on its own."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(ngram.MODEL_MAGIC + "\n")
        f.write(f"order\t{model.order}\n")
        f.write(f"discount\t{model.discount!r}\n")
        f.write(f"vocab_size\t{model.vocab_size}\n")
        f.write(f"vocab_hash\t{model.vocab_hash}\n")
        for ctx in sorted(model.counts):
            bucket = model.counts[ctx]
            ctx_s = ",".join(map(str, ctx))
            ev = " ".join(f"{t}:{c}" for t, c in sorted(bucket.items()))
            f.write(f"C\t{ctx_s}\t{ev}\n")
        if config is not None:
            f.write(f"config\t{json.dumps(config)}\n")


def reference_load(path):
    """``load`` (without a vocabulary) as it was before contexts reused
    their parent's parse: each line parsed on its own, its bucket naming
    each token once.  After the lines and the header, a context of
    ``order`` or more ids is refused, naming the first line of the
    longest context."""
    with open(path, encoding="utf-8") as f:
        if f.readline().rstrip("\n") != ngram.MODEL_MAGIC:
            raise NGramError(f"{path}: not a verseforge n-gram model")
        header = {}
        counts = {}
        widths = []  # (line, ids) of each context line
        for lineno, line in enumerate(f, 2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            try:
                if parts[0] == "C":
                    ctx = tuple(int(x) for x in parts[1].split(",")) if parts[1] else ()
                    bucket = {}
                    for ev in parts[2].split(" "):
                        t, c = ev.split(":")
                        if int(t) in bucket:
                            raise ValueError(f"token {t} named twice")
                        bucket[int(t)] = int(c)
                    counts[ctx] = bucket
                    widths.append((lineno, len(ctx)))
                else:
                    header[parts[0]] = ngram.MODEL_HEADER.get(parts[0], str)(parts[1])
            except (IndexError, ValueError):
                raise NGramError(f"{path}:{lineno}: malformed model line") from None
    missing = [key for key in ngram.MODEL_HEADER if key not in header]
    if missing:
        raise NGramError(f"{path}: header lacks {', '.join(missing)}")
    order = NGramModel(header["order"], header["vocab_size"], discount=header["discount"]).order
    lineno, n = max(widths, key=lambda width: width[1], default=(0, 0))
    if n >= order:
        raise NGramError(f"{path}:{lineno}: a context of {n} ids, where an order-{order} "
                         f"model reads at most {order - 1}")
    return NGramModel.from_counts(counts, order=header["order"],
                                  vocab_size=header["vocab_size"],
                                  vocab_hash=header["vocab_hash"],
                                  discount=header["discount"])


@st.composite
def hand_built_models(draw):
    """A model of order 1-6 over ids up to 1500: the counts of a few
    sequences drawn from a small id pool, so that many contexts share a
    parent and many buckets share an event string, with some contexts
    dropped and some hand-built buckets added, so that the contexts need
    not be prefix-closed."""
    order = draw(st.integers(1, 6))
    pool = draw(st.lists(st.integers(0, 1500), min_size=1, max_size=6, unique=True))
    ids = st.sampled_from(pool) | st.integers(0, 1500)
    sequences = draw(st.lists(st.lists(ids, max_size=12), max_size=4))
    counts = reference_counts(sequences, order)
    edited = False
    if counts:
        for ctx in draw(st.sets(st.sampled_from(sorted(counts)), max_size=3)):
            del counts[ctx]
            edited = True
    contexts = st.lists(ids, max_size=order - 1).map(tuple)
    buckets = st.dictionaries(ids, st.integers(1, 10**6), min_size=1, max_size=5)
    for ctx, bucket in draw(st.dictionaries(contexts, buckets, max_size=6)).items():
        counts[ctx] = bucket
        edited = True
    return NGramModel.from_counts(counts, order, 1501, vocab_hash="h"), sequences, edited


def reference_layout(counts):
    """``trie_layout`` of a store of ``counts``, from its definition: the
    nodes are the empty context and every substring of each context with
    counts, sorted by length and then by the reversed context; the
    parent of a node is its context without the first id."""
    nodes = {()} | {ctx[i:j] for ctx, bucket in counts.items() if bucket
                    for i in range(len(ctx)) for j in range(i + 1, len(ctx) + 1)}
    nodes = sorted(nodes, key=lambda ctx: (len(ctx), ctx[::-1]))
    index = {ctx: i for i, ctx in enumerate(nodes)}
    parents = [index[ctx[1:]] for ctx in nodes[1:]]
    starts = [0] + [sum(len(ctx) <= d for ctx in nodes) for d in range(len(nodes[-1]) + 1)]
    return ([1 + bisect_left(parents, i) for i in range(len(nodes) + 1)],
            [ctx[0] if ctx else 0 for ctx in nodes], starts,
            [dict(counts[ctx]) if counts.get(ctx) else None for ctx in nodes])


@settings(max_examples=200, deadline=None)
@given(case=hand_built_models())
def test_every_store_numbers_its_nodes_as_the_reference(tmp_path_factory, case):
    """A hand-built model, the same counts built again from a dict read
    backwards, and the model's text parsed alone all hold the reference
    layout, although the contexts need not be prefix-closed."""
    model = case[0]
    counts = {ctx: dict(bucket) for ctx, bucket in reversed(list(model.counts.items()))}
    expected = reference_layout(counts)
    path = tmp_path_factory.mktemp("layout") / "m.ngram"
    ngram.save(model, path)
    rebuilt = NGramModel.from_counts(counts, model.order, model.vocab_size)
    for got in (model, rebuilt, ngram._parse(path)):
        assert trie_layout(got) == expected


wide_sequences = st.lists(st.lists(st.integers(0, 200), max_size=60), min_size=1, max_size=4)


@settings(max_examples=100, deadline=None)
@given(order=st.integers(7, 12), sequences=wide_sequences)
@example(order=10, sequences=[list(range(0, 200, 2)), list(range(199, 0, -3)),
                              [7] * 12 + list(range(100, 120))])
def test_long_contexts_over_many_ids_count_and_number_as_the_references(
        tmp_path_factory, order, sequences):
    """Contexts of up to 11 ids over up to 201 distinct ids, whose
    reversed contexts can take more than 63 bits to write one digit per
    id (the example needs 72): ``train`` counts as the per-position loop,
    both the trained model and one built from its counts hold the
    reference layout, and the trained model lists and saves its contexts
    in tuple order."""
    vocab = tok.build_vocab(tok.TokenizerKind.UNICODE, ["ab"])
    counts = reference_counts(sequences, order)
    trained = ngram.train(iter(sequences), order, vocab)
    assert trained.counts == counts
    assert list(trained.counts) == sorted(counts)
    expected = reference_layout(counts)
    assert trie_layout(trained) == expected
    assert trie_layout(NGramModel.from_counts(counts, order, 201)) == expected
    tmp = tmp_path_factory.mktemp("long")
    ngram.save(trained, tmp / "m.ngram")
    reference_save(trained, tmp / "ref.ngram")
    assert (tmp / "m.ngram").read_bytes() == (tmp / "ref.ngram").read_bytes()


# ids and counts of every decimal length of int64, of either sign, and
# the bounds
int64s = st.one_of(
    st.integers(1, 19).flatmap(lambda k: st.integers(10 ** (k - 1), min(10 ** k, BIG) - 1))
    .flatmap(lambda v: st.sampled_from([v, -v])),
    st.sampled_from([0, -BIG, BIG - 1]))


@st.composite
def wide_models(draw):
    """A hand-built model over ``int64s``: contexts of up to ``order - 1``
    ids, each drawn on its own, so that the root may have no bucket and
    the nodes of most contexts' prefixes and suffixes have none."""
    order = draw(st.integers(1, 5))
    ids = st.sampled_from(draw(st.lists(int64s, min_size=1, max_size=6))) | int64s
    contexts = st.lists(ids, max_size=order - 1).map(tuple)
    buckets = st.dictionaries(ids, int64s, min_size=1, max_size=4)
    counts = draw(st.dictionaries(contexts, buckets, max_size=8))
    return NGramModel.from_counts(counts, order, 7, vocab_hash="h")


@settings(max_examples=200, deadline=None)
@given(model=wide_models(), block=st.integers(1, 400) | st.just(ngram.SAVE_BLOCK_BYTES),
       config=st.none() | st.dictionaries(st.text(max_size=3), st.integers() | st.text()))
@example(model=NGramModel(3, 7), block=1, config=None)  # the empty model: its header alone
@example(model=NGramModel.from_counts({(BIG - 1, -BIG): {-BIG: BIG - 1, BIG - 1: -BIG},
                                       (7,): {10 ** 18: 1}}, 3, 7),
         block=1, config={"seed": -1})
def test_save_renders_the_per_line_reference_from_the_arrays(tmp_path_factory, model, block,
                                                             config):
    """In blocks of one line, of a few lines and of the default size, and
    with or without a config line."""
    tmp = tmp_path_factory.mktemp("render")
    with patch.object(ngram, "SAVE_BLOCK_BYTES", block):
        ngram.save(model, tmp / "m.ngram", config)
    reference_save(model, tmp / "ref.ngram", config)
    assert (tmp / "m.ngram").read_bytes() == (tmp / "ref.ngram").read_bytes()
    assert load_by(tmp / "m.ngram", image=True).counts == model.counts


def assert_same_rows(got, expected, contexts):
    """Bit-identical ``next_dist`` rows after every context."""
    for ctx in contexts:
        assert got.next_dist(ctx).tobytes() == expected.next_dist(ctx).tobytes()


def assert_same_model(got, expected, tmp_path):
    """Equal header and counts, the same saved bytes, and, in a model
    loaded from them, buckets that change their own context alone."""
    assert (got.order, got.discount, got.vocab_size, got.vocab_hash) == \
        (expected.order, expected.discount, expected.vocab_size, expected.vocab_hash)
    assert got.counts == expected.counts
    ngram.save(got, tmp_path / "got.ngram")
    ngram.save(expected, tmp_path / "expected.ngram")
    assert (tmp_path / "got.ngram").read_bytes() == (tmp_path / "expected.ngram").read_bytes()
    copy = ngram.load(tmp_path / "got.ngram")
    want = {ctx: dict(bucket) for ctx, bucket in expected.counts.items()}
    for ctx in list(want)[:3]:
        copy.counts[ctx][-1] = 1
        want[ctx][-1] = 1
        assert copy.counts == want


@settings(max_examples=200, deadline=None)
@given(case=hand_built_models(), rnd=st.randoms(use_true_random=False))
def test_save_and_load_match_the_per_line_reference(tmp_path_factory, case, rnd):
    model, sequences, edited = case
    tmp = tmp_path_factory.mktemp("io")
    path, expected_path = tmp / "m.ngram", tmp / "ref.ngram"
    ngram.save(model, path)
    reference_save(model, expected_path)
    data = path.read_bytes()
    assert data == expected_path.read_bytes()

    loaded = load_by(path, image=True)
    assert_same_model(loaded, reference_load(path), tmp)
    assert loaded.counts == model.counts
    parsed = ngram._parse(path)  # the text alone, as when there is no image
    assert_same_model(loaded, parsed, tmp)
    contexts = list(model.counts)
    assert_same_rows(loaded, parsed, contexts + [ctx[1:] + ctx[:1] for ctx in contexts])

    lines = data.decode("utf-8").split("\n")[:-1]
    head, body = lines[:5], lines[5:]
    variants = [head + rnd.sample(body, len(body))]
    if body:
        at = rnd.randrange(len(body))
        body.insert(rnd.randrange(len(body) + 1), body[at])
        variants.append(head + body)
    for variant in variants:
        path.write_text("\n".join(variant) + "\n", encoding="utf-8")
        assert_same_model(ngram.load(path), reference_load(path), tmp)

    if sequences and not edited:
        vocab = tok.build_vocab(tok.TokenizerKind.UNICODE, ["ab"])
        assert loaded.counts == ngram.train(sequences, model.order, vocab).counts


@st.composite
def mutated_model_files(draw):
    """An ``order`` line and the ``C`` lines of a hand-built model, with a
    few lines mutated: a character inserted, deleted or replaced, or the
    line cut short."""
    model, _, _ = draw(hand_built_models())
    lines = [f"order\t{model.order}", "C\t\t0:1"]
    for ctx in sorted(model.counts):
        ev = " ".join(f"{t}:{c}" for t, c in sorted(model.counts[ctx].items()))
        lines.append(f"C\t{','.join(map(str, ctx))}\t{ev}")
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(lines) - 1))
        line = lines[at]
        i = draw(st.integers(0, len(line)))
        ch = draw(st.sampled_from([",", ":", " ", "\t", "x", "-", "0", "7", "+", "_"]))
        lines[at] = draw(st.sampled_from([
            line[:i] + ch + line[i:], line[:i] + line[i + 1:],
            line[:i] + ch + line[i + 1:], line[:i]]))
    return lines


@settings(max_examples=200, deadline=None)
@given(lines=mutated_model_files())
@example(lines=["C\t\t0:1", "C\t3\t1:1", "C\t3:1:4\t0:1"])
@example(lines=["C\t\t0:1", "C\t1\t2:1", "C\t1,,2\t0:1"])
@example(lines=["C\t\t0:1", "C\t5\t0:1", "C\t,5\t0:1"])
@example(lines=["C\t\t0:1", "C\t1\t0:1", "C\t1,\t0:1"])
@example(lines=["C\t\t0:1", "C\t1\t0:1 0:3", "C\t1,2\t0:1  2:1"])
@example(lines=["C\t\t0:1", "", "C\t1\t0:1"])  # a blank line is skipped
@example(lines=["C\t\t0:1", "C\t1,2\t0:1", "C\t1,2,3\t0:1"])  # two ids too many for order 2
@example(lines=["C\t1,2\t0:1", "C\tx\t0:1"])  # a malformed line is named first
@example(lines=["order\t1", "C\t\t0:1", "C\t1\t0:1"])
@example(lines=["order\t0", "C\t1\t0:1"])  # the header is checked first
@example(lines=["C\t\t1:2 1:5"])  # a token named twice
def test_load_refuses_the_lines_the_per_line_reference_refuses(tmp_path_factory, lines):
    path = tmp_path_factory.mktemp("bad") / "m.ngram"
    write_model(path, HEADER, lines)
    try:
        expected = reference_load(path)
    except NGramError as e:
        with pytest.raises(NGramError) as got:
            ngram.load(path)
        assert str(got.value) == str(e)
    else:
        assert_same_model(ngram.load(path), expected, path.parent)
