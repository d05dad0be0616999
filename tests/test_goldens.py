"""Seeded generation, vocabulary file and model file goldens.

Each generation case trains a small model from the fixture corpus,
decodes a few seeded requests with both decoders and compares the
sha256 of the output with a pinned value.  A change to the model, the
sampler or the decoders that moves a single draw changes the hash.  The
saved vocabulary and model files, and the model images, are pinned the
same way.
"""

import hashlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from verseforge import corpus, formats, ngram, tokenizers as tok
from verseforge.corpus import MeterLabel, YearBucket
from verseforge.formats import DataFormat
from verseforge.generation import GenerationRequest, generate_basic, generate_forced
from helpers import DATA

KINDS = [tok.TokenizerKind.UNICODE, tok.TokenizerKind.SYLLABLE, tok.TokenizerKind.OUR]
REQUESTS = [
    ("ABAB", (MeterLabel.IAMB,) * 4, 1),
    ("AABB", (MeterLabel.TROCHEE,) * 4, 2),
    ("XAXA", (MeterLabel.IAMB, MeterLabel.TROCHEE) * 2, 3),
    ("ABABCC", (MeterLabel.DACTYL,) * 6, 4),
]

GOLDEN_SHA256 = {
    ("unicode", 1.0):
        "5745865d75a9b863fa0c76ed7be1bd5a89bc460d2bc5c1f22a4949a62bdfd266",
    ("unicode", 0.3):
        "6105c191c06780a5745068b4e91ac8cdce7926458f682225c5df42763c1b9422",
    ("unicode", 2.5):
        "16d9cbac28e1a9c941dfb09ab47f73960993dd2327ede3b058a8d43ee994be09",
    ("syllable", 1.0):
        "cf1f41c91995f66ff78508b42c5096d1312d822ff586a61e98bea1a879af8d68",
    ("syllable", 0.3):
        "c2e91814a27a3bae983f483042db75694339954f7d7b34a69eddde054a16d6e3",
    ("syllable", 2.5):
        "59fd6c15910a995b8fba2fe345312f551c632261d4a931b1c32dd33dd9878706",
    ("our", 1.0):
        "630ac713f356c7dfc379861a799cf2781efb29889421548bba5f21947c70a01a",
    ("our", 0.3):
        "29d2a02b984c63896bd81c6336f64eaa3791bbba8c596eb0add9695fe512860a",
    ("our", 2.5):
        "9bee454d88ea6c92ed35bea59cdb40009d5c20017e1541dad60a2724d7abcdd7",
}


@pytest.fixture(scope="module")
def fixture_texts(fixture_strophes):
    return [formats.encode(s, DataFormat.METER_VERSE) for s in fixture_strophes[:150]]


def train_model(texts, kind):
    vocab = tok.build_vocab(kind, [line for text in texts for line in text.split("\n")],
                            vocab_size=120)
    seqs = [tok.encode(vocab, text) + [vocab.eos_id] for text in texts]
    return ngram.train(seqs, ngram.DEFAULT_ORDER[kind], vocab), vocab


VOCAB_SHA256 = {
    ("unicode", None):
        "295fbb5f293459e0c65c94d20af582ebe8874a070f1aa161576018c1e105c154",
    ("syllable", None):
        "fbe79e4b6a68de225069f528fc65ce4c683155f03b936cded588f02a5a8bac95",
    ("our", 120):
        "cdff751c99550becfe74546997cefe388a0fe8ee5487630660748d4c59371ae7",
    ("our", 400):
        "7d6784eec2f17cf6d2c8f177e8cc1292e52aba1877fcbcf8b47b5ff0af85d7b5",
}

# order-10 unicode model
MODEL_SHA256 = "5507af0469a091776bb0eed8e43514a722d4769361a93f9fe0f9c0880203fd2b"

# the models of `train_model`: order-4 syllable (293 tokens) and order-3
# our (120 tokens), so ids have up to 3 digits
KIND_MODEL_SHA256 = {
    "syllable": "05815960b9d6e5b3e82d5598d580b712051b5727eab1f1ac03849121f9ce570e",
    "our": "b9c8aabfc39b897e5b90f9ce6da32d800cb020c29e8ffbd658e86fe76bea1f28",
}

# the images that `save` writes beside those texts, which hold the trie's
# node and bucket numbering
MODEL_IMAGE_SHA256 = "e98b43cb491d0a145a5304c21a9ddd3945a9d08312ff3e467296558fe3a6d7cf"
KIND_MODEL_IMAGE_SHA256 = {
    "syllable": "76dc4c0f5c8599f4a56dd6da41b4e7e722909ec36eb6956de6b6993915cd4cd5",
    "our": "b524d6f6e0a4f2e129ea733521286d18155a9f7f3778439ff54eeb1bb194625c",
}


def file_sha256(save, obj, path):
    save(obj, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def image_sha256(path):
    """The sha256 of the image that ``ngram.save`` wrote beside ``path``."""
    with open(ngram._image_path(path), "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


@pytest.mark.parametrize("kind,size", list(VOCAB_SHA256))
def test_vocab_file_golden(fixture_texts, tmp_path, kind, size):
    lines = [line for text in fixture_texts for line in text.split("\n")]
    vocab = tok.build_vocab(tok.TokenizerKind(kind), lines, vocab_size=size)
    digest = file_sha256(tok.save_vocab, vocab, tmp_path / "v.vocab")
    assert digest == VOCAB_SHA256[(kind, size)]


# `our` at the CLI's default budget on the whole fixture; training stops
# at 707 tokens, when no pair is left
OUR_DEFAULT_BUDGET_SHA256 = "680d1f6c70159e3f0ce4675910b9b0a9b4949bfedb3752c2bb55f20278a48517"


def test_our_vocab_at_the_default_budget_golden(fixture_strophes, tmp_path):
    texts = [formats.encode(s, DataFormat.METER_VERSE) for s in fixture_strophes]
    vocab = tok.build_vocab(tok.TokenizerKind.OUR, texts, vocab_size=40000)
    assert len(vocab) == 707
    digest = file_sha256(tok.save_vocab, vocab, tmp_path / "v.vocab")
    assert digest == OUR_DEFAULT_BUDGET_SHA256


# The `meter_verse` texts of a 2x `perfbench/synth.py` copy of the
# fixture (seed 0, as `scripts/bench_stages.py` builds it): the `our`
# vocabulary at the CLI's default budget (8,529 tokens), and the id
# sequences of the texts under it and under the `syllable` vocabulary,
# one line of ids per text.  Far fewer of its pieces repeat than the
# fixture's, so the piece memos miss more.
SCALED_SHA256 = {
    "our vocab": "8aa1af248399a4fb8db73888d6317fb48b60f38f108834e49e7906ee6eeacca1",
    "our ids": "c73ddc4901597fba02f663fe25749f85b1752336a2795bdc29f7d93b040d1c75",
    "syllable ids": "35fe0b784c4450ebbec5b70466f4352da4ad50be6f5bb649a4635570b1351a22",
}
SYNTH = Path(__file__).resolve().parents[1] / "perfbench" / "synth.py"


@pytest.fixture(scope="module")
def scaled_texts(tmp_path_factory):
    """``perfbench/synth.py`` imports nothing from the package, so it is
    loaded by file path."""
    spec = importlib.util.spec_from_file_location("perfbench_synth", SYNTH)
    synth = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(synth)
    path = tmp_path_factory.mktemp("scaled") / "scaled.jsonl"
    synth.write_jsonl(synth.scaled_corpus(synth.read_jsonl(DATA / "fixture_corpus.jsonl"), 2, 0),
                      path)
    return [formats.encode(s, DataFormat.METER_VERSE) for s in corpus.ingest(path)]


def ids_sha256(vocab, texts):
    return hashlib.sha256("\n".join(" ".join(map(str, tok.encode(vocab, text)))
                                    for text in texts).encode()).hexdigest()


def test_scaled_corpus_vocab_and_ids_golden(scaled_texts, tmp_path):
    our = tok.build_vocab(tok.TokenizerKind.OUR, scaled_texts, vocab_size=40000)
    assert len(our) == 8529
    assert file_sha256(tok.save_vocab, our, tmp_path / "v.vocab") == SCALED_SHA256["our vocab"]
    assert ids_sha256(our, scaled_texts) == SCALED_SHA256["our ids"]
    syllable = tok.build_vocab(tok.TokenizerKind.SYLLABLE, scaled_texts)
    assert ids_sha256(syllable, scaled_texts) == SCALED_SHA256["syllable ids"]


def test_model_file_golden(fixture_texts, tmp_path):
    lines = [line for text in fixture_texts for line in text.split("\n")]
    vocab = tok.build_vocab(tok.TokenizerKind.UNICODE, lines)
    seqs = [tok.encode(vocab, text) + [vocab.eos_id] for text in fixture_texts]
    model = ngram.train(seqs, 10, vocab)
    path = tmp_path / "m.ngram"
    assert file_sha256(ngram.save, model, path) == MODEL_SHA256
    assert image_sha256(path) == MODEL_IMAGE_SHA256


@pytest.fixture(scope="module")
def models(fixture_texts):
    return {kind.value: train_model(fixture_texts, kind) for kind in KINDS}


@pytest.mark.parametrize("kind", list(KIND_MODEL_SHA256))
def test_model_file_golden_per_kind(models, tmp_path, kind):
    model, _ = models[kind]
    path = tmp_path / "m.ngram"
    assert file_sha256(ngram.save, model, path) == KIND_MODEL_SHA256[kind]
    assert image_sha256(path) == KIND_MODEL_IMAGE_SHA256[kind]


def generations(model, vocab, temperature):
    texts = []
    for scheme, meters, seed in REQUESTS:
        req = GenerationRequest(scheme, YearBucket(1900), DataFormat.METER_VERSE,
                                per_verse_meters=meters, temperature=temperature,
                                seed=seed, max_tokens=400)
        texts.append(generate_forced(model, vocab, req).raw_text)
        texts.append(generate_basic(model, vocab, req).raw_text)
    return "\n\x00\n".join(texts)


@pytest.mark.parametrize("kind,temperature", list(GOLDEN_SHA256))
def test_seeded_generation_golden(models, kind, temperature):
    model, vocab = models[kind]
    text = generations(model, vocab, temperature)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == GOLDEN_SHA256[(kind, temperature)]


rows = st.lists(
    st.one_of(st.just(0.0), st.floats(1e-6, 1e3)), min_size=1, max_size=40,
).filter(lambda r: sum(r) > 0)


@settings(max_examples=150, deadline=None)
@given(row=rows, seed=st.integers(0, 2**32 - 1), draws=st.integers(1, 5))
def test_draw_matches_generator_choice(row, seed, draws):
    p = np.asarray(row)
    q = p / p.sum()
    expected_rng = np.random.default_rng(seed)
    expected = [int(expected_rng.choice(len(q), p=q)) for _ in range(draws)]
    rng = np.random.default_rng(seed)
    # a model that offers only next_dist
    model = SimpleNamespace(vocab_size=len(p), next_dist=lambda context: p)
    assert [ngram.sample_with_rng(model, [], 1.0, rng) for _ in range(draws)] == expected


@pytest.mark.parametrize("temperature", [1.0, 0.3])
def test_generation_unchanged_under_a_one_table_cache(fixture_texts, monkeypatch,
                                                     temperature):
    model, vocab = train_model(fixture_texts, tok.TokenizerKind.UNICODE)
    monkeypatch.setattr(ngram, "TABLE_CACHE_BYTES", 8 * model.vocab_size)
    text = generations(model, vocab, temperature)
    assert len(model._tables) == 1
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == GOLDEN_SHA256[("unicode", temperature)]


# (kind, decoder, seed, max_tokens) -> raw text, at temperature 1.0: a
# forced strophe with verse retries and a basic one that end by EOS, then
# strophes cut by the token budget
ENDINGS = [
    (("unicode", generate_forced, 0, 400),
     "# ABAB # 1900\nJ # 7 # ůže # A duše křídla třese,\nJ # 9 # ůže # a vlny bledá hyne může."
     "\nJ # 7 # ůže # i oheň mraky vína kůže.\nJ # 9 # ůže # i oheň mraky vína kůže"),
    (("unicode", generate_basic, 4, 400),
     "# ABAB # 1900\nJ # 9 # oře # i jaro bílá vlahá hoře."),
    (("unicode", generate_forced, 5, 25), "# ABAB # 1900\nJ # 9 # ody # Trny kámen zla"),
    (("unicode", generate_basic, 5, 25), "# ABAB # 1900\nJ # 9 # ody # Trny kámen zla"),
    (("our", generate_forced, 6, 25), "# ABAB # 1900\nJ # 9 # esy # plesy\nJ # 9 # íle # A stí reje,"),
    (("syllable", generate_basic, 7, 25),
     "# ABAB # 1900\nJ # 9 # íle # ne # sedá vítr řeka hody,\nT # 8 # eje # A hy"),
]
ENDINGS_SAMPLED = 251
ENDINGS_RETRIED = 2


def test_generation_endings_golden(models, monkeypatch):
    """Raw texts of strophes ended by EOS, after retries and by the token
    budget, and the numbers of tokens sampled and verses retried for them."""
    calls, retries = [], []
    sample, parse_verse_line = ngram.sample_with_rng, formats._parse_verse_line

    def counted(*args):
        calls.append(None)
        return sample(*args)

    def parse_counting_errors(*args):
        try:
            return parse_verse_line(*args)
        except formats.FormatError:
            retries.append(None)
            raise

    monkeypatch.setattr(ngram, "sample_with_rng", counted)
    monkeypatch.setattr(formats, "_parse_verse_line", parse_counting_errors)
    for (kind, decode, seed, max_tokens), expected in ENDINGS:
        model, vocab = models[kind]
        req = GenerationRequest("ABAB", YearBucket(1900), DataFormat.METER_VERSE,
                                per_verse_meters=(MeterLabel.IAMB,) * 4, seed=seed,
                                max_tokens=max_tokens)
        gen = decode(model, vocab, req)
        assert gen.raw_text == expected
        assert gen.truncated == (max_tokens == 25)
    assert len(calls) == ENDINGS_SAMPLED
    assert len(retries) == ENDINGS_RETRIED
