"""Pins of ``tokenizers.encode``: the digest of the ids of every fixture
strophe in every format under a vocabulary of each kind, the ids of
edge texts, and a property test against the per-line reference, each
line's ``line_tokens`` mapped to ids and the lines joined by the
separator id."""

import hashlib
import unicodedata
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from verseforge import corpus, formats, tokenizers as tok
from verseforge.formats import DataFormat
from verseforge.tokenizers import TokenizerKind
from helpers import DATA

# (kind, budget): the vocabularies whose ids are pinned, each built from
# the texts it encodes; the budget is read by OUR only
VOCABS = [("unicode", 40000), ("syllable", 40000), ("our", 300), ("our", 40000)]

# sha256 over the ids of the fixture's texts in the format of the key,
# one line of ids per text, under the key's vocabulary of those texts
ENCODE_SHA256 = {
    ("basic", "unicode", 40000):
        "149726e13b58ac66d65d6394536944839eeffb17b5c29ba0506226428c58536f",
    ("basic", "syllable", 40000):
        "f13812f8bb79fdaa0b86a0855139ac0d105fc22e8f07cc86656d2feb0a687213",
    ("basic", "our", 300):
        "e8e38945b59cd83a172028e88d6e10b85310894fa0f77800bb2394c9025bd655",
    ("basic", "our", 40000):
        "3ecec5c2e147581c6c8016773ef1fca3c1f4e3573bb133da458a98bec52f6d92",
    ("verse_par", "unicode", 40000):
        "71eb8cfd558f12a16bf5a4f5ffc101ab5c52efc49c0059eb07b935ed8f75517d",
    ("verse_par", "syllable", 40000):
        "1dd39389c1483123cf6d86f906187d44423426a00c4cf849e8f41e4ac1d5b23b",
    ("verse_par", "our", 300):
        "cdf44ffe58b568db2a1b6c709825779e3843b1a7fd3fa970a35688017c229f87",
    ("verse_par", "our", 40000):
        "cd794f0d07c1faba74371b30013d496d798cb748ad47dabbb32a34b41efbcbb9",
    ("meter_verse", "unicode", 40000):
        "0d7151b9eea2deffb61e9351fc6b1bd9d62d3308d7e52853f98513bda2785856",
    ("meter_verse", "syllable", 40000):
        "0a6c4644e4799c5850bfd4fc7c94c85557415a7ee8d1f58e4983b491d3def078",
    ("meter_verse", "our", 300):
        "067bddb51f67830ce64bcb58a809e2d5ed01e2b057410cfdc452db08a33e7ae0",
    ("meter_verse", "our", 40000):
        "ef5fb767988efab1df8fe60cd3590e0ad4353da063e6e3e197676d18fa91e2c9",
}


@lru_cache(maxsize=None)
def fixture_texts(fmt: DataFormat) -> tuple[str, ...]:
    strophes = corpus.ingest(DATA / "fixture_corpus.jsonl")
    return tuple(formats.encode(s, fmt) for s in strophes)


@lru_cache(maxsize=None)
def vocab_of(fmt: DataFormat, kind: str, budget: int) -> tok.Vocab:
    return tok.build_vocab(TokenizerKind(kind), fixture_texts(fmt), budget)


def ids_sha256(vocab, texts) -> str:
    return hashlib.sha256("\n".join(" ".join(map(str, tok.encode(vocab, text)))
                                    for text in texts).encode()).hexdigest()


@pytest.mark.parametrize("kind,budget", VOCABS)
@pytest.mark.parametrize("fmt", list(DataFormat))
def test_the_ids_of_every_fixture_text_match_their_pinned_digest(fmt, kind, budget):
    got = ids_sha256(vocab_of(fmt, kind, budget), fixture_texts(fmt))
    assert got == ENCODE_SHA256[fmt.value, kind, budget]


EDGE_TEXTS = ["", "\n", "\n\n", " ", "  a  \n b ", "Tvá loď\n", "ß€ Ω\tx\r",
              "<eos> <unk>", unicodedata.normalize("NFD", "křik")]
# the ids of each of ``EDGE_TEXTS`` under the ``meter_verse`` vocabulary
# of each kind, OUR at a budget of 300
EDGE_IDS = {
    "unicode": [[], [0], [0, 0], [3], [3, 3, 34, 3, 3, 0, 3, 35, 3], [30, 52, 55, 3, 43, 46, 2, 0],
                [2, 2, 3, 2, 2, 2, 2], [2, 38, 46, 49, 2, 3, 2, 51, 45, 42, 2], [42, 48, 2, 40, 42]],
    "syllable": [[], [0], [0, 0], [2], [2, 104, 2, 2, 0, 2, 2], [2, 2, 0], [2, 2], [2, 2, 2],
                 [2]],
    "our": [[], [0], [0, 0], [31], [31, 96, 31, 31, 0, 133, 31], [30, 106, 116, 69, 2, 0],
            [2, 2, 31, 2, 2, 2, 2], [2, 61, 69, 72, 2, 31, 2, 74, 68, 65, 2], [65, 71, 2, 63, 65]],
}


@pytest.mark.parametrize("kind", list(EDGE_IDS))
def test_the_ids_of_edge_texts_are_pinned(kind):
    vocab = vocab_of(DataFormat.METER_VERSE, kind, 300)
    assert [tok.encode(vocab, text) for text in EDGE_TEXTS] == EDGE_IDS[kind]


def per_line_ids(vocab, text) -> list[int]:
    """The ids of ``text``, line by line: each line's ``line_tokens``
    mapped to ids, the unknown id for a token outside the vocabulary,
    and the lines joined by the separator id."""
    ids = []
    for i, line in enumerate(text.split("\n")):
        if i:
            ids.append(vocab.sep_id)
        ids += [vocab.id_of.get(t, vocab.unk_id) for t in tok.line_tokens(vocab, line)]
    return ids


# spaces and runs of them, line ends, tabs, carriage returns, annotation
# pieces, digits, capitals, Czech letters, a combining caron and
# characters outside every vocabulary
CHUNKS = [" ", "  ", "   ", "\n", "\n\n", "\t", "\r", "#", " #", "0", "19", "J", "ABAB",
          "X", "a", "e", "ř", "ů", "š", "í", "ch", "Tvá", " moři,", "\u030c", "ß", "€", "<eos>"]


@settings(max_examples=300, deadline=None)
@given(kind_budget=st.sampled_from(VOCABS),
       text=st.lists(st.sampled_from(CHUNKS), max_size=30).map("".join))
def test_encode_matches_the_per_line_reference(kind_budget, text):
    vocab = vocab_of(DataFormat.METER_VERSE, *kind_budget)
    assert tok.encode(vocab, text) == per_line_ids(vocab, text)
