from collections import Counter
from functools import lru_cache
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from verseforge import corpus, formats, phonology, tokenizers as tok
from verseforge.formats import DataFormat
from verseforge.tokenizers import (
    EOS_TOKEN,
    SEP_TOKEN,
    UNK_GLYPH,
    UNK_TOKEN,
    TokenizerError,
    TokenizerKind,
    Vocab,
)
from helpers import DATA

HEADER = "# ABAB # 1900"
SPECIALS = [SEP_TOKEN, EOS_TOKEN, UNK_TOKEN]


def test_pieces_are_space_attached_and_lossless():
    assert tok.pieces("a v duchu") == ["a", " v", " duchu"]
    assert tok.pieces(HEADER) == ["#", " ABAB", " #", " 1900"]


@given(st.text(alphabet=st.characters(blacklist_characters="\n"), max_size=40))
def test_pieces_lossless_property(line):
    assert "".join(tok.pieces(line)) == line


def test_annotation_piece_detection():
    for piece in ("#", " #", " ABAB", "ABAB", " 1900", "9", " NaN", "J"):
        assert tok.is_annotation_piece(piece), piece
    for piece in (" moři", "Tvá", " v", "", " ", " ání", "a1b"):
        assert not tok.is_annotation_piece(piece), piece


def test_unicode_tokenizes_per_character():
    vocab = tok.build_vocab(tok.TokenizerKind.UNICODE, [HEADER])
    assert tok.line_tokens(vocab, HEADER) == list(HEADER)


def test_syllable_keeps_annotations_atomic():
    vocab = tok.build_vocab(tok.TokenizerKind.SYLLABLE, [HEADER, "a v duchu"])
    assert tok.line_tokens(vocab, HEADER) == ["#", " ABAB", " #", " 1900"]


def test_our_bpe_keeps_annotations_atomic():
    vocab = tok.train_bpe([HEADER, "a v duchu"], vocab_size=60)
    assert tok.line_tokens(vocab, HEADER) == ["#", " ABAB", " #", " 1900"]
    assert " ABAB" in vocab.protected


def test_base_bpe_splits_annotations():
    # a BPE vocabulary without protected pieces (one trained elsewhere,
    # say) splits the scheme into learned subwords
    tokens = SPECIALS + ["#", " #", "AB", " AB", " 1900",
                        " ", "A", "B", "1", "9", "0"]
    vocab = Vocab(TokenizerKind.OUR, tokens)
    assert tok.line_tokens(vocab, HEADER) == ["#", " AB", "AB", " #", " 1900"]


def test_syllable_tokens_for_duchu():
    vocab = tok.build_vocab(tok.TokenizerKind.SYLLABLE, ["a v duchu"])
    assert tok.line_tokens(vocab, "a v duchu") == ["a", " v", " duch", "u"]


def test_syllable_keeps_punctuation_on_edge_syllables():
    vocab = Vocab(TokenizerKind.SYLLABLE, SPECIALS)
    assert tok.line_tokens(vocab, " moři,") == [" mo", "ři,"]
    assert tok.line_tokens(vocab, " (peřeje)") == [" (pe", "ře", "je)"]


def test_round_trip_syllable_and_unicode(fixture_strophes):
    lines = [v.text for s in fixture_strophes[:50] for v in s.verses]
    text = "\n".join(lines)
    for kind in (TokenizerKind.SYLLABLE, TokenizerKind.UNICODE):
        vocab = tok.build_vocab(kind, lines)
        assert tok.decode(vocab, tok.encode(vocab, text)) == text


@pytest.mark.parametrize("kind", list(TokenizerKind))
def test_build_vocab_splits_strophe_texts(fixture_strophes, kind):
    texts = [formats.encode(s, DataFormat.METER_VERSE) for s in fixture_strophes[:100]]
    lines = [line for text in texts for line in text.split("\n")]
    vocab = tok.build_vocab(kind, texts, vocab_size=200)
    assert vocab == tok.build_vocab(kind, lines, vocab_size=200)
    assert vocab.unk_id not in tok.encode(vocab, texts[0])


def test_encode_joins_lines_with_sep():
    vocab = tok.build_vocab(tok.TokenizerKind.UNICODE, ["ab"])
    ids = tok.encode(vocab, "a\nb")
    assert ids == [vocab.id_of["a"], vocab.sep_id, vocab.id_of["b"]]


def test_unknown_tokens_map_to_unk():
    vocab = tok.build_vocab(tok.TokenizerKind.UNICODE, ["ab"])
    ids = tok.encode(vocab, "aQb")
    assert ids.count(vocab.unk_id) == 1
    assert tok.decode(vocab, ids) == "a" + UNK_GLYPH + "b"


def test_decode_skips_eos():
    vocab = tok.build_vocab(tok.TokenizerKind.UNICODE, ["ab"])
    assert tok.decode(vocab, [vocab.id_of["a"], vocab.eos_id, vocab.id_of["b"]]) == "ab"


def test_bpe_training_is_deterministic():
    lines = ["vlny moře zpívá", "moře vlny voní", "zpívá moře"]
    a = tok.train_bpe(lines, vocab_size=40)
    b = tok.train_bpe(lines, vocab_size=40)
    assert a.tokens == b.tokens


def test_bpe_tie_breaks_lexicographically():
    # ("a","b") and ("c","d") tie at one occurrence each
    base_size = 3 + 4  # specials + alphabet
    vocab = tok.train_bpe(["ab", "cd"], vocab_size=base_size + 1)
    assert vocab.tokens[-1] == "ab"
    vocab = tok.train_bpe(["ab", "cd"], vocab_size=base_size + 2)
    assert vocab.tokens[-2:] == ["ab", "cd"]


def test_bpe_zero_merge_budget():
    vocab = tok.train_bpe(["ab"], vocab_size=5)
    assert vocab.tokens == SPECIALS + ["a", "b"]


def test_bpe_budget_below_alphabet_raises():
    with pytest.raises(TokenizerError, match="below"):
        tok.train_bpe(["abcdef"], vocab_size=4)
    with pytest.raises(TokenizerError, match="empty"):
        tok.train_bpe([""], vocab_size=10)


def test_bpe_stops_when_no_pairs_remain():
    # budget larger than anything learnable: single-char words only
    vocab = tok.train_bpe(["a b c"], vocab_size=100)
    assert len(vocab) < 100


def reference_collect_protected(texts) -> tuple[set[str], Counter]:
    """``tok._collect_protected`` as a loop over every piece of every line
    of every text."""
    protected = set()
    piece_freq = Counter()
    for text in texts:
        for line in text.split("\n"):
            for piece in tok.pieces(line):
                if tok.is_annotation_piece(piece):
                    protected.add(piece)
                else:
                    piece_freq[piece] += 1
    return protected, piece_freq


def reference_train_bpe(texts, vocab_size: int) -> Vocab:
    """``train_bpe`` as a full recount of every pair after each merge."""
    texts = list(texts)
    protected, piece_freq = reference_collect_protected(texts)
    alphabet = sorted({ch for text in texts for ch in text} - {"\n"} - protected)
    if not alphabet and not protected:
        raise TokenizerError("cannot train BPE on an empty corpus")
    base = [SEP_TOKEN, EOS_TOKEN, UNK_TOKEN] + sorted(protected) + alphabet
    if vocab_size < len(base):
        raise TokenizerError(
            f"vocab_size {vocab_size} below alphabet+specials ({len(base)})")
    words = {tuple(piece): freq for piece, freq in piece_freq.items()}
    tokens = list(base)
    known = set(tokens)
    while len(tokens) < vocab_size:
        pair_counts = Counter()
        for symbols, freq in words.items():
            for a, b in zip(symbols, symbols[1:]):
                pair_counts[(a, b)] += freq
        if not pair_counts:
            break
        top = max(pair_counts.values())
        pair = min(p for p, c in pair_counts.items() if c == top)
        merged = pair[0] + pair[1]
        if merged not in known:
            tokens.append(merged)
            known.add(merged)
        words = {tuple(tok._merge_pair(symbols, pair)): freq
                 for symbols, freq in words.items()}
    return Vocab(TokenizerKind.OUR, tokens, protected)


# Runs such as "aaaa" overlap their own pairs and merge to strings that
# other merges also make ("a"+"aa" and "aa"+"a"); "AB" is protected
# where it stands alone, while "aAB" and "AB1" make its letters alphabet
# symbols whose merge is already a token; few distinct symbols give ties
# at the top count.  Texts are several lines, some blank, and words are
# led by runs of spaces, so that lines may start or end with spaces.
bpe_words = st.one_of(
    st.text("ab", min_size=1, max_size=7),
    st.sampled_from(["", "#", "AB", "A", "12", "aAB", "AB1", "b#", "aaaa"]),
)
bpe_lines = st.lists(st.tuples(st.text(" ", max_size=3), bpe_words), max_size=6).map(
    lambda words: "".join(spaces + word for spaces, word in words))
bpe_corpora = st.lists(st.lists(bpe_lines, max_size=4).map("\n".join), min_size=1, max_size=6)


def bpe_outcome(train, texts, vocab_size):
    try:
        vocab = train(texts, vocab_size)
    except TokenizerError as e:
        return str(e)
    return vocab.kind, vocab.tokens, vocab.protected


@settings(max_examples=300, deadline=None)
@given(texts=bpe_corpora, vocab_size=st.integers(0, 50))
def test_bpe_training_matches_the_full_recount(texts, vocab_size):
    assert (bpe_outcome(tok.train_bpe, texts, vocab_size)
            == bpe_outcome(reference_train_bpe, texts, vocab_size))
    protected, piece_freq = tok._collect_protected("\n".join(texts))
    expected_protected, expected_freq = reference_collect_protected(texts)
    assert protected == expected_protected
    assert list(piece_freq.items()) == list(expected_freq.items())  # in the same order


def test_vocab_validation():
    with pytest.raises(TokenizerError, match="duplicate"):
        Vocab(TokenizerKind.UNICODE, SPECIALS + ["a", "a"])
    with pytest.raises(TokenizerError, match="special"):
        Vocab(TokenizerKind.UNICODE, ["a", "b"])


def test_save_load_round_trip_with_escaping(tmp_path):
    tokens = SPECIALS + ["a", "a\tb", "zpí", " vá", "back\\slash"]
    vocab = Vocab(TokenizerKind.SYLLABLE, tokens, protected={" ABAB"})
    path = tmp_path / "v.vocab"
    tok.save_vocab(vocab, path)
    loaded = tok.load_vocab(path)
    assert loaded.tokens == vocab.tokens
    assert loaded.kind is vocab.kind
    assert loaded.protected == vocab.protected


# A config that ``json.dumps`` refuses fails a save after every token
# line is written.
UNWRITABLE_CONFIG = {"subcommand": "x", "bad": object()}


def test_a_failed_save_vocab_leaves_the_file_before_it_and_no_other(tmp_path):
    vocab = tok.build_vocab(TokenizerKind.UNICODE, ["ab"])
    path = tmp_path / "v.vocab"
    with pytest.raises(TypeError):
        tok.save_vocab(vocab, path, UNWRITABLE_CONFIG)
    assert list(tmp_path.iterdir()) == []
    tok.save_vocab(vocab, path)
    before = path.read_bytes()
    with pytest.raises(TypeError):
        tok.save_vocab(tok.build_vocab(TokenizerKind.UNICODE, ["cd"]), path, UNWRITABLE_CONFIG)
    assert list(tmp_path.iterdir()) == [path] and path.read_bytes() == before


def test_save_vocab_writes_through_a_symlink(tmp_path):
    vocab = tok.build_vocab(TokenizerKind.UNICODE, ["ab"])
    target, link = tmp_path / "v.vocab", tmp_path / "link.vocab"
    link.symlink_to(target)
    tok.save_vocab(vocab, link)
    assert link.is_symlink() and tok.load_vocab(target).tokens == vocab.tokens
    assert sorted(tmp_path.iterdir()) == [link, target]


def test_load_vocab_skips_a_blank_line(tmp_path):
    vocab = tok.build_vocab(TokenizerKind.UNICODE, ["ab"])
    path = tmp_path / "v.vocab"
    tok.save_vocab(vocab, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(lines[:2] + [""] + lines[2:-1] + ["", lines[-1]]) + "\n",
                    encoding="utf-8")
    loaded = tok.load_vocab(path)
    assert (loaded.kind, loaded.tokens, loaded.protected) == (vocab.kind, vocab.tokens,
                                                              vocab.protected)


def test_load_vocab_errors(tmp_path):
    p = tmp_path / "bad.vocab"
    p.write_text("#! verseforge-vocab v1\n#! kind\tunicode\na\tnope\n")
    with pytest.raises(TokenizerError, match="token<TAB>id"):
        tok.load_vocab(p)
    p.write_text("#! verseforge-vocab v1\n#! kind\tunicode\na\t5\n")
    with pytest.raises(TokenizerError, match="dense"):
        tok.load_vocab(p)
    p.write_text("a\t0\n")
    with pytest.raises(TokenizerError, match="kind"):
        tok.load_vocab(p)


def test_kind_parse():
    assert TokenizerKind.parse("SYLLABLE") is TokenizerKind.SYLLABLE
    for bad in ("wordpiece", "base"):
        with pytest.raises(TokenizerError, match="expected one of our, syllable, unicode"):
            TokenizerKind.parse(bad)


def _escape_as_pinned(token: str) -> str:
    return token.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n")


def _unescape_as_pinned(s: str) -> str:
    out, i = [], 0
    while i < len(s):
        if s[i] == "\\" and i + 1 < len(s):
            out.append({"t": "\t", "n": "\n", "\\": "\\"}.get(s[i + 1], s[i + 1]))
            i += 2
        else:
            out.append(s[i])
            i += 1
    return "".join(out)


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet="\\tn\t\nab", max_size=30))
def test_vocab_escapes_match_the_pinned_functions(s):
    assert tok._escape(s) == _escape_as_pinned(s)
    assert tok._unescape(s) == _unescape_as_pinned(s)
    assert tok._unescape(tok._escape(s)) == s


def _encode_as_pinned(vocab, text, syllabifier=None):
    """encode as it was written, with a list comprehension per line."""
    ids = []
    for i, line in enumerate(text.split("\n")):
        if i:
            ids.append(vocab.sep_id)
        ids.extend([vocab.id_of.get(t, vocab.unk_id)
                    for t in tok.line_tokens(vocab, line, syllabifier)])
    return ids


@lru_cache(maxsize=None)
def _vocabs():
    """A vocabulary of each kind over the first 60 fixture strophes."""
    strophes = corpus.ingest(DATA / "fixture_corpus.jsonl")[:60]
    texts = [formats.encode(s, DataFormat.METER_VERSE) for s in strophes]
    return {kind: tok.build_vocab(kind, texts, 300) for kind in TokenizerKind}


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(list(TokenizerKind)),
       text=st.text(alphabet="aeioumnrvkšřůéíáýJTX# 0123456789,.\nß\u03a9\u0301€Q",
                    max_size=60))
def test_encode_matches_the_pinned_comprehension(kind, text):
    """Characters outside the vocabularies (ß, Ω, a combining acute, €, Q)
    map to the unknown id on every path."""
    vocab = _vocabs()[kind]
    assert tok.encode(vocab, text) == _encode_as_pinned(vocab, text)


def reference_bpe_piece_tokens(piece: str, vocab: Vocab) -> list[str]:
    """An OUR piece's tokens without the memo: the merge loop, which merges
    the leftmost pair of the lowest merged id everywhere until no pair
    merges."""
    if tok.is_annotation_piece(piece) and piece in vocab.id_of:
        return [piece]
    symbols = list(piece)
    while len(symbols) > 1:
        merges = [(vocab.id_of[a + b], (a, b)) for a, b in zip(symbols, symbols[1:])
                  if a + b in vocab.id_of]
        if not merges:
            break
        symbols = tok._merge_pair(symbols, min(merges, key=lambda m: m[0])[1])
    return symbols


@settings(max_examples=200, deadline=None)
@given(texts=bpe_corpora, vocab_size=st.integers(0, 50),
       more=st.lists(bpe_words.map(lambda w: " " + w), max_size=5),
       bound=st.sampled_from([None, 1, 2, 3]))
def test_the_piece_memo_gives_the_merge_loop(texts, vocab_size, more, bound):
    """Cold and warm, and under a memo bound of a few pieces, each piece's
    tokens, read from the vocabulary's piece memo by ``line_tokens`` of
    the piece alone, are the merge loop's, in a list the caller owns."""
    try:
        vocab = tok.train_bpe(texts, vocab_size)
    except TokenizerError:
        return
    pieces = [p for text in texts for line in text.split("\n") for p in tok.pieces(line)]
    with patch.object(phonology, "TOKEN_MEMO_ENTRIES", bound or phonology.TOKEN_MEMO_ENTRIES):
        for _ in range(2):
            for piece in pieces + more:
                got = tok.line_tokens(vocab, piece)
                assert got == reference_bpe_piece_tokens(piece, vocab)
                got.append("x")
            assert len(vocab.piece_tokens) <= (bound or len(set(pieces + more)))


def test_the_piece_memo_is_no_part_of_a_vocab_and_keeps_the_ids(fixture_strophes):
    texts = [formats.encode(s, DataFormat.METER_VERSE) for s in fixture_strophes[:100]]
    used, fresh = (tok.build_vocab(TokenizerKind.OUR, texts, 300) for _ in range(2))
    ids = [tok.encode(used, text) for text in texts]
    assert set(used.piece_tokens) == {p for text in texts for line in text.split("\n")
                                      for p in tok.pieces(line)} | {SEP_TOKEN}
    assert not fresh.piece_tokens
    assert used == fresh and repr(used) == repr(fresh)
    with patch.object(phonology, "TOKEN_MEMO_ENTRIES", 2):
        assert [tok.encode(fresh, text) for text in texts] == ids
        assert len(fresh.piece_tokens) <= 2
    assert ids == [[fresh.id_of.get(t, fresh.unk_id)
                    for line_no, line in enumerate(text.split("\n"))
                    for t in ([SEP_TOKEN] if line_no else [])
                    + [t for p in tok.pieces(line) for t in reference_bpe_piece_tokens(p, fresh)]]
                   for text in texts]


def reference_syllable_piece_tokens(piece: str, syllabifier=None) -> list[str]:
    """A SYLLABLE piece's tokens without the memo: an annotation piece, or
    one that is no word between punctuation, or one without a syllable,
    stays whole; else its word's syllables, the first taking the leading
    space and punctuation and the last the trailing punctuation."""
    if tok.is_annotation_piece(piece):
        return [piece]
    space = " " if piece.startswith(" ") else ""
    m = tok._WORD_RE.match(piece[len(space):])
    if m is None:
        return [piece]
    pre, letters, post = m.groups()
    sylls = list(phonology.analyze(letters, syllabifier).syllables)
    if not sylls:
        return [piece]
    sylls[0] = space + pre + sylls[0]
    sylls[-1] += post
    return sylls


syllable_lines = st.text(alphabet="aeioumnrvkšřůéíáýJTX# 0123456789,.()!ß́", max_size=40)


@settings(max_examples=200, deadline=None)
@given(lines=st.lists(syllable_lines, min_size=1, max_size=4),
       overrides=st.booleans(), bound=st.sampled_from([None, 1, 2, 3]))
def test_the_syllable_piece_memo_gives_the_unmemoized_split(lines, overrides, bound):
    """Cold and warm, under a memo bound of a few pieces, and for the
    module's own syllabifier and one with overrides, each piece's tokens,
    read from the syllabifier's piece memo by ``line_tokens`` of the piece
    alone, are those split without the memo, in a list the caller owns;
    each syllabifier keeps its own memo."""
    vocab = Vocab(TokenizerKind.SYLLABLE, SPECIALS)
    syllabifier = phonology.Syllabifier({"mamu": ("mam", "u")}) if overrides else None
    default = phonology.Syllabifier()
    pieces = [p for line in lines + ["mamu a maminka"] for p in tok.pieces(line)]
    with patch.object(phonology, "TOKEN_MEMO_ENTRIES", bound or phonology.TOKEN_MEMO_ENTRIES), \
            patch.object(phonology, "_DEFAULT", default):
        for _ in range(2):
            for piece in pieces:
                got = tok.line_tokens(vocab, piece, syllabifier)
                assert got == reference_syllable_piece_tokens(piece, syllabifier)
                got.append("x")
            assert 0 < len((syllabifier or default).piece_tokens) <= (bound or len(set(pieces)))
        assert tok.line_tokens(vocab, " mamu", syllabifier) == ([" mam", "u"] if overrides
                                                              else [" ma", "mu"])
    assert bool(default.piece_tokens) is not overrides


def test_syllable_encode_and_vocabulary_keep_their_ids_under_the_piece_memo(fixture_strophes):
    texts = [formats.encode(s, DataFormat.METER_VERSE) for s in fixture_strophes[:100]]
    syllabifier = phonology.Syllabifier()
    vocab = tok.build_vocab(TokenizerKind.SYLLABLE, texts, syllabifier=syllabifier)
    distinct = {p for text in texts for line in text.split("\n") for p in tok.pieces(line)}
    # the vocabulary splits each piece that is no annotation once
    assert set(syllabifier.piece_tokens) == {p for p in distinct
                                             if not tok.is_annotation_piece(p)}
    ids = [tok.encode(vocab, text, syllabifier) for text in texts]
    assert set(syllabifier.piece_tokens) == distinct | {SEP_TOKEN}
    with patch.object(phonology, "TOKEN_MEMO_ENTRIES", 2):
        assert [tok.encode(vocab, text, phonology.Syllabifier()) for text in texts] == ids
    assert ids == [[vocab.id_of.get(t, vocab.unk_id)
                    for line_no, line in enumerate(text.split("\n"))
                    for t in ([SEP_TOKEN] if line_no else [])
                    + [t for p in tok.pieces(line) for t in reference_syllable_piece_tokens(p)]]
                   for text in texts]
