import random
import re
import tracemalloc
import unicodedata

import pytest
from hypothesis import given, settings, strategies as st

from verseforge import phonology as ph, tokenizers as tok
from helpers import EXAMPLE_VERSES
from test_analysis_goldens import punct, verses


HYPHENATIONS = {
    "moři": ("mo", "ři"),
    "vysokém": ("vy", "so", "kém"),
    "brázdu": ("brá", "zdu"),
    "jako": ("ja", "ko"),
    "stříbro": ("stří", "bro"),
    "reje": ("re", "je"),
    "přídu": ("pří", "du"),
    "modré": ("mod", "ré"),
    "vlny": ("vl", "ny"),
    "noří": ("no", "ří"),
    "pěnné": ("pěn", "né"),
    "peřeje": ("pe", "ře", "je"),
    "loď": ("loď",),
    "nenadání": ("ne", "na", "dá", "ní"),
    "duchu": ("duch", "u"),
}


def test_hyphenations():
    for word, expected in HYPHENATIONS.items():
        assert ph.syllabify(word) == expected, word


def test_syllables_are_lossless():
    for word in HYPHENATIONS:
        assert "".join(ph.syllabify(word)) == word


def test_zero_nucleus_prepositions_are_clitics():
    for prep in ("v", "z", "k", "s", ""):
        assert ph.syllabify(prep) == ()


def test_example_stress_rows():
    expected = ["xXxXxxxXx", "xXxXxXxXx", "xXxXxXxXx", "xXxXxXxxx"]
    for verse, want in zip(EXAMPLE_VERSES, expected):
        assert ph.stress_pattern(verse) == want, verse


def test_example_syllable_counts():
    for verse in EXAMPLE_VERSES:
        assert len(ph.verse_syllables(verse)) == 9


def test_example_clausulae():
    hints = [ph.ending_hint(v) for v in EXAMPLE_VERSES]
    assert hints == ["oři", "eje", "oří", "eje"]


def test_forced_generation_example_verse():
    verse = "A když přijde z nenadání,"
    assert len(ph.verse_syllables(verse)) == 8
    assert ph.ending_hint(verse) == "ání"


def test_vocalic_preposition_absorbs_stress():
    # "po" carries the stress of the whole clitic group
    assert ph.stress_pattern("po vysokém") == "Xxxx"
    assert ph.stress_pattern("do peřeje") == "Xxxx"


def test_preposition_skips_zero_nucleus_neighbour():
    # consonantal clitic between preposition and host word
    assert ph.stress_pattern("za v moři") == "Xxx"


def test_trailing_preposition_keeps_own_stress():
    assert ph.stress_pattern("šli jsme do") == "XxX"


def test_monosyllables():
    assert ph.stress_pattern("bok") == "X"  # content word
    assert ph.stress_pattern("svou") == "x"  # function word
    assert ph.stress_pattern("tvá loď") == "xX"


def test_ending_hint_single_syllable_verse():
    assert ph.ending_hint("sen") == "en"


def test_ending_hint_empty_verse_raises():
    with pytest.raises(ph.PhonologyError):
        ph.ending_hint("v z k")


def test_syllabic_liquids():
    assert ph.syllabify("vítr") == ("ví", "tr")
    assert ph.syllabify("srdce") == ("srd", "ce")
    assert ph.syllabify("mlha") == ("ml", "ha")


def test_diphthongs_are_single_nuclei():
    assert ph.syllabify("louka") == ("lou", "ka")
    assert len(ph.syllabify("touha")) == 2


def test_words_strips_punctuation():
    assert ph.strip_punct("moři,") == "moři"


def test_exceptions_file(tmp_path):
    path = tmp_path / "exc.tsv"
    path.write_text("# comment line\nmoři\tmoř-i\n", encoding="utf-8")
    syl = ph.Syllabifier.from_exceptions_file(path)
    assert ph.syllabify("moři", syl) == ("moř", "i")
    assert ph.syllabify("Moři", syl) == ("Moř", "i")  # case restored
    # unlisted words still use the rules
    assert ph.syllabify("reje", syl) == ("re", "je")


def test_exceptions_file_errors(tmp_path):
    bad_spell = tmp_path / "a.tsv"
    bad_spell.write_text("moři\tmo-ra\n", encoding="utf-8")
    with pytest.raises(ph.PhonologyError, match="spell"):
        ph.Syllabifier.from_exceptions_file(bad_spell)
    bad_format = tmp_path / "b.tsv"
    bad_format.write_text("moři mo-ři\n", encoding="utf-8")
    with pytest.raises(ph.PhonologyError, match="TAB"):
        ph.Syllabifier.from_exceptions_file(bad_format)


@pytest.mark.parametrize("entry", ["pst\tp-st", "moři\tm-oři", "mrak\tmrak-", "v\tv"])
def test_exceptions_file_refuses_a_syllable_with_no_nucleus(tmp_path, entry):
    path = tmp_path / "exc.tsv"
    path.write_text(f"moři\tmoř-i\n{entry}\n", encoding="utf-8")
    with pytest.raises(ph.PhonologyError, match=rf"^{path}:2: .*no nucleus"):
        ph.Syllabifier.from_exceptions_file(path)


@pytest.mark.parametrize("exceptions, message", [
    ({"pst": ("p", "st")}, "syllable 'p' has no nucleus"),
    ({"moři": ("moř", "i"), "mrak": ("mrak", "")}, "syllable '' has no nucleus"),
    ({"kolo": ("kol", "x")}, "split does not spell 'kolo'"),
], ids=["consonants-only", "empty-syllable", "other-word"])
def test_overrides_are_checked_where_they_enter(exceptions, message):
    """The constructor refuses an override that the exceptions file
    refuses, so that none can split a word into pieces it does not spell
    or into a syllable with no nucleus."""
    with pytest.raises(ph.PhonologyError, match=f"^{re.escape(message)}$"):
        ph.Syllabifier(exceptions)


def test_an_override_is_keyed_by_its_lowercase_spelling():
    syl = ph.Syllabifier({"Moři": ("Moř", "i")})
    assert dict(syl.exceptions) == {"moři": ("Moř", "i")}
    assert ph.syllabify("moři", syl) == ("moř", "i")
    assert ph.syllabify("MOŘI", syl) == ("MOŘ", "I")
    # a split spells its word in any case, since lookups ignore case
    assert ph.Syllabifier({"MOŘI": ("moř", "i")}).exceptions == {"moři": ("moř", "i")}


# "İ" lowercases to two characters, "i" and a combining dot above.
@pytest.mark.parametrize("entry, word, expected", [
    ("i\u0307a\ti\u0307-a", "\u0130A", ("\u0130", "A")),
    ("\u0130a\t\u0130-a", "i\u0307a", ("i\u0307", "a")),
    ("i\u0307\u0130\ti\u0307-\u0130", "\u0130i\u0307", ("\u0130", "i\u0307")),
])
def test_an_override_that_does_not_line_up_with_the_word_gives_way_to_the_rules(
        tmp_path, entry, word, expected):
    path = tmp_path / "exc.tsv"
    path.write_text(entry + "\n", encoding="utf-8")
    syl = ph.Syllabifier.from_exceptions_file(path)
    assert syl.exceptions.get(word.lower()) is not None
    assert ph.syllabify(word, syl) == ph.syllabify(word) == expected


@pytest.mark.parametrize("word, expected", [
    ("i\u0307a", ("i\u0307", "a")),
    ("\u0130i\u0307a", ("\u0130", "i\u0307", "a")),
    ("pe\u0301ro", ("pe\u0301", "ro")),
    ("ne\u0301a", ("ne\u0301", "a")),
])
def test_a_combining_mark_stays_with_the_letter_before_it(word, expected):
    assert ph.syllabify(word) == expected


@given(st.text(alphabet="ai\u0130stx\u0307\u0301", min_size=1, max_size=8))
def test_no_later_syllable_starts_with_a_combining_mark(word):
    sylls = ph.syllabify(word)
    assert "".join(sylls) == (word if ph._find_nuclei(word) else "")
    assert not any(unicodedata.combining(s[0]) for s in sylls[1:])


@given(st.text(alphabet="a\u0130i\u0307Ist", min_size=1, max_size=8))
def test_a_dotted_capital_i_leaves_no_syllable_empty(word):
    sylls = ph.syllabify(word)
    assert "".join(sylls) == (word if ph._find_nuclei(word) else "")
    assert all(ph._find_nuclei(s) for s in sylls)  # so none is empty


czech_words = st.text(alphabet="aáeéěiíoóuúůyýbcčdhjklmnprřsštvzž",
                      min_size=1, max_size=12)


@given(czech_words)
def test_syllabify_is_lossless(word):
    sylls = ph.syllabify(word)
    if not sylls:
        assert sylls == ()
    else:
        assert "".join(sylls) == word


@given(st.lists(czech_words, min_size=1, max_size=8))
def test_stress_marks_match_syllable_count(ws):
    text = " ".join(ws)
    assert len(ph.stress_pattern(text)) == len(ph.verse_syllables(text))


def test_analyze_holds_each_fact_of_a_verse():
    a = ph.analyze(EXAMPLE_VERSES[0])
    assert a.syllables == ("Tvá", "loď", "jde", "po", "vy", "so", "kém", "mo", "ři")
    assert a.stress == "xXxXxxxXx"
    assert a.clausula == a.ending_hint() == "oři"
    empty = ph.analyze("v z, k")
    assert (empty.syllables, empty.stress, empty.clausula) == ((), "", "")
    with pytest.raises(ph.PhonologyError, match="no syllables"):
        empty.ending_hint()


def test_exceptions_and_default_syllabifiers_share_no_memo(tmp_path):
    path = tmp_path / "exc.tsv"
    path.write_text("moři\tmoř-i\n", encoding="utf-8")
    syl = ph.Syllabifier.from_exceptions_file(path)
    for _ in range(2):
        assert ph.verse_syllables("po moři,", syl) == ["po", "moř", "i"]
        assert ph.verse_syllables("po moři,") == ["po", "mo", "ři"]
        assert ph.verse_syllables("po moři,", ph.Syllabifier()) == ["po", "mo", "ři"]
    assert syl._tokens["moři,"][0] == ("moř", "i")
    assert ph.Syllabifier()._tokens["moři,"][0] == ("mo", "ři")


def test_exceptions_are_read_only(tmp_path):
    syl = ph.Syllabifier({"moři": ("moř", "i")})
    with pytest.raises(TypeError):
        syl.exceptions["reje"] = ("rej", "e")
    with pytest.raises(AttributeError):
        syl.exceptions = {}
    assert ph.verse_syllables("reje moři", syl) == ["re", "je", "moř", "i"]



# Reference: analyze, _stress and _clausula as they were before the
# per-word marks were built from syllable counts, splitting each token
# without a memo.

def reference_split_token(token, syllabifier=None):
    core = ph.strip_punct(token)
    return (core, ph.syllabify(core, syllabifier)) if core else None


def reference_analyze(text, syllabifier=None):
    splits = [sp for sp in (reference_split_token(t, syllabifier) for t in text.split())
              if sp is not None]
    sylls = tuple(s for _, sp in splits for s in sp)
    return ph.VerseAnalysis(text, sylls, reference_stress(splits), reference_clausula(sylls))


def reference_stress(splits):
    marks = []
    i = 0
    while i < len(splits):
        word, sp = splits[i]
        count = len(sp)
        if count == 0:
            i += 1
            continue
        low = word.lower()
        if count == 1 and low in ph.STRESSED_PREPOSITIONS:
            # Find the next non-clitic word to absorb.
            j = i + 1
            while j < len(splits) and len(splits[j][1]) == 0:
                j += 1
            if j < len(splits):
                marks.append("X")
                marks.extend("x" * len(splits[j][1]))
                i = j + 1
                continue
            marks.append("X")
        elif count == 1:
            marks.append("x" if low in ph.UNSTRESSED_MONOSYLLABLES else "X")
        else:
            marks.append("X")
            marks.extend("x" * (count - 1))
        i += 1
    return "".join(marks)


def reference_strip_onset(syllable):
    low = syllable.lower()
    has_vowel = any(ch in ph.VOWELS for ch in low)
    for i, ch in enumerate(low):
        if ch in ph.VOWELS or (not has_vowel and ch in ph.LIQUIDS):
            return syllable[i:]
    return syllable


def reference_clausula(sylls):
    if not sylls:
        return ""
    if len(sylls) == 1:
        return reference_strip_onset(sylls[-1]).lower()
    return (reference_strip_onset(sylls[-2]) + sylls[-1]).lower()


# One syllabifier kept across examples, so that its memo is warm.
WARM = ph.Syllabifier()

# Overrides as an exceptions file gives them: "ao" becomes a monosyllable
# and "kout" two syllables; "i\u0307ra" is the key of "\u0130ra", whose
# parts do not line up with it.
OVERRIDES = {"ao": ("ao",), "kout": ("ko", "ut"), "i\u0307ra": ("i\u0307", "ra")}
WARM_OVERRIDES = ph.Syllabifier(OVERRIDES)

# A verse's clausula comes from its last word's memo entry, or across
# two words when it ends in a monosyllable.  "\u00df" casefolds to "ss",
# "\u0130" lowercases to two characters and "\u03a3" lowercases by its
# neighbours.  Under the overrides "kout" and "ao" trade syllable counts,
# so each list holds both.
polysyllables = st.sampled_from([
    "moři", "peřeje", "VLNY", "\u00dfeje", "\u0130a", "\u0130ra", "a\u03a3a",
    "ma\u03a3o", "oma\u03a3", "Ao", "ao", "kout", "Kout,"])
monosyllables = st.sampled_from([
    "loď", "jde", "na", "se", "Kost", "vlk", "\u00dfa", "\u0130", "\u03a3a",
    "a\u03a3", "ma\u03a3", "kout", "ao", "AO", "Ao"])
clitics = st.lists(st.sampled_from(["v", "z", "V", "Z,"]), max_size=2).map(" ".join)
clausula_verses = st.one_of(
    verses,
    st.tuples(verses, polysyllables, clitics, monosyllables, punct).map(
        lambda p: " ".join(filter(None, p[:4])) + p[4]),
    st.tuples(clitics, monosyllables, punct).map(
        lambda p: " ".join(filter(None, p[:2])) + p[2]),
)


@settings(max_examples=300, deadline=None)
@given(text=clausula_verses)
def test_analyze_matches_reference(text):
    expected = reference_analyze(text)
    assert ph.analyze(text) == expected
    assert ph.analyze(text, WARM) == expected
    assert ph.analyze(text, ph.Syllabifier()) == expected
    expected = reference_analyze(text, WARM_OVERRIDES)
    assert ph.analyze(text, WARM_OVERRIDES) == expected
    assert ph.analyze(text, ph.Syllabifier(OVERRIDES)) == expected


# Bytes per token of a memo's entries and of its dict.  On this test's
# input, where two tokens in three casefold to other syllables, they
# measured 489 (333 for the three-field entries before the casefolded
# syllables and the clausula were added); on the 12,830 tokens of the
# benchmark's evaluate input, 498 (428 before).
MEMO_BYTES_PER_ENTRY = 540


def test_token_memo_stays_within_a_per_entry_bound(fixture_strophes):
    texts = [v.text for s in fixture_strophes for v in s.verses]
    tokens = [t for text in texts for variant in (text, text.upper(), text.title())
              for t in variant.split()]
    syl = ph.Syllabifier()
    memo = syl._tokens
    tracemalloc.start()
    try:
        for token in tokens:
            memo[token]
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(memo) > 600
    assert current < MEMO_BYTES_PER_ENTRY * len(memo)


LONG_KEY_SYLLABLES = ["ma", "ko", "stro", "při", "ně", "vel", "ký", "dů", "chu", "zrn", "á"]


@pytest.mark.parametrize("memo", ["token", "syllable", "our"])
def test_a_memo_of_long_keys_stays_within_its_bound(memo, monkeypatch):
    """However long its keys, a memo holds about what a full memo of
    ordinary tokens does: ``MEMO_BYTES_PER_ENTRY`` bytes for each of its
    ``TOKEN_MEMO_ENTRIES``.  Each key is a distinct word of 1,000
    characters, built while memory is traced so that a key the memo
    keeps counts; a syllable piece fills the token memo too."""
    monkeypatch.setattr(ph, "TOKEN_MEMO_ENTRIES", 256)
    syl = ph.Syllabifier()
    vocab = {"syllable": tok.Vocab(tok.TokenizerKind.SYLLABLE, list(tok.SPECIALS)),
             "our": tok.train_bpe([" ".join(LONG_KEY_SYLLABLES)], 60)}.get(memo)
    rng = random.Random(0)
    tracemalloc.start()
    try:
        for _ in range(64):
            word = "".join(rng.choice(LONG_KEY_SYLLABLES) for _ in range(400))[:1000]
            if vocab is None:
                syl._tokens[word]
            else:
                tok.line_tokens(vocab, " " + word, syl)
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    memos = 2 if memo == "syllable" else 1
    assert current < memos * MEMO_BYTES_PER_ENTRY * ph.TOKEN_MEMO_ENTRIES
