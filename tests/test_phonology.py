import pytest
from hypothesis import given, strategies as st

from verseforge import phonology as ph
from conftest import EXAMPLE_VERSES


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
        assert ph.syllabify(word).syllables == expected, word


def test_syllables_are_lossless():
    for word in HYPHENATIONS:
        assert "".join(ph.syllabify(word).syllables) == word


def test_zero_nucleus_prepositions_are_clitics():
    for prep in ("v", "z", "k", "s"):
        split = ph.syllabify(prep)
        assert split.clitic
        assert len(split) == 0


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
    assert ph.syllabify("vítr").syllables == ("ví", "tr")
    assert ph.syllabify("srdce").syllables == ("srd", "ce")
    assert ph.syllabify("mlha").syllables == ("ml", "ha")


def test_diphthongs_are_single_nuclei():
    assert ph.syllabify("louka").syllables == ("lou", "ka")
    assert len(ph.syllabify("touha")) == 2


def test_words_strips_punctuation():
    assert ph.words("a bok, svůj — pěnné...") == ["a", "bok", "svůj", "pěnné"]
    assert ph.strip_punct("moři,") == "moři"


def test_exceptions_file(tmp_path):
    path = tmp_path / "exc.tsv"
    path.write_text("# comment line\nmoři\tmoř-i\n", encoding="utf-8")
    syl = ph.Syllabifier.from_exceptions_file(path)
    assert syl.syllabify("moři").syllables == ("moř", "i")
    assert syl.syllabify("Moři").syllables == ("Moř", "i")  # case restored
    # unlisted words still use the rules
    assert syl.syllabify("reje").syllables == ("re", "je")


def test_exceptions_file_errors(tmp_path):
    bad_spell = tmp_path / "a.tsv"
    bad_spell.write_text("moři\tmo-ra\n", encoding="utf-8")
    with pytest.raises(ph.PhonologyError, match="spell"):
        ph.Syllabifier.from_exceptions_file(bad_spell)
    bad_format = tmp_path / "b.tsv"
    bad_format.write_text("moři mo-ři\n", encoding="utf-8")
    with pytest.raises(ph.PhonologyError, match="TAB"):
        ph.Syllabifier.from_exceptions_file(bad_format)


czech_words = st.text(alphabet="aáeéěiíoóuúůyýbcčdhjklmnprřsštvzž",
                      min_size=1, max_size=12)


@given(czech_words)
def test_syllabify_is_lossless(word):
    split = ph.syllabify(word)
    if split.clitic:
        assert split.syllables == ()
    else:
        assert "".join(split.syllables) == word


@given(czech_words)
def test_nonclitic_words_have_syllables(word):
    split = ph.syllabify(word)
    assert split.clitic == (len(split) == 0)


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
    assert syl.split_token("moři,").syllables == ("moř", "i")
    assert ph.Syllabifier().split_token("moři,").syllables == ("mo", "ři")


def test_exceptions_are_read_only(tmp_path):
    syl = ph.Syllabifier({"moři": ("moř", "i")})
    with pytest.raises(TypeError):
        syl.exceptions["reje"] = ("rej", "e")
    with pytest.raises(AttributeError):
        syl.exceptions = {}
    assert ph.verse_syllables("reje moři", syl) == ["re", "je", "moř", "i"]

