import pytest
from hypothesis import given, settings, strategies as st

from verseforge import formats, phonology
from verseforge.corpus import MeterLabel, Strophe, Verse, YearBucket, modal_meter
from verseforge.formats import (
    DataFormat,
    FormatError,
    LineAnnotation,
    StropheHeader,
    consistency_check,
)
from helpers import EXAMPLE_BASIC, EXAMPLE_METER_VERSE, EXAMPLE_VERSE_PAR


def test_encode_basic(example_strophe):
    assert formats.encode(example_strophe, DataFormat.BASIC) == EXAMPLE_BASIC


def test_encode_verse_par(example_strophe):
    assert formats.encode(example_strophe, DataFormat.VERSE_PAR) == EXAMPLE_VERSE_PAR


def test_encode_meter_verse(example_strophe):
    assert formats.encode(example_strophe, DataFormat.METER_VERSE) == EXAMPLE_METER_VERSE


@pytest.mark.parametrize("fmt,text", [
    (DataFormat.BASIC, EXAMPLE_BASIC),
    (DataFormat.VERSE_PAR, EXAMPLE_VERSE_PAR),
    (DataFormat.METER_VERSE, EXAMPLE_METER_VERSE),
])
def test_parse_encode_identity(fmt, text, example_strophe):
    parsed = formats.parse(text, fmt)
    assert [verse for _, verse in parsed.lines] == [v.text for v in example_strophe.verses]
    assert parsed.header.scheme == "ABAB"
    assert str(parsed.header.year_bucket) == "1900"
    # and re-encoding the parse gives the same bytes
    out = [parsed.header.render(fmt)]
    for ann, verse in parsed.lines:
        out.append(verse if ann is None else ann.prefix(fmt) + verse)
    assert "\n".join(out) == text


def test_round_trip_on_fixture(fixture_strophes):
    for strophe in fixture_strophes[:100]:
        for fmt in DataFormat:
            text = formats.encode(strophe, fmt)
            parsed = formats.parse(text, fmt)
            assert [verse for _, verse in parsed.lines] == [v.text for v in strophe.verses]


def test_hash_inside_verse_text_survives():
    verses = [Verse(t, 1 + i % 2, MeterLabel.IAMB) for i, t in enumerate(
        ["zpívá # moře vlny moři", "a duše letí # dávné reje",
         "svítí slunce tiché zoři", "padá # hvězda # do peřeje"])]
    strophe = Strophe(tuple(verses), YearBucket(1900))
    for fmt in (DataFormat.VERSE_PAR, DataFormat.METER_VERSE):
        parsed = formats.parse(formats.encode(strophe, fmt), fmt)
        assert [verse for _, verse in parsed.lines] == [v.text for v in verses]


def test_meter_verse_header_has_no_meter():
    header = formats.parse(EXAMPLE_METER_VERSE, DataFormat.METER_VERSE).header
    assert header.strophe_meter is None
    with pytest.raises(FormatError, match="needs a strophe meter"):
        StropheHeader("ABAB", YearBucket(1900), None).render(DataFormat.BASIC)


def test_annotation_prefixes():
    ann = LineAnnotation(MeterLabel.TROCHEE, 8, "ání")
    assert ann.prefix(DataFormat.METER_VERSE) == "T # 8 # ání # "
    assert LineAnnotation(None, 9, "oři").prefix(DataFormat.VERSE_PAR) == "9 # oři # "
    with pytest.raises(FormatError):
        ann.prefix(DataFormat.BASIC)


def test_header_tolerates_trailing_separator():
    text = EXAMPLE_METER_VERSE.replace("# ABAB # 1900", "# ABAB # 1900 # #")
    assert formats.parse(text, DataFormat.METER_VERSE).header.scheme == "ABAB"


@pytest.mark.parametrize("breakage,message", [
    (lambda t: t.replace("# ABAB", "ABAB", 1), "start with"),
    (lambda t: t.replace("# ABAB # 1900", "# ABAB # 1900 # J"), "fields"),
    (lambda t: t.replace("ABAB", "AbAB"), "scheme"),
    (lambda t: t.replace("1900", "time of old"), "year"),
    (lambda t: t.replace("J # 9 # oři", "Q # 9 # oři"), "meter"),
    (lambda t: t.replace("J # 9 # oři", "J # devět # oři"), "integer"),
    (lambda t: t.replace("J # 9 # oři", "J # 0 # oři"), "positive"),
    (lambda t: t.replace("J # 9 # oři # ", "J # 9 #  # "), "hint"),
    (lambda t: t + "\nJ # 9 # oři # navíc jeden verš", "expects 4"),
    (lambda t: "\n".join(t.split("\n")[:-1]), "expects 4"),
    (lambda t: "\n\n", "empty strophe text"),
])
def test_parse_errors(breakage, message):
    with pytest.raises(FormatError, match=message):
        formats.parse(breakage(EXAMPLE_METER_VERSE), DataFormat.METER_VERSE)


def test_parse_error_carries_line_number():
    text = EXAMPLE_METER_VERSE.replace("J # 9 # oří", "J # x # oří")
    with pytest.raises(FormatError, match="line 4"):
        formats.parse(text, DataFormat.METER_VERSE)


def test_verse_par_header_refuses_an_unknown_meter_letter():
    text = EXAMPLE_VERSE_PAR.replace("# ABAB # 1900 # J", "# ABAB # 1900 # Q", 1)
    with pytest.raises(FormatError, match="line 1: unknown meter letter 'Q'"):
        formats.parse(text, DataFormat.VERSE_PAR)


def test_meter_verse_line_refuses_an_unknown_meter_letter():
    text = EXAMPLE_METER_VERSE.replace("J # 9 # oři", "Q # 9 # oři", 1)
    with pytest.raises(FormatError, match=r"^line 2: unknown meter letter 'Q'$"):
        formats.parse(text, DataFormat.METER_VERSE)


def test_basic_verse_count_checked():
    with pytest.raises(FormatError, match="expects 4"):
        formats.parse("# ABAB # 1900 # J\njen jeden verš", DataFormat.BASIC)


def test_consistency_check_flags_mismatches():
    parsed = formats.parse(EXAMPLE_METER_VERSE, DataFormat.METER_VERSE)
    assert all(c.syl_ok and c.end_ok for c in consistency_check(parsed))

    broken = EXAMPLE_METER_VERSE.replace("J # 9 # oři", "J # 8 # oři")
    checks = consistency_check(formats.parse(broken, DataFormat.METER_VERSE))
    assert [c.syl_ok for c in checks] == [False, True, True, True]
    assert checks[0].annotated_syl == 8 and checks[0].actual_syl == 9

    broken = EXAMPLE_METER_VERSE.replace("J # 9 # eje # v ně", "J # 9 # aje # v ně")
    checks = consistency_check(formats.parse(broken, DataFormat.METER_VERSE))
    assert [c.end_ok for c in checks] == [True, False, True, True]
    assert checks[1].actual_hint == "eje"


def test_consistency_check_ignores_hint_case():
    text = EXAMPLE_METER_VERSE.replace("J # 9 # oři", "J # 9 # OŘI")
    checks = consistency_check(formats.parse(text, DataFormat.METER_VERSE))
    assert checks[0].end_ok


def test_consistency_check_requires_annotations(monkeypatch):
    parsed = formats.parse(EXAMPLE_BASIC, DataFormat.BASIC)
    # refused before any verse is analysed
    monkeypatch.setattr(phonology, "analyze", lambda *args: pytest.fail("a verse was analysed"))
    with pytest.raises(FormatError):
        consistency_check(parsed)


def _checks_as_pinned(parsed):
    """consistency_check as it was written over the per-verse check."""
    checks = []
    for ann, text in parsed.lines:
        analysis = phonology.analyze(text)
        if ann is None:
            raise FormatError("consistency_check needs annotated lines")
        checks.append(formats.VerseCheck(
            syl_ok=len(analysis.syllables) == ann.syllable_count,
            end_ok=analysis.clausula == ann.ending_hint.lower(),
            annotated_syl=ann.syllable_count,
            actual_syl=len(analysis.syllables),
            annotated_hint=ann.ending_hint,
            actual_hint=analysis.clausula,
        ))
    return checks


def test_consistency_check_matches_the_pinned_loop(fixture_strophes):
    for s in fixture_strophes:
        parsed = formats.parse(formats.encode(s, DataFormat.METER_VERSE),
                               DataFormat.METER_VERSE)
        assert consistency_check(parsed) == _checks_as_pinned(parsed)
        basic = formats.parse(formats.encode(s, DataFormat.BASIC), DataFormat.BASIC)
        with pytest.raises(FormatError) as got:
            consistency_check(basic)
        with pytest.raises(FormatError) as pinned:
            _checks_as_pinned(basic)
        assert str(got.value) == str(pinned.value)


def _strophe_of(texts, meters="JTJT"):
    verses = [Verse(t, 1 + i % 2, MeterLabel.parse(m)) for i, (t, m) in enumerate(zip(texts, meters))]
    return Strophe(tuple(verses), YearBucket(1900))


@pytest.mark.parametrize("fmt", [DataFormat.VERSE_PAR, DataFormat.METER_VERSE])
@pytest.mark.parametrize("bare", ["v s k", "z, — !", "« … »"])
def test_encode_refuses_a_verse_without_syllables(fmt, bare, example_strophe):
    texts = [v.text for v in example_strophe.verses]
    texts[2] = bare
    with pytest.raises(phonology.PhonologyError) as err:
        formats.encode(_strophe_of(texts), fmt)
    assert str(err.value) == f"verse has no syllables: {bare!r}"


def test_basic_encodes_a_verse_without_syllables(example_strophe):
    texts = [v.text for v in example_strophe.verses]
    texts[2] = "v s k"
    assert formats.encode(_strophe_of(texts), DataFormat.BASIC).split("\n")[3] == "v s k"


def _encode_as_pinned(strophe, fmt, syllabifier=None):
    """encode as it was written over ``analyze`` and ``LineAnnotation.prefix``."""
    header = StropheHeader(strophe.scheme, strophe.year_bucket,
                           None if fmt is DataFormat.METER_VERSE else modal_meter(strophe))
    out = [header.render(fmt)]
    for v in strophe.verses:
        if fmt is DataFormat.BASIC:
            out.append(v.text)
            continue
        analysis = phonology.analyze(v.text, syllabifier)
        ann = LineAnnotation(meter=v.gold_meter if fmt is DataFormat.METER_VERSE else None,
                             syllable_count=len(analysis.syllables),
                             ending_hint=analysis.ending_hint())
        out.append(ann.prefix(fmt) + v.text)
    return "\n".join(out)


# polysyllables, monosyllables that end a verse, stressed prepositions,
# unstressed function words and clitics without a nucleus
_WORDS = ["moři", "vysokém", "peřeje", "brázdu", "duchu", "vlny", "stříbro", "loď",
          "bok", "krev", "noc", "na", "do", "před", "a", "se", "ten", "v", "z", "s", "k",
          "čtvrť", "prst", "Ölberg", "İris"]
_PUNCT = ["", "", ",", ".", "!", "—", "…", "«", "»", "?!"]
_token = st.builds(
    lambda pre, word, case, post: pre + case(word) + post,
    st.sampled_from(_PUNCT), st.sampled_from(_WORDS),
    st.sampled_from([str, str.upper, str.capitalize, str.swapcase]), st.sampled_from(_PUNCT))
_verse_text = st.lists(_token, min_size=1, max_size=6).map(" ".join).filter(str.strip)


@settings(max_examples=300, deadline=None)
@given(texts=st.lists(_verse_text, min_size=4, max_size=4),
       meters=st.lists(st.sampled_from("JTDAXYHPN"), min_size=4, max_size=4),
       exceptions=st.sampled_from([None, {"moři": ("mo", "ři")}, {"prst": ("prst",)}]))
def test_encode_matches_the_pinned_path(texts, meters, exceptions):
    syllabifier = phonology.Syllabifier(exceptions) if exceptions else None
    strophe = _strophe_of(texts, meters)
    for fmt in DataFormat:
        try:
            want = _encode_as_pinned(strophe, fmt, syllabifier)
        except phonology.PhonologyError as e:
            with pytest.raises(phonology.PhonologyError) as got:
                formats.encode(strophe, fmt, syllabifier)
            assert str(got.value) == str(e)
        else:
            assert formats.encode(strophe, fmt, syllabifier) == want
