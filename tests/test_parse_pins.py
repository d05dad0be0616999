"""Pins of ``formats.parse``: the digest of what it returns, or of the
error it raises, for every fixture strophe in every format, its error
messages at several line numbers, a property test against the parse
path as it was written before any memo (``_parse_as_pinned``), and the
bound and the sharing of the memos of header lines, annotation prefixes
and year buckets."""

import dataclasses
import hashlib
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from verseforge import corpus, formats, phonology
from verseforge.corpus import SCHEME_LETTERS, MeterLabel, YearBucket
from verseforge.formats import SEP, DataFormat, FormatError, LineAnnotation, StropheHeader
from helpers import EXAMPLE_METER_VERSE, EXAMPLE_VERSE_PAR
from test_phonology import MEMO_BYTES_PER_ENTRY

# sha256 over the outcomes of parsing the fixture's texts, encoded in
# each format in the order of ``DataFormat``, in the format of the key:
# each parse's ``repr``, or ``!`` and its error message
PARSE_SHA256 = {
    "basic": "d96b6796c9e40ae760cb905e5a7f3509a1f7db4e27d66115e152e279f9861ae9",
    "verse_par": "8bfca12b813742c5e8220ec9481402963f9f4ef48da2983c6e141ce689f28357",
    "meter_verse": "bd72207c5b6958afa251b1413e97873a50eae2c8fe5859e07e1301ceaa6c3740",
}


def outcome(parse, *args) -> str:
    try:
        return repr(parse(*args))
    except FormatError as e:
        return f"!{e}"


@pytest.mark.parametrize("fmt", list(DataFormat))
def test_parse_of_every_fixture_text_matches_its_pinned_digest(fmt, fixture_strophes):
    texts = [formats.encode(s, enc) for enc in DataFormat for s in fixture_strophes]
    got = hashlib.sha256("\n".join(outcome(formats.parse, t, fmt) for t in texts).encode())
    assert got.hexdigest() == PARSE_SHA256[fmt.value]


# (the annotation prefix that replaces a verse line's, the message
# after "line N: ")
METER_VERSE_FAULTS = [
    ("Q # 9 # oři # ", "unknown meter letter 'Q'"),
    ("j # 9 # oři # ", "unknown meter letter 'j'"),
    ("J # devět # oři # ", "syllable count 'devět' is not an integer"),
    ("J # 0 # oři # ", "syllable count must be positive, got 0"),
    ("J # -3 # oři # ", "syllable count must be positive, got -3"),
    ("J # 9 #  # ", "empty ending hint"),
    ("J # 9 oři # ", "expected 3 annotation fields before the verse"),
]
VERSE_PAR_FAULTS = [
    ("devět # oři # ", "syllable count 'devět' is not an integer"),
    ("٠ # oři # ", "syllable count must be positive, got 0"),
    (" # oři # ", "syllable count '' is not an integer"),
    ("9 #  # ", "empty ending hint"),
    ("9 oři ", "expected 2 annotation fields before the verse"),
]


@pytest.mark.parametrize("lineno", [2, 3, 4, 5])
@pytest.mark.parametrize("fmt,prefix,message", [
    *[(DataFormat.METER_VERSE, *fault) for fault in METER_VERSE_FAULTS],
    *[(DataFormat.VERSE_PAR, *fault) for fault in VERSE_PAR_FAULTS]])
def test_a_verse_fault_names_its_line(fmt, prefix, message, lineno):
    example = EXAMPLE_METER_VERSE if fmt is DataFormat.METER_VERSE else EXAMPLE_VERSE_PAR
    n_fields = 3 if fmt is DataFormat.METER_VERSE else 2
    lines = example.split("\n")
    lines[lineno - 1] = prefix + lines[lineno - 1].split(SEP, n_fields)[n_fields]
    with pytest.raises(FormatError) as err:
        formats.parse("\n".join(lines), fmt)
    assert str(err.value) == f"line {lineno}: {message}"
    # a blank line is not counted
    with pytest.raises(FormatError) as err:
        formats.parse("\n\n".join(lines), fmt)
    assert str(err.value) == f"line {lineno}: {message}"


@pytest.mark.parametrize("fmt,header,message", [
    (DataFormat.METER_VERSE, "ABAB # 1900", "header must start with '# '"),
    (DataFormat.METER_VERSE, "# ABAB # 1900 # J", "header has 3 fields, expected 2"),
    (DataFormat.VERSE_PAR, "# ABAB # 1900", "header has 2 fields, expected 3"),
    (DataFormat.METER_VERSE, "# AbAB # 1900", "bad rhyme scheme 'AbAB'"),
    (DataFormat.METER_VERSE, "#  # 1900", "bad rhyme scheme ''"),
    (DataFormat.METER_VERSE, "# ABAB # time of old", "bad year field 'time of old'"),
    (DataFormat.METER_VERSE, "# ABAB # 1901", "bad year field '1901'"),
    (DataFormat.VERSE_PAR, "# ABAB # 1900 # Q", "unknown meter letter 'Q'"),
])
def test_a_header_fault_names_line_one(fmt, header, message):
    example = EXAMPLE_METER_VERSE if fmt is DataFormat.METER_VERSE else EXAMPLE_VERSE_PAR
    for text in (header + "\n" + example.split("\n", 1)[1], "\n\n" + header + "\n"):
        with pytest.raises(FormatError) as err:
            formats.parse(text, fmt)
        assert str(err.value) == f"line 1: {message}"


# ---------------------------------------------------------------------------
# the parse path as it was written before any memo


def _parse_meter_as_pinned(letter, lineno):
    try:
        return MeterLabel.parse(letter)
    except ValueError:
        raise FormatError(f"line {lineno}: unknown meter letter {letter!r}") from None


def _parse_header_as_pinned(line, fmt, lineno):
    if not line.startswith("# "):
        raise FormatError(f"line {lineno}: header must start with '# '")
    fields = line[2:].rstrip().split(SEP)
    if fields and fields[-1] == "#":  # tolerate a trailing separator
        fields = fields[:-1]
    want = 2 if fmt is DataFormat.METER_VERSE else 3
    if len(fields) != want:
        raise FormatError(
            f"line {lineno}: header has {len(fields)} fields, expected {want}")
    scheme, year = fields[0], fields[1]
    if not scheme or any(c not in SCHEME_LETTERS for c in scheme):
        raise FormatError(f"line {lineno}: bad rhyme scheme {scheme!r}")
    try:
        bucket = YearBucket.parse(year)
    except ValueError:
        raise FormatError(f"line {lineno}: bad year field {year!r}") from None
    meter = None
    if fmt is not DataFormat.METER_VERSE:
        meter = _parse_meter_as_pinned(fields[2], lineno)
    return StropheHeader(scheme, bucket, meter)


def _parse_verse_line_as_pinned(line, fmt, lineno):
    if fmt is DataFormat.BASIC:
        return None, line
    n_fields = 3 if fmt is DataFormat.METER_VERSE else 2
    parts = line.split(SEP, n_fields)
    if len(parts) != n_fields + 1:
        raise FormatError(
            f"line {lineno}: expected {n_fields} annotation fields before the verse")
    if fmt is DataFormat.METER_VERSE:
        meter_s, syl_s, hint, text = parts
        meter = _parse_meter_as_pinned(meter_s, lineno)
    else:
        syl_s, hint, text = parts
        meter = None
    try:
        syl = int(syl_s)
    except ValueError:
        raise FormatError(f"line {lineno}: syllable count {syl_s!r} is not an integer") from None
    if syl <= 0:
        raise FormatError(f"line {lineno}: syllable count must be positive, got {syl}")
    if not hint:
        raise FormatError(f"line {lineno}: empty ending hint")
    return LineAnnotation(meter, syl, hint), text


def _parse_as_pinned(text, fmt):
    lines = [line for line in map(str.rstrip, text.split("\n")) if line]
    if not lines:
        raise FormatError("empty strophe text")
    header = _parse_header_as_pinned(lines[0], fmt, 1)
    parsed = [_parse_verse_line_as_pinned(line, fmt, i) for i, line in enumerate(lines[1:], 2)]
    if len(parsed) != len(header.scheme):
        raise FormatError(
            f"scheme {header.scheme} expects {len(header.scheme)} verses, got {len(parsed)}")
    return formats.ParsedStrophe(header, tuple(parsed))


def clear_parse_memos():
    """Empty every memo that ``parse`` reads."""
    for memo in [*formats._HEADERS.values(), *formats._ANNOTATIONS.values(), corpus._BUCKETS]:
        memo.clear()


# Fields that parse, fields that do not, and fields that hold the
# separator's parts: "#" inside a field, doubled separators, syllable
# counts with a space, a sign or a non-ASCII digit, and long fields.
_LONG = "ř" * 2000
_SCHEMES = ["ABAB", "AABB", "XAXA", "ABBACC", "XXXX", "AbAB", "", "A#B", "AB AB", "#", _LONG,
            "A" * 2000]
_YEARS = ["1900", "NaN", "1880", "1901", "nan", "", "+1900", " 1900", "١٩٠٠", "0", "-20",
          "1900#", "#", "2" * 1998 + "00", _LONG]
_METER_FIELDS = list("JTDAXYHPN") + ["Q", "j", "", "JT", "#", "IAMB", _LONG]
_SYLLABLE_FIELDS = ["7", "9", "12", " 7", "+7", "٧", "0", "-3", "07", "x", "", "#", "7 ",
                    "1" * 2000]
_HINTS = ["oři", "eje", "ÁNÍ", "", "#", "a#b", "a # b", " ", _LONG]
_TEXTS = ["zpívá moře vlny moři", "a # duše # letí", "", "#", " # ", "x # ", _LONG]
_SEPS = [SEP] * 6 + [" #  # ", " # # ", "#", " ## ", "  # "]
_TAILS = ["", "", "", " #", SEP, " # #", SEP + SEP, "  "]


@st.composite
def _line(draw, pools):
    fields = [draw(st.sampled_from(pool)) for pool in pools]
    out = fields[0]
    for field in fields[1:]:
        out += draw(st.sampled_from(_SEPS)) + field
    return out + draw(st.sampled_from(_TAILS))


_header = st.one_of(
    _line([_SCHEMES, _YEARS]), _line([_SCHEMES, _YEARS, _METER_FIELDS]),
    _line([_SCHEMES, _YEARS, _METER_FIELDS, _METER_FIELDS]), _line([_SCHEMES]),
).flatmap(lambda line: st.sampled_from(["# ", "# ", "# ", "#", "", "## "]).map(
    lambda start: start + line))
_verse_line = st.one_of(
    _line([_METER_FIELDS, _SYLLABLE_FIELDS, _HINTS, _TEXTS]),
    _line([_SYLLABLE_FIELDS, _HINTS, _TEXTS]),
    _line([_TEXTS]), _line([_HINTS, _TEXTS]),
)
_any_text = st.builds(lambda header, verses: "\n".join([header, *verses]),
                      _header, st.lists(st.one_of(_verse_line, st.just("")), max_size=7))


@st.composite
def _near_text(draw, fmt):
    """A strophe of ``fmt`` whose fields are mostly well formed, so that
    many parse; one in a few is not."""
    scheme = draw(st.sampled_from(["ABAB", "AABB", "XAXA", "ABBACC", "AbAB"]))
    header = "# " + scheme + SEP + draw(st.sampled_from(["1900", "NaN", "1880", "1901"]))
    if fmt is not DataFormat.METER_VERSE:
        header += SEP + draw(st.sampled_from("JTDQ"))
    pools = {DataFormat.BASIC: [],
             DataFormat.VERSE_PAR: [["7", "9", " 7", "+7", "٧", "0"], ["oři", "eje", ""]],
             DataFormat.METER_VERSE: [list("JTDAQ"), ["7", "9", " 7", "+7", "٧", "0"],
                                      ["oři", "eje", "", _LONG]]}[fmt]
    verses = [SEP.join([*(draw(st.sampled_from(pool)) for pool in pools),
                        draw(st.sampled_from(["zpívá moře", "a # duše # letí", _LONG]))])
              for _ in range(len(scheme) + draw(st.sampled_from([0, 0, 0, 0, 1, -1])))]
    return "\n".join([header + draw(st.sampled_from(_TAILS)), *verses])


@settings(max_examples=400, deadline=None)
@given(data=st.data(), fmt=st.sampled_from(list(DataFormat)))
def test_parse_matches_the_pinned_path(data, fmt):
    text = data.draw(st.one_of(_any_text, _near_text(fmt)))
    want = outcome(_parse_as_pinned, text, fmt)
    clear_parse_memos()
    assert outcome(formats.parse, text, fmt) == want  # on a cold memo
    assert outcome(formats.parse, text, fmt) == want  # and on a warm one
    for lineno, line in enumerate(text.split("\n"), 1):
        assert outcome(formats._parse_header, line, fmt, lineno) == \
            outcome(_parse_header_as_pinned, line, fmt, lineno)
        assert outcome(formats._parse_verse_line, line, fmt, lineno) == \
            outcome(_parse_verse_line_as_pinned, line, fmt, lineno)


# ---------------------------------------------------------------------------
# the memos: bounded, and shared only because what they hold is frozen


@pytest.mark.parametrize("frozen", [
    StropheHeader("ABAB", YearBucket(1900), MeterLabel.IAMB),
    LineAnnotation(MeterLabel.IAMB, 9, "oři"), YearBucket(1900)], ids=lambda r: type(r).__name__)
def test_the_records_that_parse_shares_are_frozen(frozen):
    """One record stands for every line that repeats its text; that is
    invisible only because none can be changed."""
    assert type(frozen).__dataclass_params__.frozen
    field = dataclasses.fields(frozen)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(frozen, field, getattr(frozen, field))
    with pytest.raises((AttributeError, TypeError)):  # slots: no attribute to add
        frozen.extra = 1


@pytest.mark.parametrize("fmt", [DataFormat.METER_VERSE, DataFormat.VERSE_PAR])
def test_strophes_that_repeat_a_line_share_its_record(fmt):
    example = EXAMPLE_METER_VERSE if fmt is DataFormat.METER_VERSE else EXAMPLE_VERSE_PAR
    header, *verses = example.split("\n")
    n_fields = 3 if fmt is DataFormat.METER_VERSE else 2
    # the same header over other verses, behind the same annotation prefixes
    other = "\n".join([header, *(SEP.join(v.split(SEP, n_fields)[:n_fields] + ["jiný verš"])
                                  for v in verses)])
    first, second = formats.parse(example, fmt), formats.parse(other, fmt)
    assert second.header is first.header
    assert all(a is b for (a, _), (b, _) in zip(first.lines, second.lines))
    # another scheme of the same year shares its bucket
    third = formats.parse(other.replace("# ABAB", "# AABB", 1), fmt)
    assert third.header is not first.header
    assert third.header.year_bucket is first.header.year_bucket
    assert YearBucket.parse("1900") is first.header.year_bucket


# Bytes allowed beyond a memo's bound: one more entry of a 2,000-character
# key of two-byte characters, held in the key and again in its record.
# At 256 entries the memos measured 8.7-20.8 KB, and 268-532 KB when a
# memo keeps every key.
MEMO_SLACK_BYTES = 8192


@pytest.mark.parametrize("kind,fmt", [
    *(("header", fmt) for fmt in DataFormat), *(("bucket", fmt) for fmt in DataFormat),
    ("annotation", DataFormat.VERSE_PAR), ("annotation", DataFormat.METER_VERSE)])
def test_a_parse_memo_of_long_keys_stays_within_its_bound(kind, fmt, monkeypatch):
    """However long its header lines, annotation prefixes or bucket
    strings, each memo that ``parse`` reads holds about what a full memo
    of ordinary tokens does, plus ``MEMO_SLACK_BYTES``.  Each key is a
    distinct field of 2,000 characters that parses, built while memory
    is traced so that a key the memo keeps counts."""
    monkeypatch.setattr(phonology, "TOKEN_MEMO_ENTRIES", 256)
    meter = "" if fmt is DataFormat.METER_VERSE else SEP + "J"
    rng = random.Random(0)
    clear_parse_memos()
    tracemalloc.start()
    try:
        for _ in range(64):
            if kind == "header":
                scheme = "".join(rng.choices(SCHEME_LETTERS, k=2000))
                formats._parse_header("# " + scheme + SEP + "1900" + meter, fmt, 1)
            elif kind == "annotation":
                hint = "".join(rng.choices("řšžáíé", k=2000))
                prefix = ("J" + SEP if fmt is DataFormat.METER_VERSE else "") + "9" + SEP + hint
                formats._parse_verse_line(prefix + SEP + "verš", fmt, 2)
            else:
                year = "".join(rng.choices("123456789", k=1998)) + "00"
                formats._parse_header("# ABAB" + SEP + year + meter, fmt, 1)
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        clear_parse_memos()
    assert current < MEMO_BYTES_PER_ENTRY * phonology.TOKEN_MEMO_ENTRIES + MEMO_SLACK_BYTES
