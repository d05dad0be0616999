"""Verse-analysis goldens.

The sha256 of the full ``evaluate`` report on the gold fixture (clean
and with planted faults), of ``formats.encode`` in every format and of
the per-verse syllables, stress pattern and clausula.  A change to the
phonology, the annotation or the metrics that moves a single value
changes a hash.
"""

import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from verseforge import formats, phonology as ph, validation
from verseforge.corpus import METER_ORDER, MeterLabel
from verseforge.formats import DataFormat
from verseforge.generation import GenerationRequest
from verseforge.phonology import Syllabifier
from helpers import gen_from_text

ENCODE_SHA256 = {
    "basic":
        "542ec1fe4d6e4ca19a50eb1afe183fffdd3397db45133f77f649ff3087810d0d",
    "verse_par":
        "783ee47a4d5a29e7a1d39efc7273c6b69485c6a03226400237f30987d45a6aee",
    "meter_verse":
        "0233a92fd13c94d9bd3085e6c92efe8fefe548f58cfebf4bf1227d06bc28661e",
}

REPORT_SHA256 = {
    ("meter_verse", "gold"):
        "d7681e1ee1b6920c6607ce56058ddf2cd4c69140fb97f746e8bba8bad187e5a4",
    ("meter_verse", "faults"):
        "e92b5d115dc8c2166c00585a89822f09604e9bdd7e597754d3a3d222ca3dea5d",
    ("verse_par", "gold"):
        "d7681e1ee1b6920c6607ce56058ddf2cd4c69140fb97f746e8bba8bad187e5a4",
    ("verse_par", "faults"):
        "e92b5d115dc8c2166c00585a89822f09604e9bdd7e597754d3a3d222ca3dea5d",
}

VERSES_SHA256 = "eac255c6e5788a49d682455e8b26a47d782e55a533aa62e702dc9cac0dcea726"

# Verses beyond the fixture's: no syllables at all, clitics only,
# punctuation only, stressed prepositions at the end.
EDGE_VERSES = ["", "...", "v z k s", "– , ;", "Na", "jde k nám na",
               "V ZÁŘÍ, v ZÁŘÍ!", "o", "pod s"]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def encoded(fixture_strophes):
    return {fmt: [formats.encode(s, fmt) for s in fixture_strophes] for fmt in DataFormat}


@pytest.mark.parametrize("fmt", list(DataFormat))
def test_encode_golden(encoded, fmt):
    assert sha256("\n\x00\n".join(encoded[fmt])) == ENCODE_SHA256[fmt.value]


def _other_meter(label):
    letters = METER_ORDER[:-1]
    return MeterLabel(letters[(letters.index(label.value) + 1) % len(letters)])


def _plant(i, text, req, fmt):
    """Strophe ``i`` with one planted fault, chosen by ``i``, or as it is."""
    lines = text.split("\n")
    at = 1 + i % (len(lines) - 1)
    fields = lines[at].split(formats.SEP)
    syl, hint = (1, 2) if fmt is DataFormat.METER_VERSE else (0, 1)
    kind = i % 6
    if kind == 0:
        fields[syl] = str(int(fields[syl]) + 1)
    elif kind == 1:
        fields[hint] = "qqq"
    elif kind == 2 and fmt is DataFormat.METER_VERSE:
        fields[0] = _other_meter(MeterLabel(fields[0])).value
    elif kind == 2:
        meters = list(req.per_verse_meters)
        meters[at - 1] = _other_meter(meters[at - 1])
        req = GenerationRequest(req.scheme, req.year_bucket, fmt,
                                strophe_meter=req.strophe_meter,
                                per_verse_meters=tuple(meters))
    elif kind == 3:
        del lines[at]
        return "\n".join(lines), req
    lines[at] = formats.SEP.join(fields)
    return "\n".join(lines), req


def _pairs(strophes, texts, fmt, faults):
    pairs = []
    for i, (s, text) in enumerate(zip(strophes, texts)):
        req = GenerationRequest(
            scheme=s.scheme, year_bucket=s.year_bucket, fmt=fmt,
            strophe_meter=s.verses[0].gold_meter,
            per_verse_meters=tuple(v.gold_meter for v in s.verses))
        if faults:
            text, req = _plant(i, text, req, fmt)
        forced = tuple((i + j) % 3 == 0 for j in range(len(s.verses)))
        pairs.append((req, gen_from_text(text, req, forced)))
    return pairs


def report_digest(report) -> str:
    d = report.to_dict()
    d["per_strophe_rhyme"] = report.per_strophe_rhyme
    d["per_strophe_meter"] = report.per_strophe_meter
    return sha256(json.dumps(d, sort_keys=True))


@pytest.mark.parametrize("fmt,variant", list(REPORT_SHA256))
def test_evaluate_report_golden(fixture_strophes, encoded, fmt, variant):
    fmt = DataFormat(fmt)
    pairs = _pairs(fixture_strophes, encoded[fmt], fmt, variant == "faults")
    report = validation.evaluate(pairs)
    assert report_digest(report) == REPORT_SHA256[(fmt.value, variant)]


def verse_facts(text, syllabifier=None) -> str:
    sylls = ph.verse_syllables(text, syllabifier)
    stress = ph.stress_pattern(text, syllabifier)
    try:
        hint = ph.ending_hint(text, syllabifier)
    except ph.PhonologyError as e:
        hint = f"PhonologyError: {e}"
    return f"{'-'.join(sylls)}\t{stress}\t{hint}"


def test_verse_facts_golden(fixture_strophes):
    texts = [v.text for s in fixture_strophes for v in s.verses] + EDGE_VERSES
    assert sha256("\n".join(verse_facts(t) for t in texts)) == VERSES_SHA256


tokens = st.one_of(
    st.text(alphabet="aáeěioóuůyýrlsnkvztřšžčdhmpbcjAEIOURLSVZKŘŠ", min_size=1, max_size=9),
    st.sampled_from(["v", "z", "k", "s", "V", "Z", "na", "Na", "do", "pod", "ve",
                     "a", "se", "Jsou", "ou", "...", "–", "(", "!"]),
)
punct = st.sampled_from(["", "", ",", ".", "!", "?", "…", "«", "»", "-", "'", "\""])
verses = st.lists(st.tuples(punct, tokens, punct).map("".join), max_size=8).map(" ".join)

# One syllabifier kept across examples, so that its memo is warm.
SHARED = Syllabifier()


@settings(max_examples=200, deadline=None)
@given(text=verses)
def test_repeated_analysis_matches_a_fresh_syllabifier(text):
    expected = verse_facts(text, Syllabifier())
    assert verse_facts(text, SHARED) == expected
    assert verse_facts(text) == expected


def test_goldens_hold_under_a_two_token_memo(fixture_strophes, monkeypatch):
    monkeypatch.setattr(ph, "TOKEN_MEMO_ENTRIES", 2)
    syl = Syllabifier()
    fmt = DataFormat.METER_VERSE
    texts = []
    for s in fixture_strophes:
        texts.append(formats.encode(s, fmt, syl))
        assert len(syl._tokens) <= 2
    assert sha256("\n\x00\n".join(texts)) == ENCODE_SHA256[fmt.value]
    report = validation.evaluate(_pairs(fixture_strophes, texts, fmt, faults=True), syl)
    assert len(syl._tokens) <= 2
    assert report_digest(report) == REPORT_SHA256[(fmt.value, "faults")]
