import errno
import hashlib
import importlib.util
import itertools
import json
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from verseforge import corpus
from verseforge.corpus import (
    CorpusFormatError,
    MeterLabel,
    Strophe,
    Verse,
    YearBucket,
    bucketize_year,
    derive_rhyme_scheme,
    modal_meter,
)


def V(text="a bok svůj pěnné do peřeje", rhyme=None, meter="J"):
    return Verse(text, rhyme, MeterLabel(meter))


def test_bucketize_year():
    assert str(bucketize_year(1893)) == "1880"
    assert str(bucketize_year(1900)) == "1900"
    assert str(bucketize_year(1919)) == "1900"
    assert str(bucketize_year(None)) == "NaN"


def test_year_bucket_parse_round_trip():
    for s in ("1880", "NaN", "1900"):
        assert str(YearBucket.parse(s)) == s
    with pytest.raises(CorpusFormatError):
        YearBucket.parse("dávno")
    with pytest.raises(CorpusFormatError):
        YearBucket(1893)  # not a multiple of the bucket width


@pytest.mark.parametrize("text,message", [
    ("1901", "bucket start 1901 not a multiple of 20"),
    ("abc", "bad year bucket 'abc'"),
])
def test_year_bucket_parse_names_why_it_refuses(text, message):
    with pytest.raises(CorpusFormatError) as err:
        YearBucket.parse(text)
    assert str(err.value) == message


def test_meter_label_parse_reads_each_letter_and_member():
    for label in MeterLabel:
        assert MeterLabel.parse(label.value) is label
        assert MeterLabel.parse(label) is label  # a member hashes by its name


@pytest.mark.parametrize("value", ["Q", "j", "", "JT", "IAMB", 1, 1.0, None, ["J"], {"J": 1}])
def test_meter_label_parse_refuses_anything_but_a_letter(value):
    with pytest.raises(CorpusFormatError) as err:
        MeterLabel.parse(value)
    assert str(err.value) == f"unknown meter label {value!r}"


@pytest.mark.parametrize("groups,scheme", [
    ([1, 2, 1, 2], "ABAB"),
    ([1, 1, 2, 2], "AABB"),
    ([None, 1, None, 1], "XAXA"),
    ([3, 7, 7, 3], "ABBA"),
    ([1, 2, 3, 4], "XXXX"),          # singleton groups do not rhyme
    ([None, None, None, None], "XXXX"),
    ([1, 2, 1, 2, 3, 3], "ABABCC"),
    ([5, 5, 9, 9, 4, 4], "AABBCC"),
    ([1, 1, 1, 1], "AAAA"),
    ([2, None, 2, 7], "AXAX"),
])
def test_derive_rhyme_scheme(groups, scheme):
    assert derive_rhyme_scheme(groups) == scheme


def test_derive_rhyme_scheme_bad_length():
    with pytest.raises(CorpusFormatError):
        derive_rhyme_scheme([1, 2, 1, 2, 3])


@given(st.lists(st.one_of(st.none(), st.integers(0, 5)), min_size=4, max_size=4),
       st.integers(1, 1000))
def test_scheme_invariant_under_relabeling(groups, offset):
    relabeled = [None if g is None else g * 17 + offset for g in groups]
    assert derive_rhyme_scheme(groups) == derive_rhyme_scheme(relabeled)


def test_strophe_checks_scheme_against_groups():
    verses = [V(rhyme=r) for r in (1, 2, 1, 2)]
    assert Strophe(tuple(verses), YearBucket(1900)).scheme == "ABAB"
    with pytest.raises(CorpusFormatError, match="unsupported strophe length 5"):
        Strophe(tuple(verses[:3] + [V(rhyme=2)] * 2), YearBucket(1900))


def test_empty_verse_rejected():
    with pytest.raises(CorpusFormatError):
        V(text="   ")


def _write_corpus(path, poems):
    with open(path, "w", encoding="utf-8") as f:
        for p in poems:
            f.write(json.dumps(p, ensure_ascii=False) + "\n")


def _poem(year=1900):
    verse = {"text": "a bok svůj pěnné do peřeje", "rhyme": 1, "meter": "J"}
    other = dict(verse, rhyme=2)
    return {"year": year, "strophes": [[verse, other, verse, other]]}


def test_ingest_ok(tmp_path):
    path = tmp_path / "c.jsonl"
    _write_corpus(path, [_poem(), _poem(year=None)])
    strophes = corpus.ingest(path)
    assert len(strophes) == 2
    assert strophes[0].scheme == "ABAB"
    assert str(strophes[1].year_bucket) == "NaN"
    assert strophes[0].poem_index != strophes[1].poem_index


def test_a_blank_line_between_poems_still_counts_in_poem_index(tmp_path):
    """``poem_index`` is the 0-based physical line of the poem, so a blank
    line between two poems skips an index."""
    path = tmp_path / "c.jsonl"
    path.write_text(f"{json.dumps(_poem())}\n\n{json.dumps(_poem())}\n", encoding="utf-8")
    assert [s.poem_index for s in corpus.ingest(path)] == [0, 2]


@pytest.mark.parametrize("mutate,message", [
    (lambda p: "{broken", "invalid JSON"),
    (lambda p: "[" * 100_000, r"invalid JSON \(maximum recursion depth exceeded"),
    (lambda p: p.replace('"year": 1900', '"year": ' + "9" * 5000),
     r"invalid JSON \(Exceeds the limit \(4300 digits\)"),
    (lambda p: "[]", "expected a JSON object, got list"),
    (lambda p: json.dumps({"year": 1900}), "strophes"),
    (lambda p: p.replace('"meter": "J"', '"meter": "Q"'), "meter"),
    (lambda p: p.replace('"rhyme": 1', '"rhyme": "one"'), "rhyme"),
    (lambda p: p.replace('"year": 1900', '"year": "1900"'), "year"),
    # bool is a subclass of int, but a JSON true is no year or rhyme group
    (lambda p: p.replace('"year": 1900', '"year": true'), "'year' must be integer"),
    (lambda p: p.replace('"rhyme": 1', '"rhyme": true'), "'rhyme' must be integer"),
    (lambda p: p.replace(', "meter": "J"', ""), "missing field 'meter'"),
    (lambda p: json.dumps({"year": 1900, "strophes": [json.loads(p)["strophes"][0][:3]]}),
     ":1 strophe 0: unsupported strophe length 3"),
])
def test_ingest_line_addressed_errors(tmp_path, mutate, message):
    path = tmp_path / "c.jsonl"
    path.write_text(mutate(json.dumps(_poem())) + "\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match=message) as err:
        corpus.ingest(path)
    assert ":1" in str(err.value)



@pytest.mark.parametrize("escape", [r"\ud800", r"\uD800", r"\udfff", r"\uDC00x", r"\ud83d\ud83d"])
@pytest.mark.parametrize("spot", ["text", "meter", "key"])
def test_a_lone_surrogate_escape_names_its_line(tmp_path, escape, spot):
    poem = json.dumps(_poem())
    if spot == "key":
        poem = poem.replace('"year"', '"' + escape + '": 0, "year"', 1)
    else:
        poem = poem.replace(f'"{spot}": "', f'"{spot}": "{escape}', 1)
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(_poem()) + "\n" + poem + "\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match=r"c\.jsonl:2: .*lone surrogate"):
        corpus.ingest(path)


def test_two_lone_surrogates_name_the_first_in_the_line(tmp_path):
    poem = json.dumps(_poem())
    head, _, tail = poem.rpartition('"text": "')
    poem = head.replace('"text": "', '"text": "\\udc01', 1) + '"text": "\\ud802' + tail
    path = tmp_path / "c.jsonl"
    path.write_text(poem + "\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match=r"c\.jsonl:1: .*lone surrogate \\udc01$"):
        corpus.ingest(path)


@pytest.mark.parametrize("text", [r"\ud83d\ude00", r"\uD83D\uDE00", r"\\ud800", r"\ud7ff"])
def test_a_surrogate_pair_or_an_escaped_backslash_is_no_lone_surrogate(tmp_path, text):
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(_poem()).replace('"text": "', f'"text": "{text}', 1) + "\n",
                    encoding="utf-8")
    assert len(corpus.ingest(path)) == 1


def test_split_is_deterministic_and_exact(fixture_strophes):
    train1, test1 = corpus.split(fixture_strophes, 0.1, seed=7)
    train2, test2 = corpus.split(fixture_strophes, 0.1, seed=7)
    assert [s.scheme for s in test1] == [s.scheme for s in test2]
    assert len(test1) == int(len(fixture_strophes) * 0.1)
    assert len(train1) + len(test1) == len(fixture_strophes)
    _, test_other = corpus.split(fixture_strophes, 0.1, seed=8)
    assert [id(s) for s in test_other] != [id(s) for s in test1]
    with pytest.raises(ValueError):
        corpus.split(fixture_strophes, 0.0, seed=1)


def test_modal_meter_tie_breaks_by_frequency_order():
    verses = [V(rhyme=1, meter=m) for m in ("D", "D", "T", "T")]
    strophe = Strophe(tuple(verses), YearBucket(1900))
    assert modal_meter(strophe) is MeterLabel.TROCHEE
    verses = [V(rhyme=1, meter=m) for m in ("T", "T", "T", "D")]
    strophe = Strophe(tuple(verses), YearBucket(1900))
    assert modal_meter(strophe) is MeterLabel.TROCHEE


def modal_meter_by_count_and_index(strophe):
    """The reference rule: the most common label of the strophe, ties
    broken by the earlier place in ``METER_ORDER``."""
    counts = Counter(v.gold_meter for v in strophe.verses)
    return max(counts.items(),
               key=lambda kv: (kv[1], -corpus.METER_ORDER.index(kv[0].value)))[0]


def test_the_meter_order_is_pinned():
    assert corpus.METER_ORDER == "JTDAXYHPN"


def strophe_of_meters(meters):
    return Strophe(tuple(V(meter=m.value) for m in meters), YearBucket(1900))


def test_modal_meter_is_the_count_and_index_rule_for_every_four_verse_strophe():
    for meters in itertools.product(MeterLabel, repeat=4):
        strophe = strophe_of_meters(meters)
        assert modal_meter(strophe) is modal_meter_by_count_and_index(strophe), meters


@given(st.lists(st.sampled_from(list(MeterLabel)), min_size=6, max_size=6))
def test_modal_meter_is_the_count_and_index_rule_for_six_verse_strophes(meters):
    strophe = strophe_of_meters(meters)
    assert modal_meter(strophe) is modal_meter_by_count_and_index(strophe)


def test_stats(fixture_strophes):
    st_ = corpus.stats(fixture_strophes)
    assert st_.n_strophes == len(fixture_strophes)
    assert st_.n_verses == sum(len(s.verses) for s in fixture_strophes)
    assert sum(st_.scheme_counts.values()) == st_.n_strophes
    assert st_.n_poems > 0
    d = st_.to_dict()
    assert set(d) == {"schemes", "meters", "years", "strophes", "verses", "poems"}
    assert all(len(m) == 1 for m in d["meters"])


def test_fixture_is_large_enough(fixture_strophes):
    assert len(fixture_strophes) >= 2000
    assert sum(len(s.verses) for s in fixture_strophes) >= 9000


def test_fixture_script_regenerates_the_fixture_byte_for_byte(tmp_path, monkeypatch,
                                                              fixture_path):
    """``scripts/make_fixture_corpus.py`` checks its lexicon with the
    package's syllabifier, so a change there that alters a split or a
    syllable count alters the bundled fixture."""
    script_path = Path(__file__).parent.parent / "scripts" / "make_fixture_corpus.py"
    spec = importlib.util.spec_from_file_location("make_fixture_corpus", script_path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "OUT", tmp_path / "fixture_corpus.jsonl")
    script.main()
    assert script.OUT.read_bytes() == fixture_path.read_bytes()


@pytest.mark.parametrize("where, code", [("missing/out", errno.ENOENT),
                                         ("missing/deeper/out", errno.ENOENT),
                                         ("f/out", errno.ENOTDIR), ("f/deeper/out", errno.ENOTDIR)])
def test_check_directory_raises_what_replacing_would(tmp_path, where, code):
    """``check_directory`` refuses an output up front with the error that
    ``replacing`` raises when it comes to write it, naming the output,
    and neither leaves a file."""
    (tmp_path / "f").write_text("a file\n", encoding="utf-8")
    out = tmp_path / where
    with pytest.raises(OSError) as early:
        corpus.check_directory(out)
    with pytest.raises(OSError) as late:
        with corpus.replacing(out) as f:
            f.write("never written\n")
    for e in (early.value, late.value):
        assert (type(e), e.errno, e.filename) == (type(late.value), code, str(out))
    assert list(tmp_path.iterdir()) == [tmp_path / "f"]
    corpus.check_directory(tmp_path / "new")  # a missing file in a directory that exists
    corpus.check_directory(tmp_path / "f")


def load_synth():
    """``perfbench/synth.py``, loaded by file path under its own name."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "synth.py"
    spec = importlib.util.spec_from_file_location("synth", path)
    synth = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(synth)
    return synth


def repr_digest(strophes) -> str:
    return hashlib.sha256(repr(strophes).encode("utf-8")).hexdigest()


FIXTURE_INGEST_SHA256 = "09151234c462b36fd0833e769511b1a2932b31e7d6392b31b617db332c2b91dd"
SCALED_INGEST_SHA256 = "2dd6a18211ca09e68b68c017e1673252411ff5f9e197ff29ee59f3ae3da95f3f"


def test_ingest_is_pinned_on_the_fixture_and_a_scaled_corpus(tmp_path, fixture_path):
    """The ``repr`` of every strophe ``ingest`` returns, on the fixture and
    on the 2x scaled copy that ``scripts/bench_stages.py`` times."""
    synth = load_synth()
    scaled = tmp_path / "scaled.jsonl"
    synth.write_jsonl(synth.scaled_corpus(synth.read_jsonl(fixture_path), 2, "0"), scaled)
    assert repr_digest(corpus.ingest(fixture_path)) == FIXTURE_INGEST_SHA256
    assert repr_digest(corpus.ingest(scaled)) == SCALED_INGEST_SHA256


def _verse(text="a bok svůj pěnné do peřeje", rhyme=1, meter="J"):
    return {"text": text, "rhyme": rhyme, "meter": meter}


def _two_strophes():
    """A poem of two four-verse strophes, both ABAB."""
    return {"year": 1893, "strophes": [[_verse(rhyme=r) for r in (1, 2, 1, 2)]
                                       for _ in range(2)]}


def _set(**fields):
    """Verse 2 of strophe 1 with ``fields`` set."""
    def mutate(poem):
        poem["strophes"][1][2].update(fields)
    return mutate


def _drop(*keys):
    def mutate(poem):
        for key in keys:
            del poem["strophes"][1][2][key]
    return mutate


def _put(value, at=2):
    """Verse ``at`` of strophe 1 replaced by ``value``."""
    def mutate(poem):
        poem["strophes"][1][at] = value
    return mutate


def _strophe(value):
    def mutate(poem):
        poem["strophes"][1] = value
    return mutate


def _length(n):
    def mutate(poem):
        poem["strophes"][1] = [_verse(rhyme=1 + i % 2) for i in range(n)]
    return mutate


# one corruption of the second line's poem each, and the exact text that
# ``ingest`` raises after that line's ``path:line``
CORRUPTIONS = {
    "missing-text": (_drop("text"), " strophe 1: missing field 'text'"),
    "missing-rhyme": (_drop("rhyme"), " strophe 1: missing field 'rhyme'"),
    "missing-meter": (_drop("meter"), " strophe 1: missing field 'meter'"),
    "missing-all": (_drop("text", "rhyme", "meter"), " strophe 1: missing field 'text'"),
    "rhyme-true": (_set(rhyme=True), " strophe 1: field 'rhyme' must be integer or null"),
    "rhyme-false": (_set(rhyme=False), " strophe 1: field 'rhyme' must be integer or null"),
    "rhyme-str": (_set(rhyme="1"), " strophe 1: field 'rhyme' must be integer or null"),
    "rhyme-float": (_set(rhyme=1.0), " strophe 1: field 'rhyme' must be integer or null"),
    "rhyme-list": (_set(rhyme=[1]), " strophe 1: field 'rhyme' must be integer or null"),
    "text-list": (_set(text=["a", "b"]), " strophe 1: field 'text' must be a string"),
    "text-null": (_set(text=None), " strophe 1: field 'text' must be a string"),
    "text-int": (_set(text=5), " strophe 1: field 'text' must be a string"),
    "meter-unknown": (_set(meter="Q"), " strophe 1: unknown meter label 'Q'"),
    "meter-lower": (_set(meter="j"), " strophe 1: unknown meter label 'j'"),
    "meter-list": (_set(meter=["J"]), " strophe 1: unknown meter label ['J']"),
    "meter-object": (_set(meter={"J": 1}), " strophe 1: unknown meter label {'J': 1}"),
    "meter-null": (_set(meter=None), " strophe 1: unknown meter label None"),
    "text-blank": (_set(text="  \t "), " strophe 1: verse text is empty"),
    "text-empty": (_set(text=""), " strophe 1: verse text is empty"),
    "verse-list": (_put(["a", 1, "J"]), " strophe 1: verse is not an object"),
    "verse-str": (_put("text"), " strophe 1: verse is not an object"),
    "verse-null": (_put(None), " strophe 1: verse is not an object"),
    "verse-int": (_put(3), " strophe 1: verse is not an object"),
    "strophe-object": (_strophe({"0": _verse()}), " strophe 1: a strophe must be a list"),
    "strophe-str": (_strophe("verses"), " strophe 1: a strophe must be a list"),
    "strophe-null": (_strophe(None), " strophe 1: a strophe must be a list"),
    "three-verses": (_length(3), " strophe 1: unsupported strophe length 3: expected 4 or 6"),
    "five-verses": (_length(5), " strophe 1: unsupported strophe length 5: expected 4 or 6"),
    "no-verses": (_length(0), " strophe 1: unsupported strophe length 0: expected 4 or 6"),
    # the checks' order: the first field of the first bad verse is named
    "text-and-meter": (_set(text=1, meter="Q"), " strophe 1: field 'text' must be a string"),
    "rhyme-and-meter": (_set(rhyme="x", meter="Q"),
                        " strophe 1: field 'rhyme' must be integer or null"),
    "blank-and-meter": (_set(text=" ", meter="Q"), " strophe 1: unknown meter label 'Q'"),
    "two-bad-verses": (lambda p: (_put(None, 3)(p), _set(rhyme=True)(p)),
                       " strophe 1: field 'rhyme' must be integer or null"),
    "bad-verse-of-five": (lambda p: (p["strophes"][1].append(_verse()), _set(meter="Q")(p)),
                          " strophe 1: unknown meter label 'Q'"),
    "strophes-null": (lambda p: p.update(strophes=None), ": field 'strophes' must be a list"),
    "year-true": (lambda p: p.update(year=True), ": field 'year' must be integer or null"),
}


@pytest.mark.parametrize("mutate, message", CORRUPTIONS.values(), ids=CORRUPTIONS)
def test_each_corrupted_field_raises_its_exact_message(tmp_path, mutate, message):
    poem = _two_strophes()
    mutate(poem)
    path = tmp_path / "c.jsonl"
    _write_corpus(path, [_two_strophes(), poem])
    with pytest.raises(CorpusFormatError) as err:
        corpus.ingest(path)
    assert str(err.value) == f"{path}:2{message}"


def reference_verse(obj, where):
    """A verse record read one field at a time, the checks in the order
    ``ingest`` names their failures."""
    if not isinstance(obj, dict):
        raise CorpusFormatError(f"{where}: verse is not an object")
    for key in ("text", "rhyme", "meter"):
        if key not in obj:
            raise CorpusFormatError(f"{where}: missing field {key!r}")
    if not isinstance(obj["text"], str):
        raise CorpusFormatError(f"{where}: field 'text' must be a string")
    rhyme = obj["rhyme"]
    if rhyme is not None and (not isinstance(rhyme, int) or isinstance(rhyme, bool)):
        raise CorpusFormatError(f"{where}: field 'rhyme' must be integer or null")
    meter = obj["meter"]
    if not isinstance(meter, str) or meter not in corpus.METER_ORDER or len(meter) != 1:
        raise CorpusFormatError(f"{where}: unknown meter label {meter!r}")
    if not obj["text"].strip():
        raise CorpusFormatError(f"{where}: verse text is empty")
    return Verse(obj["text"], rhyme, MeterLabel(meter))


def reference_strophes(poem, where, index):
    """The strophes of a poem whose ``year`` and ``strophes`` are valid."""
    out = []
    for si, raw in enumerate(poem["strophes"]):
        if not isinstance(raw, list):
            raise CorpusFormatError(f"{where} strophe {si}: a strophe must be a list")
        verses = tuple(reference_verse(v, f"{where} strophe {si}") for v in raw)
        if len(verses) not in corpus.SCHEME_LENGTHS:
            raise CorpusFormatError(f"{where} strophe {si}: unsupported strophe length "
                                    f"{len(verses)}: expected 4 or 6")
        out.append(Strophe(verses, bucketize_year(poem["year"]), index))
    return out


json_values = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(0, 2),
                        st.sampled_from(["", " ", "J", "Q", "a b", "\t"]),
                        st.lists(st.sampled_from(["J", 1]), max_size=2))


def mostly(good, bad, one_in=4):
    """``good``, but ``bad`` one time in ``one_in``."""
    return st.sampled_from([good] * (one_in - 1) + [bad]).flatmap(lambda strategy: strategy)


good_fields = {"text": st.sampled_from(["a bok svůj", "lesy", " v ní ", "Ó!"]),
               "rhyme": st.one_of(st.none(), st.integers(-2, 4)),
               "meter": st.sampled_from(corpus.METER_ORDER)}
# a verse whose every field may be bad, or that lacks some, or a value
# that is no object
full_records = st.fixed_dictionaries({key: mostly(good, json_values, 3)
                                      for key, good in good_fields.items()})
verse_records = st.one_of(
    full_records, full_records,
    st.fixed_dictionaries({}, optional={**good_fields, "extra": json_values}),
    json_values)
strophe_records = mostly(
    st.sampled_from([4, 4, 4, 6, 6, 0, 3, 5]).flatmap(
        lambda n: st.lists(mostly(st.fixed_dictionaries(good_fields), verse_records, 6),
                           min_size=n, max_size=n)),
    json_values, 10)


@settings(max_examples=300, deadline=None)
@given(poems=st.lists(st.fixed_dictionaries({
    "year": st.one_of(st.none(), st.integers(1800, 1950)),
    "strophes": st.lists(strophe_records, max_size=2)}), min_size=1, max_size=3))
def test_ingest_reads_and_refuses_as_the_field_by_field_checks(tmp_path_factory, poems):
    """Every record, well formed or corrupted, gives the strophes, or the
    first error with its exact text, that checking one field at a time
    gives."""
    path = tmp_path_factory.mktemp("c") / "c.jsonl"
    _write_corpus(path, poems)
    try:
        expected = [s for i, p in enumerate(poems)
                    for s in reference_strophes(p, f"{path}:{i + 1}", i)]
    except CorpusFormatError as e:
        with pytest.raises(CorpusFormatError) as err:
            corpus.ingest(path)
        assert str(err.value) == str(e)
    else:
        assert corpus.ingest(path) == expected
