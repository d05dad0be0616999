import math
import tracemalloc
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from verseforge import formats, phonology, validation
from verseforge.corpus import METER_ORDER, MeterLabel, YearBucket
from verseforge.formats import DataFormat
from verseforge.generation import GenerationRequest
from verseforge.validation import (
    MAX_COMPOSED_LENGTH,
    classify_meter,
    evaluate,
    meter_score,
    normalize_clausula,
    permutation_test,
    predict_scheme,
    strophe_meters,
)
from helpers import EXAMPLE_VERSES, gen_from_text
from test_analysis_goldens import tokens

FIG1_PATTERNS = ["xXxXxxxXx", "xXxXxXxXx", "xXxXxXxXx", "xXxXxXxxx"]


def test_example_patterns_are_iambic():
    for pattern in FIG1_PATTERNS:
        assert classify_meter([pattern]) is MeterLabel.IAMB, pattern


@pytest.mark.parametrize("pattern,label", [
    ("XxXxXxXx", MeterLabel.TROCHEE),
    ("XxxXxxXx", MeterLabel.DACTYL),
    ("xXxxXxxXx", MeterLabel.AMPHIBRACH),
    ("XxXxxXx", MeterLabel.DACTYLOTROCHEE),
    ("xXxXxxXx", MeterLabel.DACTYLOTROCHEE_ANACRUSIS),
    ("XxxXxxXXxxXxxX", MeterLabel.PENTAMETER),
    ("xxxxxxxxx", MeterLabel.NOT_RECOGNIZED),
])
def test_classify_meter(pattern, label):
    assert classify_meter([pattern]) is label


def test_hexameter_template_scores_but_is_subsumed():
    # a flawless hexameter is also a flawless dactyl/trochee composition,
    # and dactylotrochee comes first in the frequency order
    pattern = "XxXxXxXxXxxXx"
    assert meter_score(pattern, MeterLabel.HEXAMETER) == pytest.approx(1.0)
    assert classify_meter([pattern]) is MeterLabel.DACTYLOTROCHEE


def test_threshold_override():
    assert classify_meter(["xxxxxxxxx"], threshold=0.3) is MeterLabel.IAMB
    assert classify_meter(["xXxXxxxXx"], threshold=0.9) is MeterLabel.NOT_RECOGNIZED


def test_a_nan_threshold_is_refused_where_scoring_starts():
    # no score compares below NaN, so no verse would ever be N
    assert classify_meter(["xxxxxxxx"]) is MeterLabel.NOT_RECOGNIZED
    with pytest.raises(ValueError, match="threshold must be a number, got nan"):
        classify_meter(["xxxxxxxx"], threshold=float("nan"))
    with pytest.raises(ValueError, match="threshold must be a number, got nan"):
        evaluate([], threshold=float("nan"))


def test_strophe_meters_refuse_a_nan_threshold_with_no_verse_to_score():
    with pytest.raises(ValueError, match="threshold must be a number, got nan"):
        strophe_meters(["", "", "", ""], "ABAB", float("nan"))
    with pytest.raises(ValueError, match="threshold must be a number, got nan"):
        strophe_meters(FIG1_PATTERNS, "AXXA", float("nan"))


def test_empty_pattern_raises():
    for patterns in ([""], [], ["xXxX", ""]):
        with pytest.raises(ValueError, match="empty stress pattern"):
            classify_meter(patterns)


def test_context_pooling_changes_the_argmax():
    # a mostly flat verse reads trochaic alone, iambic next to clean
    # iambic rhyme partners
    noisy, iambic = "xxxxxxXxX", "xXxXxXxXx"
    assert classify_meter([noisy]) is MeterLabel.TROCHEE
    pooled = classify_meter([noisy, iambic, iambic])
    assert pooled is MeterLabel.IAMB


def test_strophe_meters_pool_by_rhyme_group():
    patterns = ["xxxxxxXxX", "xXxXxXxXx", "xXxXxXxXx", "xxxxxxxxx"]
    out = strophe_meters(patterns, "AAAX")
    assert out[:3] == [MeterLabel.IAMB] * 3
    assert out[3] is MeterLabel.NOT_RECOGNIZED  # X verse scored alone
    with pytest.raises(ValueError):
        strophe_meters(patterns, "ABAB" + "CC")


def test_strophe_meters_verse_without_syllables_is_not_recognized():
    patterns = [FIG1_PATTERNS[0], "", FIG1_PATTERNS[2], FIG1_PATTERNS[3]]
    # the empty verse is N; its partner is classified from its own pattern
    assert strophe_meters(patterns, "ABAB") == [
        MeterLabel.IAMB, MeterLabel.NOT_RECOGNIZED, MeterLabel.IAMB, MeterLabel.IAMB]
    assert strophe_meters(["", "", "", ""], "AAXX") == [MeterLabel.NOT_RECOGNIZED] * 4


# Reference: classify_meter and strophe_meters as they were before a
# rhyme group and an X verse went through one pooled-score path, with the
# per-label score dict and the keyed max of that time.

def reference_pooled_scores(patterns: list[str]) -> dict[MeterLabel, float]:
    labels = [MeterLabel(letter) for letter in METER_ORDER[:-1]]
    rows = [tuple(meter_score(p, label) for label in labels) for p in patterns]
    return {label: sum(row[k] for row in rows) / len(rows)
            for k, label in enumerate(labels)}


def reference_classify_meter(pattern: str, context: list[str] | None = None,
                             threshold: float = validation.DEFAULT_THRESHOLD) -> MeterLabel:
    if not pattern:
        raise ValueError("empty stress pattern")
    patterns = context if context else [pattern]
    scores = reference_pooled_scores(patterns)
    best = max(scores.items(),
               key=lambda kv: (kv[1], -METER_ORDER.index(kv[0].value)))
    if best[1] < threshold:
        return MeterLabel.NOT_RECOGNIZED
    return best[0]


def reference_strophe_meters(patterns: list[str], scheme: str,
                             threshold: float = validation.DEFAULT_THRESHOLD) -> list[MeterLabel]:
    if len(patterns) != len(scheme):
        raise ValueError("one stress pattern per scheme letter required")
    groups: dict[str, list[int]] = {}
    for i, letter in enumerate(scheme):
        if patterns[i] and letter != "X":
            groups.setdefault(letter, []).append(i)
    out = [MeterLabel.NOT_RECOGNIZED] * len(patterns)
    for letter, idxs in groups.items():
        label = reference_classify_meter(patterns[idxs[0]],
                                         context=[patterns[i] for i in idxs],
                                         threshold=threshold)
        for i in idxs:
            out[i] = label
    for i, letter in enumerate(scheme):
        if patterns[i] and letter == "X":
            out[i] = reference_classify_meter(patterns[i], threshold=threshold)
    return out


@st.composite
def schemes_and_patterns(draw, pattern=st.text("xX", max_size=14)):
    n = draw(st.sampled_from([4, 6]))
    scheme = draw(st.one_of(st.just("X" * n), st.text("ABCX", min_size=n, max_size=n)))
    patterns = draw(st.lists(pattern, min_size=n, max_size=n))
    return scheme, patterns


# Drawn per call, so a group scored under one threshold is read back
# under another, the infinities and equal thresholds of another sign or
# type (0.0 and -0.0, 1 and 1.0) among them.
THRESHOLDS = [0.3, validation.DEFAULT_THRESHOLD, 0.9, math.inf, -math.inf, 0.0, -0.0, 1, 1.0]


@st.composite
def recurring_calls(draw):
    """Strophes whose stress patterns come from a small pool, so that
    rhyme groups recur from call to call, each with a threshold of its
    own."""
    pool = draw(st.lists(st.text("xX", min_size=1, max_size=14), min_size=1, max_size=4))
    pattern = st.one_of(st.just(""), st.sampled_from(pool))
    return draw(st.lists(st.tuples(schemes_and_patterns(pattern), st.sampled_from(THRESHOLDS)),
                         min_size=1, max_size=8))


@settings(max_examples=300, deadline=None)
@given(st.one_of(recurring_calls(),
                 st.lists(st.tuples(schemes_and_patterns(), st.sampled_from(THRESHOLDS)),
                          min_size=1, max_size=3)))
def test_strophe_meters_match_reference(calls):
    for (scheme, patterns), threshold in calls:
        assert (strophe_meters(patterns, scheme, threshold)
                == reference_strophe_meters(patterns, scheme, threshold))
        voiced = [p for p in patterns if p]
        for p in voiced:
            assert (classify_meter([p], threshold)
                    == reference_classify_meter(p, threshold=threshold))
        if voiced:
            assert (classify_meter(voiced, threshold)
                    == reference_classify_meter(voiced[0], voiced, threshold))


# Reference: the meter templates as they were built from every ordering
# of 2- and 3-syllable feet.

def _periodic(n: int, first: int, period: int) -> frozenset[int]:
    return frozenset(range(first, n + 1, period))


@lru_cache(maxsize=None)
def _foot_compositions(n: int) -> tuple[tuple[int, ...], ...]:
    """All orderings of 2- and 3-syllable feet summing to n."""
    if n == 0:
        return ((),)
    out = []
    for foot in (2, 3):
        if foot <= n:
            for rest in _foot_compositions(n - foot):
                out.append((foot,) + rest)
    return tuple(out)


def _composed_strong_sets(n: int, offset: int = 0):
    """Foot-start positions of dactyl/trochee mixes (at least one of each)."""
    if n > MAX_COMPOSED_LENGTH:
        return
    for feet in _foot_compositions(n):
        if 2 not in feet or 3 not in feet:
            continue
        strong, pos = [], offset + 1
        for f in feet:
            strong.append(pos)
            pos += f
        yield frozenset(strong)


@lru_cache(maxsize=None)
def reference_template_strong_sets(label: MeterLabel, n: int) -> tuple[frozenset[int], ...]:
    """Candidate stressed-position sets of a meter at verse length n."""
    if label is MeterLabel.IAMB:
        return (_periodic(n, 2, 2),)
    if label is MeterLabel.TROCHEE:
        return (_periodic(n, 1, 2),)
    if label is MeterLabel.DACTYL:
        return (_periodic(n, 1, 3),)
    if label is MeterLabel.AMPHIBRACH:
        return (_periodic(n, 2, 3),)
    if label is MeterLabel.DACTYLOTROCHEE:
        return tuple(_composed_strong_sets(n))
    if label is MeterLabel.DACTYLOTROCHEE_ANACRUSIS:
        out = []
        for ana in (1, 2):
            if n - ana >= 5:
                out.extend(_composed_strong_sets(n - ana, offset=ana))
        return tuple(out)
    if label is MeterLabel.HEXAMETER:
        # Six feet; fifth a full dactyl, sixth a trochee.
        out = []
        for feet in _foot_compositions(n - 5):
            if len(feet) == 4:
                strong, pos = [], 1
                for f in feet + (3, 2):
                    strong.append(pos)
                    pos += f
                out.append(frozenset(strong))
        return tuple(out)
    if label is MeterLabel.PENTAMETER:
        # Two dactylic hemistichs, third and sixth feet reduced to the
        # stressed syllable alone.
        if n != 14:
            return ()
        strong, pos = [], 1
        for f in (3, 3, 1, 3, 3, 1):
            strong.append(pos)
            pos += f
        return (frozenset(strong),)
    return ()


@pytest.mark.parametrize("label", list(MeterLabel))
def test_template_strong_sets_match_reference(label):
    for n in range(41):
        got = validation.template_strong_sets(label, n)
        want = reference_template_strong_sets(label, n)
        assert len(got) == len(want) and set(got) == set(want), (label, n)


@settings(max_examples=300, deadline=None)
@given(st.text("xX", max_size=40))
def test_meter_score_matches_reference(pattern):
    for label in validation._SCORED_LABELS:
        want = max((validation._score_strong(pattern, strong)
                    for strong in reference_template_strong_sets(label, len(pattern))),
                   default=float("-inf"))
        assert meter_score(pattern, label) == want, label


def test_hexameter_templates_of_a_long_verse_stay_small():
    validation._composed_strong_sets.cache_clear()
    tracemalloc.start()
    try:
        meter_score("Xx" * 25, MeterLabel.HEXAMETER)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_template_cache_stays_small_after_verses_of_every_length():
    # Templates of mixed feet exist only up to MAX_COMPOSED_LENGTH syllables
    # after an anacrusis of at most two; they are built before tracing.
    for label in MeterLabel:
        for n in range(MAX_COMPOSED_LENGTH + 3):
            validation.template_strong_sets(label, n)
    validation._pattern_scores.cache_clear()
    tracemalloc.start()
    try:
        for n in range(1, 801):
            validation._pattern_scores(("xX" * n)[:n])
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 2 << 20


def test_evaluate_accepts_verse_without_syllables():
    req = GenerationRequest("ABAB", YearBucket(1900), DataFormat.METER_VERSE,
                            per_verse_meters=(MeterLabel.IAMB,) * 4)
    lines = [f"J # 9 # x # {text}" for text in EXAMPLE_VERSES]
    lines[1] = "J # 3 # eje # 123"
    report = evaluate([(req, gen_from_text("\n".join(["# ABAB # 1900"] + lines), req))])
    assert report.n_parse_failures == 0
    assert report.meter_acc_verse == 0.75
    assert report.meter_acc == 0.0


def test_normalize_clausula_folds_length_and_y():
    assert normalize_clausula("oří") == normalize_clausula("oři") == "oři"
    assert normalize_clausula("ýny") == "ini"
    assert normalize_clausula("Oři") == "oři"
    assert normalize_clausula("eje") != normalize_clausula("aje")


def test_predict_scheme():
    assert predict_scheme(EXAMPLE_VERSES) == "ABAB"
    assert predict_scheme(["moře", "louka", "zoře", "věta"]) == "AXAX"
    with pytest.raises(ValueError):
        predict_scheme(EXAMPLE_VERSES[:3])


def gold_pairs(strophes, fmt=DataFormat.METER_VERSE):
    pairs = []
    for s in strophes:
        req = GenerationRequest(scheme=s.scheme, year_bucket=s.year_bucket,
                                fmt=fmt, strophe_meter=s.verses[0].gold_meter)
        pairs.append((req, gen_from_text(formats.encode(s, fmt), req)))
    return pairs


def test_evaluate_gold_is_perfect(fixture_strophes):
    report = evaluate(gold_pairs(fixture_strophes[:60]))
    assert report.num_syl == 1.0
    assert report.end_acc == 1.0
    assert report.rhyme_acc == 1.0
    assert report.meter_acc == 1.0
    assert report.meter_acc_verse == 1.0
    assert report.n_parse_failures == 0
    assert report.n_strophes == 60
    assert 0.0 < report.unique <= 1.0
    d = report.to_dict()
    assert d["num_syl"] == 1.0 and d["n_strophes"] == 60


def test_evaluate_perturbed_syllable_annotation(fixture_strophes):
    strophe = next(s for s in fixture_strophes if len(s.verses) == 4)
    (req, gold), = gold_pairs([strophe])
    lines = gold.raw_text.split("\n")
    ann = lines[1].split(" # ")
    ann[1] = str(int(ann[1]) + 1)  # off-by-one syllable count on verse 1
    lines[1] = " # ".join(ann)
    bad = gen_from_text("\n".join(lines), req)
    report = evaluate([(req, bad)])
    assert report.num_syl == 0.75  # one bad verse in four
    assert report.end_acc == 1.0


def test_evaluate_perturbed_ending_hint(fixture_strophes):
    strophe = next(s for s in fixture_strophes if len(s.verses) == 4)
    (req, gold), = gold_pairs([strophe])
    lines = gold.raw_text.split("\n")
    ann = lines[2].split(" # ")
    ann[2] = "zzz"
    lines[2] = " # ".join(ann)
    bad = gen_from_text("\n".join(lines), req)
    report = evaluate([(req, bad)])
    assert report.end_acc == 0.75
    assert report.num_syl == 1.0


def test_evaluate_basic_format_skips_verse_checks(fixture_strophes):
    # basic lines carry no annotation: num_syl and end_acc have nothing
    # to check, every other metric reads as for verse_par
    basic = evaluate(gold_pairs(fixture_strophes[:60], DataFormat.BASIC)).to_dict()
    verse_par = evaluate(gold_pairs(fixture_strophes[:60], DataFormat.VERSE_PAR)).to_dict()
    assert basic["n_parse_failures"] == 0
    assert basic == dict(verse_par, num_syl=None, end_acc=None, end_acc_free=None)


@pytest.mark.parametrize("fmt", [DataFormat.BASIC, DataFormat.VERSE_PAR])
def test_evaluate_counts_a_verse_with_no_requested_meter_as_a_miss(fixture_strophes, fmt):
    strophe = next(s for s in fixture_strophes if s.scheme == "ABAB")
    req = GenerationRequest(scheme=strophe.scheme, year_bucket=strophe.year_bucket, fmt=fmt)
    report = evaluate([(req, gen_from_text(formats.encode(strophe, fmt), req))])
    assert report.n_parse_failures == 0 and report.rhyme_acc == 1.0
    assert report.meter_acc == report.meter_acc_verse == 0.0


def test_evaluate_counts_parse_failures(fixture_strophes):
    pairs = gold_pairs(fixture_strophes[:3])
    req = pairs[0][0]
    pairs.append((req, gen_from_text("# nonsense", req)))
    report = evaluate(pairs)
    assert report.n_parse_failures == 1
    assert report.n_strophes == 4
    assert report.rhyme_acc == 0.75  # the failure scores zero
    assert report.num_syl == 1.0  # verse metrics skip the failure


def test_evaluate_splits_end_acc_by_forcing(fixture_strophes):
    strophe = next(s for s in fixture_strophes if s.scheme == "ABAB")
    (req, gold), = gold_pairs([strophe])
    forced = gen_from_text(gold.raw_text, req, forced_flags=(False, False, True, True))
    report = evaluate([(req, forced)])
    assert report.end_acc_forced == 1.0
    assert report.end_acc_free == 1.0
    report = evaluate([(req, gold)])
    assert report.end_acc_forced is None  # nothing was forced


@pytest.mark.parametrize("scheme", ["AAB", "ABABAB"])
def test_evaluate_scores_a_verse_count_the_request_did_not_ask_for(fixture_strophes, scheme):
    # the strophe parses, so its verses are checked as usual; it fails
    # rhyme and meter, and each of its verses is a meter miss
    (req, gold), = gold_pairs([next(s for s in fixture_strophes if s.scheme == "ABAB")])
    header, *verses = gold.raw_text.split("\n")
    verses = (verses * 2)[:len(scheme)]
    other = gen_from_text("\n".join([f"# {scheme}" + header[len("# ABAB"):]] + verses), req)
    report = evaluate([(req, gold), (req, other)])
    assert report.n_parse_failures == 0
    assert report.n_strophes == 2 and report.n_verses == 4 + len(scheme)
    assert report.per_strophe_rhyme == [1, 0] and report.per_strophe_meter == [1, 0]
    assert report.meter_acc_verse == 4 / (4 + len(scheme))
    assert report.num_syl == 1.0 and report.end_acc == 1.0
    alone = evaluate([(req, other)])
    sylls = [s.casefold() for _, text in other.parsed.lines
             for s in phonology.analyze(text).syllables]
    assert alone.unique == len(set(sylls)) / len(sylls)
    assert alone.meter_acc_verse == 0.0


# Verses whose syllables may be equal only once casefolded: "\u00dfe",
# "sse", "SSE" and "\u1e9eE" all fold to "sse", "\u03a3a" and "\u03c3a" to
# "\u03c3a".
folding_verses = st.lists(
    st.one_of(tokens, st.sampled_from(["\u00dfe", "sse", "SSE", "Sse", "\u1e9eE", "\u00dfeje",
                                       "\u0130a", "i\u0307a", "\u03a3a", "\u03c3a"])),
    min_size=1, max_size=6).map(" ".join)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(folding_verses, min_size=4, max_size=4), min_size=1, max_size=3))
def test_evaluate_unique_is_the_share_of_distinct_casefolded_syllables(strophes):
    req = GenerationRequest(scheme="ABAB", year_bucket=YearBucket.parse("1900"),
                            fmt=DataFormat.BASIC, strophe_meter=MeterLabel.IAMB)
    pairs = [(req, gen_from_text("\n".join(["# ABAB # 1900 # J", *verses]), req))
             for verses in strophes]
    ratios = []
    for verses in strophes:
        sylls = [s.casefold() for verse in verses for token in verse.split()
                 for s in phonology.syllabify(phonology.strip_punct(token))]
        if sylls:
            ratios.append(len(set(sylls)) / len(sylls))
    expected = sum(ratios) / len(ratios) if ratios else 0.0
    assert evaluate(pairs).unique == expected
    assert evaluate(pairs, phonology.Syllabifier()).unique == expected


def test_permutation_identical_inputs_give_one():
    assert permutation_test([1, 2, 3, 4], [1, 2, 3, 4]) == 1.0


def test_permutation_detects_a_clear_difference():
    p = permutation_test([1.0] * 12, [0.0] * 12, repetitions=200, seed=1)
    assert p < 0.05


def test_permutation_is_seed_deterministic():
    a = [0.9, 0.8, 0.7, 0.95, 0.6]
    b = [0.7, 0.75, 0.72, 0.8, 0.65]
    assert permutation_test(a, b, seed=5) == permutation_test(a, b, seed=5)


def test_permutation_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        permutation_test([1, 2], [1, 2, 3])


def test_permutation_of_empty_scores_raises():
    with pytest.raises(ValueError, match="no paired scores"):
        permutation_test([], [])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_permutation_rejects_non_finite_scores(bad):
    with pytest.raises(ValueError, match="finite"):
        permutation_test([0.5, bad, 0.7], [0.5, 0.6, 0.7])
    with pytest.raises(ValueError, match="finite"):
        permutation_test([0.5, 0.6, 0.7], [0.5, 0.6, bad])


def test_evaluate_calls_the_traced_boundaries(fixture_strophes, monkeypatch):
    """perfbench times ``strophe_meters`` and ``syllabify`` by wrapping
    these module names; ``evaluate`` must reach each through them, once
    per strophe whose verse count matches its scheme and once per
    distinct token with characters left after ``strip_punct``."""
    pairs = gold_pairs(fixture_strophes[:120])
    for i in range(0, len(pairs), 7):
        req, gen = pairs[i]
        header, *verses = gen.raw_text.split("\n")
        if i % 2:  # a strophe that parses with another verse count
            text = "\n".join(["# AAB" + header[len("# " + req.scheme):]] + verses[:3])
        else:  # one that does not parse
            text = "\n".join([header] + verses[1:])
        pairs[i] = (req, gen_from_text(text, req))
    meters_calls = []
    words = []
    strophe_meters = validation.strophe_meters
    syllabify = phonology.syllabify

    def count_meters(*args, **kwargs):
        meters_calls.append(args)
        return strophe_meters(*args, **kwargs)

    def count_syllabify(word, *args, **kwargs):
        words.append(word)
        return syllabify(word, *args, **kwargs)

    monkeypatch.setattr(validation, "strophe_meters", count_meters)
    monkeypatch.setattr(phonology, "syllabify", count_syllabify)
    report = evaluate(pairs, phonology.Syllabifier())
    parsed = [(req, gen.parsed) for req, gen in pairs if gen.parsed is not None]
    assert report.n_parse_failures == len(pairs) - len(parsed) > 0
    matching = [p for req, p in parsed if len(p.lines) == len(req.scheme)]
    assert 0 < len(matching) < len(parsed)
    assert len(meters_calls) == len(matching)
    tokens = {t for _, p in parsed for _, text in p.lines for t in text.split()}
    cores = [phonology.strip_punct(t) for t in tokens]
    assert sorted(words) == sorted(c for c in cores if c)
