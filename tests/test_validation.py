import pytest

from verseforge import formats, validation
from verseforge.corpus import MeterLabel, YearBucket
from verseforge.formats import DataFormat
from verseforge.generation import GenerationRequest
from verseforge.validation import (
    classify_meter,
    evaluate,
    meter_score,
    normalize_clausula,
    permutation_test,
    predict_scheme,
    rhymes,
    strophe_meters,
)
from conftest import EXAMPLE_VERSES
from helpers import gen_from_text

FIG1_PATTERNS = ["xXxXxxxXx", "xXxXxXxXx", "xXxXxXxXx", "xXxXxXxxx"]


def test_example_patterns_are_iambic():
    for pattern in FIG1_PATTERNS:
        assert classify_meter(pattern) is MeterLabel.IAMB, pattern


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
    assert classify_meter(pattern) is label


def test_hexameter_template_scores_but_is_subsumed():
    # a flawless hexameter is also a flawless dactyl/trochee composition,
    # and dactylotrochee comes first in the frequency order
    pattern = "XxXxXxXxXxxXx"
    assert meter_score(pattern, MeterLabel.HEXAMETER) == pytest.approx(1.0)
    assert classify_meter(pattern) is MeterLabel.DACTYLOTROCHEE


def test_threshold_override():
    assert classify_meter("xxxxxxxxx", threshold=0.3) is MeterLabel.IAMB
    assert classify_meter("xXxXxxxXx", threshold=0.9) is MeterLabel.NOT_RECOGNIZED


def test_empty_pattern_raises():
    with pytest.raises(ValueError):
        classify_meter("")


def test_context_pooling_changes_the_argmax():
    # a mostly flat verse reads trochaic alone, iambic next to clean
    # iambic rhyme partners
    noisy, iambic = "xxxxxxXxX", "xXxXxXxXx"
    assert classify_meter(noisy) is MeterLabel.TROCHEE
    pooled = classify_meter(noisy, context=[noisy, iambic, iambic])
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


def test_rhymes_on_example_verses():
    assert rhymes(EXAMPLE_VERSES[0], EXAMPLE_VERSES[2])  # oři / oří
    assert rhymes(EXAMPLE_VERSES[1], EXAMPLE_VERSES[3])  # eje / eje
    assert not rhymes(EXAMPLE_VERSES[0], EXAMPLE_VERSES[1])


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
