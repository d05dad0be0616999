"""Acceptance suite: one test per release criterion.

Each test prints a single pass/fail line under ``pytest -v``; together
they cover the running example, the three strophe formats, tokenizer
granularity, round-trip identities, the metric oracle, the significance
test and an end-to-end train/generate/evaluate run on the bundled
fixture corpus.
"""

import itertools
import random
import time

import numpy as np
import pytest

from verseforge import (
    corpus,
    formats,
    generation,
    ngram,
    phonology as ph,
    tokenizers as tok,
    validation,
)
from verseforge.corpus import MeterLabel
from verseforge.formats import DataFormat, consistency_check
from verseforge.generation import GenerationRequest, generate_forced
from helpers import (
    EXAMPLE_BASIC,
    EXAMPLE_METER_VERSE,
    EXAMPLE_VERSE_PAR,
    EXAMPLE_VERSES,
    gen_from_text,
    scripted_model,
)


def test_criterion_1_running_example_phonology():
    t0 = time.perf_counter()
    hyphenations = {
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
    }
    for word, expected in hyphenations.items():
        assert ph.syllabify(word) == expected, word

    stress_rows = ["xXxXxxxXx", "xXxXxXxXx", "xXxXxXxXx", "xXxXxXxxx"]
    for verse, row in zip(EXAMPLE_VERSES, stress_rows):
        assert ph.stress_pattern(verse) == row, verse
        assert validation.classify_meter([ph.stress_pattern(verse)]) is MeterLabel.IAMB

    assert validation.predict_scheme(EXAMPLE_VERSES) == "ABAB"
    assert time.perf_counter() - t0 < 1.0


def test_criterion_2_format_reproduction(example_strophe):
    assert formats.encode(example_strophe, DataFormat.BASIC) == EXAMPLE_BASIC
    assert formats.encode(example_strophe, DataFormat.VERSE_PAR) == EXAMPLE_VERSE_PAR
    assert formats.encode(example_strophe, DataFormat.METER_VERSE) == EXAMPLE_METER_VERSE
    assert EXAMPLE_METER_VERSE.startswith("# ABAB # 1900\n")

    verse = "A když přijde z nenadání,"
    hint = f"{len(ph.verse_syllables(verse))} # {ph.ending_hint(verse)}"
    assert hint == "8 # ání"


def test_criterion_3_forced_generation_contract():
    t0 = time.perf_counter()

    def check(scheme, fmt):
        model, vocab = scripted_model(fmt)
        req = GenerationRequest(scheme=scheme, year_bucket=corpus.YearBucket(1900),
                                fmt=fmt, strophe_meter=MeterLabel.IAMB)
        gen = generate_forced(model, vocab, req)
        assert gen.parsed is not None, (scheme, gen.parse_error)
        prefixes = [ann.prefix(fmt) for ann, _ in gen.parsed.lines]
        first = {}
        for i, letter in enumerate(scheme):
            if letter == "X":
                assert not gen.forced_flags[i]
            elif letter in first:
                assert gen.forced_flags[i]
                assert prefixes[i] == prefixes[first[letter]]
            else:
                assert not gen.forced_flags[i]
                first[letter] = i

    for scheme in ("AABB", "ABAB", "XAXA", "AABBCC"):
        check(scheme, DataFormat.VERSE_PAR)
        check(scheme, DataFormat.METER_VERSE)

    model, vocab = scripted_model(DataFormat.VERSE_PAR)
    req = GenerationRequest(scheme="XXXX", year_bucket=corpus.YearBucket(1900),
                            fmt=DataFormat.VERSE_PAR, strophe_meter=MeterLabel.IAMB)
    assert generate_forced(model, vocab, req).forced_flags == (False,) * 4

    rng = random.Random(3)
    for _ in range(200):
        n = rng.choice([4, 6])
        scheme = "".join(rng.choice("ABCX") for _ in range(n))
        check(scheme, rng.choice([DataFormat.VERSE_PAR, DataFormat.METER_VERSE]))
    assert time.perf_counter() - t0 < 5.0


def chars_per_token(vocab, lines) -> float:
    """Average characters per token over ``lines``: ``encode`` gives a
    line one id per token."""
    return sum(map(len, lines)) / sum(len(tok.encode(vocab, line)) for line in lines)


def test_criterion_4_tokenizer_granularity(fixture_strophes):
    uni = tok.build_vocab(tok.TokenizerKind.UNICODE, ["libovolný vstup #7"])
    for text in ("libovolný vstup #7", "a", "# ABAB # 1900", "###"):
        assert chars_per_token(uni, [text]) == 1.0

    lines = [v.text for s in fixture_strophes for v in s.verses]
    uni = tok.build_vocab(tok.TokenizerKind.UNICODE, lines)
    syl = tok.build_vocab(tok.TokenizerKind.SYLLABLE, lines)
    bpe = tok.train_bpe(lines, vocab_size=600)
    cpt_uni = chars_per_token(uni, lines)
    cpt_syl = chars_per_token(syl, lines)
    cpt_bpe = chars_per_token(bpe, lines)
    assert cpt_uni == 1.0
    assert cpt_uni < cpt_syl < cpt_bpe
    assert cpt_syl == pytest.approx(2.43, abs=0.4)


def test_criterion_5_round_trips(fixture_strophes, tmp_path):
    # format round trip on every bundled strophe
    for strophe in fixture_strophes:
        for fmt in DataFormat:
            parsed = formats.parse(formats.encode(strophe, fmt), fmt)
            assert [text for _, text in parsed.lines] == [v.text for v in strophe.verses]

    # tokenizer round trip on 10,000 randomized corpus lines
    pool = [l for s in fixture_strophes
            for l in formats.encode(s, DataFormat.METER_VERSE).split("\n")]
    rng = random.Random(41)
    sample = [rng.choice(pool) for _ in range(10000)]
    for kind in (tok.TokenizerKind.SYLLABLE, tok.TokenizerKind.UNICODE):
        vocab = tok.build_vocab(kind, pool)
        for line in sample:
            assert tok.decode(vocab, tok.encode(vocab, line)) == line

    # model save/load reproduces distributions on a 1,000-context probe
    texts = [formats.encode(s, DataFormat.METER_VERSE) for s in fixture_strophes[:300]]
    vocab = tok.build_vocab(tok.TokenizerKind.UNICODE,
                            [l for t in texts for l in t.split("\n")])
    seqs = [tok.encode(vocab, t) + [vocab.eos_id] for t in texts]
    model = ngram.train(seqs, order=5, vocab=vocab)
    path = tmp_path / "probe.ngram"
    ngram.save(model, path)
    loaded = ngram.load(path, vocab)
    flat = [i for s in seqs for i in s]
    nrng = np.random.default_rng(17)
    for at in nrng.integers(4, len(flat), size=1000):
        ctx = flat[at - 4:at]
        assert np.max(np.abs(loaded.next_dist(ctx) - model.next_dist(ctx))) <= 1e-12


def _gold_pairs(strophes):
    pairs = []
    for s in strophes:
        req = GenerationRequest(scheme=s.scheme, year_bucket=s.year_bucket,
                                fmt=DataFormat.METER_VERSE)
        pairs.append((req, gen_from_text(formats.encode(s, DataFormat.METER_VERSE), req)))
    return pairs


def test_criterion_6_metric_oracle(fixture_strophes):
    report = validation.evaluate(_gold_pairs(fixture_strophes))
    assert report.num_syl == 1.0
    assert report.end_acc == 1.0
    assert report.n_parse_failures == 0
    assert report.unique == pytest.approx(0.879, abs=0.05)

    # one hand-broken verse in four gives an exact 0.75 ratio
    strophe = next(s for s in fixture_strophes if len(s.verses) == 4)
    (req, gold), = _gold_pairs([strophe])
    lines = gold.raw_text.split("\n")
    ann = lines[1].split(" # ")
    ann[1] = str(int(ann[1]) + 1)
    bad_syl = gen_from_text("\n".join([lines[0], " # ".join(ann)] + lines[2:]), req)
    assert validation.evaluate([(req, bad_syl)]).num_syl == 0.75

    ann = lines[3].split(" # ")
    ann[2] = "zzz"
    bad_end = gen_from_text("\n".join(lines[:3] + [" # ".join(ann), lines[4]]), req)
    assert validation.evaluate([(req, bad_end)]).end_acc == 0.75


def _exact_permutation_p(a, b):
    diff = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    observed = abs(diff.mean())
    extreme = 0
    for signs in itertools.product((-1, 1), repeat=len(diff)):
        if abs((np.array(signs) * diff).mean()) >= observed - 1e-12:
            extreme += 1
    return extreme / 2 ** len(diff)


def test_criterion_7_permutation_test_against_enumeration():
    assert validation.permutation_test([0.4] * 6, [0.4] * 6) == 1.0

    rng = random.Random(23)
    for case in range(50):
        n = rng.randint(3, 10)
        a = [rng.random() for _ in range(n)]
        # mix of shifted and unshifted pairs to cover small and large p
        shift = rng.choice([0.0, 0.2, 1.0])
        b = [x + shift * rng.random() for x in a]
        exact = _exact_permutation_p(a, b)
        mc = validation.permutation_test(a, b, repetitions=100, seed=case)
        assert abs(mc - exact) <= 0.1, (case, exact, mc)


def test_criterion_8_end_to_end(fixture_strophes):
    t0 = time.perf_counter()
    train_set, test_set = corpus.split(fixture_strophes, 0.1, seed=7)
    fmt = DataFormat.METER_VERSE
    texts = [formats.encode(s, fmt) for s in train_set]
    vocab = tok.build_vocab(tok.TokenizerKind.UNICODE,
                            [l for t in texts for l in t.split("\n")])
    model = ngram.train((tok.encode(vocab, t) + [vocab.eos_id] for t in texts),
                        order=10, vocab=vocab)

    pairs = []
    for i, s in enumerate(test_set[:100]):
        req = GenerationRequest(scheme=s.scheme, year_bucket=s.year_bucket,
                                fmt=fmt, temperature=0.3, seed=i)
        pairs.append((req, generate_forced(model, vocab, req)))

    parsed = [g for _, g in pairs if g.parsed is not None]
    assert len(parsed) / len(pairs) >= 0.9

    forced = [0, 0]
    free_first = [0, 0]
    for req, g in pairs:
        if g.parsed is None:
            continue
        seen = set()
        for check, was_forced, letter in zip(consistency_check(g.parsed),
                                             g.forced_flags, req.scheme):
            if was_forced:
                forced[0] += check.end_ok
                forced[1] += 1
            elif letter != "X" and letter not in seen:
                free_first[0] += check.end_ok
                free_first[1] += 1
            seen.add(letter)
    assert forced[1] > 0 and free_first[1] > 0
    assert forced[0] / forced[1] >= free_first[0] / free_first[1]
    assert time.perf_counter() - t0 < 300.0
