"""Rule-based validators: meter classification from stress patterns,
clausula rhyme detection, scheme prediction, the five adherence metrics
and the paired permutation significance test."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import lru_cache
from itertools import accumulate, chain, combinations, product

import numpy as np

from . import phonology
from .corpus import METERS, MeterLabel, derive_rhyme_scheme
from .formats import DataFormat, annotation_matches
# Neither is called here; perfbench's tracer wraps both by these names.
from .phonology import ending_hint, verse_syllables  # noqa: F401

# Missing stress on a strong position costs more than an intrusive
# stress on a weak one; a verse matching no template above the threshold
# is Not Recognized.
UNDERFILL_WEIGHT = 0.6
OVERFILL_WEIGHT = 0.4
DEFAULT_THRESHOLD = 0.6

# Dactylotrochee compositions get impractically many above this length.
MAX_COMPOSED_LENGTH = 24

# Bound of the per-pattern score cache, in distinct stress patterns
# (about 0.4 KB each), of the rhyme-group memo, in distinct stress
# patterns of a group (about 0.2 KB each for a pair), and of the
# rhyme-key cache, in distinct clausulae.  Each is a cache of its own, so
# groups never evict a pattern's scores.
PATTERN_CACHE_ENTRIES = 16384


def _score_strong(pattern: str, strong: frozenset[int]) -> float:
    n = len(pattern)
    n_strong = len(strong)
    if n_strong == 0:
        return float("-inf")
    under = sum(1 for i in strong if pattern[i - 1] == "x") / n_strong
    n_weak = n - n_strong
    over = 0.0
    if n_weak:
        over = sum(1 for i in range(1, n + 1)
                   if i not in strong and pattern[i - 1] == "X") / n_weak
    return 1.0 - UNDERFILL_WEIGHT * under - OVERFILL_WEIGHT * over


# (first stressed position, period) of the periodic meters
_PERIODIC = {
    MeterLabel.IAMB: (2, 2),
    MeterLabel.TROCHEE: (1, 2),
    MeterLabel.DACTYL: (1, 3),
    MeterLabel.AMPHIBRACH: (2, 3),
}


def _starts(feet, first: int) -> frozenset[int]:
    """Start positions of consecutive feet, the first at ``first``."""
    return frozenset(accumulate(feet[:-1], initial=first))


def _mixed(n: int, first: int):
    """Foot starts of each ordering of 2- and 3-syllable feet summing to n
    with at least one of each, the first foot at ``first``."""
    if n > MAX_COMPOSED_LENGTH:
        return
    for n3 in range(1, n // 3 + 1):
        n2, odd = divmod(n - 3 * n3, 2)
        if odd or not n2:
            continue
        for threes in combinations(range(n2 + n3), n3):
            yield _starts([3 if i in threes else 2 for i in range(n2 + n3)], first)


def template_strong_sets(label: MeterLabel, n: int) -> tuple[frozenset[int], ...]:
    """Candidate stressed-position sets of a meter at verse length n."""
    if label in _PERIODIC:
        first, period = _PERIODIC[label]
        return (frozenset(range(first, n + 1, period)),)
    # No template of mixed feet is longer than MAX_COMPOSED_LENGTH
    # syllables after an anacrusis of at most two, so the cache is bounded.
    if n > MAX_COMPOSED_LENGTH + 2:
        return ()
    return _composed_strong_sets(label, n)


@lru_cache(maxsize=None)
def _composed_strong_sets(label: MeterLabel, n: int) -> tuple[frozenset[int], ...]:
    """``template_strong_sets`` of a meter of mixed feet."""
    if label is MeterLabel.DACTYLOTROCHEE:
        return tuple(_mixed(n, 1))
    if label is MeterLabel.DACTYLOTROCHEE_ANACRUSIS:
        return tuple(chain(_mixed(n - 1, 2), _mixed(n - 2, 3)))
    if label is MeterLabel.HEXAMETER:
        # Six feet; fifth a full dactyl, sixth a trochee.
        return tuple(_starts(feet + (3, 2), 1)
                     for feet in product((2, 3), repeat=4) if sum(feet) == n - 5)
    if label is MeterLabel.PENTAMETER:
        # Two dactylic hemistichs, third and sixth feet reduced to the
        # stressed syllable alone.
        return (_starts((3, 3, 1, 3, 3, 1), 1),) if n == 14 else ()
    return ()


def meter_score(pattern: str, label: MeterLabel) -> float:
    """Best positional agreement of a stress pattern with a meter."""
    best = float("-inf")
    for strong in template_strong_sets(label, len(pattern)):
        best = max(best, _score_strong(pattern, strong))
    return best


_SCORED_LABELS = METERS[:-1]


@lru_cache(maxsize=PATTERN_CACHE_ENTRIES)
def _pattern_scores(pattern: str) -> tuple[float, ...]:
    """``meter_score`` of a pattern for each label of ``_SCORED_LABELS``."""
    return tuple(meter_score(pattern, label) for label in _SCORED_LABELS)


def _check_threshold(threshold: float) -> None:
    """Refuse a NaN threshold: no score compares below it, so no verse
    would ever be N."""
    if math.isnan(threshold):
        raise ValueError(f"threshold must be a number, got {threshold}")


def classify_meter(patterns: list[str],
                   threshold: float = DEFAULT_THRESHOLD) -> MeterLabel:
    """Best-scoring meter template for the pooled scores of ``patterns``
    (one verse, or the verses of a rhyme group), N below the threshold;
    among equal scores the label declared earlier in ``MeterLabel`` wins.
    A NaN threshold raises ``ValueError``.  The best score and its label
    come from the memo that ``strophe_meters`` reads too (``_pooled``)."""
    if not patterns or not all(patterns):
        raise ValueError("empty stress pattern")
    _check_threshold(threshold)
    best, label = _pooled(tuple(patterns))
    return MeterLabel.NOT_RECOGNIZED if best < threshold else label


@lru_cache(maxsize=PATTERN_CACHE_ENTRIES)
def _pooled(patterns: tuple[str, ...]) -> tuple[float, MeterLabel]:
    """The best pooled score of non-empty patterns and the label that
    ``classify_meter`` gives them at any threshold not above it."""
    if len(patterns) == 1:
        scores = _pattern_scores(patterns[0])
    else:
        rows = [_pattern_scores(p) for p in patterns]
        scores = [sum(col) / len(rows) for col in zip(*rows)]
    best = max(scores)
    return best, _SCORED_LABELS[scores.index(best)]


def strophe_meters(patterns: list[str], scheme: str,
                   threshold: float = DEFAULT_THRESHOLD) -> list[MeterLabel]:
    """Per-verse meters with rhyme-group contextualization.

    The verses of a rhyme group share one label; an X verse is a group of
    its own.  A verse without syllables (empty pattern) is N and adds
    nothing to the scores of its rhyme-group partners.  A NaN threshold
    raises ``ValueError``, also when no verse has syllables.
    """
    if len(patterns) != len(scheme):
        raise ValueError("one stress pattern per scheme letter required")
    _check_threshold(threshold)
    groups: dict[str | int, list[int]] = {}
    for i, letter in enumerate(scheme):
        if patterns[i]:
            groups.setdefault(i if letter == "X" else letter, []).append(i)
    out = [MeterLabel.NOT_RECOGNIZED] * len(patterns)
    for idxs in groups.values():
        best, label = _pooled(tuple([patterns[i] for i in idxs]))
        if best < threshold:
            label = MeterLabel.NOT_RECOGNIZED
        for i in idxs:
            out[i] = label
    return out


# ---------------------------------------------------------------------------
# rhyme

_LENGTH_FOLD = str.maketrans({
    "á": "a", "é": "e", "í": "i", "ó": "o", "ú": "u", "ů": "u", "ý": "y",
})


@lru_cache(maxsize=PATTERN_CACHE_ENTRIES)
def normalize_clausula(clausula: str) -> str:
    """The rhyme key of a clausula: casefolded, vowel length and y/i
    folded away."""
    folded = clausula.casefold().translate(_LENGTH_FOLD)
    return folded.replace("y", "i")


def predict_scheme(verse_texts: list[str], syllabifier=None) -> str:
    """Rhyme scheme read off the verses' normalized clausulae.  A verse
    count that no scheme has raises ``ValueError``, from
    ``corpus.derive_rhyme_scheme``."""
    return _scheme_of([phonology.analyze(t, syllabifier).clausula for t in verse_texts])


def _scheme_of(clausulae: list[str]) -> str:
    """The scheme of verses with these clausulae, "" for a verse without
    syllables."""
    keys = [normalize_clausula(c) if c else None for c in clausulae]
    ids = [None if k is None else keys.index(k) for k in keys]
    return derive_rhyme_scheme(ids)


# ---------------------------------------------------------------------------
# metrics

@dataclass(slots=True)
class MetricsReport:
    num_syl: float | None
    end_acc: float | None
    unique: float
    rhyme_acc: float
    meter_acc: float
    meter_acc_verse: float
    n_strophes: int
    n_verses: int
    n_parse_failures: int
    end_acc_forced: float | None = None
    end_acc_free: float | None = None
    per_strophe_rhyme: list[int] = field(default_factory=list)
    per_strophe_meter: list[int] = field(default_factory=list)

    def to_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)
                if not f.name.startswith("per_strophe_")}


def _ratio(hits, total, empty=0.0):
    return hits / total if total else empty


def _requested_meters(request, parsed) -> list[MeterLabel | None]:
    n = len(request.scheme)
    if request.fmt is DataFormat.METER_VERSE:
        return [ann.meter for ann, _ in parsed.lines]
    if request.per_verse_meters is not None:
        return list(request.per_verse_meters)
    if request.strophe_meter is not None:
        return [request.strophe_meter] * n
    return [None] * n


def evaluate(pairs, syllabifier=None,
             threshold: float = DEFAULT_THRESHOLD) -> MetricsReport:
    """Five adherence metrics over (request, generated strophe) pairs,
    an iterable read once, one pair at a time.

    Unparseable strophes fail all strophe-level metrics and are counted
    separately; verse-level metrics run over parseable strophes only.
    Num syl and End acc check annotated verses only, and are None when
    no verse carries an annotation (the basic format).  Each verse is
    analysed once, from the token memo's entries of its words.  A NaN
    threshold raises ``ValueError`` before any strophe is scored.
    """
    _check_threshold(threshold)
    syl_hits = verse_total = 0
    end_forced = [0, 0]  # hits, total
    end_free = [0, 0]
    unique_ratios = []
    rhyme_flags = []
    meter_flags = []
    meter_verse_hits = meter_verse_total = 0
    n_fail = 0

    for request, gen in pairs:
        if gen.parsed is None:
            n_fail += 1
            rhyme_flags.append(0)
            meter_flags.append(0)
            continue
        parsed = gen.parsed
        verses = [phonology._verse(text, syllabifier) for _, text in parsed.lines]
        stresses = [stress for _, stress, _ in verses]
        clausulae = [clausula for _, _, clausula in verses]
        flags = list(gen.forced_flags) + [False] * (len(verses) - len(gen.forced_flags))
        verse_total += len(verses)
        for (ann, _), stress, clausula, forced in zip(parsed.lines, stresses, clausulae, flags):
            if ann is None:
                continue
            syl_ok, end_ok = annotation_matches(ann, len(stress), clausula)
            syl_hits += syl_ok
            side = end_forced if forced else end_free
            side[0] += end_ok
            side[1] += 1

        # one stress mark per syllable, so the marks count the syllables;
        # w[1] is a memo entry's casefolded syllables (``phonology._Word``)
        n_sylls = sum(map(len, stresses))
        if n_sylls:
            folded = set(chain.from_iterable([w[1] for words, _, _ in verses for w in words]))
            unique_ratios.append(len(folded) / n_sylls)

        if len(verses) != len(request.scheme):
            # a verse count the request did not ask for fails rhyme and
            # meter, and each of its verses is a meter miss
            rhyme_flags.append(0)
            meter_flags.append(0)
            meter_verse_total += len(verses)
            continue

        predicted = _scheme_of(clausulae)
        rhyme_flags.append(int(predicted == request.scheme))

        wanted = _requested_meters(request, parsed)
        got = strophe_meters(stresses, request.scheme, threshold)
        verse_ok = [w is not None and g == w for g, w in zip(got, wanted)]
        meter_verse_hits += sum(verse_ok)
        meter_verse_total += len(verse_ok)
        meter_flags.append(int(all(verse_ok)))

    checked = end_forced[1] + end_free[1]
    return MetricsReport(
        num_syl=_ratio(syl_hits, checked, None),
        end_acc=_ratio(end_forced[0] + end_free[0], checked, None),
        unique=_ratio(sum(unique_ratios), len(unique_ratios)),
        rhyme_acc=_ratio(sum(rhyme_flags), len(rhyme_flags)),
        meter_acc=_ratio(sum(meter_flags), len(meter_flags)),
        meter_acc_verse=_ratio(meter_verse_hits, meter_verse_total),
        n_strophes=len(rhyme_flags),
        n_verses=verse_total,
        n_parse_failures=n_fail,
        end_acc_forced=_ratio(*end_forced, None),
        end_acc_free=_ratio(*end_free, None),
        per_strophe_rhyme=rhyme_flags,
        per_strophe_meter=meter_flags,
    )


# ---------------------------------------------------------------------------
# significance

def permutation_test(scores_a, scores_b, repetitions: int = 100,
                     seed: int = 0) -> float:
    """Two-sided paired permutation test via random label swaps."""
    a = np.asarray(scores_a, dtype=float)
    b = np.asarray(scores_b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("paired score vectors must have equal length")
    if not len(a):
        raise ValueError("no paired scores")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("scores must be finite numbers")
    diff = a - b
    observed = abs(diff.mean())
    rng = np.random.default_rng(seed)
    signs = rng.integers(0, 2, size=(repetitions, len(diff))) * 2 - 1
    perm_means = np.abs((signs * diff).mean(axis=1))
    extreme = int(np.sum(perm_means >= observed - 1e-12))
    return (extreme + 1) / (repetitions + 1)
