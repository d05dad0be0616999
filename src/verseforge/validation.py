"""Rule-based validators: meter classification from stress patterns,
clausula rhyme detection, scheme prediction, the five adherence metrics
and the paired permutation significance test."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import phonology
from .corpus import METER_ORDER, MeterLabel, derive_rhyme_scheme
from .formats import DataFormat, verse_check
# verse_syllables is not called here; perfbench's tracer wraps it by this name.
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
# (about 0.4 KB each).
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
def template_strong_sets(label: MeterLabel, n: int) -> tuple[frozenset[int], ...]:
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


def meter_score(pattern: str, label: MeterLabel) -> float:
    """Best positional agreement of a stress pattern with a meter."""
    best = float("-inf")
    for strong in template_strong_sets(label, len(pattern)):
        best = max(best, _score_strong(pattern, strong))
    return best


_SCORED_LABELS = tuple(MeterLabel(letter) for letter in METER_ORDER[:-1])


@lru_cache(maxsize=PATTERN_CACHE_ENTRIES)
def _pattern_scores(pattern: str) -> tuple[float, ...]:
    """``meter_score`` of a pattern for each label of ``_SCORED_LABELS``."""
    return tuple(meter_score(pattern, label) for label in _SCORED_LABELS)


def _pooled_scores(patterns: list[str]) -> dict[MeterLabel, float]:
    rows = [_pattern_scores(p) for p in patterns]
    return {label: sum(row[k] for row in rows) / len(rows)
            for k, label in enumerate(_SCORED_LABELS)}


def classify_meter(pattern: str, context: list[str] | None = None,
                   threshold: float = DEFAULT_THRESHOLD) -> MeterLabel:
    """Best-scoring meter template, N below the threshold.

    ``context`` pools the scores of rhyme-linked verses (their patterns,
    including this one) before the argmax.
    """
    if not pattern:
        raise ValueError("empty stress pattern")
    patterns = context if context else [pattern]
    scores = _pooled_scores(patterns)
    best = max(scores.items(),
               key=lambda kv: (kv[1], -METER_ORDER.index(kv[0].value)))
    if best[1] < threshold:
        return MeterLabel.NOT_RECOGNIZED
    return best[0]


def strophe_meters(patterns: list[str], scheme: str,
                   threshold: float = DEFAULT_THRESHOLD) -> list[MeterLabel]:
    """Per-verse meters with rhyme-group contextualization.

    A verse without syllables (empty pattern) is N and adds nothing to
    the context of its rhyme-group partners.
    """
    if len(patterns) != len(scheme):
        raise ValueError("one stress pattern per scheme letter required")
    groups: dict[str, list[int]] = {}
    for i, letter in enumerate(scheme):
        if patterns[i] and letter != "X":
            groups.setdefault(letter, []).append(i)
    out = [MeterLabel.NOT_RECOGNIZED] * len(patterns)
    for letter, idxs in groups.items():
        label = classify_meter(patterns[idxs[0]],
                               context=[patterns[i] for i in idxs],
                               threshold=threshold)
        for i in idxs:
            out[i] = label
    for i, letter in enumerate(scheme):
        if patterns[i] and letter == "X":
            out[i] = classify_meter(patterns[i], threshold=threshold)
    return out


# ---------------------------------------------------------------------------
# rhyme

_LENGTH_FOLD = str.maketrans({
    "á": "a", "é": "e", "í": "i", "ó": "o", "ú": "u", "ů": "u", "ý": "y",
})


def normalize_clausula(clausula: str) -> str:
    folded = clausula.casefold().translate(_LENGTH_FOLD)
    return folded.replace("y", "i")


def rhymes(verse_a: str, verse_b: str, syllabifier=None) -> bool:
    """Clausulae equal after case and vowel-length normalization."""
    a = ending_hint(verse_a, syllabifier)
    b = ending_hint(verse_b, syllabifier)
    return normalize_clausula(a) == normalize_clausula(b)


def predict_scheme(verse_texts: list[str], syllabifier=None) -> str:
    """Rhyme scheme read off the verses' normalized clausulae."""
    return _scheme_of([phonology.analyze(t, syllabifier) for t in verse_texts])


def _scheme_of(analyses: list[phonology.VerseAnalysis]) -> str:
    if len(analyses) not in (4, 6):
        raise ValueError(f"unsupported verse count {len(analyses)}")
    keys = [normalize_clausula(a.clausula) if a.syllables else None for a in analyses]
    ids = [None if k is None else keys.index(k) for k in keys]
    return derive_rhyme_scheme(ids)


# ---------------------------------------------------------------------------
# metrics

@dataclass
class MetricsReport:
    num_syl: float
    end_acc: float
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
        return {
            "num_syl": self.num_syl,
            "end_acc": self.end_acc,
            "unique": self.unique,
            "rhyme_acc": self.rhyme_acc,
            "meter_acc": self.meter_acc,
            "meter_acc_verse": self.meter_acc_verse,
            "n_strophes": self.n_strophes,
            "n_verses": self.n_verses,
            "n_parse_failures": self.n_parse_failures,
            "end_acc_forced": self.end_acc_forced,
            "end_acc_free": self.end_acc_free,
        }


def _ratio(hits, total):
    return hits / total if total else 0.0


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
    """Five adherence metrics over (request, generated strophe) pairs.

    Unparseable strophes fail all strophe-level metrics and are counted
    separately; verse-level metrics run over parseable strophes only.
    Each verse is analysed once.
    """
    syl_hits = end_hits = verse_total = 0
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
        analyses = [phonology.analyze(t, syllabifier) for t in parsed.verse_texts]
        checks = [verse_check(ann, a) for (ann, _), a in zip(parsed.lines, analyses)]
        flags = list(gen.forced_flags) + [False] * (len(checks) - len(gen.forced_flags))
        for check, forced in zip(checks, flags):
            verse_total += 1
            syl_hits += check.syl_ok
            end_hits += check.end_ok
            side = end_forced if forced else end_free
            side[0] += check.end_ok
            side[1] += 1

        sylls = [s.casefold() for a in analyses for s in a.syllables]
        if sylls:
            unique_ratios.append(len(set(sylls)) / len(sylls))

        predicted = _scheme_of(analyses)
        rhyme_flags.append(int(predicted == request.scheme))

        wanted = _requested_meters(request, parsed)
        got = strophe_meters([a.stress for a in analyses], request.scheme, threshold)
        verse_ok = [w is not None and g == w for g, w in zip(got, wanted)]
        meter_verse_hits += sum(verse_ok)
        meter_verse_total += len(verse_ok)
        meter_flags.append(int(all(verse_ok)))

    return MetricsReport(
        num_syl=_ratio(syl_hits, verse_total),
        end_acc=_ratio(end_hits, verse_total),
        unique=_ratio(sum(unique_ratios), len(unique_ratios)),
        rhyme_acc=_ratio(sum(rhyme_flags), len(rhyme_flags)),
        meter_acc=_ratio(sum(meter_flags), len(meter_flags)),
        meter_acc_verse=_ratio(meter_verse_hits, meter_verse_total),
        n_strophes=len(rhyme_flags),
        n_verses=verse_total,
        n_parse_failures=n_fail,
        end_acc_forced=_ratio(end_forced[0], end_forced[1]) if end_forced[1] else None,
        end_acc_free=_ratio(end_free[0], end_free[1]) if end_free[1] else None,
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
    diff = a - b
    observed = abs(diff.mean())
    rng = np.random.default_rng(seed)
    signs = rng.integers(0, 2, size=(repetitions, len(diff))) * 2 - 1
    perm_means = np.abs((signs * diff).mean(axis=1))
    extreme = int(np.sum(perm_means >= observed - 1e-12))
    return (extreme + 1) / (repetitions + 1)
