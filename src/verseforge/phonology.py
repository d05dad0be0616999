"""Czech syllables, stress patterns and verse endings.

Rule-based: vowel/diphthong/syllabic-liquid nuclei, consonant clusters
split by a maximal-onset rule over a fixed onset whitelist.  Irregular
words can be overridden through an exceptions file (one
``word<TAB>syl-la-bles`` per line).

``analyze`` is the one path from a verse to its syllables, stress
pattern and clausula; ``verse_syllables``, ``stress_pattern`` and
``ending_hint`` read their fact off it.  Each ``Syllabifier`` memoizes
the split of every raw whitespace token it has seen, up to
``TOKEN_MEMO_ENTRIES`` tokens, after which the memo starts afresh.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from types import MappingProxyType

VOWELS = set("aáeéěiíoóuúůyý")
DIPHTHONGS = ("ou", "au", "eu")
LIQUIDS = set("rl")

# Consonant clusters that may open a syllable as a whole.  Deliberately
# conservative: clusters absent here split after their first consonant
# (e.g. mod-ré, pěn-né), which matches common Czech hyphenation output.
ONSETS = {
    "st", "sk", "sp", "sl", "sm", "sn", "sv",
    "zd", "zn", "zl", "br", "bl", "bř",
    "pr", "pl", "př", "kr", "kl", "kř", "kn",
    "hr", "hl", "vl", "jd", "jm",
    "šk", "šp", "št", "šť", "čt", "tř",
    "chr", "chl", "str", "stř", "skl", "skr", "spl", "spr", "zdr",
}

# Monosyllabic vocalic prepositions carry the stress of the following
# word (clitic group).  Non-vocalic prepositions (v, z, s, k) have no
# nucleus and are handled as zero-syllable clitics.
STRESSED_PREPOSITIONS = {
    "na", "za", "do", "po", "ke", "ku", "ve", "ze", "u", "o",
    "od", "nad", "pod", "před", "přes", "pro", "při", "bez",
}

# Monosyllabic function words that stay unstressed (pronouns,
# conjunctions, auxiliaries, a few light verbs).
UNSTRESSED_MONOSYLLABLES = {
    "a", "i", "ač", "až", "ať", "by", "či", "co", "což", "že",
    "jak", "když", "jen", "již", "jsem", "jsi", "je", "jsme", "jste",
    "jsou", "jde", "má", "mé", "mou", "můj", "mě", "mi", "mu", "ho",
    "ji", "jí", "ně", "nic", "pak", "se", "si", "svou", "svůj", "svá",
    "své", "tvá", "tvé", "tvou", "tvůj", "ten", "ta", "to", "tu",
    "ty", "vy", "my", "on", "zda",
}


# Bound of a Syllabifier's token memo, in entries; a full memo is
# cleared.  About 0.5 KB per entry, so at most about 32 MB.
TOKEN_MEMO_ENTRIES = 65536


class PhonologyError(ValueError):
    pass


@dataclass(frozen=True)
class SyllableSplit:
    """Lossless split of a single word into syllables."""

    word: str
    syllables: tuple[str, ...]
    clitic: bool = False

    def __len__(self):
        return len(self.syllables)


def _is_vowel(ch: str) -> bool:
    return ch.lower() in VOWELS


def _find_nuclei(word: str) -> list[tuple[int, int]]:
    """Return (start, end) spans of syllable nuclei in ``word``."""
    low = word.lower()
    spans = []
    i = 0
    n = len(low)
    while i < n:
        ch = low[i]
        if ch in VOWELS:
            if low[i:i + 2] in DIPHTHONGS:
                spans.append((i, i + 2))
                i += 2
            else:
                spans.append((i, i + 1))
                i += 1
        elif ch in LIQUIDS:
            prev_vowel = i > 0 and low[i - 1] in VOWELS
            next_vowel = i + 1 < n and low[i + 1] in VOWELS
            if not prev_vowel and not next_vowel:
                spans.append((i, i + 1))
            i += 1
        else:
            i += 1
    return spans


def _split_at(word: str, nuclei: list[tuple[int, int]]) -> tuple[str, ...]:
    bounds = []
    for (s1, e1), (s2, e2) in zip(nuclei, nuclei[1:]):
        cluster = word[e1:s2].lower()
        if cluster == "ch":
            # The digraph closes the preceding syllable (duch-u).
            bounds.append(s2)
        elif len(cluster) <= 1:
            bounds.append(e1)
        else:
            onset = 1
            for size in (3, 2):
                if len(cluster) >= size and cluster[-size:] in ONSETS:
                    onset = size
                    break
            bounds.append(s2 - onset)
    pieces = []
    start = 0
    for b in bounds:
        pieces.append(word[start:b])
        start = b
    pieces.append(word[start:])
    return tuple(pieces)


class Syllabifier:
    """Splits words into syllables, with optional per-word overrides."""

    def __init__(self, exceptions: dict[str, tuple[str, ...]] | None = None):
        self._exceptions = MappingProxyType(dict(exceptions or {}))
        self._tokens: dict[str, SyllableSplit | None] = {}

    @property
    def exceptions(self):
        """Per-word overrides, read-only so that the token memo cannot
        go stale."""
        return self._exceptions

    @classmethod
    def from_exceptions_file(cls, path) -> "Syllabifier":
        exceptions = {}
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                line = line.rstrip("\n")
                if not line or line.startswith("#"):
                    continue
                try:
                    word, split = line.split("\t")
                except ValueError:
                    raise PhonologyError(
                        f"{path}:{lineno}: expected word<TAB>syl-la-bles")
                parts = tuple(split.split("-"))
                if "".join(parts) != word:
                    raise PhonologyError(
                        f"{path}:{lineno}: split does not spell {word!r}")
                exceptions[word.lower()] = parts
        return cls(exceptions)

    def syllabify(self, word: str) -> SyllableSplit:
        """Split a single word (letters only) into syllables.

        Words without any nucleus (e.g. the preposition "z") yield zero
        syllables and are flagged as clitics.
        """
        if not word:
            return SyllableSplit(word, (), clitic=True)
        override = self.exceptions.get(word.lower())
        if override is not None:
            # Re-case the override to the actual input.
            pieces, pos = [], 0
            for p in override:
                pieces.append(word[pos:pos + len(p)])
                pos += len(p)
            return SyllableSplit(word, tuple(pieces))
        nuclei = _find_nuclei(word)
        if not nuclei:
            return SyllableSplit(word, (), clitic=True)
        return SyllableSplit(word, _split_at(word, nuclei))

    def split_token(self, token: str) -> SyllableSplit | None:
        """Split of a whitespace token with its punctuation removed, or
        None when nothing is left; memoized per token."""
        split = self._tokens.get(token, _MISSING)
        if split is _MISSING:
            core = strip_punct(token)
            split = syllabify(core, self) if core else None
            if len(self._tokens) >= TOKEN_MEMO_ENTRIES:
                self._tokens.clear()
            self._tokens[token] = split
        return split


_MISSING = object()
_DEFAULT = Syllabifier()


def syllabify(word: str, syllabifier: Syllabifier | None = None) -> SyllableSplit:
    return (syllabifier or _DEFAULT).syllabify(word)


def strip_punct(token: str) -> str:
    return "".join(
        ch for ch in token if not unicodedata.category(ch).startswith("P"))


def words(text: str) -> list[str]:
    """Whitespace tokens with punctuation removed, empties dropped."""
    out = []
    for tok in text.split():
        core = strip_punct(tok)
        if core:
            out.append(core)
    return out


@dataclass(frozen=True)
class VerseAnalysis:
    """What phonology derives from one verse."""

    text: str
    syllables: tuple[str, ...]
    stress: str
    clausula: str  # "" when the verse has no syllables

    def ending_hint(self) -> str:
        """The clausula; PhonologyError when the verse has no syllables."""
        if not self.syllables:
            raise PhonologyError(f"verse has no syllables: {self.text!r}")
        return self.clausula


def analyze(text: str, syllabifier: Syllabifier | None = None) -> VerseAnalysis:
    """Syllables, stress pattern and clausula of a verse, from one split
    of each of its words."""
    split_token = (syllabifier or _DEFAULT).split_token
    splits = [sp for sp in map(split_token, text.split()) if sp is not None]
    sylls = tuple(s for sp in splits for s in sp.syllables)
    return VerseAnalysis(text, sylls, _stress(splits), _clausula(sylls))


def verse_syllables(text: str, syllabifier: Syllabifier | None = None) -> list[str]:
    """All syllables of a verse, in order.  Clitics contribute none."""
    return list(analyze(text, syllabifier).syllables)


def stress_pattern(text: str, syllabifier: Syllabifier | None = None) -> str:
    """Stress marks for a verse, one of ``x``/``X`` per syllable.

    First syllable of each word is stressed; vocalic monosyllabic
    prepositions absorb the stress of the following word; function-word
    monosyllables stay unstressed.
    """
    return analyze(text, syllabifier).stress


def ending_hint(text: str, syllabifier: Syllabifier | None = None) -> str:
    """Clausula of a verse: its last two syllables with the onset of the
    earlier one removed; lowercase."""
    return analyze(text, syllabifier).ending_hint()


def _stress(splits: list[SyllableSplit]) -> str:
    marks = []
    i = 0
    while i < len(splits):
        sp = splits[i]
        count = len(sp)
        if count == 0:
            i += 1
            continue
        low = sp.word.lower()
        if count == 1 and low in STRESSED_PREPOSITIONS:
            # Find the next non-clitic word to absorb.
            j = i + 1
            while j < len(splits) and len(splits[j]) == 0:
                j += 1
            if j < len(splits):
                marks.append("X")
                marks.extend("x" * len(splits[j]))
                i = j + 1
                continue
            marks.append("X")
        elif count == 1:
            marks.append("x" if low in UNSTRESSED_MONOSYLLABLES else "X")
        else:
            marks.append("X")
            marks.extend("x" * (count - 1))
        i += 1
    return "".join(marks)


def _strip_onset(syllable: str) -> str:
    low = syllable.lower()
    has_vowel = any(ch in VOWELS for ch in low)
    for i, ch in enumerate(low):
        if ch in VOWELS or (not has_vowel and ch in LIQUIDS):
            return syllable[i:]
    return syllable


def _clausula(sylls: tuple[str, ...]) -> str:
    if not sylls:
        return ""
    if len(sylls) == 1:
        return _strip_onset(sylls[-1]).lower()
    return (_strip_onset(sylls[-2]) + sylls[-1]).lower()
