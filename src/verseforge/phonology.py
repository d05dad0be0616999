"""Czech syllables, stress patterns and verse endings.

Rule-based: vowel/diphthong/syllabic-liquid nuclei, consonant clusters
split by a maximal-onset rule over a fixed onset whitelist.  Irregular
words can be overridden through an exceptions file (one
``word<TAB>syl-la-bles`` per line).

``analyze`` is the one path from a verse to its syllables, stress
pattern and clausula; ``verse_syllables``, ``stress_pattern`` and
``ending_hint`` read their fact off it.  Each ``Syllabifier`` memoizes
every raw whitespace token it has seen, up to ``TOKEN_MEMO_ENTRIES``
tokens, after which the memo starts afresh.  A token's entry holds what
depends on the token alone: its syllables, its casefolded syllables,
its stress marks as a word of its own, whether it leans on the next
word, and, for a word of two or more syllables, its clausula.  A verse
then costs one memo lookup per token; only a verse that ends in a
monosyllable reads a clausula across two words.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
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
# cleared.  About 0.5 KB per entry (498 bytes measured over 12,830
# tokens), so at most about 33 MB.
TOKEN_MEMO_ENTRIES = 65536


class PhonologyError(ValueError):
    pass


def _find_nuclei(word: str) -> list[tuple[int, int]]:
    """Return (start, end) spans of syllable nuclei in ``word``."""
    low = word.lower()
    if len(low) != len(word):  # "İ" lowercases to "i" and a combining dot
        low = "".join([ch.lower()[0] for ch in word])
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
        while unicodedata.combining(word[b]):  # a mark stays with its letter
            b += 1
        pieces.append(word[start:b])
        start = b
    pieces.append(word[start:])
    return tuple(pieces)


def _override(word: str, parts) -> tuple[str, ...]:
    """``parts`` as the syllables of ``word``; raises ``PhonologyError``
    unless they spell it, in any case, and each has a nucleus."""
    parts = tuple(parts)
    if "".join(parts).lower() != word.lower():
        raise PhonologyError(f"split does not spell {word!r}")
    for part in parts:
        if not _find_nuclei(part):
            raise PhonologyError(f"syllable {part!r} has no nucleus")
    return parts


class Syllabifier:
    """Per-word syllable overrides and the memos that use them: the token
    memo, and ``piece_tokens``, in which ``tokenizers.syllable_piece_tokens``
    memoizes each piece's syllable tokens."""

    def __init__(self, exceptions: dict[str, tuple[str, ...]] | None = None):
        """Each override is checked by ``_override`` and keyed by its
        word's lowercase spelling, which lookups use."""
        self._exceptions = MappingProxyType(
            {word.lower(): _override(word, parts) for word, parts in (exceptions or {}).items()})
        self._tokens = _TokenMemo(self)
        self.piece_tokens: dict[str, tuple[str, ...]] = {}

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
                try:
                    exceptions[word.lower()] = _override(word, split.split("-"))
                except PhonologyError as e:
                    raise PhonologyError(f"{path}:{lineno}: {e}") from None
        return cls(exceptions)


# A word of at least one syllable, as the token memo holds it:
# - its syllables;
# - its casefolded syllables, the same tuple when folding changes none;
# - its stress marks as a word of its own, one string per pattern;
# - whether it is a vocalic preposition, which takes the stress of the
#   next word;
# - its clausula when it has two or more syllables, else None.
_Word = tuple[tuple[str, ...], tuple[str, ...], str, bool, str | None]


class _TokenMemo(dict):
    """Whitespace token -> the ``_Word`` of the token with its punctuation
    removed, None when that has no syllable.  Holds at most
    ``TOKEN_MEMO_ENTRIES`` tokens; a full memo is cleared."""

    def __init__(self, syllabifier: Syllabifier):
        super().__init__()
        self._syllabifier = syllabifier

    def __missing__(self, token: str) -> _Word | None:
        core = strip_punct(token)
        word = _word(core, syllabify(core, self._syllabifier)) if core else None
        if len(self) >= TOKEN_MEMO_ENTRIES:
            self.clear()
        self[token] = word
        return word


def _word(word: str, sylls: tuple[str, ...]) -> _Word | None:
    if not sylls:
        return None
    # Casefolding maps letter by letter, so the syllables of a word that
    # folds to itself do too.
    folded = sylls if word.casefold() == word else tuple([s.casefold() for s in sylls])
    if len(sylls) > 1:
        return sylls, folded, _first_stressed(len(sylls)), False, _clausula(sylls)
    low = word.lower()
    if low in STRESSED_PREPOSITIONS:
        return sylls, folded, "X", True, None
    return sylls, folded, "x" if low in UNSTRESSED_MONOSYLLABLES else "X", False, None


# Czech words have far fewer than 64 syllables; a longer one only builds
# a string of its own.
@lru_cache(maxsize=64)
def _first_stressed(n: int) -> str:
    """The marks of a word of ``n`` syllables stressed on the first, one
    string for every memo entry of that length."""
    return "X" + "x" * (n - 1)


_DEFAULT = Syllabifier()


def syllabify(word: str, syllabifier: Syllabifier | None = None) -> tuple[str, ...]:
    """Lossless split of a single word (letters only) into syllables.

    A word without any nucleus (e.g. the preposition "z") is a clitic
    and yields no syllable.
    """
    low = word.lower()
    override = (syllabifier or _DEFAULT).exceptions.get(low)
    # Re-case the override to the actual input, unless a character whose
    # lowercase is longer ("İ") keeps its parts from lining up with it.
    if override is not None and len(word) == len(low) == sum(map(len, override)):
        pieces, pos = [], 0
        for p in override:
            pieces.append(word[pos:pos + len(p)])
            pos += len(p)
        return tuple(pieces)
    nuclei = _find_nuclei(word)
    if not nuclei:
        return ()
    return _split_at(word, nuclei)


def strip_punct(token: str) -> str:
    return "".join(
        ch for ch in token if not unicodedata.category(ch).startswith("P"))


@dataclass(frozen=True, slots=True)
class VerseAnalysis:
    """What phonology derives from one verse."""

    text: str
    syllables: tuple[str, ...]
    stress: str
    clausula: str  # "" when the verse has no syllables

    def ending_hint(self) -> str:
        """The clausula; PhonologyError when the verse has no syllables."""
        if not self.syllables:
            raise no_syllables(self.text)
        return self.clausula


def no_syllables(text: str) -> PhonologyError:
    """The error of a verse that needs, and lacks, a syllable."""
    return PhonologyError(f"verse has no syllables: {text!r}")


def analyze(text: str, syllabifier: Syllabifier | None = None) -> VerseAnalysis:
    """Syllables, stress pattern and clausula of a verse, from one split
    of each of its words."""
    words, stress, clausula = _verse(text, syllabifier)
    return VerseAnalysis(text, tuple(chain.from_iterable([w[0] for w in words])),
                         stress, clausula)


def _verse(text: str, syllabifier: Syllabifier | None = None
           ) -> tuple[list[_Word], str, str]:
    """The memo entries of a verse's words that have a syllable, its
    stress pattern and its clausula; ``analyze`` records them, with the
    words' syllables joined."""
    memo = (syllabifier or _DEFAULT)._tokens
    # a token without a syllable maps to None
    words = list(filter(None, map(memo.__getitem__, text.split())))
    if not words:
        return words, "", ""
    clausula = words[-1][4]
    if clausula is None:  # the verse ends in a monosyllable
        last = words[-1][0]
        clausula = _clausula(last if len(words) == 1 else (words[-2][0][-1],) + last)
    return words, _stress(words), clausula


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


def _stress(words: list[_Word]) -> str:
    """Each word's own marks, but a vocalic preposition takes the stress
    of the word after it, which is then unstressed."""
    marks = []
    absorb = False
    for w in words:
        if absorb:
            marks.append("x" * len(w[0]))
            absorb = False
        else:
            marks.append(w[2])
            absorb = w[3]
    return "".join(marks)


def _strip_onset(syllable: str) -> str:
    """The syllable from its first vowel on, else from its first liquid."""
    low = syllable.lower()
    for nuclei in (VOWELS, LIQUIDS):
        for i, ch in enumerate(low):
            if ch in nuclei:
                return syllable[i:]


def _clausula(sylls: tuple[str, ...]) -> str:
    """The clausula of a verse whose last syllables are ``sylls``."""
    if len(sylls) == 1:
        return _strip_onset(sylls[-1]).lower()
    return (_strip_onset(sylls[-2]) + sylls[-1]).lower()
