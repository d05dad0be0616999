"""Corpus ingestion, rhyme-scheme derivation, year buckets and stats.

Corpus files are UTF-8 JSON lines, one poem per line::

    {"year": 1893, "strophes": [[{"text": "...", "rhyme": 1, "meter": "J"}, ...], ...]}

``year`` may be null; ``rhyme`` is the corpus rhyme-group id (null for
non-rhyming verses); ``meter`` is a one-letter meter label.
"""

from __future__ import annotations

import errno
import json
import os
import random
import re
import stat
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum

BUCKET_YEARS = 20


class MeterLabel(str, Enum):
    """A verse meter.  The members are declared in dataset-frequency
    order, which is also the tie-break order used throughout (header
    modal meter, meter classification)."""

    IAMB = "J"
    TROCHEE = "T"
    DACTYL = "D"
    AMPHIBRACH = "A"
    DACTYLOTROCHEE = "X"
    DACTYLOTROCHEE_ANACRUSIS = "Y"
    HEXAMETER = "H"
    PENTAMETER = "P"
    NOT_RECOGNIZED = "N"

    @classmethod
    def parse(cls, s: str) -> "MeterLabel":
        try:
            return _METERS[s]
        except (KeyError, TypeError):  # TypeError: an unhashable value
            raise CorpusFormatError(f"unknown meter label {s!r}") from None


METERS = tuple(MeterLabel)
METER_ORDER = "".join(m.value for m in METERS)
# Each label under its letter and under itself, since a member hashes by
# its name and its letter alone would not find it.
_METERS = {key: m for m in METERS for key in (m.value, m)}


class CorpusFormatError(ValueError):
    pass


SCHEME_LENGTHS = (4, 6)
# Letters of a rhyme scheme: rhyme groups in order of first appearance,
# X for a verse that rhymes with none.
SCHEME_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWX"


@dataclass(frozen=True, slots=True)
class YearBucket:
    """First year of a 20-year period, or None for the NaN category."""

    start: int | None

    def __post_init__(self):
        if self.start is not None and self.start % BUCKET_YEARS != 0:
            raise CorpusFormatError(f"bucket start {self.start} not a multiple of {BUCKET_YEARS}")

    def __str__(self):
        return "NaN" if self.start is None else str(self.start)

    @classmethod
    def parse(cls, s: str) -> "YearBucket":
        if s == "NaN":
            return cls(None)
        try:
            start = int(s)
        except ValueError:
            raise CorpusFormatError(f"bad year bucket {s!r}") from None
        return cls(start)


def bucketize_year(year: int | None) -> YearBucket:
    """Map a publication year to its 20-year bucket; None -> NaN."""
    if year is None:
        return YearBucket(None)
    return YearBucket((year // BUCKET_YEARS) * BUCKET_YEARS)


def derive_rhyme_scheme(groups: list[int | None]) -> str:
    """Canonical rhyme scheme from corpus rhyme-group ids.

    First rhyming verse gets A, each new group the next letter; verses
    with no group or a group occurring only once map to X.
    """
    if len(groups) not in SCHEME_LENGTHS:
        raise CorpusFormatError(
            f"unsupported strophe length {len(groups)}: expected 4 or 6")
    letters = []
    assigned: dict[int, str] = {}
    for g in groups:
        if g is None or groups.count(g) < 2:
            letters.append("X")
            continue
        if g not in assigned:
            assigned[g] = SCHEME_LETTERS[len(assigned)]
        letters.append(assigned[g])
    return "".join(letters)


@dataclass(frozen=True, slots=True)
class Verse:
    text: str
    rhyme_group: int | None
    gold_meter: MeterLabel

    def __post_init__(self):
        if not self.text.strip():
            raise CorpusFormatError("verse text is empty")


@dataclass(frozen=True, slots=True)
class Strophe:
    verses: tuple[Verse, ...]
    scheme: str = field(init=False)  # derived from the verses' rhyme groups
    year_bucket: YearBucket
    poem_index: int | None = None

    def __post_init__(self):
        # derive_rhyme_scheme rejects an unsupported verse count
        object.__setattr__(self, "scheme",
                           derive_rhyme_scheme([v.rhyme_group for v in self.verses]))


@dataclass(slots=True)
class CorpusStats:
    scheme_counts: Counter = field(default_factory=Counter)
    meter_counts: Counter = field(default_factory=Counter)
    year_counts: Counter = field(default_factory=Counter)
    n_strophes: int = 0
    n_verses: int = 0
    n_poems: int = 0

    def to_dict(self):
        return {
            "schemes": dict(self.scheme_counts),
            "meters": {m.value: c for m, c in self.meter_counts.items()},
            "years": {str(y): c for y, c in self.year_counts.items()},
            "strophes": self.n_strophes,
            "verses": self.n_verses,
            "poems": self.n_poems,
        }


def json_isinstance(value, types) -> bool:
    """``isinstance`` for a decoded JSON value: ``true`` and ``false`` are
    no numbers, although ``bool`` is a subclass of ``int``."""
    return isinstance(value, types) and not isinstance(value, bool)


def _parse_verse(obj, where: str, si: int) -> Verse:
    """The ``Verse`` of one decoded verse record, checked in one pass:
    an object, its ``text``, ``rhyme`` and ``meter`` read in that order,
    a string text, a null or integer rhyme, a known meter letter and a
    non-blank text.  The first check that fails raises the one
    ``CorpusFormatError`` that names it, after ``where``, the record's
    ``path:line``, and the strophe index ``si``.  Decoded JSON values have
    exact types, so ``type`` tells them apart; ``true`` is no integer."""
    if type(obj) is not dict:
        raise CorpusFormatError(f"{where} strophe {si}: verse is not an object")
    try:
        text, rhyme, meter = obj["text"], obj["rhyme"], obj["meter"]
    except KeyError as e:
        raise CorpusFormatError(f"{where} strophe {si}: missing field {e.args[0]!r}") from None
    if type(text) is not str:
        raise CorpusFormatError(f"{where} strophe {si}: field 'text' must be a string")
    if rhyme is not None and type(rhyme) is not int:
        raise CorpusFormatError(f"{where} strophe {si}: field 'rhyme' must be integer or null")
    try:
        return Verse(text, rhyme, MeterLabel.parse(meter))
    except CorpusFormatError as e:
        raise CorpusFormatError(f"{where} strophe {si}: {e}") from None


def numbered_lines(f, path):
    """Yield each non-blank line of a record file, stripped, as ``(index,
    path:lineno, line)``, ``index`` counting every line from 0."""
    for index, line in enumerate(f):
        line = line.strip()
        if line:
            yield index, f"{path}:{index + 1}", line


@contextmanager
def replacing(path, mode: str = "w"):
    """A file opened in ``mode`` ("w" for UTF-8 text, "wb") to write
    ``path``.  Where ``path`` is missing or resolves, through any
    symlinks, to a regular file, it is a temporary file beside that file,
    moved onto it by ``os.replace`` when the block ends; when the block
    raises, the temporary file is removed and the file is left as it was.
    An ``OSError`` of the temporary file names ``path`` instead.  Any
    other ``path`` (a FIFO, a device such as ``/dev/null`` or
    ``/dev/stdout`` on a pipe, a directory) is opened as it is."""
    name = os.fspath(path)
    encoding = None if "b" in mode else "utf-8"
    target = _replaceable(name)
    if target is None:
        with open(name, mode, encoding=encoding) as f:
            yield f
        return
    tmp = f"{target}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, encoding=encoding) as f:
            yield f
        os.replace(tmp, target)
    except BaseException as e:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(e, OSError) and e.filename == tmp:
            raise type(e)(e.errno, e.strerror, name) from None
        raise


def check_directory(path) -> None:
    """Raise the ``OSError``, naming ``path``, that ``replacing(path)``
    would raise because the directory it would write in is missing or is
    no directory; a command calls it before it reads any input.  A
    ``path`` that exists, whatever its kind, is left to ``replacing``."""
    name = os.fspath(path)
    if os.path.exists(name):
        return
    try:
        st = os.stat(os.path.dirname(os.path.realpath(name)))
    except OSError as e:
        raise OSError(e.errno, e.strerror, name) from None
    if not stat.S_ISDIR(st.st_mode):
        raise OSError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), name)


def _replaceable(name: str) -> str | None:
    """The real path of ``name`` when it is missing or the very regular
    file that ``name`` resolves to, else None."""
    target = os.path.realpath(name)
    try:
        st = os.stat(name)
    except FileNotFoundError:
        return target
    except OSError:
        return None
    regular = stat.S_ISREG(st.st_mode) and os.path.exists(target)
    return target if regular and os.path.samestat(st, os.stat(target)) else None


# a JSON escape of a UTF-16 surrogate, in either case
_SURROGATE_ESCAPE_RE = re.compile(r"\\u[dD][89a-fA-F]")


def record(line: str, where: str) -> dict:
    """The object of one JSON-lines record.  A line that ``json.loads``
    refuses, one nested too deeply or holding a number of more digits
    than ``int`` converts among them, a value that is no object and a
    string holding a lone surrogate (an unpaired ``\\ud800``-``\\udfff``
    escape, which no UTF-8 output can write; the first in the line is
    named) raise ``CorpusFormatError`` naming ``where``, the line's
    ``path:line``.  Only a line with a surrogate escape is encoded."""
    try:
        d = json.loads(line)
    except (ValueError, RecursionError) as e:
        raise CorpusFormatError(f"{where}: invalid JSON ({e})") from None
    if not isinstance(d, dict):
        raise CorpusFormatError(f"{where}: expected a JSON object, got {type(d).__name__}")
    if _SURROGATE_ESCAPE_RE.search(line):
        try:
            json.dumps(d, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError as e:
            raise CorpusFormatError(f"{where}: a string holds the lone surrogate "
                                    f"\\u{ord(e.object[e.start]):04x}") from None
    return d


def ingest(path) -> list[Strophe]:
    """Load a corpus file; malformed records fail with a line-addressed error.

    Each verse record is read and checked in one pass by ``_parse_verse``,
    the one place that names what is wrong with a verse; a message's
    ``path:line`` and strophe are formatted only when it raises.  A
    poem's strophes share its one ``YearBucket``, which is frozen and
    compares by value."""
    strophes = []
    with open(path, encoding="utf-8") as f:
        for index, where, line in numbered_lines(f, path):
            poem = record(line, where)
            if not isinstance(poem.get("strophes"), list):
                raise CorpusFormatError(f"{where}: field 'strophes' must be a list")
            year = poem.get("year")
            if year is not None and not json_isinstance(year, int):
                raise CorpusFormatError(f"{where}: field 'year' must be integer or null")
            bucket = bucketize_year(year)
            for si, raw in enumerate(poem["strophes"]):
                if not isinstance(raw, list):
                    raise CorpusFormatError(f"{where} strophe {si}: a strophe must be a list")
                verses = [_parse_verse(v, where, si) for v in raw]
                try:
                    strophes.append(Strophe(tuple(verses), bucket, index))
                except CorpusFormatError as e:
                    raise CorpusFormatError(f"{where} strophe {si}: {e}") from None
    return strophes


def split(strophes: list[Strophe], test_fraction: float, seed: int):
    """Deterministic exact train/test partition; test gets floor(n*f)."""
    if not 0 < test_fraction < 1:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    idx = list(range(len(strophes)))
    random.Random(seed).shuffle(idx)
    n_test = int(len(strophes) * test_fraction)
    test_idx = set(idx[:n_test])
    train = [s for i, s in enumerate(strophes) if i not in test_idx]
    test = [s for i, s in enumerate(strophes) if i in test_idx]
    return train, test


def stats(strophes: list[Strophe]) -> CorpusStats:
    st = CorpusStats()
    poems = set()
    for s in strophes:
        st.scheme_counts[s.scheme] += 1
        st.year_counts[s.year_bucket] += 1
        for v in s.verses:
            st.meter_counts[v.gold_meter] += 1
        st.n_strophes += 1
        st.n_verses += len(s.verses)
        if s.poem_index is not None:
            poems.add(s.poem_index)
    st.n_poems = len(poems)
    return st


def modal_meter(strophe: Strophe) -> MeterLabel:
    """Most prevalent verse meter; ties break by ``MeterLabel``'s order."""
    meters = [v.gold_meter for v in strophe.verses]
    return max(METERS, key=meters.count)
