"""The three annotation-interleaved strophe text formats.

BASIC        header ``# SCHEME # YEAR # METER`` + plain verses
VERSE_PAR    same header, verses prefixed ``SYL # HINT # ``
METER_VERSE  header ``# SCHEME # YEAR``, verses prefixed ``METER # SYL # HINT # ``

Annotation fields are separated by exactly `` # ``; verse text may
itself contain ``#`` because only the first N separators are split off.

``parse`` reads each distinct header line, and each distinct annotation
prefix (a verse line's fields before the separator that precedes its
text), once per format: a ``phonology.BoundedMemo`` of each hands out
one shared frozen ``StropheHeader`` or ``LineAnnotation`` for every line
that repeats it, and ``YearBucket.parse`` one ``YearBucket`` per bucket
string.  A line that does not parse raises afresh each time, so no
error is memoized; its message gains its line number from the caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial

from . import phonology
from .corpus import SCHEME_LETTERS, MeterLabel, Strophe, YearBucket, modal_meter

SEP = " # "


class DataFormat(str, Enum):
    BASIC = "basic"
    VERSE_PAR = "verse_par"
    METER_VERSE = "meter_verse"

    @classmethod
    def parse(cls, s: str) -> "DataFormat":
        try:
            return cls(s.lower())
        except ValueError:
            raise FormatError(f"unknown data format {s!r}") from None


class FormatError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class LineAnnotation:
    meter: MeterLabel | None  # present iff METER_VERSE
    syllable_count: int
    ending_hint: str

    def prefix(self, fmt: DataFormat) -> str:
        """The forced-generation prefix string for this annotation."""
        return annotation_prefix(fmt, self.meter, self.syllable_count, self.ending_hint)


def annotation_prefix(fmt: DataFormat, meter: MeterLabel | None, syllable_count: int,
                      ending_hint: str) -> str:
    """The prefix of a verse annotated with these fields in ``fmt``;
    ``meter`` is read only in METER_VERSE."""
    if fmt is DataFormat.METER_VERSE:
        return f"{meter.value}{SEP}{syllable_count}{SEP}{ending_hint}{SEP}"
    if fmt is DataFormat.VERSE_PAR:
        return f"{syllable_count}{SEP}{ending_hint}{SEP}"
    raise FormatError(f"format {fmt.value} carries no line annotations")


@dataclass(frozen=True, slots=True)
class StropheHeader:
    scheme: str
    year_bucket: YearBucket
    strophe_meter: MeterLabel | None  # present iff BASIC / VERSE_PAR

    def render(self, fmt: DataFormat) -> str:
        head = f"# {self.scheme}{SEP}{self.year_bucket}"
        if fmt is DataFormat.METER_VERSE:
            return head
        if self.strophe_meter is None:
            raise FormatError(f"{fmt.value} header needs a strophe meter")
        return head + SEP + self.strophe_meter.value


@dataclass(frozen=True, slots=True)
class ParsedStrophe:
    header: StropheHeader
    lines: tuple[tuple[LineAnnotation | None, str], ...]


def encode(strophe: Strophe, fmt: DataFormat, syllabifier=None) -> str:
    """A gold strophe as text in ``fmt``: its header, then each verse
    behind the annotation prefix that phonology derives for it.  A
    verse's syllable count (one stress mark per syllable) and clausula
    are read from the syllabifier's token memo (``phonology._verse``);
    an annotated verse with no syllable raises ``PhonologyError``."""
    header = StropheHeader(
        scheme=strophe.scheme,
        year_bucket=strophe.year_bucket,
        strophe_meter=None if fmt is DataFormat.METER_VERSE else modal_meter(strophe),
    )
    out = [header.render(fmt)]
    if fmt is DataFormat.BASIC:
        out += [v.text for v in strophe.verses]
        return "\n".join(out)
    for v in strophe.verses:
        _, stress, clausula = phonology._verse(v.text, syllabifier)
        if not stress:
            raise phonology.no_syllables(v.text)
        out.append(annotation_prefix(fmt, v.gold_meter, len(stress), clausula) + v.text)
    return "\n".join(out)


def _parse_meter(letter: str) -> MeterLabel:
    try:
        return MeterLabel.parse(letter)
    except ValueError:
        raise FormatError(f"unknown meter letter {letter!r}") from None


def _header(fmt: DataFormat, line: str) -> StropheHeader:
    """The header of ``line`` in ``fmt``; errors carry no line number."""
    if not line.startswith("# "):
        raise FormatError("header must start with '# '")
    fields = line[2:].rstrip().split(SEP)
    if fields and fields[-1] == "#":  # tolerate a trailing separator
        fields = fields[:-1]
    want = 2 if fmt is DataFormat.METER_VERSE else 3
    if len(fields) != want:
        raise FormatError(f"header has {len(fields)} fields, expected {want}")
    scheme, year = fields[0], fields[1]
    if not scheme or any(c not in SCHEME_LETTERS for c in scheme):
        raise FormatError(f"bad rhyme scheme {scheme!r}")
    try:
        bucket = YearBucket.parse(year)
    except ValueError:
        raise FormatError(f"bad year field {year!r}") from None
    meter = None
    if fmt is not DataFormat.METER_VERSE:
        meter = _parse_meter(fields[2])
    return StropheHeader(scheme, bucket, meter)


def _annotation(fmt: DataFormat, prefix: str) -> LineAnnotation:
    """The annotation of a verse line's ``prefix`` in ``fmt``, its fields
    before the separator that precedes the verse text; errors carry no
    line number."""
    if fmt is DataFormat.METER_VERSE:
        meter_s, syl_s, hint = prefix.split(SEP)
        meter = _parse_meter(meter_s)
    else:
        syl_s, hint = prefix.split(SEP)
        meter = None
    try:
        syl = int(syl_s)
    except ValueError:
        raise FormatError(f"syllable count {syl_s!r} is not an integer") from None
    if syl <= 0:
        raise FormatError(f"syllable count must be positive, got {syl}")
    if not hint:
        raise FormatError("empty ending hint")
    return LineAnnotation(meter, syl, hint)


# header line -> its StropheHeader, and annotation prefix -> its
# LineAnnotation, one memo of each per format
_HEADERS = {fmt: phonology.BoundedMemo(partial(_header, fmt)) for fmt in DataFormat}
_ANNOTATIONS = {fmt: phonology.BoundedMemo(partial(_annotation, fmt))
                for fmt in (DataFormat.VERSE_PAR, DataFormat.METER_VERSE)}


def _parse_header(line: str, fmt: DataFormat, lineno: int) -> StropheHeader:
    try:
        return _HEADERS[fmt][line]
    except FormatError as e:
        raise FormatError(f"line {lineno}: {e}") from None


def _parse_verse_line(line: str, fmt: DataFormat, lineno: int):
    if fmt is DataFormat.BASIC:
        return None, line
    n_fields = 3 if fmt is DataFormat.METER_VERSE else 2
    parts = line.split(SEP, n_fields)
    if len(parts) != n_fields + 1:
        raise FormatError(
            f"line {lineno}: expected {n_fields} annotation fields before the verse")
    text = parts[n_fields]
    try:
        return _ANNOTATIONS[fmt][line[:len(line) - len(text) - len(SEP)]], text
    except FormatError as e:
        raise FormatError(f"line {lineno}: {e}") from None


def parse(text: str, fmt: DataFormat) -> ParsedStrophe:
    """Inverse of encode; errors carry line numbers."""
    lines = [line for line in map(str.rstrip, text.split("\n")) if line]
    if not lines:
        raise FormatError("empty strophe text")
    header = _parse_header(lines[0], fmt, 1)
    parsed = [_parse_verse_line(line, fmt, i) for i, line in enumerate(lines[1:], 2)]
    if len(parsed) != len(header.scheme):
        raise FormatError(
            f"scheme {header.scheme} expects {len(header.scheme)} verses, got {len(parsed)}")
    return ParsedStrophe(header, tuple(parsed))


@dataclass(frozen=True, slots=True)
class VerseCheck:
    syl_ok: bool
    end_ok: bool
    annotated_syl: int
    actual_syl: int
    annotated_hint: str
    actual_hint: str


def annotation_matches(ann: LineAnnotation, n_syllables: int,
                       clausula: str) -> tuple[bool, bool]:
    """``syl_ok`` and ``end_ok`` of a ``VerseCheck``: the annotated
    syllable count and ending hint (in any case) against those of the
    verse's analysis."""
    return n_syllables == ann.syllable_count, clausula == ann.ending_hint.lower()


def consistency_check(parsed: ParsedStrophe, syllabifier=None) -> list[VerseCheck]:
    """Does each verse's annotation match what phonology derives from its
    text?  This is the raw signal behind Num syl / End acc."""
    checks = []
    for ann, text in parsed.lines:
        if ann is None:
            raise FormatError("consistency_check needs annotated lines")
        analysis = phonology.analyze(text, syllabifier)
        checks.append(VerseCheck(*annotation_matches(ann, len(analysis.syllables),
                                                    analysis.clausula),
                                 annotated_syl=ann.syllable_count,
                                 actual_syl=len(analysis.syllables),
                                 annotated_hint=ann.ending_hint,
                                 actual_hint=analysis.clausula))
    return checks
