"""The three annotation-interleaved strophe text formats.

BASIC        header ``# SCHEME # YEAR # METER`` + plain verses
VERSE_PAR    same header, verses prefixed ``SYL # HINT # ``
METER_VERSE  header ``# SCHEME # YEAR``, verses prefixed ``METER # SYL # HINT # ``

Annotation fields are separated by exactly `` # ``; verse text may
itself contain ``#`` because only the first N separators are split off.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from . import phonology
from .corpus import MeterLabel, Strophe, YearBucket, modal_meter

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


@dataclass(frozen=True)
class LineAnnotation:
    meter: MeterLabel | None  # present iff METER_VERSE
    syllable_count: int
    ending_hint: str

    def prefix(self, fmt: DataFormat) -> str:
        """The forced-generation prefix string for this annotation."""
        if fmt is DataFormat.METER_VERSE:
            return f"{self.meter.value}{SEP}{self.syllable_count}{SEP}{self.ending_hint}{SEP}"
        if fmt is DataFormat.VERSE_PAR:
            return f"{self.syllable_count}{SEP}{self.ending_hint}{SEP}"
        raise FormatError(f"format {fmt.value} carries no line annotations")


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class ParsedStrophe:
    header: StropheHeader
    lines: tuple[tuple[LineAnnotation | None, str], ...]

    @property
    def verse_texts(self):
        return [text for _, text in self.lines]


def annotate(strophe: Strophe, fmt: DataFormat, syllabifier=None):
    """Header + per-line annotations for a gold strophe."""
    header = StropheHeader(
        scheme=strophe.scheme,
        year_bucket=strophe.year_bucket,
        strophe_meter=None if fmt is DataFormat.METER_VERSE else modal_meter(strophe),
    )
    lines = []
    for v in strophe.verses:
        if fmt is DataFormat.BASIC:
            lines.append((None, v.text))
            continue
        analysis = phonology.analyze(v.text, syllabifier)
        ann = LineAnnotation(
            meter=v.gold_meter if fmt is DataFormat.METER_VERSE else None,
            syllable_count=len(analysis.syllables),
            ending_hint=analysis.ending_hint(),
        )
        lines.append((ann, v.text))
    return ParsedStrophe(header, tuple(lines))


def encode(strophe: Strophe, fmt: DataFormat, syllabifier=None) -> str:
    parsed = annotate(strophe, fmt, syllabifier)
    out = [parsed.header.render(fmt)]
    for ann, text in parsed.lines:
        out.append(text if ann is None else ann.prefix(fmt) + text)
    return "\n".join(out)


def _parse_header(line: str, fmt: DataFormat, lineno: int) -> StropheHeader:
    if not line.startswith("# "):
        raise FormatError(f"line {lineno}: header must start with '# '")
    fields = line[2:].rstrip().split(SEP)
    if fields and fields[-1] == "#":  # tolerate a trailing separator
        fields = fields[:-1]
    want = 2 if fmt is DataFormat.METER_VERSE else 3
    if len(fields) != want:
        raise FormatError(
            f"line {lineno}: header has {len(fields)} fields, expected {want}")
    scheme, year = fields[0], fields[1]
    if not scheme or any(c not in "ABCDEFGHIJKLMNOPQRSTUVWX" for c in scheme):
        raise FormatError(f"line {lineno}: bad rhyme scheme {scheme!r}")
    try:
        bucket = YearBucket.parse(year)
    except ValueError:
        raise FormatError(f"line {lineno}: bad year field {year!r}") from None
    meter = None
    if fmt is not DataFormat.METER_VERSE:
        try:
            meter = MeterLabel(fields[2])
        except ValueError:
            raise FormatError(f"line {lineno}: unknown meter letter {fields[2]!r}") from None
    return StropheHeader(scheme, bucket, meter)


def _parse_verse_line(line: str, fmt: DataFormat, lineno: int):
    if fmt is DataFormat.BASIC:
        return None, line
    n_fields = 3 if fmt is DataFormat.METER_VERSE else 2
    parts = line.split(SEP, n_fields)
    if len(parts) != n_fields + 1:
        raise FormatError(
            f"line {lineno}: expected {n_fields} annotation fields before the verse")
    if fmt is DataFormat.METER_VERSE:
        meter_s, syl_s, hint, text = parts
        try:
            meter = MeterLabel(meter_s)
        except ValueError:
            raise FormatError(f"line {lineno}: unknown meter letter {meter_s!r}") from None
    else:
        syl_s, hint, text = parts
        meter = None
    try:
        syl = int(syl_s)
    except ValueError:
        raise FormatError(f"line {lineno}: syllable count {syl_s!r} is not an integer") from None
    if syl <= 0:
        raise FormatError(f"line {lineno}: syllable count must be positive, got {syl}")
    if not hint:
        raise FormatError(f"line {lineno}: empty ending hint")
    return LineAnnotation(meter, syl, hint), text


def parse(text: str, fmt: DataFormat) -> ParsedStrophe:
    """Inverse of encode; errors carry line numbers."""
    lines = [l.rstrip() for l in text.rstrip("\n").split("\n")]
    lines = [l for l in lines if l]
    if not lines:
        raise FormatError("empty strophe text")
    header = _parse_header(lines[0], fmt, 1)
    parsed = []
    for i, line in enumerate(lines[1:], 2):
        parsed.append(_parse_verse_line(line, fmt, i))
    if len(parsed) != len(header.scheme):
        raise FormatError(
            f"scheme {header.scheme} expects {len(header.scheme)} verses, got {len(parsed)}")
    return ParsedStrophe(header, tuple(parsed))


@dataclass(frozen=True)
class VerseCheck:
    syl_ok: bool
    end_ok: bool
    annotated_syl: int
    actual_syl: int
    annotated_hint: str
    actual_hint: str


def verse_check(ann: LineAnnotation | None,
                analysis: phonology.VerseAnalysis) -> VerseCheck:
    """Does a verse's annotation match what phonology derives from its
    text?  This is the raw signal behind Num syl / End acc."""
    if ann is None:
        raise FormatError("consistency_check needs annotated lines")
    actual_syl = len(analysis.syllables)
    return VerseCheck(
        syl_ok=actual_syl == ann.syllable_count,
        end_ok=analysis.clausula == ann.ending_hint.lower(),
        annotated_syl=ann.syllable_count,
        actual_syl=actual_syl,
        annotated_hint=ann.ending_hint,
        actual_hint=analysis.clausula,
    )


def consistency_check(parsed: ParsedStrophe, syllabifier=None) -> list[VerseCheck]:
    """``verse_check`` of every verse of a parsed strophe."""
    return [verse_check(ann, phonology.analyze(text, syllabifier))
            for ann, text in parsed.lines]
