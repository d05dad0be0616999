"""Basic decoding and forced generation over a next-token model.

Forced generation copies the annotation prefix (meter, syllable count,
ending hint) of an already generated rhyme partner onto each later verse
that shares its scheme letter, then resumes free sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import formats, ngram, tokenizers
from .corpus import SCHEME_LENGTHS, SCHEME_LETTERS, MeterLabel, YearBucket
from .formats import DataFormat, LineAnnotation, ParsedStrophe, StropheHeader

MAX_VERSE_RETRIES = 8


class GenerationError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class GenerationRequest:
    scheme: str
    year_bucket: YearBucket
    fmt: DataFormat
    strophe_meter: MeterLabel | None = None
    per_verse_meters: tuple[MeterLabel, ...] | None = None
    temperature: float = 1.0
    seed: int = 0
    max_tokens: int = 2000

    def __post_init__(self):
        if len(self.scheme) not in SCHEME_LENGTHS:
            raise GenerationError(f"scheme length must be 4 or 6, got {self.scheme!r}")
        if any(c not in SCHEME_LETTERS for c in self.scheme):
            raise GenerationError(f"bad scheme {self.scheme!r}")
        if self.per_verse_meters is not None and len(self.per_verse_meters) != len(self.scheme):
            raise GenerationError("per_verse_meters length must match scheme length")
        if not self.temperature > 0:
            raise GenerationError("temperature must be positive")
        if self.seed < 0:
            raise GenerationError(f"seed must be non-negative, got {self.seed}")
        if self.max_tokens < 1:
            raise GenerationError(f"max_tokens must be at least 1, got {self.max_tokens}")

    def header(self) -> StropheHeader:
        meter = None
        if self.fmt is not DataFormat.METER_VERSE:
            meter = self.strophe_meter
            if meter is None and self.per_verse_meters:
                meter = self.per_verse_meters[0]
            if meter is None:
                raise GenerationError(f"{self.fmt.value} needs a strophe meter")
        return StropheHeader(self.scheme, self.year_bucket, meter)


@dataclass(slots=True)
class GeneratedStrophe:
    raw_text: str
    request: GenerationRequest
    parsed: ParsedStrophe | None
    parse_error: str | None
    truncated: bool
    forced_flags: tuple[bool, ...]

    @classmethod
    def from_text(cls, raw_text: str, request: GenerationRequest,
                  truncated: bool = False, forced_flags=()) -> GeneratedStrophe:
        """The strophe ``raw_text`` parsed in the request's format, or
        its parse error."""
        try:
            parsed, error = formats.parse(raw_text, request.fmt), None
        except formats.FormatError as e:
            parsed, error = None, str(e)
        return cls(raw_text, request, parsed, error, truncated, tuple(forced_flags))


class _BlockUniforms:
    """The doubles of successive ``rng.random()`` calls, drawn from ``rng``
    64 at a time.  PCG64's ``random(n)`` yields the doubles of ``n`` scalar
    calls, so the sequence is the same while ``rng`` runs up to 63 ahead,
    at a fraction of a scalar call's cost per double."""

    __slots__ = ("random",)

    def __init__(self, rng: np.random.Generator):
        self.random = chain.from_iterable(iter(lambda: rng.random(64).tolist(), None)).__next__


class _Decoder:
    def __init__(self, model, vocab: tokenizers.Vocab, request: GenerationRequest,
                 syllabifier=None):
        self.model = model
        self.vocab = vocab
        self.request = request
        self.syllabifier = syllabifier
        self.rng = _BlockUniforms(np.random.default_rng(request.seed))
        self.ids: list[int] = []
        self.sampled = 0
        self.truncated = False
        self.eos = False

    def feed(self, text: str) -> None:
        """Append forced/prompt text to the context without sampling."""
        self.ids.extend(tokenizers.encode(self.vocab, text, self.syllabifier))

    def snapshot(self):
        return len(self.ids), self.sampled

    def rollback(self, snap) -> None:
        n_ids, n_sampled = snap
        del self.ids[n_ids:]
        self.sampled = n_sampled
        self.eos = False

    def sample_line(self) -> tuple[str, bool]:
        """Sample until a newline token, end-of-sequence or the token
        budget; returns (text, line_completed).  Only the separator's
        token holds a newline, so the line is decoded once, at its end."""
        if self.eos:
            return "", False
        model, ids, rng, vocab = self.model, self.ids, self.rng, self.vocab
        temperature, budget = self.request.temperature, self.request.max_tokens
        tokens, eos_id = vocab.tokens, vocab.eos_id
        start, sampled, completed = len(ids), self.sampled, False
        while True:
            if sampled >= budget:
                self.truncated = True
                break
            t = ngram.sample_with_rng(model, ids, temperature, rng)
            sampled += 1
            if t == eos_id:
                self.eos = True
                break
            ids.append(t)
            if "\n" in tokens[t]:
                completed = True
                break
        self.sampled = sampled
        text = tokenizers.decode(vocab, ids[start:])
        return (text.split("\n", 1)[0] if completed else text), completed


def _meter_seed(request: GenerationRequest, verse_index: int) -> str:
    if (request.fmt is DataFormat.METER_VERSE
            and request.per_verse_meters is not None):
        return request.per_verse_meters[verse_index].value + " #"
    return ""


def generate_basic(model, vocab, request: GenerationRequest,
                   syllabifier=None) -> GeneratedStrophe:
    """Prompt with the header line, then decode until end-of-sequence,
    the token budget, or the scheme's verse count."""
    dec = _Decoder(model, vocab, request, syllabifier)
    header_line = request.header().render(request.fmt)
    partial = _meter_seed(request, 0)
    dec.feed(header_line + "\n" + partial)
    n_verses = len(request.scheme)
    lines = []
    while len(lines) < n_verses:
        text, completed = dec.sample_line()
        line = partial + text
        partial = ""
        if line or completed:
            lines.append(line)
        if not completed:
            break
    raw = "\n".join([header_line] + lines)
    return GeneratedStrophe.from_text(raw, request, dec.truncated, [False] * len(lines))


def generate_forced(model, vocab, request: GenerationRequest,
                    syllabifier=None) -> GeneratedStrophe:
    """Verse-by-verse decoding with rhyme-partner annotation forcing."""
    if request.fmt not in (DataFormat.VERSE_PAR, DataFormat.METER_VERSE):
        raise GenerationError(
            f"forced generation applies to verse_par/meter_verse, not {request.fmt.value}")
    dec = _Decoder(model, vocab, request, syllabifier)
    header_line = request.header().render(request.fmt)
    dec.feed(header_line + "\n")

    partner_ann: dict[str, LineAnnotation] = {}
    lines: list[str] = []
    forced_flags: list[bool] = []
    for vi, letter in enumerate(request.scheme):
        ann = partner_ann.get(letter) if letter != "X" else None
        forced = ann is not None
        # Prefix without the trailing space: the model resumes with its
        # own (space-leading) tokens, as in training data.
        prefix = ann.prefix(request.fmt).rstrip(" ") if forced else _meter_seed(request, vi)
        line = None
        for attempt in range(MAX_VERSE_RETRIES):
            snap = dec.snapshot()
            if attempt > 0:
                dec.rng = _BlockUniforms(np.random.default_rng([request.seed, vi, attempt]))
            if prefix:
                dec.feed(prefix)
            text, completed = dec.sample_line()
            candidate = prefix + text
            if not completed and dec.truncated:
                line = candidate
                break
            try:
                parsed_ann, _ = formats._parse_verse_line(candidate, request.fmt, vi + 2)
            except formats.FormatError:
                dec.rollback(snap)
                continue
            line = candidate
            if letter != "X" and not forced:
                partner_ann[letter] = parsed_ann
            break
        if line is None:
            # Retries exhausted on a malformed annotation: keep the last
            # attempt's shape visible by emitting the bare prefix.
            line = prefix
        lines.append(line)
        forced_flags.append(forced)
        if dec.truncated:
            break
        if vi < len(request.scheme) - 1 and dec.ids[-1] != vocab.sep_id:
            dec.feed("\n")
    raw = "\n".join([header_line] + lines)
    return GeneratedStrophe.from_text(raw, request, dec.truncated, forced_flags)
