"""verseforge: Czech poetic strophe generation and formal evaluation."""

from .corpus import (
    CorpusFormatError,
    CorpusStats,
    MeterLabel,
    Strophe,
    Verse,
    YearBucket,
    bucketize_year,
    derive_rhyme_scheme,
    ingest,
    split,
    stats,
)
from .formats import DataFormat, FormatError, LineAnnotation, StropheHeader, consistency_check, parse
from .generation import GeneratedStrophe, GenerationError, GenerationRequest, generate_basic, generate_forced
from .ngram import NGramError, NGramModel
from .phonology import (
    PhonologyError,
    Syllabifier,
    VerseAnalysis,
    analyze,
    ending_hint,
    stress_pattern,
    syllabify,
    verse_syllables,
)
from .tokenizers import TokenizerError, TokenizerKind, Vocab, build_vocab, chars_per_token, decode, encode, train_bpe
from .validation import MetricsReport, classify_meter, evaluate, permutation_test, predict_scheme, rhymes

__version__ = "0.1.0"
