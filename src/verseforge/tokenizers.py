"""Three tokenization schemes behind one vocabulary interface.

OUR       BPE trained on the poetry corpus itself
SYLLABLE  rule-based syllable tokens with a leading-space marker
UNICODE   one token per character

Annotation pieces (rhyme schemes, meter letters, numbers, ``#``) are
kept atomic when the vocabulary holds them, as every OUR and SYLLABLE
vocabulary built here does, so frequent annotations stay single tokens;
UNICODE always splits to characters.

A text is encoded in one pass, whatever its number of lines, and one
``map`` takes each of its tokens to its id.  A UNICODE text's tokens are
its characters.  An OUR or SYLLABLE text is split by one ``findall``
into space-attached pieces, each newline a piece of its own whose token
is the separator, and each piece's tokens are read from a piece memo, a
``phonology.BoundedMemo`` of piece -> tuple of tokens: the vocabulary's
``piece_tokens`` for OUR, and for SYLLABLE the syllabifier's, whose
overrides decide the split.  A piece is split once per memo, and a text
costs one dict lookup per piece and one per token.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import re
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from itertools import chain, repeat

from . import phonology
from .corpus import replacing

SEP_TOKEN = "\n"
EOS_TOKEN = "<eos>"
UNK_TOKEN = "<unk>"
UNK_GLYPH = "\ufffd"
# the special tokens, in the order of their ids in every vocabulary
SPECIALS = (SEP_TOKEN, EOS_TOKEN, UNK_TOKEN)

# the pieces of a text: space-attached words, lone spaces and newlines,
# a newline ending a piece as the end of a line does
_PIECE_RE = re.compile(r" ?[^ \n]+| |\n")
_WORD_RE = re.compile(r"^([\W\d_]*)([^\W\d_]+)([\W\d_]*)$", re.UNICODE)


class TokenizerKind(str, Enum):
    OUR = "our"
    SYLLABLE = "syllable"
    UNICODE = "unicode"

    @classmethod
    def parse(cls, s: str) -> "TokenizerKind":
        try:
            return cls(s.lower())
        except ValueError:
            raise TokenizerError(f"unknown tokenizer kind {s!r}; expected one of "
                                 f"{', '.join(k.value for k in cls)}") from None


class TokenizerError(ValueError):
    pass


def pieces(line: str) -> list[str]:
    """Space-attached word pieces of a single line (lossless)."""
    return _PIECE_RE.findall(line)


def is_annotation_piece(piece: str) -> bool:
    """Annotation vocabulary: '#', numbers, scheme/meter letter strings, NaN."""
    core = piece[1:] if piece.startswith(" ") else piece
    if not core:
        return False
    return (core == "#" or core == "NaN" or core.isdigit()
            or (core.isascii() and core.isupper() and core.isalpha()))


@dataclass(slots=True)
class Vocab:
    kind: TokenizerKind
    tokens: list[str]
    protected: set[str] = field(default_factory=set)
    id_of: dict[str, int] = field(default_factory=dict)
    # piece -> its BPE tokens, read for OUR only; not compared or shown,
    # as it only repeats what ``id_of`` gives
    piece_tokens: phonology.BoundedMemo = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not self.id_of:
            self.id_of = {t: i for i, t in enumerate(self.tokens)}
        if len(self.id_of) != len(self.tokens):
            raise TokenizerError("duplicate tokens in vocabulary")
        for special in SPECIALS:
            if special not in self.id_of:
                raise TokenizerError(f"special token {special!r} missing")
        self.piece_tokens = phonology.BoundedMemo(partial(_bpe_merged, vocab=self))

    def __len__(self):
        return len(self.tokens)

    @property
    def sep_id(self):
        return self.id_of[SEP_TOKEN]

    @property
    def eos_id(self):
        return self.id_of[EOS_TOKEN]

    @property
    def unk_id(self):
        return self.id_of[UNK_TOKEN]

    def content_hash(self) -> str:
        h = hashlib.sha256()
        h.update(self.kind.value.encode())
        for t in self.tokens:
            h.update(b"\x00" + t.encode("utf-8"))
        return h.hexdigest()[:16]


# vocab-file escapes: the letter after a backslash -> the character it
# stands for; any other escaped character stands for itself
_UNESCAPED = {"\\": "\\", "t": "\t", "n": "\n"}
_ESCAPED = str.maketrans({c: "\\" + e for e, c in _UNESCAPED.items()})


def _escape(token: str) -> str:
    return token.translate(_ESCAPED)


def _unescape(s: str) -> str:
    return re.sub(r"\\(.)", lambda m: _UNESCAPED.get(m[1], m[1]), s, flags=re.S)


def save_vocab(vocab: Vocab, path, config: dict | None = None) -> None:
    """One ``token<TAB>id`` per line, headed by kind/special/protected
    lines; then ``config``, when given, as a ``#! config`` line of JSON.
    The file is written under a temporary name and then replaces
    ``path`` (``corpus.replacing``)."""
    with replacing(path) as f:
        f.write("#! verseforge-vocab v1\n")
        f.write(f"#! kind\t{vocab.kind.value}\n")
        for name, tok in zip(("sep", "eos", "unk"), SPECIALS):
            f.write(f"#! special\t{name}\t{_escape(tok)}\n")
        for tok in sorted(vocab.protected):
            f.write(f"#! protected\t{_escape(tok)}\n")
        for i, tok in enumerate(vocab.tokens):
            f.write(f"{_escape(tok)}\t{i}\n")
        if config is not None:
            f.write(f"#! config\t{json.dumps(config)}\n")


def load_vocab(path) -> Vocab:
    """The vocabulary that ``save_vocab`` wrote to ``path``; an error
    names the ``path:line`` it is in, or the ``path`` when it is of the
    file as a whole."""
    kind = None
    protected = set()
    tokens = []
    id_of = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#!"):
                parts = line[2:].strip().split("\t")
                try:
                    if parts[0] == "kind":
                        kind = TokenizerKind.parse(parts[1])
                    elif parts[0] == "protected":
                        protected.add(_unescape(parts[1]))
                except IndexError:
                    raise TokenizerError(
                        f"{path}:{lineno}: '#! {parts[0]}' needs a value") from None
                except TokenizerError as e:
                    raise TokenizerError(f"{path}:{lineno}: {e}") from None
                continue
            try:
                tok, idx = line.rsplit("\t", 1)
                idx = int(idx)
            except ValueError:
                raise TokenizerError(f"{path}:{lineno}: expected token<TAB>id") from None
            if idx != len(tokens):
                raise TokenizerError(f"{path}:{lineno}: ids must be dense, got {idx}")
            tok = _unescape(tok)
            if id_of.setdefault(tok, idx) != idx:
                raise TokenizerError(f"{path}:{lineno}: duplicate token {tok!r}")
            tokens.append(tok)
    if kind is None:
        raise TokenizerError(f"{path}: missing '#! kind' header")
    try:
        return Vocab(kind, tokens, protected, id_of)
    except TokenizerError as e:
        raise TokenizerError(f"{path}: {e}") from None


# ---------------------------------------------------------------------------
# piece-level tokenization

def _syllable_memo(syllabifier) -> phonology.BoundedMemo:
    """The piece memo of ``syllabifier`` (the module's own syllabifier's
    for None), made at its first use.  Its overrides are read-only, so
    no entry goes stale."""
    syllabifier = syllabifier or phonology._DEFAULT
    if syllabifier.piece_tokens is None:
        syllabifier.piece_tokens = phonology.BoundedMemo(
            partial(_syllable_split, syllabifier=syllabifier))
    return syllabifier.piece_tokens


def _syllable_split(piece: str, syllabifier) -> tuple[str, ...]:
    if is_annotation_piece(piece):
        return (piece,)
    space = " " if piece.startswith(" ") else ""
    core = piece[len(space):]
    m = _WORD_RE.match(core)
    if m is None:
        return (piece,)
    pre, letters, post = m.groups()
    word = syllabifier._tokens[letters]  # None when it has no syllable
    if word is None:
        return (piece,)
    sylls = list(word[0])
    sylls[0] = space + pre + sylls[0]
    sylls[-1] = sylls[-1] + post
    return tuple(sylls)


def _bpe_merged(piece: str, vocab: Vocab) -> tuple[str, ...]:
    if is_annotation_piece(piece) and piece in vocab.id_of:
        return (piece,)
    symbols = list(piece)
    while len(symbols) > 1:
        best_id, best_at = None, None
        for i in range(len(symbols) - 1):
            merged = symbols[i] + symbols[i + 1]
            mid = vocab.id_of.get(merged)
            if mid is not None and (best_id is None or mid < best_id):
                best_id, best_at = mid, i
        if best_id is None:
            break
        symbols = _merge_pair(symbols, (symbols[best_at], symbols[best_at + 1]))
    return tuple(symbols)


def _merge_pair(symbols, pair: tuple[str, str]) -> list[str]:
    """``symbols`` with every occurrence of ``pair`` merged, leftmost first."""
    out, i = [], 0
    while i < len(symbols):
        if i + 1 < len(symbols) and (symbols[i], symbols[i + 1]) == pair:
            out.append(symbols[i] + symbols[i + 1])
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return out


def _tokens(vocab: Vocab, text: str, syllabifier):
    """The tokens of ``text``: its characters for UNICODE, else each
    piece's tokens, read from the piece memo of the kind, the
    vocabulary's for OUR and the syllabifier's for SYLLABLE; a newline's
    piece is the separator token."""
    if vocab.kind is TokenizerKind.UNICODE:
        return text
    memo = vocab.piece_tokens if vocab.kind is TokenizerKind.OUR else _syllable_memo(syllabifier)
    return chain.from_iterable(map(memo.__getitem__, _PIECE_RE.findall(text)))


def line_tokens(vocab: Vocab, line: str, syllabifier=None) -> list[str]:
    """The tokens of ``line``, read as ``encode`` reads a text."""
    return list(_tokens(vocab, line, syllabifier))


def encode(vocab: Vocab, text: str, syllabifier=None) -> list[int]:
    """Token ids; lines are joined by the separator id, a newline's.
    Tokens missing from the vocabulary become the unknown id (never an
    exception).  The whole text is read in one pass: its tokens, of every
    line at once, go to ids in one ``map``."""
    return list(map(vocab.id_of.get, _tokens(vocab, text, syllabifier), repeat(vocab.unk_id)))


def decode(vocab: Vocab, ids) -> str:
    tokens, eos_id, unk_id = vocab.tokens, vocab.eos_id, vocab.unk_id
    out = []
    for i in ids:
        if i == eos_id:
            continue
        if i == unk_id:
            out.append(UNK_GLYPH)
        else:
            out.append(tokens[i])
    return "".join(out)


# ---------------------------------------------------------------------------
# vocabulary construction

def _collect_protected(text: str) -> tuple[set[str], Counter]:
    """Annotation pieces, and the count of every other piece but the
    newline's, in ``text``, texts joined by newlines: the pieces of all
    its lines are counted in one pass, and each distinct piece is
    classified once."""
    piece_freq = Counter(_PIECE_RE.findall(text))
    protected = set(filter(is_annotation_piece, piece_freq))
    for piece in (*protected, SEP_TOKEN):
        piece_freq.pop(piece, None)
    return protected, piece_freq


def train_bpe(texts, vocab_size: int) -> Vocab:
    """Standard BPE merge training over space-attached word pieces.

    Merges the most frequent adjacent pair until the vocabulary budget is
    reached or no pair is left; ties break on the lexicographically
    smaller pair, so the merge list is deterministic.  Pair counts are
    kept across merges: a merge recounts only the pieces that held the
    merged pair, and the next pair comes from a heap of ``(-count,
    pair)`` whose stale entries are skipped.

    The texts are joined by newlines once: one ``findall`` over the
    joined text counts the pieces of all their lines, and one ``set`` of
    it gives the alphabet.
    """
    text = "\n".join(texts)
    protected, piece_freq = _collect_protected(text)
    alphabet = sorted(set(text) - {"\n"} - protected)
    if not alphabet and not protected:
        raise TokenizerError("cannot train BPE on an empty corpus")
    base = [*SPECIALS, *sorted(protected), *alphabet]
    if vocab_size < len(base):
        raise TokenizerError(
            f"vocab_size {vocab_size} below alphabet+specials ({len(base)})")
    words = [list(piece) for piece in piece_freq]
    freqs = list(piece_freq.values())
    pair_counts = Counter()
    # pair -> indices of the words that hold it, or held it before a merge
    holders = defaultdict(set)
    for i, symbols in enumerate(words):
        for pair in zip(symbols, symbols[1:]):
            pair_counts[pair] += freqs[i]
            holders[pair].add(i)
    heap = [(-c, pair) for pair, c in pair_counts.items()]
    heapq.heapify(heap)
    tokens = list(base)
    known = set(tokens)
    while len(tokens) < vocab_size:
        while heap and pair_counts.get(heap[0][1]) != -heap[0][0]:
            heapq.heappop(heap)
        if not heap:
            break
        pair = heapq.heappop(heap)[1]
        merged = pair[0] + pair[1]
        if merged not in known:
            tokens.append(merged)
            known.add(merged)
        delta = Counter()
        for i in holders.pop(pair):
            old = words[i]
            new = _merge_pair(old, pair)
            if len(new) == len(old):
                continue
            freq = freqs[i]
            for p in zip(old, old[1:]):
                delta[p] -= freq
            for p in zip(new, new[1:]):
                delta[p] += freq
                holders[p].add(i)
            words[i] = new
        for p, d in delta.items():
            if not d:
                continue
            pair_counts[p] += d
            if pair_counts[p]:
                heapq.heappush(heap, (-pair_counts[p], p))
            else:
                del pair_counts[p]
    return Vocab(TokenizerKind.OUR, tokens, protected)


def build_vocab(kind: TokenizerKind, texts, vocab_size: int = 40000,
                syllabifier=None) -> Vocab:
    """A ``kind`` vocabulary over ``texts``, single lines or whole strophes."""
    if kind is TokenizerKind.UNICODE:
        return Vocab(kind, [*SPECIALS, *sorted(set("\n".join(texts)) - {SEP_TOKEN})])
    if kind is TokenizerKind.SYLLABLE:
        protected, piece_freq = _collect_protected("\n".join(texts))
        seen = set(chain.from_iterable(map(_syllable_memo(syllabifier).__getitem__, piece_freq)))
        tokens = [*SPECIALS, *sorted(protected), *sorted(seen - protected)]
        return Vocab(kind, tokens, protected)
    return train_bpe(texts, vocab_size)
