"""Smoothed n-gram language model behind a pluggable next-token interface.

Any object with ``vocab_size`` and ``next_dist(context) -> ndarray`` can
drive the decoders; the in-repo implementation is an n-gram model with
interpolated absolute discounting.

Sampling draws from a table built once per row: the cumulative
distribution of the normalised (tempered) row, searched with one
``rng.random()``.  That is the algorithm of ``Generator.choice(len(q),
p=q)``, so every draw, and the generator state after it, equals what
``choice`` gives.  When tempering underflows the table is the argmax id
and the draw uses no randomness.  ``NGramModel`` keeps its tables, keyed
by trailing context and temperature, in a least-recently-used cache of
at most ``TABLE_CACHE_BYTES`` of table data (8 bytes per vocabulary
entry per table); other models get a table built per draw.

A row is built level by level, from the empty context up to the longest
known suffix of the context: each level with counts scales the row by
its backoff weight and adds its discounted counts in place.  The levels
of the last ``SHARED_SUFFIX_LEN`` tokens, short of the whole context,
depend only on those tokens, so every context that ends in them shares
one read-only partial row.  These rows live in the same cache
and byte budget as the tables, under ``(suffix, None)``; the row of the
empty context, which every context shares, is kept apart and never
evicted.  ``add_sequence`` drops both.  The arithmetic is that of a
fresh row per level, operation for operation, so rows are bit-identical
to it, and ``next_dist`` always returns a row the caller owns.
"""

from __future__ import annotations

import math
from collections import Counter, OrderedDict
from typing import Sequence

import numpy as np

from .tokenizers import TokenizerKind, Vocab

DEFAULT_DISCOUNT = 0.75

# Longer contexts for finer-grained tokenizations, to keep the effective
# character context roughly comparable.
DEFAULT_ORDER = {
    TokenizerKind.UNICODE: 8,
    TokenizerKind.SYLLABLE: 4,
    TokenizerKind.OUR: 3,
}

MODEL_MAGIC = "verseforge-ngram v1"
MODEL_HEADER = {"order": int, "discount": float, "vocab_size": int, "vocab_hash": str}

# Byte budget of an NGramModel's sampling tables and shared rows.
TABLE_CACHE_BYTES = 64 << 20

# Longest context suffix whose partial row next_dist shares between
# contexts.
SHARED_SUFFIX_LEN = 3


class NGramError(ValueError):
    pass


class NGramModel:
    """Interpolated absolute-discounting n-gram model over token ids."""

    def __init__(self, order: int, vocab_size: int, vocab_hash: str = "",
                 discount: float = DEFAULT_DISCOUNT):
        if order < 1:
            raise NGramError(f"order must be >= 1, got {order}")
        if not 0 < discount < 1:
            raise NGramError(f"discount must be in (0, 1), got {discount}")
        self.order = order
        self.vocab_size = vocab_size
        self.vocab_hash = vocab_hash
        self.discount = discount
        # context tuple (length < order) -> {token id: count}
        self.counts: dict[tuple[int, ...], dict[int, int]] = {}
        # (trailing context, temperature) -> sampling table, and
        # (short suffix, None) -> shared row; least recently used first
        self._tables: OrderedDict = OrderedDict()
        # the shared row of the empty context, held outside the cache
        self._base: np.ndarray | None = None

    def add_sequence(self, ids: Sequence[int]) -> None:
        self._add([ids])

    def _add(self, sequences) -> int:
        """Count ``sequences`` in; the number of sequences.

        Each distinct window of ``order`` tokens is counted once over all
        sequences, where a window at a sequence start is the shorter
        prefix; then its count goes to the bucket of every suffix of its
        context.  Popping the windows frees them while the buckets grow.
        """
        order = self.order
        windows = Counter()
        n = 0
        for seq in sequences:
            ids = tuple(seq)
            windows.update(ids[:k] for k in range(1, min(order - 1, len(ids)) + 1))
            windows.update(zip(*(ids[k:] for k in range(order))))
            n += 1
        counts = self.counts
        while windows:
            window, c = windows.popitem()
            token = window[-1]
            for k in range(len(window)):
                bucket = counts.setdefault(window[k:-1], {})
                bucket[token] = bucket.get(token, 0) + c
        self._tables.clear()
        self._base = None
        return n

    def _context(self, context: Sequence[int]) -> tuple[int, ...]:
        return tuple(context[-(self.order - 1):]) if self.order > 1 else ()

    def _level(self, p: np.ndarray, sub: tuple[int, ...]) -> np.ndarray:
        """``p`` blended with the discounted counts of context ``sub`` (``p``
        itself when ``sub`` has no bucket), as a new row."""
        bucket = self.counts.get(sub)
        if not bucket:
            return p
        if min(bucket) < 0 or max(bucket) >= self.vocab_size:
            raise NGramError(
                f"token id out of range [0, {self.vocab_size}) after context "
                f"{list(sub)}: {sorted(bucket)}")
        if min(bucket.values()) < 1:
            raise NGramError(f"count below 1 after context {list(sub)}")
        d = self.discount
        total = sum(bucket.values())
        p = (d * len(bucket) / total) * p
        for t, c in bucket.items():
            p[t] = (c - d if c > d else 0.0) / total + p[t]
        return p

    def _shared_row(self, suffix: tuple[int, ...]) -> np.ndarray:
        """Read-only row after the levels of ``suffix`` and of its shorter
        suffixes, memoized beside the tables."""
        if not suffix:
            if self._base is None:
                uniform = np.full(self.vocab_size, 1.0 / self.vocab_size)
                self._base = self._level(uniform, ())
                self._base.flags.writeable = False
            return self._base
        key = (suffix, None)
        tables = self._tables
        row = tables.get(key)
        if row is not None:
            tables.move_to_end(key)
            return row
        row = self._level(self._shared_row(suffix[1:]), suffix)
        row.flags.writeable = False
        self._remember(key, row)
        return row

    def next_dist(self, context: Sequence[int]) -> np.ndarray:
        """Distribution over the vocabulary given trailing context ids."""
        ctx = self._context(context)
        n = len(ctx)
        shared = min(SHARED_SUFFIX_LEN, max(n - 1, 0))
        p = self._shared_row(ctx[n - shared:])
        for k in range(shared + 1, n + 1):
            p = self._level(p, ctx[n - k:])
        return p if p.flags.writeable else p.copy()

    def _remember(self, key, value) -> None:
        tables = self._tables
        tables[key] = value
        while len(tables) * 8 * self.vocab_size > TABLE_CACHE_BYTES:
            tables.popitem(last=False)

    def table(self, context: Sequence[int], temperature: float):
        """``sampling_table`` of the row for the trailing context, cached."""
        key = (self._context(context), temperature)
        tables = self._tables
        table = tables.get(key)
        if table is not None:
            tables.move_to_end(key)
            return table
        table = sampling_table(self.next_dist(key[0]), temperature)
        self._remember(key, table)
        return table

    def logprob(self, ids: Sequence[int]) -> float:
        lp = 0.0
        for i, token in enumerate(ids):
            lp += math.log(self.next_dist(ids[max(0, i - self.order + 1):i])[token])
        return lp

    def perplexity(self, sequences) -> float:
        lp = n = 0
        for seq in sequences:
            lp += self.logprob(seq)
            n += len(seq)
        if n == 0:
            raise NGramError("no tokens to score")
        return math.exp(-lp / n)


def train(sequences, order: int, vocab: Vocab,
          discount: float = DEFAULT_DISCOUNT) -> NGramModel:
    """Exact n-gram counting over id sequences (append EOS beforehand)."""
    model = NGramModel(order, len(vocab), vocab.content_hash(), discount)
    if not model._add(sequences):
        raise NGramError("cannot train on an empty corpus")
    return model


def sampling_table(p: np.ndarray, temperature: float) -> np.ndarray | int:
    """What a draw from row ``p`` at ``temperature`` needs: the cumulative
    distribution that ``Generator.choice`` builds for the normalised
    (tempered) row, or the argmax id when tempering underflows."""
    if temperature != 1.0:
        with np.errstate(divide="ignore"):
            logits = np.log(p) / temperature
        logits -= logits.max()
        q = np.exp(logits)
        total = q.sum()
        if not np.isfinite(total) or total <= 0:
            return int(np.argmax(p))
        q /= total
    else:
        q = p / p.sum()
    if not (q >= 0).all():
        raise NGramError("next-token probabilities contain NaN or negative entries")
    cdf = q.cumsum()
    cdf /= cdf[-1]
    return cdf


def sample_with_rng(model, context, temperature: float, rng) -> int:
    if temperature <= 0:
        raise NGramError(f"temperature must be > 0, got {temperature}")
    if isinstance(model, NGramModel):
        table = model.table(context, temperature)
    else:
        table = sampling_table(model.next_dist(context), temperature)
    if type(table) is int:
        return table
    return int(table.searchsorted(rng.random(), side="right"))


def save(model: NGramModel, path) -> None:
    """Write the counts, one ``C`` line per context in tuple order.

    In that order a context's parent (one token shorter) is the last
    context of its length written before it, if it has a bucket; then
    the context's text is the parent's text and one more id.  The text
    of a one-event bucket is memoized.  Lines are written one by one,
    so the file is never held whole in memory.
    """
    with open(path, "w", encoding="utf-8") as f:
        f.write(MODEL_MAGIC + "\n")
        f.write(f"order\t{model.order}\n")
        f.write(f"discount\t{model.discount!r}\n")
        f.write(f"vocab_size\t{model.vocab_size}\n")
        f.write(f"vocab_hash\t{model.vocab_hash}\n")
        counts = model.counts
        last = {}  # context length -> (context, text) last written
        single = {}  # (token, count) -> event text
        for ctx in sorted(counts):
            parent, parent_s = last.get(len(ctx) - 1, (None, None))
            if parent and ctx[:-1] == parent:  # (5,) is "5", not "" + ",5"
                ctx_s = f"{parent_s},{ctx[-1]}"
            else:
                ctx_s = ",".join(map(str, ctx))
            last[len(ctx)] = ctx, ctx_s
            bucket = counts[ctx]
            if len(bucket) == 1:
                item, = bucket.items()
                ev = single.get(item)
                if ev is None:
                    ev = single[item] = f"{item[0]}:{item[1]}"
            else:
                ev = " ".join([f"{t}:{c}" for t, c in sorted(bucket.items())])
            f.write(f"C\t{ctx_s}\t{ev}\n")


def load(path, vocab: Vocab | None = None) -> NGramModel:
    """Load a count dump; refuses to pair with a mismatched vocabulary.

    A context whose text up to its last comma is the text of the last
    context parsed with a text that long extends that context's tuple by
    one id; in a file written by ``save`` this holds for every context
    whose parent has a bucket.  Each distinct event text is parsed once,
    and every context gets a bucket of its own.  The same lines are
    refused as when each line is parsed on its own.
    """
    with open(path, encoding="utf-8") as f:
        if f.readline().rstrip("\n") != MODEL_MAGIC:
            raise NGramError(f"{path}: not a verseforge n-gram model")
        header = {}
        counts = {}
        # text length -> (text, context) last parsed.  In tuple order the
        # contexts between a parent and its child extend the parent, so
        # their texts are longer and the parent's entry is still there.
        last = {}
        parsed = {}  # event text -> the bucket first parsed from it, unchanged
        for lineno, line in enumerate(f, 2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            try:
                if parts[0] == "C":
                    ctx_s = parts[1]
                    cut = ctx_s.rfind(",")
                    parent_s, parent = last.get(cut, (None, None))
                    # the empty context is nobody's parent: ",5" is refused
                    if cut > 0 and ctx_s[:cut] == parent_s:
                        ctx = parent + (int(ctx_s[cut + 1:]),)
                    else:
                        ctx = tuple([int(x) for x in ctx_s.split(",")]) if ctx_s else ()
                    last[len(ctx_s)] = ctx_s, ctx
                    ev_s = parts[2]
                    bucket = parsed.get(ev_s)
                    if bucket is None:
                        bucket = parsed[ev_s] = {}
                        for ev in ev_s.split(" "):
                            t, c = ev.split(":")
                            bucket[int(t)] = int(c)
                    else:
                        bucket = bucket.copy()
                    counts[ctx] = bucket
                else:
                    header[parts[0]] = MODEL_HEADER.get(parts[0], str)(parts[1])
            except (IndexError, ValueError):
                raise NGramError(f"{path}:{lineno}: malformed model line") from None
    missing = [key for key in MODEL_HEADER if key not in header]
    if missing:
        raise NGramError(f"{path}: header lacks {', '.join(missing)}")
    model = NGramModel(
        order=header["order"],
        vocab_size=header["vocab_size"],
        vocab_hash=header["vocab_hash"],
        discount=header["discount"],
    )
    if vocab is not None and vocab.content_hash() != model.vocab_hash:
        raise NGramError(
            f"{path}: model was trained against a different vocabulary "
            f"({model.vocab_hash} != {vocab.content_hash()})")
    if vocab is not None and len(vocab) != model.vocab_size:
        raise NGramError(
            f"{path}: vocab_size {model.vocab_size} does not match the "
            f"vocabulary's {len(vocab)} tokens")
    model.counts = counts
    return model
