"""Smoothed n-gram language model behind a pluggable next-token interface.

Any object with ``vocab_size`` and ``next_dist(context) -> ndarray`` can
drive the decoders; the in-repo implementation is an n-gram model with
interpolated absolute discounting.

The counts are held in flat arrays, the reverse-trie layout of KenLM's
``trie`` store (Heafield 2011, "KenLM: Faster and Smaller Language Model
Queries").  Each node is a context in a trie of reversed contexts: the
children of the node of ``ctx`` are the nodes of ``(t,) + ctx``.  Nodes
are numbered breadth first, each node's children contiguous and sorted
by ``t``, so one backoff level of a lookup is one ``bisect`` over an
``array`` of child tokens.  A node holds a bucket id, or -1 when its
context has no counts; a bucket holds an offset into the event arrays
(token ids sorted ascending, with their counts) and its total.  The node
set holds every substring of every context with counts, so contexts
missing from a hand-built model get event-free nodes.  One numbering
serves every store (``_Keys``): each item is keyed by its reversed
context, one digit per id packed into int64 words, and one sort of the
keys gives the nodes of every depth as the runs of items that share a
prefix, the prefix sort behind suffix arrays (Manber & Myers 1993,
"Suffix arrays: a new method for on-line string searches").  ``train``
keys each position of the token arrays by its id and the ids before it,
and reads the events off the same runs; ``load`` and
``NGramModel.from_counts`` key the records of ``_Records.add_context``,
one per file line or dict key when the contexts come in tuple order,
each extending the record of its prefix.  ``train`` and
``load`` share one bucket between the nodes of equal events.  The same
keys give tuple order, in which ``save`` writes and ``counts`` iterates:
each node is keyed by its context, read up its trie parents, and the
keys sort as the tuples do.
``save`` renders the text from the arrays, a block of lines at a time:
each node's context text is its token's digits, a comma and its trie
parent's text, built as one row per node, depth by depth.  It also
writes the arrays beside the text file, as an image that ``load`` reads
in place of the text when it belongs to it (see ``save``).
``NGramModel.counts`` is a ``Mapping`` view of the counts in tuple
order; each lookup returns a new mapping, whose one write,
``bucket[token] = count``, appends one bucket to the model's store, as
``load`` and ``from_counts`` add theirs, and points the context's node at
it.  A store holds no context of ``order`` or more ids.

Sampling draws from a table built once per row: the cumulative
distribution of the normalised (tempered) row as an ``array('d')``,
searched with one ``rng.random()`` and one ``bisect_right``, which finds
the index of ``searchsorted(side="right")``.  That is the algorithm of
``Generator.choice(len(q), p=q)``, so every draw, and the state of a
``Generator`` after it, equals what ``choice`` gives.  ``sample_with_rng``
takes any object with ``random()``; the decoders pass one that hands out
a ``Generator``'s doubles drawn 64 at a time, the same sequence of
doubles, with the generator itself up to 63 ahead.  When tempering
underflows the table is the argmax id and the draw uses no randomness.
``NGramModel`` keeps its tables, keyed by trailing context and
temperature, in a least-recently-used cache of at most
``TABLE_CACHE_BYTES`` of table data (8 bytes per vocabulary entry per
table), which ``sample_with_rng`` reads and fills with one lookup per
draw; other models get a table built per draw.

A row is built level by level, from the uniform row at the root down to
the deepest node on the context's path: each level with counts scales
the row by its bucket's backoff weight d * n / total, over its n events,
and adds to each of its events' entries the event's discounted share
(c - d) / total.  These are fixed once the counts are, so a model
prepares them once (``_Prepared``), with numpy over views of the event
arrays, at its first row or ``prob``: per bucket the weight and a flag
for an id outside [0, V) or a count below 1, per event the share.  A
count write-back extends them by its one bucket.  A level reads them
with the operations, in the order, that computed them per call, so rows
do not change by a bit, and a flagged bucket raises the same
``NGramError`` each time a row uses it.  The levels of the last
``SHARED_SUFFIX_LEN`` tokens, short of the whole context, depend only on
those tokens, so every context that ends in them shares one read-only
partial row.  These rows, the empty context's among them, live in the
same cache and byte budget as the tables, under ``(node, None)``, and a
write-back drops them with the tables.  The first level past a shared
row scales it into a new row, and each later level updates that row in
place.  The arithmetic is that of a fresh row per level, operation for
operation, so rows are bit-identical to it, and ``next_dist`` always
returns a row the caller owns.

``NGramModel.prob(context, token)`` is one entry of that row, bit for
bit, with no row built: it walks the same path and applies each level's
weight and, when a ``bisect`` finds the token in the level's bucket, its
share, to the one entry.  ``logprob`` and ``perplexity`` sum it, so a
token costs O(order * log bucket) in place of O(order * V).
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import sys
from array import array
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from collections.abc import ItemsView, Mapping
from typing import Sequence

import numpy as np

from .corpus import replacing
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

IMAGE_MAGIC = b"verseforge-ngram-image v1\n"
# The trie arrays that an image holds, in its order, as little-endian
# 64-bit values: integers, and floats for ``total``.
IMAGE_ARRAYS = ("kids", "tok", "bucket", "ev_off", "total", "ev_id", "ev_count")
# The fields of an image's JSON header, each with its exact type.
_IMAGE_HEADER = {**MODEL_HEADER, "starts": list, "lengths": list, "sha256": str}

# Byte budget of an NGramModel's sampling tables and shared rows.
TABLE_CACHE_BYTES = 64 << 20

# Bytes of the matrix of context rows from which ``save`` renders one
# block of lines.
SAVE_BLOCK_BYTES = 1 << 16

# Longest context suffix whose partial row next_dist shares between
# contexts.
SHARED_SUFFIX_LEN = 3


log = logging.getLogger(__name__)


class NGramError(ValueError):
    pass


def _ints(a) -> array:
    out = array("q")
    out.frombytes(memoryview(np.ascontiguousarray(a, np.int64)).cast("B"))
    return out


class _Keys:
    """Items keyed by their reversed contexts, one digit per id in base
    (distinct ``ids`` + 1): the id's rank among the distinct ``ids`` + 1,
    or 0 past the start of the item's context.  ``shift`` and ``walk`` write
    every item's digits, packed, most significant first, into as many int64
    words as they need.  The one place that ranks ids and writes keys:
    ``train`` shifts its positions, ``_Records.trie`` walks its records
    and ``_Trie.tuple_order`` its nodes, whose key order is tuple order."""

    def __init__(self, ids: np.ndarray):
        self.n = len(ids)
        # A search of each id among the distinct ids ranks it without the
        # argsort of every item that return_inverse costs.  return_counts
        # keeps np.unique on its sorting path: its hash path is slower on
        # a few distinct ids and imports numpy.ma, about 1.4 MB of RSS.
        self.values = np.unique(ids, return_counts=True)[0]
        self.ranks = np.searchsorted(self.values, ids).astype(np.int32)  # item -> its id's rank
        self.base = max(len(self.values), 1) + 1
        self.per_word = 1  # digits of a full word: its keys stay below 2**63
        while self.base ** (self.per_word + 1) <= 1 << 63:
            self.per_word += 1
        self.words, self.digits = [], 0

    def _push(self, digit: np.ndarray) -> None:
        if self.digits % self.per_word == 0:
            self.words.append(np.zeros(self.n, np.int64))
        word = self.words[-1]
        word *= self.base
        word += digit
        self.digits += 1

    def shift(self, firsts: np.ndarray, steps: int) -> None:
        """Write ``steps`` digits of items that are positions of sequences
        laid end to end, starting at ``firsts``: each position's own id,
        then the ids before it in its sequence."""
        digit = self.ranks + 1
        for k in range(steps):
            if k:
                digit[1:] = digit[:-1]
                digit[firsts] = 0
            self._push(digit)

    def walk(self, parent: np.ndarray) -> np.ndarray:
        """Write the digits of items whose contexts are chains: each item's
        own id, then its ``parent`` item's, and so on up to an item whose
        parent is -1.  Return each chain's length."""
        # item -> its digit and its parent; the entry after the last is
        # the cursor's past the chain's end
        digits = np.append(self.ranks + 1, np.int32(0))
        up = np.append(parent, -1).astype(np.int32)
        length = np.zeros(self.n, np.int32)
        cursor = np.arange(self.n, dtype=np.int32)
        while (walking := cursor >= 0).any():
            self._push(digits[cursor])
            length += walking
            cursor = up[cursor]
        return length

    def sort(self) -> np.ndarray:
        """The items in key order, as ``perm``: sorted by each word from the
        least significant, as ``lexsort`` sorts, each pass after the first
        stable.  In key order a context comes before its extensions, as 0
        is below every id's digit."""
        words = self.words[::-1]
        perm = np.argsort(words[0]) if words else np.arange(self.n)
        for word in words[1:]:
            perm = perm[np.argsort(word[perm], kind="stable")]
        self.perm = perm.astype(np.int32)
        return self.perm

    def number(self, reach: np.ndarray, visit):
        """Number the trie of the items' reversed contexts; return its
        ``starts``, ``kids`` and ``tok``.  Call after ``sort``.

        In key order, the items that share a prefix of L digits form a run,
        and the runs of each length L are in the order of their prefixes:
        breadth first, each run of L digits a child of the run of its first
        L - 1, the children of a run sorted by token.  A run of L nonzero
        digits is a node of depth L when one of its items has ``reach``, in
        key order, of at least L.  For L = 1 .. ``digits``, calls
        ``visit(L, heads, digit, above, node)``: ``heads`` are the places in
        key order where a run of L digits begins, ``digit`` is the L-th
        digit of each of those runs (0 past the start), and ``above`` and
        ``node`` hold each place's node of depth L - 1 and L, where its run
        is one.  ``words`` are consumed."""
        base, n, perm = self.base, self.n, self.perm
        new = np.zeros(n, bool)  # a run of the current length begins here
        new[:1] = True
        # buffers reused at every depth
        prefix, same = np.empty(n, np.int64), np.empty(max(n - 1, 0), bool)
        deep, head = np.empty(n, bool), np.empty(n, bool)
        above, node = np.empty(n, np.int32), np.zeros(n, np.int32)  # depth 0: the root
        starts, parents, toks = [0, 1], [], []
        for k in range(len(self.words)):
            word, self.words[k] = self.words[k][perm], None
            size = min(self.per_word, self.digits - k * self.per_word)
            for e in range(size - 1, -1, -1):
                depth = k * self.per_word + size - e
                np.floor_divide(word, base ** e, out=prefix)
                new[1:] |= np.not_equal(prefix[1:], prefix[:-1], out=same)
                heads = np.flatnonzero(new)
                digit = prefix[heads] % base
                np.greater_equal(reach, depth, out=deep)
                is_node = np.logical_or.reduceat(deep, heads) & (digit > 0)
                head.fill(False)
                head[heads[is_node]] = True
                above, node = node, above
                np.cumsum(head, dtype=np.int32, out=node)
                node += np.int32(starts[-1] - 1)
                parents.append(above[heads[is_node]])
                toks.append((digit[is_node] - 1).astype(np.int32))
                if is_node.any():
                    starts.append(starts[-1] + int(np.count_nonzero(is_node)))
                visit(depth, heads, digit, above, node)
        word = prefix = new = same = deep = head = above = node = None
        parents = np.concatenate([np.zeros(0, np.int32)] + parents)
        kids = 1 + np.searchsorted(parents, np.arange(starts[-1] + 1))
        tok = self.values[np.concatenate([np.zeros(0, np.int32)] + toks)]
        return starts, _ints(kids), _ints(np.concatenate([np.zeros(1, np.int64), tok]))


class _Buckets:
    """Buckets laid end to end: ``ev_off``, ``total``, ``ev_id`` and
    ``ev_count``, as ``_Trie`` describes them, of which ``add_bucket`` is
    the one writer."""

    def add_bucket(self, bucket: dict[int, int]) -> int:
        """The id of a new bucket of ``bucket``'s events.  ``OverflowError``
        when an id or count does not fit in 64 bits, with the arrays as
        they were."""
        ids = array("q", sorted(bucket))
        counts = array("q", [bucket[t] for t in ids])
        self.ev_id.extend(ids)
        self.ev_count.extend(counts)
        self.ev_off.append(len(self.ev_id))
        self.total.append(float(sum(counts)))
        return len(self.total) - 1


class _Trie(_Buckets):
    """The counts as arrays; see the module docstring."""

    def __init__(self, kids, tok, bucket, starts, ev_off, total, ev_id, ev_count):
        self.kids = kids  # node -> its first child; kids[node + 1] ends the run
        self.tok = tok  # node -> first id of its context (the root's is unused)
        self.bucket = bucket  # node -> bucket id, or -1
        self.starts = starts  # depth -> its first node, then the node count
        self.ev_off = ev_off  # bucket -> its first event; ev_off[b + 1] ends it
        self.total = total  # bucket -> sum of its counts, as a float
        self.ev_id = ev_id
        self.ev_count = ev_count

    @classmethod
    def from_sequences(cls, sequences, order: int) -> tuple[_Trie, int]:
        """The counts of every position of ``sequences`` after each of its
        contexts up to ``order - 1`` ids; also the number of sequences.
        Each position is an item of ``_Keys`` whose digits are its own id
        and then the ``order - 1`` ids before it.  Its prefix of L digits is
        the reversed context of L ids of the position after it, so the
        position is a node's item up to depth ``order - 1`` unless it ends
        its sequence.  The runs of L digits are the events of the contexts
        of L - 1 ids: the count is the run's length and the owner the node
        of depth L - 1 of the position before the run's.  No position has
        more ids than its sequence, so no more digits are written than the
        longest sequence holds."""
        ids, lengths = array("q"), []
        for seq in sequences:
            ids.extend(seq)
            lengths.append(len(seq))
        ids = np.frombuffer(ids, np.int64)
        n = len(ids)
        sequence_count = len(lengths)
        lengths = np.array([k for k in lengths if k], np.int64)  # of the sequences with ids
        ends = np.cumsum(lengths)  # one past each sequence's last position
        firsts = ends - lengths
        keys = _Keys(ids)
        ids = None
        keys.shift(firsts, min(order, int(lengths.max(initial=1))))  # one digit when empty
        values, ranks = keys.values, keys.ranks
        # position -> its ids so far, up to order - 1, or 0 at a sequence's
        # end: the depths of the nodes it is an item of
        reach = np.arange(1, n + 1, dtype=np.int32)
        reach -= np.repeat(firsts.astype(np.int32), lengths)
        np.minimum(reach, order - 1, out=reach)
        reach[ends - 1] = 0
        perm = keys.sort()
        inv = np.empty(n, np.int32)  # position -> its place in key order
        inv[perm] = np.arange(n, dtype=np.int32)
        ev_node, ev_rank, ev_count = [], [], []

        def count(depth, heads, digit, above, node):
            full = digit > 0
            item = perm[heads[full]]
            # at depth 1 every node above is the root, whatever item - 1 is
            ev_node.append(above[inv[item - 1]])
            ev_rank.append(ranks[item])
            ev_count.append(np.diff(heads, append=n)[full])

        starts, kids, tok = keys.number(reach[perm], count)
        keys = reach = perm = inv = ranks = None
        ev_node, ev_rank, ev_count = (np.concatenate(a) for a in (ev_node, ev_rank, ev_count))
        by_node = np.argsort(ev_node * np.int64(len(values)) + ev_rank)  # then by token
        ev_node, ev_count = ev_node[by_node], ev_count[by_node]
        ev_rank = ev_rank[by_node].astype(np.int64)
        nodes = starts[-1]
        ev_off = np.searchsorted(ev_node, np.arange(nodes + 1))
        bucket, reps = cls._share(ev_off, ev_rank, ev_count, n + 1)
        size = np.diff(ev_off)[reps]
        b_off = np.concatenate([np.zeros(1, np.int64), np.cumsum(size)])
        at = np.repeat(ev_off[reps] - b_off[:-1], size) + np.arange(b_off[-1])
        total = np.bincount(ev_node, weights=ev_count, minlength=nodes)[reps]
        trie = cls(kids, tok, _ints(bucket), starts, _ints(b_off),
                   array("d", total.tobytes()), _ints(values[ev_rank[at]]),
                   _ints(ev_count[at]))
        return trie, sequence_count

    @staticmethod
    def _share(ev_off, ev_rank, ev_count, bound: int):
        """One bucket per distinct event list, as ``load`` shares them: each
        node's bucket id (-1 when it has no events) and the first node of
        each bucket.  A one-event node is keyed by (rank, count), where
        both are below ``bound``; any other by the bytes of its events."""
        size = np.diff(ev_off)
        one, many = np.flatnonzero(size == 1), np.flatnonzero(size > 1)
        key = ev_rank[ev_off[one]] * bound + ev_count[ev_off[one]]
        _, first, bucket_one = np.unique(key, return_index=True, return_inverse=True)
        in_many = np.repeat(size > 1, size)
        raw = np.stack([ev_rank[in_many], ev_count[in_many]], 1).tobytes()
        m_off = (16 * np.cumsum(size[many])).tolist()
        shared = {}  # event bytes -> bucket id among the many-event buckets
        bucket_many = np.array([shared.setdefault(raw[o:e], len(shared))
                                for o, e in zip([0] + m_off, m_off)], np.int64)
        bucket = np.full(len(size), -1, np.int64)
        bucket[one] = bucket_one
        bucket[many] = len(first) + bucket_many
        first_many = np.unique(bucket_many, return_index=True)[1]
        return bucket, np.concatenate([one[first], many[first_many]])

    def walk(self, ctx) -> list[int]:
        """Nodes of ``ctx[len(ctx) - k:]`` for k = 0, 1, ... while they exist."""
        kids, tok = self.kids, self.tok
        node, path = 0, [0]
        for t in reversed(ctx):
            lo, hi = kids[node], kids[node + 1]
            node = bisect_left(tok, t, lo, hi)
            if node == hi or tok[node] != t:
                break
            path.append(node)
        return path

    def events(self, b: int) -> dict[int, int]:
        o, e = self.ev_off[b], self.ev_off[b + 1]
        return dict(zip(self.ev_id[o:e], self.ev_count[o:e]))

    def contexts_per_length(self) -> list[int]:
        has = np.frombuffer(self.bucket, np.int64) >= 0
        starts = self.starts
        return [int(np.count_nonzero(has[starts[d]:starts[d + 1]]))
                for d in range(len(starts) - 1)]

    def parents(self) -> np.ndarray:
        """The trie parent of each of nodes 1 .. n - 1."""
        kids = np.frombuffer(self.kids, np.int64)
        return np.repeat(np.arange(len(self.tok), dtype=np.int32), np.diff(kids))

    def tuple_order(self) -> np.ndarray:
        """Every node, in tuple order of its context.  Nodes 1 .. n - 1 are
        the items of ``_Keys``: a node's token is its context's first id and
        its trie parent holds the rest, so walking up the parents writes
        the context one digit per id, and the keys' order is tuple order,
        each context before its extensions."""
        keys = _Keys(np.frombuffer(self.tok, np.int64)[1:])
        keys.walk(self.parents() - 1)  # the root is no item
        return np.concatenate([[0], keys.sort() + 1])

    def contexts(self):
        """``(context, node)`` of every context with counts, in tuple
        order.  As the node set holds every prefix of a context, each
        context's prefix one id shorter is the last context of its depth
        before it, and its last id is the token of its ancestor of depth
        1."""
        order, starts = self.tuple_order(), self.starts
        last, parent = np.array(self.tok), self.parents()
        for d in range(2, len(starts) - 1):
            last[starts[d]:starts[d + 1]] = last[parent[starts[d] - 1:starts[d + 1] - 1]]
        last, parent = last[order], None
        depth = np.searchsorted(starts, order, "right") - 1
        nodes = zip(_ints(order), _ints(depth), _ints(last))
        order = depth = last = None  # not held while the caller iterates
        bucket = self.bucket
        ctxs = [()] * len(starts)
        for node, d, t in nodes:
            ctx = ctxs[d] = ctxs[d - 1] + (t,) if d else ()
            if bucket[node] >= 0:
                yield ctx, node


class _Prepared:
    """What a row reads of each bucket of ``trie``, fixed once its counts
    are, for a model's vocabulary size V and discount d: per bucket,
    ``weight``, the backoff weight d * n / total of its n events, and
    ``bad``, 1 when an id falls outside [0, V), else 2 when a count is
    below 1, else 0; per event, ``share``, its discounted share
    (c - d) / total.  Each value comes from the operations, in the order,
    that a level ran for it on every call, so rows are unchanged bit for
    bit."""

    def __init__(self, trie: _Trie, vocab_size: int, discount: float):
        self.trie, self.vocab_size, self.discount = trie, vocab_size, discount
        self.weight, self.share, self.bad = array("d"), array("d"), bytearray()
        self.extend()

    def extend(self) -> None:
        """Prepare the buckets added to the store since the last call.  The
        event arrays are read through views, and each value is written
        into its array's own buffer; a bad bucket's values are computed,
        without a warning, and never read."""
        trie, first = self.trie, len(self.weight)
        off = np.frombuffer(trie.ev_off, np.int64)[first:]
        if len(off) < 2:
            return
        ids = np.frombuffer(trie.ev_id, np.int64)
        counts = np.frombuffer(trie.ev_count, np.int64)[off[0]:]
        size = np.diff(off)
        total = np.frombuffer(trie.total, np.float64)[first:]
        d = self.discount
        bad = 2 * (np.minimum.reduceat(counts, off[:-1] - off[0]) < 1)
        bad[(ids[off[:-1]] < 0) | (ids[off[1:] - 1] >= self.vocab_size)] = 1
        self.bad += memoryview(bad.astype(np.uint8))
        self.weight.frombytes(bytes(8 * len(size)))
        self.share.frombytes(bytes(8 * len(counts)))
        weight = np.frombuffer(self.weight, np.float64)[first:]
        share = np.frombuffer(self.share, np.float64)[off[0]:]
        with np.errstate(all="ignore"):
            np.multiply(d, size, out=weight)
            weight /= total
            np.subtract(counts, d, out=share)
            share /= np.repeat(total, size)

    def error(self, b: int, ctx: tuple[int, ...], k: int) -> NGramError:
        """Why bad bucket ``b``, of ``ctx[len(ctx) - k:]``, has no row."""
        trie, sub = self.trie, list(ctx[len(ctx) - k:])
        if self.bad[b] == 1:
            o, e = trie.ev_off[b], trie.ev_off[b + 1]
            return NGramError(f"token id out of range [0, {self.vocab_size}) after "
                              f"context {sub}: {list(trie.ev_id[o:e])}")
        return NGramError(f"count below 1 after context {sub}")


class _Records(_Buckets):
    """Contexts and buckets in the order they are added: each context but
    the empty one a record that extends an earlier record (its context
    without the last id, or none) by one id; each bucket its events
    sorted by id.  The empty context is the root's, which takes the
    bucket given it last."""

    def __init__(self):
        self.parent = array("q")
        self.last = array("q")
        self.bucket = array("q")
        self.root = -1
        self.ev_off = array("q", [0])
        self.total = array("d")
        self.ev_id = array("q")
        self.ev_count = array("q")
        # text length -> (text, record) of the last context added with a
        # text that long.  In tuple order the contexts between a context
        # and its extension by one id extend the context too, so their
        # texts are longer and its entry is still there.
        self.latest = {}

    def add_context(self, text: str, bucket: int) -> None:
        """Record the context whose ids joined by commas are ``text``, with
        ``bucket``.  When its text up to the last comma is the text of the
        last context added with a text that long, the record extends that
        context's record by one id; in tuple order this holds for every
        context whose prefix one id shorter was added.  Any other context
        is parsed in full and recorded with its prefixes, which get no
        bucket.  ``ValueError`` when an id is no integer, ``OverflowError``
        when it does not fit in 64 bits."""
        if not text:
            self.root = bucket
            return
        cut = text.rfind(",")
        # no text starts with a newline, and none of length 0 is added, so
        # ",5" is parsed in full, and refused
        prefix, parent = self.latest.get(cut, ("\n", -1))
        if text.startswith(prefix):
            self.last.append(int(text[cut + 1:]))
            self.parent.append(parent)
        else:
            ctx = [int(x) for x in text.split(",")]
            n = len(self.last)
            self.last.extend(ctx)
            self.parent.append(-1)
            self.parent.extend(range(n, n + len(ctx) - 1))
            self.bucket.extend([-1] * (len(ctx) - 1))
        self.bucket.append(bucket)
        self.latest[len(text)] = text, len(self.last) - 1

    def trie(self) -> _Trie:
        """The trie of every substring of the records' contexts.  Each
        record is an item of ``_Keys`` that walks up its prefixes, so its
        k-th digit is the last id of the record k - 1 steps up.  As the
        prefixes of a record are records, the nodes hold every suffix of
        every prefix.  Records that share a context share its node; of
        those with a bucket, the last one added gives the node its bucket.
        ``_Trie.tuple_order`` keys the nodes by the same walk, from each
        node up its parents, for the order that ``save`` writes."""
        n = len(self.last)
        keys = _Keys(np.frombuffer(self.last, np.int64))
        depth = keys.walk(np.frombuffer(self.parent, np.int64))  # record -> its length
        perm = keys.sort()
        depth = depth[perm]  # in key order
        placed = np.zeros(n, np.int32)  # record in key order -> its node

        def place(d, heads, digit, above, node):
            np.copyto(placed, node, where=depth >= d)

        starts, kids, tok = keys.number(depth, place)
        node = np.empty(n, np.int32)  # record -> its node
        node[perm] = placed
        rec_bucket = np.frombuffer(self.bucket, np.int64)
        has = np.flatnonzero(rec_bucket >= 0)
        # records are numbered in the order read; a node of no such record
        # reads the -1 appended after the last
        latest = np.full(starts[-1], -1, np.int64)
        np.maximum.at(latest, node[has], has)
        bucket = np.append(rec_bucket, -1)[latest]
        bucket[0] = self.root
        return _Trie(kids, tok, _ints(bucket), starts, self.ev_off, self.total,
                     self.ev_id, self.ev_count)


class Counts(Mapping):
    """View of a model's counts, context tuple -> ``Bucket``, iterated in
    tuple order.  Contexts cannot be added or removed through it; a
    count written to a bucket appends one bucket to the store, and no
    other context's counts or arrays are rebuilt."""

    def __init__(self, model: NGramModel):
        self._model = model

    def __len__(self) -> int:
        return sum(self._model._trie.contexts_per_length())

    def __getitem__(self, ctx) -> Bucket:
        trie = self._model._trie
        if isinstance(ctx, tuple):
            path = trie.walk(ctx)
            if len(path) == len(ctx) + 1 and trie.bucket[path[-1]] >= 0:
                return Bucket(self._model, path[-1])
        raise KeyError(ctx)

    def __iter__(self):
        return (ctx for ctx, _ in self._model._trie.contexts())

    def items(self):
        return _CountItems(self)


class _CountItems(ItemsView):
    def __iter__(self):
        model = self._mapping._model
        return ((ctx, Bucket(model, node)) for ctx, node in model._trie.contexts())


class Bucket(Mapping):
    """The counts of one context of a model, the one of trie ``node``,
    token id -> count, as a new mapping.  Its one write,
    ``bucket[token] = count``, is written back to the model: the new
    events are appended as one bucket, the context's node alone points at
    it, and the model's tables are dropped."""

    def __init__(self, model: NGramModel, node: int):
        self._model, self._node = model, node
        self._events = model._trie.events(model._trie.bucket[node])

    def __getitem__(self, token) -> int:
        return self._events[token]

    def __iter__(self):
        return iter(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __repr__(self) -> str:
        return repr(self._events)

    def __setitem__(self, token, count):
        events = {**self._events, token: count}
        model = self._model
        trie = model._trie
        trie.bucket[self._node] = trie.add_bucket(events)
        model._tables.clear()
        if model._prep is not None:
            model._prep.extend()
        self._events = events


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
        self._trie = _Records().trie()
        # (trailing context, temperature) -> sampling table, and
        # (node, None) -> shared row; least recently used first
        self._tables: OrderedDict = OrderedDict()
        self._prep: _Prepared | None = None  # built at the first row or ``prob``

    @classmethod
    def from_counts(cls, counts: Mapping, order: int, vocab_size: int,
                    vocab_hash: str = "", discount: float = DEFAULT_DISCOUNT) -> NGramModel:
        """A model holding ``counts``, context tuple -> {token id: count}.
        A context with no events adds nothing to any row and is left out,
        so every bucket of a store holds events.  A context of ``order`` or
        more ids raises ``NGramError``."""
        model = cls(order, vocab_size, vocab_hash, discount)
        records = _Records()
        for ctx, bucket in counts.items():
            if len(ctx) >= order:
                raise NGramError(_too_long(len(ctx), order))
            if bucket:
                records.add_context(",".join(map(str, ctx)), records.add_bucket(bucket))
        model._trie = records.trie()
        return model

    @property
    def counts(self) -> Counts:
        return Counts(self)

    def contexts_per_length(self) -> list[int]:
        """Number of contexts with counts, by context length."""
        return self._trie.contexts_per_length()

    def _context(self, context: Sequence[int]) -> tuple[int, ...]:
        return tuple(context[-(self.order - 1):]) if self.order > 1 else ()

    def _prepared(self) -> _Prepared:
        if self._prep is None:
            self._prep = _Prepared(self._trie, self.vocab_size, self.discount)
        return self._prep

    def _level(self, p: np.ndarray, node: int, ctx: tuple[int, ...], k: int) -> np.ndarray:
        """``p`` blended with the discounted counts of ``node``, the node of
        ``ctx[len(ctx) - k:]`` (``p`` itself when it has no counts).  A
        writable ``p`` is updated in place; a read-only one, a shared row,
        is scaled into a new row."""
        trie, prep = self._trie, self._prep
        b = trie.bucket[node]
        if b < 0:
            return p
        if prep.bad[b]:
            raise prep.error(b, ctx, k)
        g = prep.weight[b]
        if p.flags.writeable:
            p *= g
        else:
            p = g * p
        ids, share = trie.ev_id, prep.share
        for i in range(trie.ev_off[b], trie.ev_off[b + 1]):
            t = ids[i]
            p[t] = share[i] + p[t]
        return p

    def _shared_row(self, ctx: tuple[int, ...], path: list[int], j: int) -> np.ndarray:
        """Read-only row after the levels of ``path[:j + 1]``, from the
        uniform row, memoized beside the tables."""
        key = (path[j], None)
        tables = self._tables
        row = tables.get(key)
        if row is not None:
            tables.move_to_end(key)
            return row
        above = (self._shared_row(ctx, path, j - 1) if j
                 else np.full(self.vocab_size, 1.0 / self.vocab_size))
        row = self._level(above, path[j], ctx, j)
        row.flags.writeable = False
        self._remember(key, row)
        return row

    def next_dist(self, context: Sequence[int]) -> np.ndarray:
        """Distribution over the vocabulary given trailing context ids."""
        self._prepared()
        ctx = self._context(context)
        path = self._trie.walk(ctx)
        j = min(SHARED_SUFFIX_LEN, max(len(ctx) - 1, 0), len(path) - 1)
        p = self._shared_row(ctx, path, j)
        for k in range(j + 1, len(path)):
            p = self._level(p, path[k], ctx, k)
        return p if p.flags.writeable else p.copy()

    def prob(self, context: Sequence[int], token: int) -> float:
        """``next_dist(context)[token]``, bit for bit, without a row: the
        same levels, each checked and applied to the one entry, found by
        a ``bisect`` into the level's bucket.  A token outside the
        vocabulary raises ``NGramError``."""
        if not 0 <= token < self.vocab_size:
            raise NGramError(f"token id {token} out of range [0, {self.vocab_size})")
        prep, trie = self._prepared(), self._trie
        ctx = self._context(context)
        ids, off, bucket = trie.ev_id, trie.ev_off, trie.bucket
        q = 1.0 / self.vocab_size
        for k, node in enumerate(trie.walk(ctx)):
            b = bucket[node]
            if b < 0:
                continue
            if prep.bad[b]:
                raise prep.error(b, ctx, k)
            q = prep.weight[b] * q
            e = off[b + 1]
            i = bisect_left(ids, token, off[b], e)
            if i < e and ids[i] == token:
                q = prep.share[i] + q
        return q

    def _remember(self, key, value) -> None:
        tables = self._tables
        tables[key] = value
        while len(tables) * 8 * self.vocab_size > TABLE_CACHE_BYTES:
            tables.popitem(last=False)

    def logprob(self, ids: Sequence[int]) -> float:
        lp = 0.0
        for i, token in enumerate(ids):
            lp += math.log(self.prob(ids[max(0, i - self.order + 1):i], token))
        return lp

    def perplexity(self, sequences) -> float:
        lp = n = 0
        for seq in sequences:
            lp += self.logprob(seq)
            n += len(seq)
        if n == 0:
            raise NGramError("no tokens to score")
        return math.exp(-lp / n)


def _too_long(ids: int, order: int) -> str:
    """Why a context of ``ids`` ids has no place in an ``order`` model."""
    return f"a context of {ids} ids, where an order-{order} model reads at most {order - 1}"


def train(sequences, order: int, vocab: Vocab,
          discount: float = DEFAULT_DISCOUNT) -> NGramModel:
    """Exact n-gram counting over id sequences (append EOS beforehand)."""
    model = NGramModel(order, len(vocab), vocab.content_hash(), discount)
    model._trie, n = _Trie.from_sequences(sequences, order)
    if not n:
        raise NGramError("cannot train on an empty corpus")
    return model


def sampling_table(p: np.ndarray, temperature: float) -> array | int:
    """What a draw from row ``p`` at ``temperature`` needs: the cumulative
    distribution that ``Generator.choice`` builds for the normalised
    (tempered) row, as an ``array('d')``, or the argmax id when tempering
    underflows.  The normalised row is written into the table's own
    buffer and accumulated there in place; ``add.accumulate`` is
    ``cumsum``, without the cost that ``cumsum(out=...)`` adds."""
    if temperature != 1.0:
        with np.errstate(divide="ignore"):
            logits = np.log(p) / temperature
        logits -= logits.max()
        q = np.exp(logits)
        total = q.sum()
        if not np.isfinite(total) or total <= 0:
            return int(np.argmax(p))
    else:
        q, total = p, np.add.reduce(p)
    table = array("d", [0.0]) * len(q)
    cdf = np.frombuffer(table, np.float64)
    np.divide(q, total, out=cdf)
    if not np.minimum.reduce(cdf) >= 0:
        raise NGramError("next-token probabilities contain NaN or negative entries")
    np.add.accumulate(cdf, out=cdf)
    cdf /= cdf[-1]
    return table


def sample_with_rng(model, context, temperature: float, rng) -> int:
    if not temperature > 0:
        raise NGramError(f"temperature must be > 0, got {temperature}")
    if isinstance(model, NGramModel):
        n = model.order - 1
        key = (tuple(context[-n:]) if n else (), temperature)
        tables = model._tables
        table = tables.get(key)
        if table is None:
            table = sampling_table(model.next_dist(key[0]), temperature)
            model._remember(key, table)
        else:
            tables.move_to_end(key)
    else:
        table = sampling_table(model.next_dist(context), temperature)
    if type(table) is int:
        return table
    return bisect_right(table, rng.random())


def save(model: NGramModel, path, config: dict | None = None) -> None:
    """Write the counts, one ``C`` line per context in tuple order, and
    then ``config``, when given, as a ``config`` line of JSON; then the
    image of the model to ``<path>.img``.

    The text is rendered from the trie's arrays as uint8, with no Python
    object per line.  Each node gets a row of fixed width, built depth by
    depth: its token's digits, a comma and its trie parent's row
    (``_context_rows``).  Each bucket's event text is rendered once
    (``_event_texts``).  Then the lines are written in blocks of
    ``SAVE_BLOCK_BYTES`` of rows: the rows of a block's nodes, in tuple
    order, without their padding, each followed by its bucket's event
    text (``_lines``).  The file is never held whole in memory.

    The image is ``IMAGE_MAGIC``, the length of a JSON header as 8
    little-endian bytes, the header, and the ``IMAGE_ARRAYS`` of the trie.
    The header holds the model's ``MODEL_HEADER`` fields, the trie's
    ``starts``, the length of each array and a ``sha256`` over the text
    file's bytes, the header without it and the arrays, so ``load`` can
    tell an image of another text, or one changed since, from the image
    of its text.

    Each file is written under a temporary name and then replaces its
    final name (``corpus.replacing``), the text first: a save cut short
    leaves no partial file, and one cut short in the image leaves the
    new text beside the old image, whose sha256 then fails, so ``load``
    logs it and parses the text.
    """
    trie = model._trie
    bucket = np.frombuffer(trie.bucket, np.int64)
    nodes = trie.tuple_order()
    nodes = nodes[bucket[nodes] >= 0].astype(np.int32)
    rows, sizes = _context_rows(trie)
    ev_text, ev_at = _event_texts(trie)
    step = max(SAVE_BLOCK_BYTES // rows.shape[1], 1)
    head = {key: getattr(model, key) for key in MODEL_HEADER}
    with replacing(path, "wb") as f:
        f.write(_header_lines(head).encode("utf-8"))
        for lo in range(0, len(nodes), step):
            block = nodes[lo:lo + step]
            f.write(_lines(np.take(rows, block, axis=0), sizes[block], bucket[block],
                           ev_text, ev_at))
        if config is not None:
            f.write(f"config\t{json.dumps(config)}\n".encode("utf-8"))
    arrays = [getattr(trie, name) for name in IMAGE_ARRAYS]
    if sys.byteorder == "big":
        arrays = [array(a.typecode, a) for a in arrays]  # the model's own stay as they are
        for a in arrays:
            a.byteswap()
    head.update(starts=list(trie.starts), lengths=[len(a) for a in arrays])
    head["sha256"] = _image_digest(path, head, arrays)
    data = json.dumps(head).encode()
    with replacing(_image_path(path), "wb") as f:
        f.write(IMAGE_MAGIC + len(data).to_bytes(8, "little") + data)
        for a in arrays:
            f.write(a)


def _decimals(values: array) -> tuple[np.ndarray, np.ndarray]:
    """The decimal text of int64 ``values``: a uint8 matrix with the text
    of each distinct value as a row, left-aligned and padded with zero
    bytes, and each value's row in it."""
    distinct, row = np.unique(np.frombuffer(values, np.int64), return_inverse=True)
    text = np.array([str(v) for v in distinct.tolist()], dtype=bytes)
    return text.view(np.uint8).reshape(len(distinct), text.itemsize), row


def _context_rows(trie: _Trie) -> tuple[np.ndarray, np.ndarray]:
    """Each node's ``C`` line up to its event text, as a row of a uint8
    matrix, and the row's length without its padding.  A row is ``C``, a
    tab, the ids of the node's context joined by commas, each in a field
    as wide as the widest id's text, padded with zero bytes, and a tab.  A
    node's context is its token and then its trie parent's context, so,
    depth by depth, its row is its token's field, a comma and its parent's
    fields."""
    digits, row = _decimals(trie.tok)
    n, f = len(row), digits.shape[1]
    # node -> the length of its token's text, then of its row
    sizes = np.count_nonzero(digits, axis=1).astype(np.int32)[row]
    sizes[0] = 0  # the root's token is no id of its context
    starts = trie.starts
    deepest = len(starts) - 2
    rows = np.zeros((n, max(deepest * (f + 1) - 1, 0) + 3), np.uint8)
    rows[:, 0], rows[:, 1], rows[:, -1] = ord("C"), ord("\t"), ord("\t")
    parent = trie.parents()
    for d in range(1, deepest + 1):
        lo, hi = starts[d], starts[d + 1]
        rows[lo:hi, 2:2 + f] = np.take(digits, row[lo:hi], axis=0)
        if d > 1:
            up = parent[lo - 1:hi - 1]
            rows[lo:hi, 2 + f] = ord(",")
            rows[lo:hi, 3 + f:-1] = np.take(rows, up, axis=0)[:, 2:-2 - f]
            sizes[lo:hi] += sizes[up] + 1
    sizes += 3
    return rows, sizes


def _event_texts(trie: _Trie) -> tuple[np.ndarray, np.ndarray]:
    """The event text of every bucket, its ``id:count`` pairs joined by
    spaces and ended by a newline, as uint8 laid end to end, and the
    offset of each bucket's text, then the end of the last."""
    ids, id_row = _decimals(trie.ev_id)
    counts, count_row = _decimals(trie.ev_count)
    w = ids.shape[1]
    events = np.zeros((len(id_row), w + counts.shape[1] + 2), np.uint8)
    events[:, :w] = np.take(ids, id_row, axis=0)
    events[:, w] = ord(":")
    events[:, w + 1:-1] = np.take(counts, count_row, axis=0)
    events[:, -1] = ord(" ")
    ev_off = np.frombuffer(trie.ev_off, np.int64)
    events[ev_off[1:] - 1, -1] = ord("\n")
    keep = events != 0
    ends = np.concatenate([np.zeros(1, np.int64), np.cumsum(np.count_nonzero(keep, axis=1))])
    return events[keep], ends[ev_off]


def _lines(rows: np.ndarray, sizes: np.ndarray, buckets: np.ndarray, ev_text: np.ndarray,
           ev_at: np.ndarray) -> np.ndarray:
    """The ``C`` lines of a block, as uint8: each of ``rows`` without its
    padding, ``sizes`` bytes, then the event text of its bucket."""
    start = ev_at[buckets]
    tails = ev_at[buckets + 1] - start
    # each byte of the lines' event texts, laid end to end: its place,
    # shifted to the start of its line's text
    at = np.repeat(start - np.cumsum(tails) + tails, tails)
    at += np.arange(len(at))
    is_row = np.repeat(np.tile([True, False], len(rows)), np.stack([sizes, tails], 1).ravel())
    out = np.empty(len(is_row), np.uint8)
    out[is_row] = rows[rows != 0]
    out[~is_row] = ev_text[at]
    return out


def _header_lines(head: dict) -> str:
    """The first lines of a model text: the magic line, then one line per
    ``MODEL_HEADER`` field of ``head``."""
    return MODEL_MAGIC + "\n" + "".join(f"{key}\t{head[key]}\n" for key in MODEL_HEADER)


def _image_path(path) -> str:
    return os.fspath(path) + ".img"


def _image_digest(path, head: dict, arrays) -> str:
    """The sha256 of the text file ``path``, then of the JSON of ``head``
    and of the arrays."""
    h = hashlib.sha256()
    with open(path, "rb") as f:
        while chunk := f.read(1 << 16):
            h.update(chunk)
    h.update(json.dumps(head).encode())
    for a in arrays:
        h.update(a)
    return h.hexdigest()


def _read_image(path) -> NGramModel | None:
    """The model of ``path``'s image, or None when it has none.  Raises
    ``ValueError``, ``OSError`` or ``EOFError`` when the image cannot be
    read, does not belong to the text, or does not hold a trie."""
    try:
        f = open(_image_path(path), "rb")
    except FileNotFoundError:
        return None
    with f:
        size = os.fstat(f.fileno()).st_size
        if f.read(len(IMAGE_MAGIC)) != IMAGE_MAGIC:
            raise ValueError("not a model image")
        n = int.from_bytes(f.read(8), "little")
        at = len(IMAGE_MAGIC) + 8 + n
        if at > size:
            raise ValueError("header runs past the end of the file")
        try:
            head = json.loads(f.read(n))
        except RecursionError:  # nested too deeply to decode
            raise ValueError("malformed header") from None
        # each field of exactly its type: a JSON true is no int
        if (not isinstance(head, dict) or head.keys() != _IMAGE_HEADER.keys()
                or any(type(head[key]) is not kind for key, kind in _IMAGE_HEADER.items())
                or any(type(k) is not int for k in head["starts"] + head["lengths"])
                or len(head["lengths"]) != len(IMAGE_ARRAYS) or min(head["lengths"]) < 0):
            raise ValueError("malformed header")
        lengths = head["lengths"]
        if size != at + 8 * sum(lengths):
            raise ValueError(f"{size} bytes where the header gives {at + 8 * sum(lengths)}")
        arrays = []
        for name, k in zip(IMAGE_ARRAYS, lengths):
            a = array("d" if name == "total" else "q")
            a.fromfile(f, k)
            arrays.append(a)
    if head.pop("sha256") != _image_digest(path, head, arrays):
        raise ValueError("sha256 differs: the text or the image changed since save")
    # the sha256 covers the text only as bytes: the fields are the text's
    # when the text begins with the lines ``save`` writes from them
    lines = _header_lines(head).encode("utf-8")
    with open(path, "rb") as f:
        if f.read(len(lines)) != lines:
            raise ValueError("header differs from the text's")
    if sys.byteorder == "big":
        for a in arrays:
            a.byteswap()
    kids, tok, bucket, ev_off, total, ev_id, ev_count = arrays
    nodes = len(tok)
    k, b, o = (np.frombuffer(a, np.int64) for a in (kids, bucket, ev_off))
    starts = head["starts"]  # Python ints, compared without overflow
    for ok, what in [
        (len(k) == nodes + 1 and k[0] == 1 and k[-1] == nodes and (np.diff(k) >= 0).all(),
         "kids"),
        (len(b) == nodes and ((b >= -1) & (b < len(total))).all(), "bucket"),
        (len(o) == len(total) + 1 and o[0] == 0 and o[-1] == len(ev_id)
         and (np.diff(o) > 0).all() and len(ev_count) == len(ev_id), "ev_off"),
        (starts and starts[0] == 0 and starts[-1] == nodes and len(starts) <= head["order"] + 1
         and all(a <= b for a, b in zip(starts, starts[1:])), "starts"),
    ]:
        if not ok:
            raise ValueError(f"{what} does not hold a trie")
    # each bucket's ids ascend; a bucket's first id may lie below the
    # last of the bucket before it.  Compared, not subtracted: the
    # difference of two int64 ids can overflow.
    ids = np.frombuffer(ev_id, np.int64)
    up = ids[1:] > ids[:-1]
    up[o[1:-1] - 1] = True
    if not up.all():
        raise ValueError("ev_id does not hold a trie")
    model = NGramModel(**{key: head[key] for key in MODEL_HEADER})
    model._trie = _Trie(kids, tok, bucket, starts, ev_off, total, ev_id, ev_count)
    return model


def load(path, vocab: Vocab | None = None) -> NGramModel:
    """Load a count dump; refuses to pair with a mismatched vocabulary.

    The model comes from the image that ``save`` wrote beside the file
    when there is one that passes every check: its sha256 over the text
    and itself, its exact length, its header fields, which must give the
    text's header lines, and each array's ranges and order, as a trie
    needs them, each bucket's ids ascending among them.  The id ranges
    and counts of a bucket are checked when a row uses it, as for a
    parsed model.  An image that fails a
    check is logged and the text parsed.  A text that cannot be opened
    raises its own ``OSError`` before any image is read."""
    open(path, "rb").close()
    try:
        model = _read_image(path)
    except (OSError, ValueError, EOFError) as e:
        log.warning("%s: model image not used: %s", _image_path(path), e)
        model = None
    if model is None:
        model = _parse(path)
    if vocab is not None and vocab.content_hash() != model.vocab_hash:
        raise NGramError(
            f"{path}: model was trained against a different vocabulary "
            f"({model.vocab_hash} != {vocab.content_hash()})")
    if vocab is not None and len(vocab) != model.vocab_size:
        raise NGramError(
            f"{path}: vocab_size {model.vocab_size} does not match the "
            f"vocabulary's {len(vocab)} tokens")
    return model


def _parse(path) -> NGramModel:
    """The model of a count dump's text.

    Each ``C`` line's context text is added by ``_Records.add_context``;
    in a file written by ``save`` every context of two or more ids
    extends the record of the context one id shorter.  Each distinct
    event text is parsed into a bucket once, and every line with that
    text shares it.  The same lines are refused as when each line is
    parsed on its own, among them a bucket that names a token twice, and
    also an id or count that does not fit in 64 bits.  After the lines
    and the header, a context of ``order`` or more ids is refused, before
    any node is numbered: the first line of the longest context is named.
    """
    records = _Records()
    add_bucket, add_context = records.add_bucket, records.add_context
    with open(path, encoding="utf-8") as f:
        if f.readline().rstrip("\n") != MODEL_MAGIC:
            raise NGramError(f"{path}: not a verseforge n-gram model")
        header = {}
        buckets = {}  # event text -> bucket id
        widest = widest_at = 0  # the most ids of a context, and its first line
        for lineno, line in enumerate(f, 2):
            # a ``C`` line keeps its newline: it ends the last count, which
            # int() reads as it reads the count alone
            parts = line.split("\t")
            try:
                if parts[0] == "C":
                    ctx_s, ev_s = parts[1], parts[2]
                    b = buckets.get(ev_s)
                    if b is None:
                        bucket = {}
                        for ev in ev_s.split(" "):
                            t, c = ev.split(":")
                            bucket[int(t)] = int(c)
                        if len(bucket) <= ev_s.count(" "):
                            raise ValueError("a token named twice")
                        b = buckets[ev_s] = add_bucket(bucket)
                    add_context(ctx_s, b)
                    if (ids := len(ctx_s) and ctx_s.count(",") + 1) > widest:
                        widest, widest_at = ids, lineno
                else:
                    line = line.rstrip("\n")
                    if not line:
                        continue
                    parts = line.split("\t")
                    header[parts[0]] = MODEL_HEADER.get(parts[0], str)(parts[1])
            except (IndexError, ValueError):
                raise NGramError(f"{path}:{lineno}: malformed model line") from None
            except OverflowError:
                raise NGramError(f"{path}:{lineno}: an id or count does not fit "
                                 f"in 64-bit integers") from None
    missing = [key for key in MODEL_HEADER if key not in header]
    if missing:
        raise NGramError(f"{path}: header lacks {', '.join(missing)}")
    model = NGramModel(**{key: header[key] for key in MODEL_HEADER})
    if widest >= model.order:
        raise NGramError(f"{path}:{widest_at}: {_too_long(widest, model.order)}")
    model._trie = records.trie()
    return model
