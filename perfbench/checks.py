"""Output checks.  Each returns a list of problems; empty means it passed.

The expected values come from the benchmark's own inputs (the faults it
planted, the requests it made) or from properties the method must have,
never from a stored copy of earlier output.
"""

from __future__ import annotations

import random

import numpy as np

from verseforge import tokenizers

import synth

SEP = synth.SEP


def annotation(text: str) -> list[str]:
    """The annotation prefix of every verse line of a ``meter_verse`` text."""
    return [SEP.join(line.split(SEP, 3)[:3]) for line in text.split("\n")[1:]]


# ---------------------------------------------------------------------------
# train

def check_unicode_roundtrip(vocab, text: str, ids) -> list[str]:
    if tokenizers.decode(vocab, ids) != text:
        return [f"unicode round trip changed {text[:40]!r}"]
    return []


def check_annotation(text: str, source_text: str) -> list[str]:
    """A rewritten strophe must have its source strophe's header and verse
    annotations."""
    got = [text.split("\n", 1)[0]] + annotation(text)
    want = [source_text.split("\n", 1)[0]] + annotation(source_text)
    return [f"annotation {got} != source {want}"] if got != want else []


def check_context_counts(model, seqs) -> list[str]:
    """For each context length k the counts sum to sum(max(0, len - k))."""
    got = [0] * model.order
    for ctx, bucket in model.counts.items():
        got[len(ctx)] += sum(bucket.values())
    want = [sum(max(0, len(s) - k) for s in seqs) for k in range(model.order)]
    return [f"context length {k}: counts sum to {g}, expected {w}"
            for k, (g, w) in enumerate(zip(got, want)) if g != w]


def check_next_dist_rows(model, seqs, n: int, seed) -> list[str]:
    """``n`` sampled rows are positive everywhere and sum to 1."""
    rng = random.Random(f"{seed}:rows")
    problems = []
    for _ in range(n):
        seq = rng.choice(seqs)
        ctx = seq[:rng.randrange(len(seq))]
        p = np.asarray(model.next_dist(ctx))
        if p.shape != (model.vocab_size,) or not (p > 0).all() or abs(p.sum() - 1) > 1e-9:
            problems.append(f"next_dist row for context {ctx[-5:]} is not a distribution")
    return problems


def bpe_base_size(vocab, lines) -> int:
    """Specials, protected annotation pieces and the corpus alphabet."""
    alphabet = {ch for line in lines for ch in line} - {"\n"} - vocab.protected
    return 3 + len(vocab.protected) + len(alphabet)


def check_bpe_merges(vocab, lines) -> list[str]:
    """Every token after the base is two earlier tokens concatenated."""
    base = bpe_base_size(vocab, lines)
    problems = []
    for i in range(base, len(vocab.tokens)):
        tok, earlier = vocab.tokens[i], vocab.id_of
        if not any(earlier.get(tok[:k], i) < i and earlier.get(tok[k:], i) < i
                   for k in range(1, len(tok))):
            problems.append(f"BPE token {i} {tok!r} is no merge of earlier tokens")
    return problems


def check_bpe_lossless(vocab, lines) -> list[str]:
    bad = [line for line in lines
           if tokenizers.decode(vocab, tokenizers.encode(vocab, line)) != line]
    return [f"BPE round trip changed {len(bad)} lines, e.g. {bad[0]!r}"] if bad else []


# ---------------------------------------------------------------------------
# generate

def check_generation(request: dict, gen) -> list[str]:
    """Header, verse count, forced-partner annotations and free-verse meters."""
    if gen.parsed is None:
        return [f"unparseable strophe: {gen.parse_error}"]
    scheme, meters = request["scheme"], request["meters"]
    lines = gen.raw_text.split("\n")
    problems = []
    if lines[0] != f"# {scheme}{SEP}{request['year']}":
        problems.append(f"header {lines[0]!r} does not match the request")
    if len(lines) - 1 != len(scheme):
        return problems + [f"{len(lines) - 1} verses for scheme {scheme}"]
    flags = synth.forced_flags(scheme)
    if list(gen.forced_flags) != flags:
        problems.append(f"forced flags {gen.forced_flags} != {flags}")
    prefixes = annotation(gen.raw_text)
    first = {}
    for i, letter in enumerate(scheme):
        if flags[i]:
            if prefixes[i] != prefixes[first[letter]]:
                problems.append(f"verse {i + 1} annotation {prefixes[i]!r} is not its "
                                f"partner's {prefixes[first[letter]]!r}")
        else:
            first.setdefault(letter, i)
            if not lines[i + 1].startswith(meters[i] + SEP):
                problems.append(f"free verse {i + 1} does not start with meter {meters[i]}")
    return problems


# ---------------------------------------------------------------------------
# evaluate

def expected_report(faults) -> dict:
    """The metrics of a batch of gold strophes given only its planted faults."""
    kinds = [f["fault"]["kind"] if f["fault"] else None for f in faults]
    n = len(faults)

    def count(kind, forced=None):
        return sum(1 for f, k in zip(faults, kinds) if k == kind
                   and (forced is None or f["fault"]["forced"] == forced))

    missing = count("missing_verse")
    verses = sum(f["verses"] for f, k in zip(faults, kinds) if k != "missing_verse")
    forced = sum(f["forced"] for f, k in zip(faults, kinds) if k != "missing_verse")
    free = verses - forced
    return {
        "num_syl": (verses - count("syllables")) / verses,
        "end_acc": (verses - count("hint")) / verses,
        "rhyme_acc": (n - missing - count("scheme")) / n,
        "meter_acc": (n - missing - count("meter")) / n,
        "meter_acc_verse": (verses - count("meter")) / verses,
        "n_strophes": n,
        "n_verses": verses,
        "n_parse_failures": missing,
        "end_acc_forced": (forced - count("hint", True)) / forced if forced else None,
        "end_acc_free": (free - count("hint", False)) / free if free else None,
    }


def check_report(report: dict, faults) -> list[str]:
    want = expected_report(faults)
    problems = [f"{key} = {report[key]}, expected {value}"
                for key, value in want.items() if report[key] != value]
    if not 0 < report["unique"] <= 1:
        problems.append(f"unique = {report['unique']} outside (0, 1]")
    return problems
