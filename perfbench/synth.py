"""Seeded scaled-corpus synthesizer for the benchmark.

Every copy of the fixture corpus rewrites each word of a verse except the
last, changing single onset consonants only: a consonant that opens a
word or stands alone between two vowels is swapped for another plain
consonant.  Only words with at least two vowel groups are touched, and
liquids (r, l) are never read or written, so the change keeps by
construction:

- the syllable count of every word, and the stress of every word
  (first syllable of a polysyllable);
- the verse-final word, hence the clausula and the rhyme group;
- the gold meter, the rhyme scheme and the year of every strophe.

This module does not import ``verseforge``: a change to the program
cannot change the benchmark's inputs.
"""

from __future__ import annotations

import argparse
import json
import random
import re
from collections import Counter

VOWELS = set("aáeéěiíoóuúůyý")
CONSONANTS = "bcčdhjkmnňpřsštvzž"
_TOKEN_RE = re.compile(r"^(\W*)(\w+)(\W*)$")


def read_jsonl(path) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def write_jsonl(rows, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for row in rows:
            f.write(json.dumps(row, ensure_ascii=False) + "\n")


def _vowel_groups(word: str) -> int:
    groups, inside = 0, False
    for ch in word.lower():
        vowel = ch in VOWELS
        groups += vowel and not inside
        inside = vowel
    return groups


def mutate_word(word: str, rng: random.Random) -> str:
    """Swap each eligible onset consonant with probability 1/2."""
    if _vowel_groups(word) < 2:
        return word
    low = word.lower()
    out = list(word)
    for i, ch in enumerate(low):
        if ch not in CONSONANTS:
            continue
        if i + 1 >= len(low) or low[i + 1] not in VOWELS:
            continue
        if i > 0 and low[i - 1] not in VOWELS:
            continue
        if rng.random() < 0.5:
            new = rng.choice(CONSONANTS.replace(ch, ""))
            out[i] = new.upper() if word[i].isupper() else new
    return "".join(out)


def mutate_verse(text: str, rng: random.Random) -> str:
    tokens = text.split(" ")
    for i, tok in enumerate(tokens[:-1]):
        m = _TOKEN_RE.match(tok)
        if m and m.group(2).isalpha():
            pre, core, post = m.groups()
            tokens[i] = pre + mutate_word(core, rng) + post
    return " ".join(tokens)


def mutate_poem(poem: dict, rng: random.Random) -> dict:
    return {
        "year": poem["year"],
        "strophes": [[dict(v, text=mutate_verse(v["text"], rng)) for v in strophe]
                     for strophe in poem["strophes"]],
    }


def scaled_corpus(source: list[dict], copies: int, seed) -> list[dict]:
    """``copies`` rewritten copies of ``source``; copy c is seeded by (seed, c)."""
    out = []
    for c in range(copies):
        rng = random.Random(f"{seed}:{c}")
        out.extend(mutate_poem(p, rng) for p in source)
    return out


def rhyme_scheme(groups) -> str:
    """Canonical scheme letters from poem-local rhyme-group ids."""
    counts = Counter(g for g in groups if g is not None)
    letters, assigned = [], {}
    for g in groups:
        if g is None or counts[g] < 2:
            letters.append("X")
        else:
            assigned.setdefault(g, chr(ord("A") + len(assigned)))
            letters.append(assigned[g])
    return "".join(letters)


def year_bucket(year) -> str:
    return "NaN" if year is None else str(year // 20 * 20)


def strophes(poems):
    """Yield (year, verses) for every strophe, in file order."""
    for poem in poems:
        for verses in poem["strophes"]:
            yield poem["year"], verses


def distinct_words(poems) -> int:
    return len({m.group(2).lower()
                for _, verses in strophes(poems)
                for v in verses
                for tok in v["text"].split()
                if (m := _TOKEN_RE.match(tok))})


# ---------------------------------------------------------------------------
# workload inputs

TRAIN_COPIES = 4   # train: one copy per round, in turn
MODEL_COPIES = 2   # generate: the model's training corpus
EVAL_COPIES = 8    # evaluate: gold strophes, some with planted faults
HELD_OUT_EVERY = 20  # every 20th fixture poem is held out of the model corpus
FAULT_RATE = 0.3
FAULTS = ("syllables", "hint", "meter", "scheme", "missing_verse")
METERS = "JTDAXYHPN"
SEP = " # "


def held_out(poems) -> list[dict]:
    return poems[::HELD_OUT_EVERY]


def model_poems(poems) -> list[dict]:
    return [p for i, p in enumerate(poems) if i % HELD_OUT_EVERY]


def forced_flags(scheme: str) -> list[bool]:
    """Which verses forced decoding copies from an earlier rhyme partner."""
    seen, flags = set(), []
    for letter in scheme:
        flags.append(letter != "X" and letter in seen)
        seen.add(letter)
    return flags


def requests(held, seed):
    """Endless seeded stream of generation requests from held-out strophes."""
    pool = list(strophes(held))
    rng = random.Random(f"{seed}:requests")
    while True:
        year, verses = rng.choice(pool)
        yield {
            "scheme": rhyme_scheme([v["rhyme"] for v in verses]),
            "year": year_bucket(year),
            "meters": [v["meter"] for v in verses],
            "seed": rng.randrange(2 ** 31),
        }


def _plant(kind, fields, scheme, rng):
    """Apply one fault; returns (scheme, verse lines as field lists, verse index)."""
    vi = rng.randrange(len(fields))
    if kind == "syllables":
        fields[vi][1] = str(int(fields[vi][1]) + 1)
    elif kind == "hint":
        fields[vi][2] = "qqq"
    elif kind == "meter":
        fields[vi][0] = rng.choice(METERS.replace(fields[vi][0], ""))
    elif kind == "scheme":
        scheme = scheme.translate(str.maketrans("AB", "BA"))
    elif kind == "missing_verse":
        del fields[vi]
    return scheme, vi


def evaluate_inputs(source, source_texts, copies, seed):
    """(requests, generations, faults) for the gold strophes of ``copies``
    rewritten copies of ``source``.

    ``source_texts`` holds the ``meter_verse`` rendering of each source
    strophe; a rewritten verse keeps its source verse's annotation, so a
    gold generation is the source annotation plus the rewritten text.
    About ``FAULT_RATE`` of the strophes get one planted fault each.
    """
    reqs, gens, faults = [], [], []
    rng = random.Random(f"{seed}:faults")
    poems = scaled_corpus(source, copies, seed)
    n_source = len(source_texts)
    for i, (year, verses) in enumerate(strophes(poems)):
        lines = source_texts[i % n_source].split("\n")
        fields = [line.split(SEP, 3)[:3] + [v["text"]] for line, v in zip(lines[1:], verses)]
        scheme = rhyme_scheme([v["rhyme"] for v in verses])
        flags = forced_flags(scheme)
        fault = None
        if rng.random() < FAULT_RATE:
            kinds = [k for k in FAULTS if k != "scheme" or "A" in scheme]
            kind = rng.choice(kinds)
            requested, vi = _plant(kind, fields, scheme, rng)
            fault = {"kind": kind, "verse": vi, "forced": flags[vi]}
        else:
            requested = scheme
        reqs.append({"scheme": requested, "year": year_bucket(year),
                     "meters": [v["meter"] for v in verses]})
        gens.append({"raw_text": "\n".join([lines[0]] + [SEP.join(f) for f in fields]),
                     "forced": flags, "truncated": False, "parse_error": None})
        faults.append({"verses": len(verses), "forced": sum(flags), "fault": fault})
    return reqs, gens, faults


def main(argv=None):
    ap = argparse.ArgumentParser(description="Write one workload's seeded inputs.")
    ap.add_argument("workload", choices=("train", "evaluate"))
    ap.add_argument("--seed", required=True)
    ap.add_argument("--fixture", required=True)
    ap.add_argument("--annotations", help="JSON list of meter_verse source texts")
    ap.add_argument("--out", required=True, help="output directory")
    args = ap.parse_args(argv)
    source = read_jsonl(args.fixture)
    if args.workload == "train":
        write_jsonl(scaled_corpus(source, TRAIN_COPIES, args.seed), f"{args.out}/corpus.jsonl")
        return
    with open(args.annotations, encoding="utf-8") as f:
        source_texts = json.load(f)
    reqs, gens, faults = evaluate_inputs(source, source_texts, EVAL_COPIES, args.seed)
    write_jsonl(reqs, f"{args.out}/requests.jsonl")
    write_jsonl(gens, f"{args.out}/generations.jsonl")
    write_jsonl(faults, f"{args.out}/faults.jsonl")


if __name__ == "__main__":
    main()
