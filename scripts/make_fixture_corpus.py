#!/usr/bin/env python3
"""Build the bundled fixture corpus (tests/data/fixture_corpus.jsonl).

Synthesizes a deterministic annotated corpus of Czech verse lines from a
controlled lexicon.  Every line is validated against the package's own
phonology (syllable counts, stress template, clausula family), and gold
rhyme groups are guaranteed consistent with clausula equality, so the
corpus is self-consistent by construction.

The content lexicon is partitioned by rhyme family: all polysyllabic
words of a verse are drawn from the pool of the family its clausula
belongs to.  That makes verse endings learnable for short-context
models, which is what the end-to-end generation checks rely on.

Run from the repo root:  python3 scripts/make_fixture_corpus.py
"""

import json
import random
import sys
from collections import defaultdict
from pathlib import Path

from verseforge import corpus
from verseforge import phonology as ph
from verseforge import tokenizers as tok
from verseforge.corpus import MeterLabel, Verse
from verseforge.validation import normalize_clausula

OUT = Path(__file__).resolve().parent.parent / "tests" / "data" / "fixture_corpus.jsonl"
SEED = 20240817
N_POEMS = 1650
LINES_PER_SLOT = 3  # distinct verses per (family, line kind)

# line openers: single-letter conjunctions, so the annotation hint is
# still inside a short character window when the first content word starts
OPENERS = ["a", "i"]
# unstressed monosyllables for verse-internal weak positions
FUNC_MID = ["a", "i", "se", "si", "co", "tu"]

WORDS_2 = [
    "vlny", "nebe", "písně", "srdce", "touha", "láska",
    "duše", "žena", "luna", "jitro", "ráno", "vítr", "oheň", "kámen",
    "tráva", "zlatá", "bílá", "tichá", "temná", "jasná",
    "jemná", "čistá", "plná", "bledá", "rudá", "stará", "mladá",
    "dávná", "věrná", "zpívá", "voní", "šumí", "plyne", "svítí",
    "letí", "kvete", "padá", "hledá", "šeptá", "volá", "pláče", "tančí",
    "houpá", "zdobí", "sedá", "zírá", "dýchá", "jásá",
    "země", "rosa", "zora", "skála", "vůně", "lípa", "bříza",
    "trála", "hrdá", "lehká", "dálka", "mírná", "snivá", "vlahá",
    "mlha", "vrba", "slza", "trny", "síla", "vína", "pára", "zima",
    "jaro", "léto", "tůně", "pěna", "tíha", "ruka", "řeka", "hora",
    "rána", "nivy", "máky", "rysy", "vine", "hyne", "vadne", "hasne",
    "tóny", "davy", "sady", "rovy", "mraky", "šerem", "polem", "lesem",
    "okem", "ústa", "čela", "vlasy", "křídla", "perly", "stesky", "city",
]

WORDS_3 = [
    "zelená", "vysoká", "hluboká", "studená", "kamenná", "voňavá",
    "malinká", "zahrada", "obloha", "kalina",
    "dolina", "hladina", "veselá", "daleká", "jezera", "laskavá",
    "krajina", "rovina", "lučina", "jahoda", "otava", "jediná",
    "mlhavá", "modravá", "zvonivá", "zářivá", "růžová", "bohatá",
]

ENDERS = [
    "moře", "hoře", "zoře", "dvoře",
    "moři", "hoři", "zoři", "dvoři",
    "reje", "seje", "kleje", "zeje",
    "snívá", "zívá", "dívá", "mívá",
    "stíny", "klíny", "síny",
    "lásky", "pásky", "hlásky", "vrásky",
    "růže", "kůže", "může", "lůže",
    "noci", "moci", "kroci",
    "lesy", "plesy", "vřesy",
    "vody", "hody", "schody", "svody",
    "chvíle", "bíle", "síle", "míle",
    "nese", "třese", "klese",
]

POOL2_SIZE = 8  # family-exclusive 2-syllable words
POOL3_SIZE = 2  # family-exclusive 3-syllable words

# kind -> (meter, syllable count, slot template)
# slots: O=opener, F=mid-verse function word, M=family 2-syl,
#        T=family 3-syl, E=family ender (carries the clausula)
KINDS = {
    "J9": (MeterLabel.IAMB, 9, "OMMME"),
    "J7": (MeterLabel.IAMB, 7, "OMME"),
    "T8": (MeterLabel.TROCHEE, 8, "MMME"),
    "T6": (MeterLabel.TROCHEE, 6, "MME"),
    "D8": (MeterLabel.DACTYL, 8, "TTE"),
    "A9": (MeterLabel.AMPHIBRACH, 9, "OMFMFE"),
}

KIND_WEIGHTS = [("J9", 40), ("J7", 18), ("T8", 20), ("T6", 10),
                ("D8", 8), ("A9", 4)]

SCHEMES_4 = [("ABAB", 35), ("AABB", 25), ("XAXA", 15), ("ABBA", 10), ("XXXX", 5)]
SCHEMES_6 = [("AABBCC", 9), ("ABABCC", 6)]

YEARS = [(1800, 4), (1820, 6), (1840, 9), (1860, 12), (1880, 16),
         (1900, 18), (1920, 12), (1940, 8), (None, 1)]

STRESS = {"O": ["x"], "F": ["x"], "M": ["X", "x"], "T": ["X", "x", "x"],
          "E": ["X", "x"]}


def expected_pattern(template: str) -> str:
    return "".join("".join(STRESS[s]) for s in template)


def check_word(word, n_syl, stressed_first):
    split = ph.syllabify(word)
    if len(split) != n_syl:
        return f"{word}: {len(split)} syllables, wanted {n_syl}"
    pat = ph.analyze(word).stress
    want = ("X" + "x" * (n_syl - 1)) if stressed_first else "x" * n_syl
    if pat != want:
        return f"{word}: stress {pat}, wanted {want}"
    return None


def validate_pools():
    problems = []
    for w in OPENERS + FUNC_MID:
        problems.append(check_word(w, 1, False))
    for w in WORDS_2 + ENDERS:
        problems.append(check_word(w, 2, True))
    for w in WORDS_3:
        problems.append(check_word(w, 3, True))
    problems = [p for p in problems if p]
    if problems:
        sys.exit("lexicon problems:\n  " + "\n  ".join(problems))


def build_families():
    fams = defaultdict(list)
    for w in ENDERS:
        fams[ph.analyze(w).ending_hint()].append(w)
    fams = {k: v for k, v in fams.items() if len(v) >= 3}
    # hints must stay distinguishable by their last two characters, or
    # family identity is lost right after the annotation separator
    tails = [h[-2:] for h in sorted(fams)]
    if len(set(tails)) != len(tails):
        sys.exit(f"family hints collide on their final bigram: {sorted(fams)}")
    return fams


def main():
    validate_pools()
    rng = random.Random(SEED)
    families = build_families()
    fams = sorted(families)
    if len(WORDS_2) < len(fams) * POOL2_SIZE or len(WORDS_3) < len(fams) * POOL3_SIZE:
        sys.exit("word pools too small for the family partition")

    # Partition the content lexicon: each family owns its words, so word
    # transitions inside a verse keep pointing at the right clausula.
    w2, w3 = list(WORDS_2), list(WORDS_3)
    rng.shuffle(w2)
    rng.shuffle(w3)
    pool2 = {fam: [w2.pop() for _ in range(POOL2_SIZE)] for fam in fams}
    pool3 = {fam: [w3.pop() for _ in range(POOL3_SIZE)] for fam in fams}
    fold_of = {fam: normalize_clausula(fam) for fam in fams}

    def build_line(kind, fam, variant):
        """Variants of one slot cycle through the family pool with an
        offset, so rhyme partners overlap on as few words as possible."""
        _, n_syl, template = KINDS[kind]
        p2, p3 = pool2[fam], pool3[fam]
        n2 = template.count("M")
        i2 = variant * n2
        i3 = variant
        out = []
        for slot in template:
            if slot == "O":
                out.append(OPENERS[(variant + len(out)) % len(OPENERS)])
            elif slot == "F":
                out.append(FUNC_MID[(variant * 2 + len(out)) % len(FUNC_MID)])
            elif slot == "M":
                out.append(p2[i2 % len(p2)])
                i2 += 1
            elif slot == "T":
                out.append(p3[i3 % len(p3)])
                i3 += 1
            else:
                out.append(families[fam][variant % len(families[fam])])
        return " ".join(out)

    # Fixed inventory so an n-gram model can actually learn the corpus.
    inventory = {}
    used_lines = set()
    for fam in fams:
        for kind in KINDS:
            slot = [build_line(kind, fam, v) for v in range(LINES_PER_SLOT)]
            if len(set(slot)) != len(slot):
                sys.exit(f"duplicate inventory lines for {fam}/{kind}")
            used_lines.update(slot)
            inventory[(fam, kind)] = slot

    def weighted(pairs):
        items, weights = zip(*pairs)
        return rng.choices(items, weights)[0]

    def make_strophe():
        n = 4 if rng.random() < 0.8 else 6
        scheme = weighted(SCHEMES_4 if n == 4 else SCHEMES_6)
        letters = sorted(set(scheme) - {"X"})
        n_x = scheme.count("X")
        fams_needed = len(letters) + n_x
        # Families with pairwise distinct normalized clausulae, so gold
        # rhyme groups coincide with detected rhymes.
        picked, folds = [], set()
        for fam in rng.sample(fams, len(fams)):
            if fold_of[fam] not in folds:
                picked.append(fam)
                folds.add(fold_of[fam])
            if len(picked) == fams_needed:
                break
        fam_of_letter = dict(zip(letters, picked))
        x_fams = picked[len(letters):]

        base_kind = weighted(KIND_WEIGHTS)
        kind_of_letter = {}
        for letter in letters:
            kind_of_letter[letter] = (base_kind if rng.random() < 0.9
                                      else weighted(KIND_WEIGHTS))

        group_id = {letter: i + 1 for i, letter in enumerate(letters)}
        next_id = len(letters) + 1
        taken = defaultdict(list)
        verses = []
        used_sylls = set()
        x_seen = 0
        for letter in scheme:
            if letter == "X":
                fam = x_fams[x_seen]
                x_seen += 1
                kind = weighted(KIND_WEIGHTS)
                if rng.random() < 0.3:  # occasional singleton group id
                    rid = next_id
                    next_id += 1
                else:
                    rid = None
            else:
                fam = fam_of_letter[letter]
                kind = kind_of_letter[letter]
                rid = group_id[letter]
            pool = [l for l in inventory[(fam, kind)] if l not in taken[(fam, kind)]]
            pool = pool or inventory[(fam, kind)]
            # prefer the candidate reusing the fewest syllables
            rng.shuffle(pool)
            line = min(pool, key=lambda l: len(
                {s.casefold() for s in ph.analyze(l).syllables} & used_sylls))
            used_sylls.update(s.casefold() for s in ph.analyze(line).syllables)
            taken[(fam, kind)].append(line)
            verses.append((line, rid, KINDS[kind][0]))

        out = []
        for i, (line, rid, meter) in enumerate(verses):
            text = line[0].upper() + line[1:] if i == 0 else line
            if i == len(verses) - 1:
                text += "."
            elif rng.random() < 0.5:
                text += ","
            out.append(Verse(text, rid, meter))
        return out

    poems = []
    for _ in range(N_POEMS):
        year = weighted(YEARS)
        n_strophes = rng.choices([1, 2, 3], [55, 30, 15])[0]
        poems.append({
            "year": year,
            "strophes": [[{"text": v.text, "rhyme": v.rhyme_group,
                           "meter": v.gold_meter.value}
                          for v in make_strophe()]
                         for _ in range(n_strophes)],
        })

    OUT.parent.mkdir(parents=True, exist_ok=True)
    with open(OUT, "w", encoding="utf-8") as f:
        for poem in poems:
            f.write(json.dumps(poem, ensure_ascii=False) + "\n")

    # diagnostics, over the corpus as written
    strophes = corpus.ingest(OUT)
    n_verses = sum(len(s.verses) for s in strophes)
    ratios = []
    for s in strophes:
        sylls = [x.casefold() for v in s.verses for x in ph.analyze(v.text).syllables]
        ratios.append(len(set(sylls)) / len(sylls))
    verse_lines = [v.text for s in strophes for v in s.verses]
    sv = tok.build_vocab(tok.TokenizerKind.SYLLABLE, verse_lines)
    print(f"poems={len(poems)} strophes={len(strophes)} verses={n_verses}")
    print(f"unique-syllable ratio mean={sum(ratios)/len(ratios):.3f}")
    # a line gives one id per token
    n_tokens = sum(len(tok.encode(sv, line)) for line in verse_lines)
    print(f"SYLLABLE chars/token={sum(map(len, verse_lines)) / n_tokens:.3f}")
    print(f"families={len(families)} inventory lines={len(used_lines)}")


if __name__ == "__main__":
    main()
