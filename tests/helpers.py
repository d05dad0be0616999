"""Shared test utilities: test data paths, the running example, a
scripted language model and small factories."""

from pathlib import Path

from verseforge import tokenizers
from verseforge.formats import DataFormat
from verseforge.generation import GeneratedStrophe

DATA = Path(__file__).parent / "data"

# The running example: an ABAB iambic strophe with one rhyme pair whose
# clausulae differ only in vowel length (oři / oří).
EXAMPLE_VERSES = [
    "Tvá loď jde po vysokém moři,",
    "v ně brázdu jako stříbro reje,",
    "svou přídu v modré vlny noří",
    "a bok svůj pěnné do peřeje.",
]

EXAMPLE_BASIC = (
    "# ABAB # 1900 # J\n"
    "Tvá loď jde po vysokém moři,\n"
    "v ně brázdu jako stříbro reje,\n"
    "svou přídu v modré vlny noří\n"
    "a bok svůj pěnné do peřeje."
)

EXAMPLE_VERSE_PAR = (
    "# ABAB # 1900 # J\n"
    "9 # oři # Tvá loď jde po vysokém moři,\n"
    "9 # eje # v ně brázdu jako stříbro reje,\n"
    "9 # oří # svou přídu v modré vlny noří\n"
    "9 # eje # a bok svůj pěnné do peřeje."
)

EXAMPLE_METER_VERSE = (
    "# ABAB # 1900\n"
    "J # 9 # oři # Tvá loď jde po vysokém moři,\n"
    "J # 9 # eje # v ně brázdu jako stříbro reje,\n"
    "J # 9 # oří # svou přídu v modré vlny noří\n"
    "J # 9 # eje # a bok svůj pěnné do peřeje."
)


HINTS = ["na", "ve", "lo", "ky", "su", "mi"]
METERS = ["J", "T", "D", "A", "J", "T"]
BODIES = ["hrady dálky", "vlny zpívá", "srdce hoří", "slunce padá",
          "kvítí voní", "hvězdy letí"]


class ScriptedLM:
    """Deterministic playback model for decoding tests.

    For verse index i it emits ``ann(i) # body(i)``; when decoding was
    resumed from a foreign (forced) annotation prefix it completes that
    prefix with ``body(i)`` instead.  One-hot distributions throughout.
    """

    def __init__(self, vocab, fmt: DataFormat):
        self.vocab = vocab
        self.vocab_size = len(vocab)
        self.fmt = fmt

    def ann(self, i):
        if self.fmt is DataFormat.METER_VERSE:
            return f"{METERS[i]} # {7 + i} # {HINTS[i]}"
        return f"{7 + i} # {HINTS[i]}"

    def body(self, i):
        return BODIES[i]

    def plan(self, i):
        return f"{self.ann(i)} # {self.body(i)}"

    def next_dist(self, context):
        import numpy as np

        text = tokenizers.decode(self.vocab, context)
        lines = text.split("\n")
        vi = len(lines) - 2  # line 0 is the header
        cur = lines[-1]
        plan = self.plan(vi)
        if plan.startswith(cur):
            ch = "\n" if cur == plan else plan[len(cur)]
        else:
            # resumed from a forced prefix: finish with our own body
            tail = " " + self.body(vi)
            match = 0
            for k in range(len(tail), 0, -1):
                if cur.endswith(tail[:k]):
                    match = k
                    break
            ch = "\n" if match == len(tail) else tail[match]
        p = np.zeros(self.vocab_size)
        p[self.vocab.id_of[ch]] = 1.0
        return p


def scripted_model(fmt: DataFormat):
    chars = sorted(set("".join(HINTS + METERS + BODIES)
                       + "# 0123456789ABCDEFGHIJKLMNOPQRSTUVWXN"))
    vocab = tokenizers.Vocab(
        tokenizers.TokenizerKind.UNICODE,
        [tokenizers.SEP_TOKEN, tokenizers.EOS_TOKEN, tokenizers.UNK_TOKEN] + chars)
    return ScriptedLM(vocab, fmt), vocab


def gen_from_text(raw_text, request, forced_flags=()):
    """GeneratedStrophe as the evaluator would reconstruct it."""
    return GeneratedStrophe.from_text(raw_text, request, forced_flags=forced_flags)
