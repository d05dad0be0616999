"""Shared test utilities: a scripted language model and small factories."""

from verseforge import tokenizers
from verseforge.formats import DataFormat
from verseforge.generation import GeneratedStrophe

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
