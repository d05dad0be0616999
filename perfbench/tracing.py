"""In-memory call tracing around the public functions of the layers.

Each traced function is replaced, under the name by which its caller
looks it up, with a wrapper that records calls, inclusive time, self
time (its own time minus that of the traced calls inside it) and raised
exceptions counted by traced caller.  Nothing is written while the
workload runs; ``Tracer.spans`` is read once at the end.  While
``active`` is false the wrappers only pass calls through, so that output
checks do not count as workload time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

# (module, attribute, span name).  An attribute may be "Class.method".
# Names imported into another module are wrapped there too, because the
# caller looks them up in its own namespace.
TRACED = (
    ("verseforge.corpus", "ingest", "corpus.ingest"),
    ("verseforge.formats", "encode", "formats.encode"),
    ("verseforge.formats", "parse", "formats.parse"),
    ("verseforge.formats", "_parse_verse_line", "formats.parse_verse_line"),
    ("verseforge.formats", "consistency_check", "formats.consistency_check"),
    ("verseforge.phonology", "syllabify", "phonology.syllabify"),
    ("verseforge.phonology", "verse_syllables", "phonology.verse_syllables"),
    ("verseforge.phonology", "ending_hint", "phonology.ending_hint"),
    ("verseforge.phonology", "stress_pattern", "phonology.stress_pattern"),
    ("verseforge.validation", "verse_syllables", "phonology.verse_syllables"),
    ("verseforge.validation", "ending_hint", "phonology.ending_hint"),
    ("verseforge.tokenizers", "encode", "tokenizers.encode"),
    ("verseforge.tokenizers", "decode", "tokenizers.decode"),
    ("verseforge.tokenizers", "train_bpe", "tokenizers.train_bpe"),
    ("verseforge.tokenizers", "build_vocab", "tokenizers.build_vocab"),
    ("verseforge.tokenizers", "save_vocab", "tokenizers.save_vocab"),
    ("verseforge.tokenizers", "load_vocab", "tokenizers.load_vocab"),
    ("verseforge.ngram", "train", "ngram.train"),
    ("verseforge.ngram", "save", "ngram.save"),
    ("verseforge.ngram", "load", "ngram.load"),
    ("verseforge.ngram", "sample_with_rng", "ngram.sample"),
    ("verseforge.ngram", "NGramModel.next_dist", "ngram.next_dist"),
    ("verseforge.generation", "generate_forced", "generation.generate_forced"),
    ("verseforge.validation", "evaluate", "validation.evaluate"),
    ("verseforge.validation", "predict_scheme", "validation.predict_scheme"),
    ("verseforge.validation", "strophe_meters", "validation.strophe_meters"),
)


@dataclass
class Span:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    errors: Counter = field(default_factory=Counter)  # by caller span


class Tracer:
    def __init__(self):
        self.spans: dict[str, Span] = defaultdict(Span)
        self.missing: list[str] = []
        self.active = True
        # One frame per active traced call: [span name, child time].
        self._stack: list[list] = [["<root>", 0.0]]
        self._undo: list[tuple] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                spans[name].errors[stack[-2][0]] += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][1] += elapsed
                span = spans[name]
                span.calls += 1
                span.total_s += elapsed
                span.self_s += elapsed - frame[1]

        return traced

    def install(self, targets=TRACED) -> None:
        """Wrap every target; a target that no longer exists is recorded
        in ``missing`` and skipped."""
        for module_name, attr, name in targets:
            *path, leaf = attr.split(".")
            try:
                owner = importlib.import_module(module_name)
                for part in path:
                    owner = getattr(owner, part)
                fn = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr}")
                print(f"trace: {module_name}.{attr} is missing", file=sys.stderr)
                continue
            self._undo.append((owner, leaf, fn))
            setattr(owner, leaf, self.wrap(name, fn))

    def uninstall(self) -> None:
        while self._undo:
            owner, leaf, fn = self._undo.pop()
            setattr(owner, leaf, fn)

    def self_s(self, *names) -> float:
        return sum(self.spans[n].self_s for n in names if n in self.spans)

    def calls(self, name) -> int:
        return self.spans[name].calls if name in self.spans else 0

    def errors(self, name, caller) -> int:
        return self.spans[name].errors[caller] if name in self.spans else 0

    def layer_self_s(self) -> dict[str, float]:
        """Self time summed per layer (the span name's module part)."""
        out: dict[str, float] = defaultdict(float)
        for name, span in self.spans.items():
            out[name.split(".")[0]] += span.self_s
        return dict(out)
