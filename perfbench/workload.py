"""One workload in a process of its own: set up, run the timed phase,
check every output and print the result line.

``run.py`` writes the inputs and the prepared model first, then starts:

    python3 perfbench/workload.py WORKLOAD --seed N --seconds S --trace 0|1 \\
        --inputs DIR --prepared DIR --fixture FILE

A run does a fixed amount of work, ``WORK_PER_SECOND`` units per second
of ``--seconds``, sized so that the timed phase lasts about that long at
the commit that added the benchmark.  Untraced runs print the end-to-end
metrics; traced runs do the same work with the layers' functions wrapped
and print the per-layer metrics.  A time-bounded run would do less work
when the host is slow, and on ``generate`` less of it with a warm model
cache, which made slow runs slower still.

Every end-to-end time is scaled by the host-speed reference timed around
its window (``hostspeed``); the raw figures go to standard error.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

from verseforge import corpus, formats, generation, ngram, tokenizers, validation
from verseforge.corpus import MeterLabel, YearBucket
from verseforge.formats import DataFormat
from verseforge.tokenizers import TokenizerKind

import checks
import hostspeed
import synth
from tracing import Tracer

ORDER = 10
BPE_VOCAB_SIZE = 200
TEMPERATURE = 1.0
EVAL_BATCH = 50       # strophes per evaluate call
ROUND_OPS = {"generate": 100, "evaluate": 10}  # operations between output checks
# Operations per window between two host-speed references (see hostspeed).
WINDOW_OPS = {"train": 100, "generate": 25, "evaluate": 2}
# Set-ups (before the timed phase, after it).  One before: a second one
# there would load into the heap the first left fragmented, and the
# timed phase's peak RSS would vary with how it fell.  The ones after
# make the median of set-up times span the run.
SETUP_REPEATS = {"train": (1, 5), "generate": (1, 3), "evaluate": (1, 3)}
# Work per second of --seconds: train rounds, generate requests, evaluate
# batches.
WORK_PER_SECOND = {"train": 1 / 8, "generate": 280, "evaluate": 20}
NEXT_DIST_ROWS = 50   # next_dist rows checked per train round
RERUN = 10            # generate requests re-run to check determinism
MV = DataFormat.METER_VERSE

clock = time.perf_counter


@dataclass
class Run:
    # Times scaled by the host-speed reference; raw_* as measured.
    setup_s: list = field(default_factory=list)
    latencies_s: list = field(default_factory=list)  # one per operation
    timed_s: float = 0.0
    raw_setup_s: list = field(default_factory=list)
    raw_latencies_s: list = field(default_factory=list)
    raw_timed_s: float = 0.0
    windows: hostspeed.Windows = field(default_factory=hostspeed.Windows)
    strophes: int = 0
    units: int = 0          # work done: train rounds, generate requests, evaluate batches
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)     # run-level check failures
    counts: Counter = field(default_factory=Counter)
    peak_rss_mb: float = 0.0  # at the end of the timed phase

    def timed_phase_done(self) -> None:
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def step(self, fn):
        """Run one timed step that is a window of its own; returns its result."""
        t = clock()
        result = fn()
        raw = clock() - t
        f = self.windows.close()
        self.raw_timed_s += raw
        self.timed_s += raw * f
        return result

    def ops(self, raw_s: list) -> list:
        """Close the window that held these operations; returns their
        scaled times and adds them to the timed phase."""
        f = self.windows.close()
        scaled = [r * f for r in raw_s]
        self.raw_timed_s += sum(raw_s)
        self.timed_s += sum(scaled)
        return scaled

    def op(self, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if self.failed <= 5:
                print(f"failed operation: {problems}", file=sys.stderr)


def set_up(run: Run, load, repeats: int):
    """Call ``load`` ``repeats`` times, timing each as a window of its own;
    returns the last result.  The previous result is dropped before each
    call."""
    result = None
    for _ in range(repeats):
        result = None
        run.windows.start()
        t = clock()
        result = load()
        raw = clock() - t
        run.setup_s.append(raw * run.windows.close())
        run.raw_setup_s.append(raw)
    return result


class Checking:
    """Pause tracing around output checks."""

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer

    def __enter__(self):
        if self.tracer:
            self.tracer.active = False

    def __exit__(self, *exc):
        if self.tracer:
            self.tracer.active = True


# ---------------------------------------------------------------------------
# train

def timed_loop(run: Run, items, fn):
    """Apply ``fn`` to each item, in windows of ``WINDOW_OPS["train"]``;
    returns the results with their raw and scaled times."""
    out, raw_s, scaled_s = [], [], []
    for lo in range(0, len(items), WINDOW_OPS["train"]):
        window = []
        for item in items[lo:lo + WINDOW_OPS["train"]]:
            t = clock()
            out.append(fn(item))
            window.append(clock() - t)
        raw_s += window
        scaled_s += run.ops(window)
    return out, raw_s, scaled_s


def train_round(part, sources, out, run: Run, seed, checking) -> None:
    """Format, build both vocabularies, encode, train and save one copy.
    Each step, and each window of the two per-strophe loops, is scaled by
    the host-speed references around it."""
    run.windows.start()
    texts, raw_enc, enc = timed_loop(run, part, lambda s: formats.encode(s, MV))
    lines = [line for text in texts for line in text.split("\n")]
    unicode_vocab = run.step(lambda: tokenizers.build_vocab(TokenizerKind.UNICODE, lines))
    bpe = run.step(lambda: tokenizers.build_vocab(TokenizerKind.OUR, lines, BPE_VOCAB_SIZE))
    ids, raw_tok, tok = timed_loop(run, texts, lambda t: tokenizers.encode(unicode_vocab, t))
    seqs = [i + [unicode_vocab.eos_id] for i in ids]
    model = run.step(lambda: ngram.train(seqs, ORDER, unicode_vocab))
    run.step(lambda: tokenizers.save_vocab(bpe, f"{out}/round.bpe.vocab"))
    run.step(lambda: tokenizers.save_vocab(unicode_vocab, f"{out}/round.unicode.vocab"))
    run.step(lambda: ngram.save(model, f"{out}/round.ngram"))
    run.latencies_s += [a + b for a, b in zip(enc, tok)]
    run.raw_latencies_s += [a + b for a, b in zip(raw_enc, raw_tok)]
    run.strophes += len(part)
    run.units += 1

    with checking:
        for text, ids, source in zip(texts, seqs, sources):
            run.op(checks.check_unicode_roundtrip(unicode_vocab, text, ids)
                   + checks.check_annotation(text, source))
        run.problems += checks.check_context_counts(model, seqs)
        run.problems += checks.check_next_dist_rows(model, seqs, NEXT_DIST_ROWS,
                                                    f"{seed}:{run.units}")
        run.problems += checks.check_bpe_merges(bpe, lines)
        run.problems += checks.check_bpe_lossless(bpe, lines)
        run.counts["bpe_merges"] += len(bpe) - checks.bpe_base_size(bpe, lines)
        run.counts["tokens"] += sum(map(len, seqs))
        run.counts["contexts"] += len(model.counts)


def run_train(args, work, checking) -> Run:
    run = Run()

    def ingest():
        return corpus.ingest(f"{args.inputs}/corpus.jsonl")

    strophes = set_up(run, ingest, SETUP_REPEATS["train"][0])
    with open(f"{args.prepared}/fixture_meter_verse.json", encoding="utf-8") as f:
        sources = json.load(f)
    n = len(sources)
    if len(strophes) != n * synth.TRAIN_COPIES:
        run.problems.append(f"{len(strophes)} strophes, expected {synth.TRAIN_COPIES} x {n}")
        return run
    copies = [strophes[i:i + n] for i in range(0, len(strophes), n)]
    while run.units < work:
        train_round(copies[run.units % len(copies)], sources, args.inputs, run,
                    args.seed, checking)
    run.timed_phase_done()
    copies = strophes = None
    set_up(run, ingest, SETUP_REPEATS["train"][1])
    return run


# ---------------------------------------------------------------------------
# generate

def generation_request(d) -> generation.GenerationRequest:
    return generation.GenerationRequest(
        scheme=d["scheme"], year_bucket=YearBucket.parse(d["year"]), fmt=MV,
        per_verse_meters=tuple(MeterLabel(m) for m in d["meters"]),
        temperature=TEMPERATURE, seed=d.get("seed", 0))


def run_generate(args, work, checking) -> Run:
    run = Run()

    def load():
        vocab = tokenizers.load_vocab(f"{args.prepared}/model.vocab")
        return vocab, ngram.load(f"{args.prepared}/model.ngram", vocab)

    vocab, model = set_up(run, load, SETUP_REPEATS["generate"][0])
    stream = synth.requests(synth.held_out(synth.read_jsonl(args.fixture)), args.seed)
    first = []
    while run.units < work:
        done = []
        run.windows.start()
        for _ in range(ROUND_OPS["generate"] // WINDOW_OPS["generate"]):
            window = []
            for d in (next(stream) for _ in range(WINDOW_OPS["generate"])):
                t = clock()
                try:
                    gen = generation.generate_forced(model, vocab, generation_request(d))
                except Exception as e:  # an operation that raises counts as failed
                    gen = e
                window.append(clock() - t)
                done.append((d, gen))
            run.raw_latencies_s += window
            run.latencies_s += run.ops(window)
        run.units += len(done)
        with checking:
            for d, gen in done:
                if isinstance(gen, Exception):
                    run.op([f"raised {gen!r}"])
                    continue
                run.op(checks.check_generation(d, gen))
                run.strophes += 1
                if len(first) < RERUN:
                    first.append((d, gen.raw_text))
    run.timed_phase_done()
    # A freshly loaded model (empty cache) must give the same texts.
    vocab = model = None
    vocab, model = set_up(run, load, SETUP_REPEATS["generate"][1])
    with checking:
        for d, text in first:
            again = generation.generate_forced(model, vocab, generation_request(d)).raw_text
            if again != text:
                run.problems.append(f"request {d} generated different text on a re-run")
    return run


# ---------------------------------------------------------------------------
# evaluate

def load_pairs(inputs):
    """Read the request and generation files and parse every generation,
    as ``verseforge evaluate`` does."""
    with open(f"{inputs}/requests.jsonl", encoding="utf-8") as rf, \
            open(f"{inputs}/generations.jsonl", encoding="utf-8") as gf:
        req_lines, gen_lines = rf.read().splitlines(), gf.read().splitlines()
    pairs = []
    for rl, gl in zip(req_lines, gen_lines):
        req, g = generation_request(json.loads(rl)), json.loads(gl)
        try:
            parsed, error = formats.parse(g["raw_text"], MV), None
        except formats.FormatError as e:
            parsed, error = None, str(e)
        pairs.append((req, generation.GeneratedStrophe(
            g["raw_text"], req, parsed, error, g["truncated"], tuple(g["forced"]))))
    return pairs


def run_evaluate(args, work, checking) -> Run:
    run = Run()
    pairs = set_up(run, lambda: load_pairs(args.inputs), SETUP_REPEATS["evaluate"][0])
    faults = synth.read_jsonl(f"{args.inputs}/faults.jsonl")
    starts = range(0, len(pairs) - EVAL_BATCH + 1, EVAL_BATCH)
    while run.units < work:
        done = []
        run.windows.start()
        for _ in range(ROUND_OPS["evaluate"]):
            lo = starts[run.units % len(starts)]
            t = clock()
            try:
                report = validation.evaluate(pairs[lo:lo + EVAL_BATCH]).to_dict()
            except Exception as e:  # an operation that raises counts as failed
                report = e
            raw = [clock() - t]
            run.raw_latencies_s += raw
            run.latencies_s += run.ops(raw)
            run.units += 1
            done.append((lo, report))
        for lo, report in done:
            if isinstance(report, Exception):
                run.op([f"raised {report!r}"])
                continue
            run.op(checks.check_report(report, faults[lo:lo + EVAL_BATCH]))
            run.strophes += report["n_strophes"]
            run.counts["verses"] += report["n_verses"]
    run.timed_phase_done()
    pairs = None
    set_up(run, lambda: load_pairs(args.inputs), SETUP_REPEATS["evaluate"][1])
    return run


WORKLOADS = {"train": run_train, "generate": run_generate, "evaluate": run_evaluate}


# ---------------------------------------------------------------------------
# metrics

def end_to_end(run: Run, raw: bool = False) -> dict:
    """The end-to-end metrics, scaled by the host-speed reference, or as
    measured with ``raw``."""
    setup, lat, timed = ((run.raw_setup_s, run.raw_latencies_s, run.raw_timed_s) if raw
                         else (run.setup_s, run.latencies_s, run.timed_s))
    return {
        "setup_s": (statistics.median(setup), "s"),
        "strophes_per_s": (run.strophes / timed, "strophes/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": (statistics.quantiles(lat, n=10)[8] * 1e3, "ms"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
    }


def report_raw(run: Run) -> None:
    """The unscaled figures and the reference times, on standard error."""
    ref = run.windows.reference_s
    figures = ", ".join(f"{k} {v:.4g}" for k, (v, _) in end_to_end(run, raw=True).items())
    print(f"raw: {figures}; reference median {statistics.median(ref) * 1e3:.4g} ms "
          f"[{min(ref) * 1e3:.3g}, {max(ref) * 1e3:.3g}] over {len(ref)} windows, "
          f"{run.windows.spent_s:.2f} s", file=sys.stderr)


def _verses(tr, counts):
    return tr.calls("phonology.syllabify") / counts["verses"] if counts["verses"] else 0.0


# (name, unit, value from the tracer and the run's own counts)
PER_LAYER = (
    ("train.corpus.ingest_s", "s", lambda tr, c: tr.self_s("corpus.ingest")),
    ("train.formats.encode_s", "s", lambda tr, c: tr.self_s("formats.encode")),
    ("train.tokenizers.encode_s", "s", lambda tr, c: tr.self_s("tokenizers.encode")),
    ("train.phonology.syllabify_calls", "count", lambda tr, c: tr.calls("phonology.syllabify")),
    ("train.tokenizers.train_bpe_s", "s", lambda tr, c: tr.self_s("tokenizers.train_bpe")),
    ("train.tokenizers.bpe_merges", "count", lambda tr, c: c["bpe_merges"]),
    ("train.ngram.train_s", "s", lambda tr, c: tr.self_s("ngram.train")),
    ("train.ngram.tokens", "count", lambda tr, c: c["tokens"]),
    ("train.ngram.contexts", "count", lambda tr, c: c["contexts"]),
    ("train.ngram.save_s", "s", lambda tr, c: tr.self_s("ngram.save")),
    ("generate.tokenizers.load_vocab_s", "s", lambda tr, c: tr.self_s("tokenizers.load_vocab")),
    ("generate.ngram.load_s", "s", lambda tr, c: tr.self_s("ngram.load")),
    ("generate.ngram.next_dist_s", "s", lambda tr, c: tr.self_s("ngram.next_dist")),
    ("generate.ngram.next_dist_calls", "count", lambda tr, c: tr.calls("ngram.next_dist")),
    ("generate.ngram.sample_s", "s", lambda tr, c: tr.self_s("ngram.sample")),
    ("generate.ngram.tokens_sampled", "count", lambda tr, c: tr.calls("ngram.sample")),
    ("generate.tokenizers.encode_s", "s", lambda tr, c: tr.self_s("tokenizers.encode")),
    ("generate.tokenizers.decode_s", "s", lambda tr, c: tr.self_s("tokenizers.decode")),
    ("generate.formats.parse_s", "s",
     lambda tr, c: tr.self_s("formats.parse", "formats.parse_verse_line")),
    ("generate.generation.self_s", "s", lambda tr, c: tr.self_s("generation.generate_forced")),
    ("generate.generation.verse_retries", "count",
     lambda tr, c: tr.errors("formats.parse_verse_line", "generation.generate_forced")),
    ("evaluate.formats.parse_s", "s",
     lambda tr, c: tr.self_s("formats.parse", "formats.parse_verse_line")),
    ("evaluate.formats.consistency_check_s", "s",
     lambda tr, c: tr.self_s("formats.consistency_check")),
    ("evaluate.phonology.syllabify_s", "s", lambda tr, c: tr.self_s("phonology.syllabify")),
    ("evaluate.phonology.syllabify_calls", "count", lambda tr, c: tr.calls("phonology.syllabify")),
    ("evaluate.phonology.syllabify_calls_per_verse", "calls/verse", _verses),
    ("evaluate.phonology.stress_pattern_s", "s", lambda tr, c: tr.self_s("phonology.stress_pattern")),
    ("evaluate.validation.predict_scheme_s", "s",
     lambda tr, c: tr.self_s("validation.predict_scheme")),
    ("evaluate.validation.strophe_meters_s", "s",
     lambda tr, c: tr.self_s("validation.strophe_meters")),
    ("evaluate.validation.self_s", "s", lambda tr, c: tr.self_s("validation.evaluate")),
)


def per_layer(workload: str, tracer: Tracer, run: Run) -> dict:
    """Every per-layer metric; those named after another workload read 0."""
    return {name: (fn(tracer, run.counts) if name.startswith(workload + ".") else 0, unit)
            for name, unit, fn in PER_LAYER}


def report_trace(tracer: Tracer, run: Run) -> None:
    """Layer shares of traced self time, and the traced run's own end-to-end
    figures (for the tracing overhead), on standard error."""
    layers = tracer.layer_self_s()
    total = sum(layers.values())
    shares = ", ".join(f"{k} {v / total:.1%}" for k, v in sorted(layers.items(), key=lambda kv: -kv[1]))
    figures = ", ".join(f"{k} {v:.4g}" for k, (v, _) in end_to_end(run).items())
    print(f"traced: {run.units} units, layer self time {total:.3f} s: {shares}; {figures}",
          file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one benchmark workload.")
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--prepared", required=True)
    ap.add_argument("--fixture", required=True)
    args = ap.parse_args(argv)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    work = max(1, round(WORK_PER_SECOND[args.workload] * args.seconds))
    run = WORKLOADS[args.workload](args, work, Checking(tracer))
    for problem in run.problems[:10]:
        print(f"check failed: {problem}", file=sys.stderr)
    if not run.latencies_s:
        print("no operation ran", file=sys.stderr)
        return 1
    report_raw(run)
    if tracer:
        report_trace(tracer, run)
        metrics = per_layer(args.workload, tracer, run)
    else:
        metrics = end_to_end(run)
    print(json.dumps({
        "correct": not run.problems and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
