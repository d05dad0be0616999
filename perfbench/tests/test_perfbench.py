"""Quick tests of the benchmark: every workload at a tiny size, and every
output check shown to reject a planted wrong output.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import random
import shutil
import subprocess
import sys
from argparse import Namespace
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import checks
import hostspeed
import prepare
import synth
import workload
from tracing import Tracer
from verseforge import formats, tokenizers
from verseforge.tokenizers import TokenizerKind

ROOT = Path(__file__).resolve().parents[2]
FIXTURE = ROOT / "tests" / "data" / "fixture_corpus.jsonl"
SEED = "7"


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """A 60-poem fixture, its prepared model and the seeded inputs."""
    d = tmp_path_factory.mktemp("perfbench")
    fixture = d / "fixture.jsonl"
    synth.write_jsonl(synth.read_jsonl(FIXTURE)[:60], fixture)
    prepared, inputs = d / "prepared", d / "inputs"
    prepared.mkdir()
    inputs.mkdir()
    prepare.main(["--fixture", str(fixture), "--out", str(prepared)])
    for name in ("train", "evaluate"):
        synth.main([name, "--seed", SEED, "--fixture", str(fixture), "--annotations",
                    str(prepared / "fixture_meter_verse.json"), "--out", str(inputs)])
    return Namespace(seed=SEED, fixture=str(fixture), prepared=str(prepared),
                     inputs=str(inputs))


def run_tiny(name, tiny, units=1):
    return workload.WORKLOADS[name](tiny, units, workload.Checking(None))


# ---------------------------------------------------------------------------
# synthesizer

def test_synth_is_seeded_and_keeps_structure():
    source = synth.read_jsonl(FIXTURE)[:200]
    a = synth.scaled_corpus(source, 2, 1)
    assert a == synth.scaled_corpus(source, 2, 1)
    assert a != synth.scaled_corpus(source, 2, 2)
    changed = 0
    for i, poem in enumerate(a):
        src = source[i % len(source)]
        assert poem["year"] == src["year"]
        for strophe, src_strophe in zip(poem["strophes"], src["strophes"]):
            for v, sv in zip(strophe, src_strophe):
                assert (v["rhyme"], v["meter"]) == (sv["rhyme"], sv["meter"])
                words, src_words = v["text"].split(" "), sv["text"].split(" ")
                assert words[-1] == src_words[-1]
                assert [len(w) for w in words] == [len(w) for w in src_words]
                changed += v["text"] != sv["text"]
    assert changed > 0


def test_mutate_word_changes_only_single_onset_consonants():
    rng = random.Random(0)
    for word in ("zahrada", "Kalina", "vlny", "srdce", "touha", "duchu"):
        for _ in range(20):
            new = synth.mutate_word(word, rng)
            for i, (a, b) in enumerate(zip(word.lower(), new.lower())):
                if a != b:
                    assert a in synth.CONSONANTS and b in synth.CONSONANTS
                    assert word.lower()[i + 1] in synth.VOWELS
                    assert i == 0 or word.lower()[i - 1] in synth.VOWELS
    assert synth.mutate_word("vlny", rng) == "vlny"  # one vowel group: untouched


def test_synth_does_not_import_the_program():
    code = "import sys, synth; print('verseforge' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT / "perfbench",
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# workloads at a tiny size

@pytest.mark.parametrize("name", ["train", "generate", "evaluate"])
def test_workload_runs_clean(tiny, name):
    run = run_tiny(name, tiny)
    assert run.problems == []
    assert run.attempted > 0 and run.failed == 0
    metrics = workload.end_to_end(run)
    assert all(v > 0 for v, _ in metrics.values())


def test_traced_run_reports_every_layer_metric(tiny):
    tracer = Tracer()
    tracer.install()
    try:
        run = workload.WORKLOADS["evaluate"](tiny, 2, workload.Checking(tracer))
    finally:
        tracer.uninstall()
    metrics = workload.per_layer("evaluate", tracer, run)
    assert tracer.missing == []
    assert set(metrics) == {name for name, _, _ in workload.PER_LAYER}
    assert metrics["evaluate.phonology.syllabify_calls"][0] > 0
    assert metrics["evaluate.phonology.syllabify_calls_per_verse"][0] > 1
    assert metrics["train.ngram.train_s"][0] == 0


def test_benchmark_json_matches_the_workload_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workload.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, unit) for name, unit, _ in workload.PER_LAYER]
    run = workload.Run(setup_s=[1.0], latencies_s=[0.1] * 10, timed_s=1.0, strophes=1)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        [(k, u) for k, (_, u) in workload.end_to_end(run).items()]


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and out.stdout == ""


def test_windows_scale_by_the_reference_around_them(monkeypatch):
    times = iter([2e-3, 1e-3, 3e-3, 1e-3])
    monkeypatch.setattr(hostspeed, "time_reference", lambda: next(times))
    win = hostspeed.Windows()
    win.start()
    assert win.close() == pytest.approx(hostspeed.REFERENCE_S / 1.5e-3)
    assert win.close() == pytest.approx(hostspeed.REFERENCE_S / 2e-3)
    win.start()
    assert win.reference_s == [2e-3, 1e-3, 3e-3, 1e-3]
    assert hostspeed.reference() == hostspeed.reference()


def test_end_to_end_reports_scaled_times_and_keeps_the_raw_ones(tiny):
    run = run_tiny("evaluate", tiny, 2)
    scaled, raw = workload.end_to_end(run), workload.end_to_end(run, raw=True)
    assert len(run.windows.reference_s) >= len(run.latencies_s)
    assert raw["peak_rss_mb"] == scaled["peak_rss_mb"]
    assert raw["latency_p50_ms"][0] != scaled["latency_p50_ms"][0]
    assert run.timed_s == pytest.approx(sum(run.latencies_s))


# ---------------------------------------------------------------------------
# tracing

def test_tracer_self_time_and_missing_names():
    tracer = Tracer()
    inner = tracer.wrap("b.inner", lambda: sum(range(20000)))
    outer = tracer.wrap("a.outer", lambda: [inner() for _ in range(3)])
    outer()
    a, b = tracer.spans["a.outer"], tracer.spans["b.inner"]
    assert (a.calls, b.calls) == (1, 3)
    assert a.self_s == pytest.approx(a.total_s - b.total_s)
    tracer.install([("verseforge.ngram", "no_such_function", "ngram.gone")])
    assert tracer.missing == ["verseforge.ngram.no_such_function"]


# ---------------------------------------------------------------------------
# every check rejects a planted wrong output

def test_train_checks_reject_wrong_outputs(tiny):
    from verseforge import corpus, ngram

    strophes = corpus.ingest(tiny.fixture)[:30]
    texts = [formats.encode(s, workload.MV) for s in strophes]
    lines = [line for t in texts for line in t.split("\n")]
    uni = tokenizers.build_vocab(TokenizerKind.UNICODE, lines)
    seqs = [tokenizers.encode(uni, t) + [uni.eos_id] for t in texts]
    model = ngram.train(seqs, 4, uni)

    assert checks.check_unicode_roundtrip(uni, texts[0], seqs[0]) == []
    assert checks.check_unicode_roundtrip(uni, texts[0], seqs[0][1:])

    assert checks.check_annotation(texts[0], texts[0]) == []
    head, first, *rest = texts[0].split("\n")
    meter, syl, tail = first.split(" # ", 2)
    wrong = "\n".join([head, " # ".join([meter, str(int(syl) + 1), tail])] + rest)
    assert checks.check_annotation(wrong, texts[0])
    assert checks.check_annotation(texts[0].replace("#", "# B", 1), texts[0])

    assert checks.check_context_counts(model, seqs) == []
    ctx = next(c for c in model.counts if len(c) == 2)
    tok = next(iter(model.counts[ctx]))
    model.counts[ctx][tok] += 1
    assert checks.check_context_counts(model, seqs)

    assert checks.check_next_dist_rows(model, seqs, 5, 0) == []

    class Unnormalized:
        vocab_size = model.vocab_size

        def next_dist(self, ctx):
            return np.full(self.vocab_size, 2.0 / self.vocab_size)

    assert checks.check_next_dist_rows(Unnormalized(), seqs, 5, 0)

    bpe = tokenizers.build_vocab(TokenizerKind.OUR, lines, 120)
    assert checks.check_bpe_merges(bpe, lines) == []
    assert checks.check_bpe_lossless(bpe, lines) == []
    bogus = replace(bpe, tokens=bpe.tokens + ["qqqq"], id_of={})
    assert checks.check_bpe_merges(bogus, lines)
    lossy = replace(bpe, tokens=[t for t in bpe.tokens if t != "á"], id_of={})
    assert checks.check_bpe_lossless(lossy, lines)


def test_generate_check_rejects_wrong_outputs(tiny):
    from verseforge import generation, ngram

    vocab = tokenizers.load_vocab(f"{tiny.prepared}/model.vocab")
    model = ngram.load(f"{tiny.prepared}/model.ngram", vocab)
    stream = synth.requests(synth.held_out(synth.read_jsonl(tiny.fixture)), SEED)
    d = next(r for r in stream if "A" in r["scheme"] and len(set(r["scheme"])) < len(r["scheme"]))
    gen = generation.generate_forced(model, vocab, workload.generation_request(d))
    assert checks.check_generation(d, gen) == []

    def with_text(text, flags=None):
        try:
            parsed = formats.parse(text, workload.MV)
        except formats.FormatError:
            parsed = None
        return replace(gen, raw_text=text, parsed=parsed,
                       forced_flags=gen.forced_flags if flags is None else flags)

    lines = gen.raw_text.split("\n")
    forced = 1 + synth.forced_flags(d["scheme"]).index(True)
    m, syl, hint, text = lines[forced].split(" # ", 3)
    changed_hint = lines.copy()
    changed_hint[forced] = " # ".join([m, syl, hint + "x", text])
    assert checks.check_generation(d, with_text("\n".join(changed_hint)))

    other_meter = lines.copy()
    free = 1 + synth.forced_flags(d["scheme"]).index(False)
    new_meter = "N" if d["meters"][free - 1] != "N" else "J"
    other_meter[free] = new_meter + other_meter[free][1:]
    assert checks.check_generation(d, with_text("\n".join(other_meter)))

    assert checks.check_generation(d, with_text("\n".join(["# AAAA # 1900"] + lines[1:])))
    assert checks.check_generation(d, with_text("\n".join(lines[:-1])))
    assert checks.check_generation(d, with_text(gen.raw_text, (False,) * len(d["scheme"])))


def test_evaluate_check_rejects_wrong_reports(tiny):
    from verseforge import validation

    pairs = workload.load_pairs(tiny.inputs)[:50]
    faults = synth.read_jsonl(f"{tiny.inputs}/faults.jsonl")[:50]
    assert any(f["fault"] for f in faults)
    report = validation.evaluate(pairs).to_dict()
    assert checks.check_report(report, faults) == []

    off_by_one = dict(report, n_verses=report["n_verses"] + 1)
    assert checks.check_report(off_by_one, faults)
    assert checks.check_report(dict(report, unique=0.0), faults)

    # A fault the benchmark did not record must show in the report.
    i = next(i for i, f in enumerate(faults) if f["fault"] is None)
    req, gen = pairs[i]
    head, first, *rest = gen.raw_text.split("\n")
    m, syl, hint, text = first.split(" # ", 3)
    raw = "\n".join([head, " # ".join([m, str(int(syl) + 1), hint, text])] + rest)
    pairs[i] = (req, replace(gen, raw_text=raw, parsed=formats.parse(raw, workload.MV)))
    assert checks.check_report(validation.evaluate(pairs).to_dict(), faults)
