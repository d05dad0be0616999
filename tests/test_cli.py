import hashlib
import json
import logging
import os
import stat
import tracemalloc
from unittest.mock import patch

import pytest

from verseforge import corpus, formats, ngram, tokenizers, validation
from verseforge.cli import main
from verseforge.formats import DataFormat
from helpers import DATA
from test_analysis_goldens import _pairs as analysis_pairs
from test_goldens import OUR_DEFAULT_BUDGET_SHA256
from test_ngram import set_field


@pytest.fixture()
def mini_corpus(tmp_path):
    src = (DATA / "fixture_corpus.jsonl").read_text(encoding="utf-8")
    path = tmp_path / "mini.jsonl"
    path.write_text("".join(src.splitlines(keepends=True)[:80]), encoding="utf-8")
    return path


def test_missing_required_option_is_usage_error(capsys):
    assert main(["ingest"]) == 2
    assert "usage error" in capsys.readouterr().err


def test_unknown_command_is_usage_error(capsys):
    assert main(["no-such-command"]) == 2


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "Usage:" in capsys.readouterr().out


def test_an_interrupt_prints_aborted_and_exits_130(tmp_path, capsys, monkeypatch):
    def interrupted(path):
        raise KeyboardInterrupt
    monkeypatch.setattr(corpus, "ingest", interrupted)
    assert main(["stats", "--corpus", str(tmp_path / "c.jsonl")]) == 130
    # click ends the interrupted line before it raises
    assert capsys.readouterr().err == "\naborted\n"


def test_missing_file(tmp_path, capsys):
    rc = main(["ingest", "--corpus", str(tmp_path / "nope.jsonl"),
               "--stats-out", str(tmp_path / "s.json")])
    assert rc == 3
    assert "missing file" in capsys.readouterr().err


def test_schema_error(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{not json\n", encoding="utf-8")
    rc = main(["ingest", "--corpus", str(bad), "--stats-out", str(tmp_path / "s.json")])
    assert rc == 4
    assert "schema error" in capsys.readouterr().err


def test_ingest_and_stats(mini_corpus, tmp_path, capsys):
    stats_out = tmp_path / "stats.json"
    assert main(["ingest", "--corpus", str(mini_corpus),
                 "--stats-out", str(stats_out)]) == 0
    assert "strophes" in capsys.readouterr().out
    payload = json.loads(stats_out.read_text(encoding="utf-8"))
    assert payload["config"]["subcommand"] == "ingest"
    assert payload["stats"]["strophes"] > 0

    assert main(["stats", "--corpus", str(mini_corpus)]) == 0
    out = capsys.readouterr().out
    assert "scheme\t" in out and "meter\t" in out


def test_ingest_min_scheme_count_keeps_the_schemes_that_occur_that_often(mini_corpus,
                                                                         tmp_path, capsys):
    counts = corpus.stats(corpus.ingest(mini_corpus)).scheme_counts
    n = sorted(set(counts.values()))[1]
    kept = {scheme: c for scheme, c in counts.items() if c >= n}
    assert 0 < len(kept) < len(counts)
    stats_out = tmp_path / "stats.json"
    assert main(["ingest", "--corpus", str(mini_corpus), "--stats-out", str(stats_out),
                 "--min-scheme-count", str(n)]) == 0
    payload = json.loads(stats_out.read_text(encoding="utf-8"))
    assert payload["config"]["min_scheme_count"] == n
    assert payload["stats"]["schemes"] == kept
    assert payload["stats"]["strophes"] == sum(kept.values())
    assert capsys.readouterr().out.startswith(f"{sum(kept.values())} strophes, ")


def test_train_lm_logs_held_out_perplexity(mini_corpus, tmp_path, capsys, caplog):
    caplog.set_level(logging.INFO, logger="verseforge")
    vocab_path = tmp_path / "uni.vocab"
    model_path = tmp_path / "uni.ngram"
    assert main(["train-tokenizer", "--corpus", str(mini_corpus),
                 "--kind", "unicode", "--out", str(vocab_path)]) == 0
    capsys.readouterr()
    train_lm = ["train-lm", "--corpus", str(mini_corpus), "--vocab", str(vocab_path),
                "--order", "4", "--seed", "3", "--out", str(model_path)]
    assert main(train_lm + ["--test-fraction", "0.1"]) == 0
    vocab = tokenizers.load_vocab(vocab_path)
    out = capsys.readouterr()
    assert out.out == f"order-4 model over {len(vocab)} tokens -> {model_path}\n"
    assert "perplexity" not in model_path.read_text(encoding="utf-8")

    model = ngram.load(model_path, vocab)
    per_order, ppl = [r.getMessage() for r in caplog.records if r.name == "verseforge.cli"]
    assert per_order == "contexts per order: " + " ".join(
        f"{k}:{sum(len(c) == k - 1 for c in model.counts)}" for k in range(1, 5))
    _, held_out = corpus.split(corpus.ingest(mini_corpus), 0.1, 3)
    seqs = [tokenizers.encode(vocab, formats.encode(s, DataFormat.METER_VERSE))
            + [vocab.eos_id] for s in held_out]
    assert ppl == (f"held-out perplexity {model.perplexity(seqs):.4f} "
                   f"over {len(held_out)} strophes")
    assert 1.0 < model.perplexity(seqs) < len(vocab)

    caplog.clear()
    assert main(train_lm + ["--test-fraction", "0.001"]) == 0
    messages = [r.getMessage() for r in caplog.records if r.name == "verseforge.cli"]
    assert messages[1] == "held-out split is empty; no perplexity"
    assert not any("held-out perplexity" in m for m in messages)


# train-lm's log line on the first 80 fixture poems at order 6, pinned
CONTEXTS_PER_ORDER = "contexts per order: 1:1 2:67 3:374 4:878 5:1455 6:2053"


def test_train_lm_logs_contexts_per_order(mini_corpus, tmp_path, caplog):
    caplog.set_level(logging.INFO, logger="verseforge")
    vocab_path = tmp_path / "uni.vocab"
    assert main(["train-tokenizer", "--corpus", str(mini_corpus),
                 "--kind", "unicode", "--out", str(vocab_path)]) == 0
    assert main(["train-lm", "--corpus", str(mini_corpus), "--vocab", str(vocab_path),
                 "--order", "6", "--test-fraction", "0.1",
                 "--out", str(tmp_path / "uni.ngram")]) == 0
    messages = [r.getMessage() for r in caplog.records if r.name == "verseforge.cli"]
    assert messages[0] == CONTEXTS_PER_ORDER


def test_train_lm_without_order_trains_the_default_of_the_vocabulary_kind(
        small_model, mini_corpus, tmp_path, capsys):
    vocab, _ = small_model
    model = tmp_path / "m.ngram"
    assert main(["train-lm", "--corpus", str(mini_corpus), "--vocab", str(vocab),
                 "--out", str(model)]) == 0
    assert ngram.load(model).order == ngram.DEFAULT_ORDER[tokenizers.TokenizerKind.UNICODE]


@pytest.mark.parametrize("order", ["0", "-1"])
def test_train_lm_refuses_an_order_below_1(small_model, mini_corpus, tmp_path, capsys, order):
    vocab, _ = small_model
    model = tmp_path / "m.ngram"
    capsys.readouterr()
    assert main(["train-lm", "--corpus", str(mini_corpus), "--vocab", str(vocab),
                 f"--order={order}", "--out", str(model)]) == 5
    assert capsys.readouterr().err == f"error: order must be >= 1, got {order}\n"
    assert not model.exists()


def test_train_lm_ends_its_model_with_config_and_generate_reads_the_image(
        mini_corpus, tmp_path, capsys):
    vocab, model = tmp_path / "uni.vocab", tmp_path / "uni.ngram"
    assert main(["train-tokenizer", "--corpus", str(mini_corpus),
                 "--kind", "unicode", "--out", str(vocab)]) == 0
    train_lm = ["train-lm", "--corpus", str(mini_corpus), "--vocab", str(vocab),
                "--order", "4", "--out", str(model)]
    assert main(train_lm) == 0
    key, config = model.read_text(encoding="utf-8").splitlines()[-1].split("\t")
    assert key == "config" and json.loads(config)["subcommand"] == "train-lm"
    capsys.readouterr()
    generate = ["generate", "--model", str(model), "--vocab", str(vocab), "--scheme", "ABAB"]
    with patch.object(ngram, "_parse", side_effect=AssertionError("the text was parsed")):
        assert main(generate) == 0
    out = capsys.readouterr()
    (tmp_path / "uni.ngram.img").unlink()
    assert main(generate) == 0
    assert capsys.readouterr() == out


def test_generate_parses_the_text_beside_an_image_whose_header_has_a_wrong_type(
        mini_corpus, tmp_path, capsys, caplog):
    vocab, model = tmp_path / "uni.vocab", tmp_path / "uni.ngram"
    assert main(["train-tokenizer", "--corpus", str(mini_corpus),
                 "--kind", "unicode", "--out", str(vocab)]) == 0
    assert main(["train-lm", "--corpus", str(mini_corpus), "--vocab", str(vocab),
                 "--order", "4", "--out", str(model)]) == 0
    generate = ["generate", "--model", str(model), "--vocab", str(vocab), "--scheme", "ABAB"]
    capsys.readouterr()
    assert main(generate) == 0
    out = capsys.readouterr().out
    img = tmp_path / "uni.ngram.img"
    # a field of another type, and a header nested past the recursion limit
    deep = ngram.IMAGE_MAGIC + (100_000).to_bytes(8, "little") + b"[" * 100_000
    for mutated in (set_field("order", "4")(img.read_bytes(), model), deep):
        img.write_bytes(mutated)
        caplog.clear()
        assert main(generate) == 0
        assert capsys.readouterr().out == out
        [message] = [r.getMessage() for r in caplog.records if r.name == "verseforge.ngram"]
        assert message == f"{img}: model image not used: malformed header"


def test_a_missing_model_text_beside_its_image_is_one_missing_file_line(
        mini_corpus, tmp_path, capsys, caplog):
    vocab, model = tmp_path / "uni.vocab", tmp_path / "uni.ngram"
    assert main(["train-tokenizer", "--corpus", str(mini_corpus),
                 "--kind", "unicode", "--out", str(vocab)]) == 0
    assert main(["train-lm", "--corpus", str(mini_corpus), "--vocab", str(vocab),
                 "--order", "3", "--out", str(model)]) == 0
    model.unlink()
    capsys.readouterr()
    caplog.clear()
    assert main(["generate", "--model", str(model), "--vocab", str(vocab),
                 "--scheme", "ABAB"]) == 3
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("missing file: ") and line.endswith(f"'{model}'")
    assert [r.getMessage() for r in caplog.records if r.name == "verseforge.ngram"] == []


def test_full_pipeline(mini_corpus, tmp_path, capsys):
    vocab = tmp_path / "uni.vocab"
    model = tmp_path / "uni.ngram"
    assert main(["train-tokenizer", "--corpus", str(mini_corpus),
                 "--kind", "unicode", "--out", str(vocab)]) == 0
    assert main(["train-lm", "--corpus", str(mini_corpus), "--vocab", str(vocab),
                 "--order", "6", "--test-fraction", "0.1",
                 "--out", str(model)]) == 0
    capsys.readouterr()

    # single request goes to stdout with provenance comments
    assert main(["generate", "--model", str(model), "--vocab", str(vocab),
                 "--scheme", "ABAB", "--year", "1900",
                 "--temperature", "0.3", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# machine-generated\n# config ")
    assert "# ABAB # 1900" in out

    # batch mode: one JSONL record per request
    requests = tmp_path / "requests.jsonl"
    recs = [{"scheme": "ABAB", "year": "1900", "seed": i} for i in range(4)]
    requests.write_text("".join(json.dumps(r) + "\n" for r in recs),
                        encoding="utf-8")
    generations = tmp_path / "gen.jsonl"
    assert main(["generate", "--model", str(model), "--vocab", str(vocab),
                 "--requests", str(requests), "--out", str(generations),
                 "--temperature", "0.3"]) == 0
    lines = generations.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 4
    first = json.loads(lines[0])
    assert set(first) >= {"raw_text", "forced", "truncated", "parse_error"}

    report_path = tmp_path / "report.json"
    assert main(["evaluate", "--requests", str(requests),
                 "--generations", str(generations),
                 "--report", str(report_path)]) == 0
    out = capsys.readouterr().out
    assert "num_syl\t" in out and "end_acc\t" in out
    report = json.loads(report_path.read_text(encoding="utf-8"))["report"]
    assert report["n_strophes"] == 4
    assert 0.0 <= report["num_syl"] <= 1.0


def test_basic_format_round_trip(mini_corpus, tmp_path, capsys):
    vocab = tmp_path / "uni.vocab"
    model = tmp_path / "uni.ngram"
    basic = ["--format", "basic"]
    assert main(["train-tokenizer", "--corpus", str(mini_corpus),
                 "--kind", "unicode", "--out", str(vocab)] + basic) == 0
    assert main(["train-lm", "--corpus", str(mini_corpus), "--vocab", str(vocab),
                 "--order", "6", "--test-fraction", "0.1", "--out", str(model)] + basic) == 0
    capsys.readouterr()
    # without --decoding, the basic format decodes basic
    assert main(["generate", "--model", str(model), "--vocab", str(vocab),
                 "--scheme", "ABAB", "--year", "1900", "--strophe-meter", "J",
                 "--temperature", "0.3"] + basic) == 0
    out = capsys.readouterr().out.split("\n")
    assert json.loads(out[1][len("# config "):])["decoding"] == "basic"
    assert out[2].startswith("# ABAB # 1900 # J")
    requests = tmp_path / "requests.jsonl"
    recs = [{"scheme": "ABAB", "year": "1900", "strophe_meter": "J", "seed": i}
            for i in range(4)]
    requests.write_text("".join(json.dumps(r) + "\n" for r in recs), encoding="utf-8")
    generations = tmp_path / "gen.jsonl"
    assert main(["generate", "--model", str(model), "--vocab", str(vocab),
                 "--requests", str(requests), "--out", str(generations),
                 "--decoding", "basic", "--temperature", "0.3"] + basic) == 0
    capsys.readouterr()
    report_path = tmp_path / "report.json"
    assert main(["evaluate", "--requests", str(requests), "--generations", str(generations),
                 "--report", str(report_path)] + basic) == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))["report"]
    assert report["n_strophes"] == 4 and report["n_parse_failures"] < 4
    assert report["num_syl"] is None and report["end_acc"] is None


def test_train_tokenizer_our_at_the_default_budget(tmp_path, capsys):
    out = tmp_path / "our.vocab"
    assert main(["train-tokenizer", "--corpus", str(DATA / "fixture_corpus.jsonl"),
                 "--kind", "our", "--out", str(out)]) == 0
    assert "707 tokens (our)" in capsys.readouterr().out
    data = out.read_bytes()
    vocab, config = data[:data.rindex(b"#! config\t")], data[data.rindex(b"#! config\t"):]
    assert b'"vocab_size": 40000' in config
    assert hashlib.sha256(vocab).hexdigest() == OUR_DEFAULT_BUDGET_SHA256


def test_train_tokenizer_rejects_the_removed_kind_base(mini_corpus, tmp_path, capsys):
    assert main(["train-tokenizer", "--corpus", str(mini_corpus),
                 "--kind", "base", "--out", str(tmp_path / "b.vocab")]) == 4
    assert "our, syllable, unicode" in capsys.readouterr().err


def test_generate_without_scheme_or_requests(mini_corpus, tmp_path, capsys):
    vocab = tmp_path / "uni.vocab"
    model = tmp_path / "uni.ngram"
    main(["train-tokenizer", "--corpus", str(mini_corpus),
          "--kind", "unicode", "--out", str(vocab)])
    main(["train-lm", "--corpus", str(mini_corpus), "--vocab", str(vocab),
          "--order", "3", "--test-fraction", "0.1", "--out", str(model)])
    capsys.readouterr()
    assert main(["generate", "--model", str(model), "--vocab", str(vocab)]) == 2


REQUEST_LINE = '{"scheme": "ABAB"}\n'
GENERATION_LINE = '{"raw_text": "# ABAB # 1900"}\n'


def test_evaluate_count_mismatch(tmp_path, capsys):
    a = tmp_path / "requests.jsonl"
    b = tmp_path / "generations.jsonl"
    for requests, generations, message in [
        (REQUEST_LINE, "", "1 requests but 0 generations"),
        (REQUEST_LINE + "\n" + REQUEST_LINE + "\n\n" + REQUEST_LINE,
         "\n" + GENERATION_LINE * 2, "3 requests but 2 generations"),
        (REQUEST_LINE * 2, GENERATION_LINE + "\n\n" + GENERATION_LINE + "\n" + GENERATION_LINE,
         "2 requests but 3 generations"),
        # the files are read in step, so a malformed line before the
        # shorter file ends is found before the counts differ
        (REQUEST_LINE + "{not json\n" + REQUEST_LINE, GENERATION_LINE * 2,
         f"{a}:2: invalid JSON"),
    ]:
        a.write_text(requests, encoding="utf-8")
        b.write_text(generations, encoding="utf-8")
        rc = main(["evaluate", "--requests", str(a), "--generations", str(b),
                   "--report", str(tmp_path / "r.json")])
        assert rc == 4
        assert capsys.readouterr().err.startswith(f"schema error: {message}")
        assert not (tmp_path / "r.json").exists()


def write_evaluate_input(tmp_path, pairs, copies=1):
    """Request and generation files holding ``pairs`` ``copies`` times."""
    requests, generations = [], []
    for req, gen in pairs:
        requests.append(json.dumps({
            "scheme": req.scheme, "year": str(req.year_bucket),
            "strophe_meter": req.strophe_meter.value,
            "meters": [m.value for m in req.per_verse_meters]}) + "\n")
        generations.append(json.dumps({
            "raw_text": gen.raw_text, "forced": list(gen.forced_flags),
            "truncated": gen.truncated}, ensure_ascii=False) + "\n")
    paths = tmp_path / f"requests{copies}.jsonl", tmp_path / f"generations{copies}.jsonl"
    for path, lines in zip(paths, (requests, generations)):
        path.write_text("".join(lines) * copies, encoding="utf-8")
    return paths


def evaluate_argv(tmp_path, paths, fmt):
    return ["evaluate", "--requests", str(paths[0]), "--generations", str(paths[1]),
            "--report", str(tmp_path / "r.json"), "--format", fmt.value]


@pytest.mark.parametrize("fmt", [DataFormat.METER_VERSE, DataFormat.VERSE_PAR])
def test_the_streamed_report_equals_the_report_of_a_list(fixture_strophes, tmp_path, capsys,
                                                         fmt):
    """``evaluate`` reads its pairs in step from the two files; its report
    is ``validation.evaluate``'s over a list of the same pairs, bit for
    bit, planted faults and verse counts the request did not ask for
    included."""
    texts = [formats.encode(s, fmt) for s in fixture_strophes]
    pairs = analysis_pairs(fixture_strophes, texts, fmt, faults=True)
    paths = write_evaluate_input(tmp_path, pairs)
    assert main(evaluate_argv(tmp_path, paths, fmt)) == 0
    report = json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))["report"]
    assert report == validation.evaluate(pairs).to_dict()
    assert report["n_strophes"] == len(fixture_strophes)


# Bound of the traced bytes that a warm ``evaluate`` grows by per
# strophe of its input.  The report keeps two flags and a ratio of
# unique syllables per strophe: 45 bytes measured on this test's input,
# against 3,716 when both files' lines and every parsed pair were held.
EVALUATE_BYTES_PER_STROPHE = 256


def traced_peak(argv) -> int:
    """Peak traced bytes of ``main(argv)`` above what was traced before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_evaluate_memory_does_not_grow_with_its_input(fixture_strophes, tmp_path, capsys):
    fmt = DataFormat.METER_VERSE
    pairs = analysis_pairs(fixture_strophes, [formats.encode(s, fmt) for s in fixture_strophes],
                           fmt, faults=False)
    once, four_times = (write_evaluate_input(tmp_path, pairs, n) for n in (1, 4))
    assert main(evaluate_argv(tmp_path, once, fmt)) == 0  # warms the memos and caches
    peaks = [traced_peak(evaluate_argv(tmp_path, paths, fmt)) for paths in (once, four_times)]
    assert (peaks[1] - peaks[0]) / (3 * len(pairs)) < EVALUATE_BYTES_PER_STROPHE


@pytest.mark.parametrize("scheme", ["AAB", "ABABAB"])
def test_evaluate_reports_a_verse_count_the_request_did_not_ask_for(tmp_path, capsys, scheme):
    lines = [f"J # 9 # x # verš číslo {i}" for i in range(len(scheme))]
    raw_text = "\n".join([f"# {scheme} # 1900"] + lines)
    (tmp_path / "requests.jsonl").write_text('{"scheme": "ABAB"}\n', encoding="utf-8")
    (tmp_path / "generations.jsonl").write_text(
        json.dumps({"raw_text": raw_text}) + "\n", encoding="utf-8")
    report_path = tmp_path / "r.json"
    assert main(["evaluate", "--requests", str(tmp_path / "requests.jsonl"),
                 "--generations", str(tmp_path / "generations.jsonl"),
                 "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))["report"]
    assert report["n_parse_failures"] == 0 and report["n_verses"] == len(scheme)
    assert report["rhyme_acc"] == report["meter_acc"] == report["meter_acc_verse"] == 0.0


def test_evaluate_refuses_a_nan_threshold(tmp_path, capsys):
    lines = [f"J # 9 # x # verš číslo {i}" for i in range(4)]
    (tmp_path / "requests.jsonl").write_text('{"scheme": "ABAB"}\n', encoding="utf-8")
    (tmp_path / "generations.jsonl").write_text(
        json.dumps({"raw_text": "\n".join(["# ABAB # 1900"] + lines)}) + "\n",
        encoding="utf-8")
    capsys.readouterr()
    assert main(["evaluate", "--requests", str(tmp_path / "requests.jsonl"),
                 "--generations", str(tmp_path / "generations.jsonl"),
                 "--report", str(tmp_path / "r.json"), "--threshold", "nan"]) == 5
    assert capsys.readouterr().err == "error: threshold must be a number, got nan\n"


def test_significance(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("0.9\n0.8\n0.7\n", encoding="utf-8")
    b.write_text("0.9\n0.8\n0.7\n", encoding="utf-8")
    assert main(["significance", "--a", str(a), "--b", str(b)]) == 0
    assert capsys.readouterr().out.strip() == "p-value\t1.0"


@pytest.mark.parametrize("bad_id", ["999", "-1"])
def test_generate_with_out_of_range_token_id(mini_corpus, tmp_path, capsys, bad_id):
    vocab = tmp_path / "uni.vocab"
    model = tmp_path / "uni.ngram"
    main(["train-tokenizer", "--corpus", str(mini_corpus),
          "--kind", "unicode", "--out", str(vocab)])
    main(["train-lm", "--corpus", str(mini_corpus), "--vocab", str(vocab),
          "--order", "3", "--test-fraction", "0.1", "--out", str(model)])
    lines = model.read_text(encoding="utf-8").splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("C\t\t"))
    lines[at] += f" {bad_id}:1"
    model.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    rc = main(["generate", "--model", str(model), "--vocab", str(vocab),
               "--scheme", "ABAB", "--year", "1900"])
    err = capsys.readouterr().err
    assert rc == 5
    assert "out of range" in err and "Traceback" not in err


def test_generate_with_an_all_zero_bucket(small_model, tmp_path, capsys):
    vocab, model = small_model
    lines = model.read_text(encoding="utf-8").splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("C\t\t"))
    events = lines[at].split("\t")[2].split(" ")
    lines[at] = "C\t\t" + " ".join(ev.split(":")[0] + ":0" for ev in events)
    bad_model = tmp_path / "zero.ngram"
    bad_model.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    rc = main(["generate", "--model", str(bad_model), "--vocab", str(vocab),
               "--scheme", "ABAB", "--year", "1900"])
    err = capsys.readouterr().err
    assert rc == 5
    assert "count below 1" in err and "Traceback" not in err


def test_generate_with_a_count_beyond_64_bits(small_model, tmp_path, capsys):
    vocab, model = small_model
    lines = model.read_text(encoding="utf-8").splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("C\t\t"))
    lines[at] += f" 0:{10**400}"
    bad_model = tmp_path / "big.ngram"
    bad_model.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    rc = main(["generate", "--model", str(bad_model), "--vocab", str(vocab),
               "--scheme", "ABAB", "--year", "1900"])
    err = capsys.readouterr().err
    assert rc == 5
    assert f"big.ngram:{at + 1}:" in err and "Traceback" not in err


def test_significance_of_empty_files_exits_5(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("", encoding="utf-8")
    b.write_text("\n", encoding="utf-8")
    assert main(["significance", "--a", str(a), "--b", str(b)]) == 5
    assert "no paired scores" in capsys.readouterr().err


@pytest.mark.parametrize("scores", ["0.9\nx\n0.7\n", "0.9\n0.8 x\n0.7\n"])
def test_significance_of_a_non_number_names_its_line(tmp_path, capsys, scores):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text(scores, encoding="utf-8")
    b.write_text("0.9\n0.8\n0.7\n", encoding="utf-8")
    assert main(["significance", "--a", str(a), "--b", str(b)]) == 4
    err = capsys.readouterr().err
    assert "a.txt:2:" in err and "'x'" in err and "Traceback" not in err


def test_significance_counts_a_blank_line_in_the_line_it_names(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("0.5\n\nx\n", encoding="utf-8")
    b.write_text("0.5\n0.5\n", encoding="utf-8")
    assert main(["significance", "--a", str(a), "--b", str(b)]) == 4
    err = capsys.readouterr().err
    assert "a.txt:3:" in err and "'x'" in err and "Traceback" not in err


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", "1e999"])
def test_significance_of_a_non_finite_score_names_its_line(tmp_path, capsys, value):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("0.9\n0.8\n0.7\n", encoding="utf-8")
    b.write_text(f"0.9\n{value}\n0.7\n", encoding="utf-8")
    assert main(["significance", "--a", str(a), "--b", str(b)]) == 4
    err = capsys.readouterr().err
    assert "b.txt:2:" in err and "finite" in err and "Traceback" not in err


def test_significance_refuses_two_values_on_one_line(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("0.9\n0.8 0.7\n0.6\n", encoding="utf-8")
    b.write_text("0.9\n0.8\n0.7\n0.6\n", encoding="utf-8")
    assert main(["significance", "--a", str(a), "--b", str(b)]) == 4
    err = capsys.readouterr().err
    assert "a.txt:2:" in err and "one score per line" in err and "Traceback" not in err


@pytest.fixture(scope="module")
def small_model(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("model")
    src = (DATA / "fixture_corpus.jsonl").read_text(encoding="utf-8")
    corpus_path = tmp / "mini.jsonl"
    corpus_path.write_text("".join(src.splitlines(keepends=True)[:80]), encoding="utf-8")
    vocab, model = tmp / "uni.vocab", tmp / "uni.ngram"
    assert main(["train-tokenizer", "--corpus", str(corpus_path),
                 "--kind", "unicode", "--out", str(vocab)]) == 0
    assert main(["train-lm", "--corpus", str(corpus_path), "--vocab", str(vocab),
                 "--order", "3", "--test-fraction", "0.1", "--out", str(model)]) == 0
    return vocab, model


GOOD_REQUEST = '{"scheme": "ABAB", "year": "1900"}'


@pytest.mark.parametrize("bad,lineno", [
    ('{"year": "1900"}', 2),  # no scheme
    ('["ABAB"]', 2),  # not an object
    ('"ABAB"', 2),
    ('{"scheme": 4}', 2),
    ('{"scheme": null}', 2),
    ('{"scheme": "ABAB", "seed": "x"}', 2),
    ('{"scheme": "ABAB", "meters": 3}', 2),
    ("{not json", 2),
    # bool is a subclass of int, but a JSON true is no number
    ('{"scheme": "ABAB", "seed": true}', 2),
    ('{"scheme": "ABAB", "max_tokens": true}', 2),
    ('{"scheme": "ABAB", "temperature": true}', 2),
])
def test_generate_rejects_a_bad_request_line(small_model, tmp_path, capsys, bad, lineno):
    vocab, model = small_model
    requests = tmp_path / "requests.jsonl"
    requests.write_text(f"{GOOD_REQUEST}\n{bad}\n", encoding="utf-8")
    capsys.readouterr()
    rc = main(["generate", "--model", str(model), "--vocab", str(vocab),
               "--requests", str(requests), "--out", str(tmp_path / "gen.jsonl")])
    err = capsys.readouterr().err
    assert rc == 4
    assert f"requests.jsonl:{lineno}:" in err and "Traceback" not in err


def test_a_blank_request_line_still_advances_the_default_seed(small_model, tmp_path, capsys):
    """A batch line without a seed draws with ``--seed`` plus its 0-based
    physical line index, blank lines included."""
    vocab, model = small_model
    singles = []
    for seed in ("0", "2"):
        assert main(["generate", "--model", str(model), "--vocab", str(vocab),
                     "--scheme", "ABAB", "--year", "1900", "--seed", seed]) == 0
        singles.append(capsys.readouterr().out.split("\n", 2)[2])
    assert singles[0] != singles[1]
    requests = tmp_path / "requests.jsonl"
    requests.write_text(f"{GOOD_REQUEST}\n\n{GOOD_REQUEST}\n", encoding="utf-8")
    out = tmp_path / "gen.jsonl"
    assert main(["generate", "--model", str(model), "--vocab", str(vocab),
                 "--requests", str(requests), "--out", str(out)]) == 0
    batch = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    assert [g["request"]["seed"] for g in batch] == [0, 2]
    assert [g["raw_text"] + "\n" for g in batch] == singles


def test_generate_streams_results_before_a_late_failure(small_model, tmp_path, capsys):
    vocab, model = small_model
    requests = tmp_path / "requests.jsonl"
    requests.write_text(f"{GOOD_REQUEST}\n{GOOD_REQUEST}\n{{}}\n{GOOD_REQUEST}\n",
                        encoding="utf-8")
    out = tmp_path / "gen.jsonl"
    rc = main(["generate", "--model", str(model), "--vocab", str(vocab),
               "--requests", str(requests), "--out", str(out)])
    assert rc != 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    assert all(json.loads(line)["request"]["scheme"] == "ABAB" for line in lines)
    assert "requests.jsonl:3:" in capsys.readouterr().err


@pytest.mark.parametrize("requests,generations,where", [
    ('{"scheme": "ABAB"}\n{"year": 1900}\n', '{"raw_text": "# ABAB # 1900"}\n' * 2,
     "requests.jsonl:2:"),
    ('{"scheme": "ABAB"}\n' * 2, '{"raw_text": "# ABAB # 1900"}\n\n{"forced": []}\n',
     "generations.jsonl:3:"),
    ('{"scheme": "ABAB"}\n' * 2, '{"raw_text": "# ABAB # 1900"}\n[1, 2]\n',
     "generations.jsonl:2:"),
    ('{"scheme": "ABAB"}\n7\n', '{"raw_text": "# ABAB # 1900"}\n' * 2,
     "requests.jsonl:2:"),
    ('{"scheme": "ABAB"}\n' * 2, '{"raw_text": "# ABAB # 1900"}\n{"raw_text": 5}\n',
     "generations.jsonl:2:"),
    ('{"scheme": "ABAB"}\n{"scheme": "ABAB", "seed": true}\n',
     '{"raw_text": "# ABAB # 1900"}\n' * 2, "requests.jsonl:2:"),
])
def test_evaluate_rejects_a_bad_line(tmp_path, capsys, requests, generations, where):
    (tmp_path / "requests.jsonl").write_text(requests, encoding="utf-8")
    (tmp_path / "generations.jsonl").write_text(generations, encoding="utf-8")
    rc = main(["evaluate", "--requests", str(tmp_path / "requests.jsonl"),
               "--generations", str(tmp_path / "generations.jsonl"),
               "--report", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert rc == 4
    assert where in err and "Traceback" not in err



@pytest.mark.parametrize("fields", [
    '"forced": ["x"]', '"forced": [1, 0]', '"forced": [null]', '"forced": [[true]]',
    '"truncated": {"a": 1}', '"truncated": 1', '"truncated": "yes"', '"truncated": null',
])
def test_evaluate_refuses_forced_flags_and_truncation_that_are_no_booleans(tmp_path, capsys,
                                                                            fields):
    (tmp_path / "requests.jsonl").write_text('{"scheme": "ABAB"}\n' * 2, encoding="utf-8")
    (tmp_path / "generations.jsonl").write_text(
        '{"raw_text": "# ABAB # 1900", "forced": [true, false], "truncated": true}\n'
        f'{{"raw_text": "# ABAB # 1900", {fields}}}\n', encoding="utf-8")
    rc = main(["evaluate", "--requests", str(tmp_path / "requests.jsonl"),
               "--generations", str(tmp_path / "generations.jsonl"),
               "--report", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert rc == 4, err
    assert "generations.jsonl:2:" in err and "boolean" in err and "Traceback" not in err
    assert not (tmp_path / "r.json").exists()


def test_a_lone_surrogate_in_a_request_names_its_line_before_anything_is_written(
        small_model, tmp_path, capsys):
    vocab, model = small_model
    requests = tmp_path / "requests.jsonl"
    requests.write_text(f'{GOOD_REQUEST}\n{{"scheme": "ABAB", "note": "a\\ud800b"}}\n',
                        encoding="utf-8")
    out = tmp_path / "gen.jsonl"
    rc = main(["generate", "--model", str(model), "--vocab", str(vocab),
               "--requests", str(requests), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 4, err
    assert "requests.jsonl:2: " in err and "surrogate" in err and "Traceback" not in err
    assert len(out.read_text(encoding="utf-8").splitlines()) == 1


# json.loads decodes a line nested this deep; the check for a lone
# surrogate must get as deep.
NESTED_DEPTH = 900


@pytest.mark.parametrize("name", ["mini.jsonl", "requests.jsonl", "generations.jsonl"])
def test_a_lone_surrogate_nested_deep_names_its_line(mini_corpus, tmp_path, capsys, name):
    nested = "[" * NESTED_DEPTH + '"a\\ud800"' + "]" * NESTED_DEPTH
    paths = {"mini.jsonl": mini_corpus, "requests.jsonl": tmp_path / "requests.jsonl",
             "generations.jsonl": tmp_path / "generations.jsonl"}
    paths["requests.jsonl"].write_text(REQUEST_LINE * 2, encoding="utf-8")
    paths["generations.jsonl"].write_text(GENERATION_LINE * 2, encoding="utf-8")
    lines = paths[name].read_text(encoding="utf-8").splitlines()
    lines[1] = lines[1][:-1] + ', "deep": ' + nested + "}"
    paths[name].write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "out.json"
    argv = (["ingest", "--corpus", str(mini_corpus), "--stats-out", str(out)]
            if name == "mini.jsonl" else
            ["evaluate", "--requests", str(paths["requests.jsonl"]),
             "--generations", str(paths["generations.jsonl"]), "--report", str(out)])
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 4, err
    assert f"{name}:2: " in err and "lone surrogate \\ud800" in err and "Traceback" not in err
    assert not out.exists()


def report_argv(command, mini_corpus, tmp_path, out) -> list[str]:
    """``ingest`` of the mini corpus, or ``evaluate`` of two pairs, with
    its report written to ``out``."""
    if command == "ingest":
        return ["ingest", "--corpus", str(mini_corpus), "--stats-out", str(out)]
    (tmp_path / "requests.jsonl").write_text(REQUEST_LINE * 2, encoding="utf-8")
    (tmp_path / "generations.jsonl").write_text(GENERATION_LINE * 2, encoding="utf-8")
    return ["evaluate", "--requests", str(tmp_path / "requests.jsonl"),
            "--generations", str(tmp_path / "generations.jsonl"), "--report", str(out)]


def report_of(command, text: str) -> dict:
    return json.loads(text)["stats" if command == "ingest" else "report"]


@pytest.mark.parametrize("command", ["ingest", "evaluate"])
def test_a_report_cut_short_leaves_the_file_before_it_and_no_other(mini_corpus, tmp_path,
                                                                   monkeypatch, command):
    """A report whose write fails part-way, here on a value that
    ``json`` cannot encode, leaves no file, or the file that was there."""
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = out_dir / "out.json"
    argv = report_argv(command, mini_corpus, tmp_path, out)
    owner = corpus.CorpusStats if command == "ingest" else validation.MetricsReport
    to_dict = owner.to_dict
    monkeypatch.setattr(owner, "to_dict", lambda self: {**to_dict(self), "bad": object()})
    for before in (None, "the report before\n"):
        if before is not None:
            out.write_text(before, encoding="utf-8")
        with pytest.raises(TypeError):
            main(argv)
        assert list(out_dir.iterdir()) == ([] if before is None else [out])
        assert before is None or out.read_text(encoding="utf-8") == before


@pytest.mark.parametrize("command", ["ingest", "evaluate"])
@pytest.mark.parametrize("before", [None, "the report before\n"], ids=["dangling", "to-a-file"])
def test_a_report_is_written_through_a_symlink(mini_corpus, tmp_path, command, before):
    """The link stays a link, and the file it names holds the report."""
    (tmp_path / "real").mkdir()
    (tmp_path / "out").mkdir()
    target, link = tmp_path / "real" / "report.json", tmp_path / "out" / "report.json"
    if before is not None:
        target.write_text(before, encoding="utf-8")
    link.symlink_to(target)
    assert main(report_argv(command, mini_corpus, tmp_path, link)) == 0
    assert link.is_symlink() and link.resolve() == target
    assert report_of(command, target.read_text(encoding="utf-8"))
    assert list((tmp_path / "real").iterdir()) == [target]
    assert list((tmp_path / "out").iterdir()) == [link]


@pytest.mark.parametrize("command", ["ingest", "evaluate"])
def test_a_report_is_written_into_a_fifo(mini_corpus, tmp_path, command):
    """A FIFO, like a pipe given as ``/dev/stdout``, is written as it is
    and stays a FIFO."""
    fifo = tmp_path / "out" / "report.fifo"
    fifo.parent.mkdir()
    os.mkfifo(fifo)
    # a reader opened first lets the write open at once; the report fits
    # in the pipe's buffer
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert main(report_argv(command, mini_corpus, tmp_path, fifo)) == 0
        chunks = []
        while chunk := os.read(reader, 1 << 16):
            chunks.append(chunk)
    finally:
        os.close(reader)
    assert report_of(command, b"".join(chunks).decode("utf-8"))
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert list(fifo.parent.iterdir()) == [fifo]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_a_report_is_written_into_an_open_file_that_has_no_name(mini_corpus, tmp_path):
    """``/proc/self/fd/N`` of a file that was removed while open (as
    ``/dev/stdout`` may be) resolves to no file; it is written as it is."""
    gone = tmp_path / "out" / "gone.json"
    gone.parent.mkdir()
    with open(gone, "w+", encoding="utf-8") as f:
        gone.unlink()
        assert main(report_argv("ingest", mini_corpus, tmp_path,
                                f"/proc/self/fd/{f.fileno()}")) == 0
        f.seek(0)
        assert report_of("ingest", f.read())
    assert list(gone.parent.iterdir()) == []


@pytest.mark.parametrize("where", ["missing/s.json", "", "f/s.json"],
                         ids=["missing-directory", "directory", "under-a-file"])
def test_an_output_that_cannot_be_written_names_its_path(mini_corpus, tmp_path, capsys, where):
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "f").write_text("a file\n", encoding="utf-8")
    out = tmp_path / "out" / where
    rc = main(["ingest", "--corpus", str(mini_corpus), "--stats-out", str(out)])
    err = capsys.readouterr().err
    assert rc == 3 and f": '{out}'\n" in err, err
    assert list((tmp_path / "out").iterdir()) == [tmp_path / "out" / "f"]
    assert (tmp_path / "out" / "f").read_text(encoding="utf-8") == "a file\n"
    assert len(list(tmp_path.iterdir())) == 2


# the commands that write an output file, which they name with this option
WRITERS = {"ingest": "--stats-out", "train-tokenizer": "--out", "train-lm": "--out",
           "evaluate": "--report"}


def writer_argv(command, inputs, out) -> list[str]:
    """``command`` reading the files of ``inputs``, by their role, and
    writing ``out``."""
    reads = {"ingest": ["--corpus", inputs["corpus"]],
             "train-tokenizer": ["--corpus", inputs["corpus"]],
             "train-lm": ["--corpus", inputs["corpus"], "--vocab", inputs["vocab"],
                          "--order", "2"],
             "evaluate": ["--requests", inputs["requests"],
                          "--generations", inputs["generations"]]}[command]
    return [command, *map(str, reads), WRITERS[command], str(out)]


@pytest.mark.parametrize("command", WRITERS)
@pytest.mark.parametrize("where", ["nodir/out", "nodir/deeper/out", "link"])
def test_a_missing_output_directory_is_refused_before_any_input_is_read(tmp_path, capsys,
                                                                        command, where):
    """Every input is missing too, so the output is named only when it is
    checked before any input is opened; a link into a missing directory
    counts as that directory."""
    inputs = {role: tmp_path / "absent" / role
              for role in ("corpus", "vocab", "requests", "generations")}
    out = tmp_path / where
    if where == "link":
        out.symlink_to(tmp_path / "nodir" / "out")
    rc = main(writer_argv(command, inputs, out))
    assert (rc, capsys.readouterr().err) == (
        3, f"missing file: [Errno 2] No such file or directory: '{out}'\n")
    assert list(tmp_path.iterdir()) == ([out] if where == "link" else [])


@pytest.fixture()
def writer_inputs(mini_corpus, small_model, tmp_path):
    (tmp_path / "requests.jsonl").write_text(REQUEST_LINE * 2, encoding="utf-8")
    (tmp_path / "generations.jsonl").write_text(GENERATION_LINE * 2, encoding="utf-8")
    return {"corpus": mini_corpus, "vocab": small_model[0],
            "requests": tmp_path / "requests.jsonl",
            "generations": tmp_path / "generations.jsonl"}


@pytest.mark.parametrize("command", WRITERS)
def test_an_output_through_a_symlink_or_to_dev_null_is_still_written(writer_inputs, tmp_path,
                                                                     command):
    """The early check of the output's directory leaves alone an output
    that exists, whatever its kind, and a link into a directory that
    exists.  ``train-lm`` also writes the image beside its output, so it
    gets no ``/dev/null``."""
    (tmp_path / "real").mkdir()
    (tmp_path / "out").mkdir()
    target, link = tmp_path / "real" / "written", tmp_path / "out" / "written"
    link.symlink_to(target)
    assert main(writer_argv(command, writer_inputs, link)) == 0
    assert link.is_symlink() and target.stat().st_size > 0
    if command != "train-lm":
        assert main(writer_argv(command, writer_inputs, os.devnull)) == 0
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


@pytest.mark.parametrize("command", ["ingest", "train-tokenizer", "evaluate"])
def test_an_output_into_a_fifo_is_still_written(writer_inputs, tmp_path, command):
    fifo = tmp_path / "out" / "written.fifo"
    fifo.parent.mkdir()
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert main(writer_argv(command, writer_inputs, fifo)) == 0
        written = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert written and stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert list(fifo.parent.iterdir()) == [fifo]


def test_a_lone_surrogate_in_a_corpus_leaves_no_vocabulary(mini_corpus, tmp_path, capsys):
    lines = mini_corpus.read_text(encoding="utf-8").splitlines()
    lines[5] = lines[5].replace('"text": "', '"text": "\\udc00', 1)
    mini_corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rc = main(["train-tokenizer", "--corpus", str(mini_corpus), "--kind", "unicode",
               "--out", str(tmp_path / "v.vocab")])
    err = capsys.readouterr().err
    assert rc == 4, err
    assert "mini.jsonl:6: " in err and "surrogate" in err and "Traceback" not in err
    assert not (tmp_path / "v.vocab").exists()

# Lines that ``json.loads`` refuses with no ``JSONDecodeError``: one
# nested past the recursion limit, and one holding a number of more
# digits than ``int`` converts.
@pytest.mark.parametrize("bad", ["[" * 100_000, '{"n": ' + "9" * 5000 + "}"],
                         ids=["nested", "digits"])
@pytest.mark.parametrize("name", ["corpus.jsonl", "requests.jsonl", "generations.jsonl"])
def test_a_line_json_cannot_decode_names_its_line(small_model, mini_corpus, tmp_path, capsys,
                                                  name, bad):
    vocab, model = small_model
    good = {"corpus.jsonl": mini_corpus.read_text(encoding="utf-8").splitlines()[0],
            "requests.jsonl": GOOD_REQUEST, "generations.jsonl": GENERATION_LINE.strip()}
    p = {}
    for key, line in good.items():
        p[key] = tmp_path / key
        p[key].write_text(f"{line}\n{bad if key == name else line}\n", encoding="utf-8")
    evaluate = ["evaluate", "--requests", str(p["requests.jsonl"]),
                "--generations", str(p["generations.jsonl"]), "--report", str(tmp_path / "r.json")]
    commands = {
        "corpus.jsonl": [["ingest", "--corpus", str(p["corpus.jsonl"]),
                          "--stats-out", str(tmp_path / "s.json")],
                         ["train-tokenizer", "--corpus", str(p["corpus.jsonl"]),
                          "--kind", "unicode", "--out", str(tmp_path / "v.vocab")]],
        "requests.jsonl": [["generate", "--model", str(model), "--vocab", str(vocab),
                            "--requests", str(p["requests.jsonl"]),
                            "--out", str(tmp_path / "g.jsonl")], evaluate],
        "generations.jsonl": [evaluate],
    }[name]
    for argv in commands:
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 4, err
        assert f"schema error: {p[name]}:2: invalid JSON (" in err and "Traceback" not in err


def test_evaluate_refuses_an_unknown_format(tmp_path, capsys):
    (tmp_path / "requests.jsonl").write_text('{"scheme": "ABAB"}\n', encoding="utf-8")
    (tmp_path / "generations.jsonl").write_text('{"raw_text": "# ABAB # 1900"}\n',
                                                encoding="utf-8")
    rc = main(["evaluate", "--requests", str(tmp_path / "requests.jsonl"),
               "--generations", str(tmp_path / "generations.jsonl"),
               "--report", str(tmp_path / "r.json"), "--format", "xyz"])
    err = capsys.readouterr().err
    assert rc == 4
    assert "unknown data format 'xyz'" in err and "Traceback" not in err


@pytest.mark.parametrize("bad", ["#! kind", "#! protected", "#! kind\t", "#! kind\tbase"])
def test_generate_rejects_a_truncated_vocab_line(small_model, tmp_path, capsys, bad):
    vocab, model = small_model
    lines = vocab.read_text(encoding="utf-8").splitlines()
    lines.insert(1, bad)
    bad_vocab = tmp_path / "bad.vocab"
    bad_vocab.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    rc = main(["generate", "--model", str(model), "--vocab", str(bad_vocab),
               "--scheme", "ABAB", "--year", "1900"])
    err = capsys.readouterr().err
    assert rc == 4
    assert "bad.vocab:2:" in err and "Traceback" not in err


def test_train_lm_names_the_vocab_file_of_a_duplicate_or_a_missing_special(
        small_model, mini_corpus, tmp_path, capsys):
    """A token named twice is refused at its second line, and a missing
    special token with the file's name."""
    vocab, _ = small_model
    lines = vocab.read_text(encoding="utf-8").splitlines()
    first = next(i for i, line in enumerate(lines) if line.endswith("\t3"))
    last = max(i for i, line in enumerate(lines) if not line.startswith("#!"))
    n = int(lines[last].rsplit("\t", 1)[1]) + 1
    bad_vocab = tmp_path / "bad.vocab"
    cases = [
        (lines[:last + 1] + [lines[first].replace("\t3", f"\t{n}")] + lines[last + 1:],
         f"{bad_vocab}:{last + 2}: duplicate token"),
        ([line if line != "\\n\t0" else "\u00a4\t0" for line in lines],
         f"{bad_vocab}: special token '\\n' missing"),
    ]
    for bad, message in cases:
        assert bad != lines
        bad_vocab.write_text("\n".join(bad) + "\n", encoding="utf-8")
        capsys.readouterr()
        rc = main(["train-lm", "--corpus", str(mini_corpus), "--vocab", str(bad_vocab),
                   "--out", str(tmp_path / "m.ngram")])
        err = capsys.readouterr().err
        assert rc == 4
        assert message in err and "Traceback" not in err


@pytest.mark.parametrize("bad", ["order", "C\t0", "C\t\t0", "C\tx\t0:1",
                                 "order\tx", "discount\ty", "vocab_size\tz"])
def test_generate_rejects_a_truncated_model_line(small_model, tmp_path, capsys, bad):
    vocab, model = small_model
    lines = model.read_text(encoding="utf-8").splitlines()
    lines.insert(1, bad)
    bad_model = tmp_path / "bad.ngram"
    bad_model.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    rc = main(["generate", "--model", str(bad_model), "--vocab", str(vocab),
               "--scheme", "ABAB", "--year", "1900"])
    err = capsys.readouterr().err
    assert rc == 5
    assert "bad.ngram:2:" in err and "Traceback" not in err


def test_generate_refuses_a_model_context_of_order_or_more_ids(small_model, tmp_path, capsys):
    vocab, model = small_model
    lines = model.read_text(encoding="utf-8").splitlines()
    lines.append(f"C\t{','.join(map(str, range(2000)))}\t0:1")
    bad_model = tmp_path / "long.ngram"
    bad_model.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    rc = main(["generate", "--model", str(bad_model), "--vocab", str(vocab),
               "--scheme", "ABAB", "--year", "1900"])
    err = capsys.readouterr().err
    assert rc == 5
    assert f"long.ngram:{len(lines)}: a context of 2000 ids" in err and "Traceback" not in err


@pytest.mark.parametrize("bad", [
    "C\t{ctx},\t{ev}", "C\t{ctx},x\t{ev}",
    "C\t{ctx}\t0:1:2", "C\t{ctx}\t0:", "C\t{ctx}\t:1", "C\t{ctx}\t0:1  2:1",
    "C\t\t1:2 1:5",
])
def test_generate_rejects_a_malformed_model_line_after_valid_ones(small_model, tmp_path,
                                                                  capsys, bad):
    vocab, model = small_model
    lines = model.read_text(encoding="utf-8").splitlines()
    _, ctx, ev = next(line for line in reversed(lines) if line.startswith("C\t")).split("\t")
    assert "," in ctx
    lines.append(bad.format(ctx=ctx, ev=ev))
    bad_model = tmp_path / "bad.ngram"
    bad_model.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    rc = main(["generate", "--model", str(bad_model), "--vocab", str(vocab),
               "--scheme", "ABAB", "--year", "1900"])
    err = capsys.readouterr().err
    assert rc == 5
    assert f"bad.ngram:{len(lines)}:" in err and "Traceback" not in err


POEM_VERSE = {"text": "Tvá loď jde po vysokém moři,", "rhyme": 1, "meter": "J"}


@pytest.mark.parametrize("poem,what", [
    ({"year": 1900, "strophes": 5}, "field 'strophes' must be a list"),
    ({"year": 1900, "strophes": [5]}, "strophe 0: a strophe must be a list"),
    ({"year": 1900, "strophes": [[dict(POEM_VERSE, text=5)] * 4]},
     "strophe 0: field 'text' must be a string"),
    ({"year": 1900, "strophes": [[dict(POEM_VERSE, text=True)] * 4]},
     "strophe 0: field 'text' must be a string"),
    ({"year": True, "strophes": [[POEM_VERSE] * 4]}, "field 'year' must be integer or null"),
    ({"year": 1900, "strophes": [[dict(POEM_VERSE, rhyme=True)] * 4]},
     "strophe 0: field 'rhyme' must be integer or null"),
])
def test_a_malformed_corpus_shape_names_its_line(mini_corpus, tmp_path, capsys, poem, what):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(mini_corpus.read_text(encoding="utf-8").splitlines()[0] + "\n"
                   + json.dumps(poem) + "\n", encoding="utf-8")
    for argv in (["ingest", "--corpus", str(bad), "--stats-out", str(tmp_path / "s.json")],
                 ["stats", "--corpus", str(bad)]):
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 4
        assert f"bad.jsonl:2" in err and what in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["ingest", "--corpus", "{dir}", "--stats-out", "{dir}/s.json"],
    ["stats", "--corpus", "{dir}"],
    ["significance", "--a", "{dir}", "--b", "{dir}"],
])
def test_a_directory_as_input_file_exits_3(tmp_path, capsys, argv):
    rc = main([a.format(dir=tmp_path) for a in argv])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("cannot open file: ") and "Traceback" not in err


@pytest.mark.parametrize("value", ["nan", "-nan", "0", "-1"])
def test_generate_refuses_a_temperature_that_is_not_positive(small_model, capsys, value):
    vocab, model = small_model
    rc = main(["generate", "--model", str(model), "--vocab", str(vocab),
               "--scheme", "ABAB", "--year", "1900", f"--temperature={value}"])
    err = capsys.readouterr().err
    assert rc == 5
    assert "temperature must be positive" in err and "Traceback" not in err


@pytest.mark.parametrize("flag,message", [
    ("--seed=-1", "error: seed must be non-negative, got -1"),
    ("--max-tokens=0", "error: max_tokens must be at least 1, got 0"),
], ids=["seed", "max-tokens"])
def test_generate_refuses_a_negative_seed_and_an_empty_token_budget(small_model, capsys,
                                                                     flag, message):
    vocab, model = small_model
    capsys.readouterr()
    rc = main(["generate", "--model", str(model), "--vocab", str(vocab),
               "--scheme", "ABAB", "--year", "1900", flag])
    assert rc == 5
    assert capsys.readouterr().err == message + "\n"


def test_a_request_line_with_a_nan_temperature_exits_5(small_model, tmp_path, capsys):
    vocab, model = small_model
    requests = tmp_path / "requests.jsonl"
    requests.write_text(f'{GOOD_REQUEST}\n{{"scheme": "ABAB", "temperature": NaN}}\n',
                        encoding="utf-8")
    rc = main(["generate", "--model", str(model), "--vocab", str(vocab),
               "--requests", str(requests), "--out", str(tmp_path / "gen.jsonl")])
    err = capsys.readouterr().err
    assert rc == 5
    assert "temperature must be positive" in err and "Traceback" not in err


def test_an_infinite_temperature_still_samples(small_model, capsys):
    vocab, model = small_model
    outs = []
    for seed in ("1", "2"):
        assert main(["generate", "--model", str(model), "--vocab", str(vocab),
                     "--scheme", "ABAB", "--year", "1900", "--temperature", "inf",
                     "--seed", seed, "--max-tokens", "60"]) == 0
        outs.append(capsys.readouterr().out.splitlines()[2:])
    assert outs[0] != outs[1]


@pytest.mark.parametrize("key", ["temperature", "seed", "max_tokens"])
def test_a_null_request_field_means_its_default(small_model, tmp_path, capsys, key):
    vocab, model = small_model
    outs = []
    for request in ({"scheme": "ABAB", "year": "1900"},
                    {"scheme": "ABAB", "year": "1900", key: None}):
        requests = tmp_path / "requests.jsonl"
        requests.write_text(json.dumps(request) + "\n", encoding="utf-8")
        out = tmp_path / "gen.jsonl"
        assert main(["generate", "--model", str(model), "--vocab", str(vocab),
                     "--requests", str(requests), "--out", str(out), "--seed", "4"]) == 0
        outs.append(json.loads(out.read_text(encoding="utf-8")))
        generations = tmp_path / "generations.jsonl"
        generations.write_text(out.read_text(encoding="utf-8"), encoding="utf-8")
        requests.write_text(json.dumps(request) + "\n", encoding="utf-8")
        assert main(["evaluate", "--requests", str(requests), "--generations",
                     str(generations), "--report", str(tmp_path / "r.json")]) == 0
    assert outs[0] == outs[1]



@pytest.mark.parametrize("bad,rc,message", [
    ('{"scheme": "ABAB", "meters": ["Q", "J", "J", "J"]}', 4,
     "schema error: {where} unknown meter label 'Q'"),
    ('{"scheme": "ABAB", "strophe_meter": "Q"}', 4,
     "schema error: {where} unknown meter label 'Q'"),
    ('{"scheme": "ABAB", "year": "abc"}', 4, "schema error: {where} bad year bucket 'abc'"),
    ('{"scheme": "ABAB", "year": 1901}', 4, "schema error: {where} bucket start 1901 not a multiple of 20"),
    ('{"scheme": "ABC"}', 5, "error: {where} scheme length must be 4 or 6, got 'ABC'"),
    ('{"scheme": "ABAB", "temperature": -1}', 5, "error: {where} temperature must be positive"),
    ('{"scheme": "ABAB", "meters": ["J"]}', 5,
     "error: {where} per_verse_meters length must match scheme length"),
    ('{"scheme": "ABAB", "seed": -4}', 5, "error: {where} seed must be non-negative, got -4"),
    ('{"scheme": "ABAB", "max_tokens": 0}', 5,
     "error: {where} max_tokens must be at least 1, got 0"),
    ('{"scheme": "ABAB", "max_tokens": -4}', 5,
     "error: {where} max_tokens must be at least 1, got -4"),
    ('{"scheme": "BABA"}', 5,
     "error: {where} scheme 'BABA' is not in canonical form; write it 'ABAB'"),
    ('{"scheme": "ABAC"}', 5,
     "error: {where} scheme 'ABAC' is not in canonical form; write it 'AXAX'"),
], ids=["meter", "strophe-meter", "year-text", "year-off-bucket", "scheme", "temperature",
        "meter-count", "seed", "max-tokens-zero", "max-tokens-negative",
        "scheme-letters-out-of-order", "scheme-single-letter"])
@pytest.mark.parametrize("command", ["generate", "evaluate"])
def test_a_request_value_refused_by_its_type_names_its_line(small_model, tmp_path, capsys,
                                                            command, bad, rc, message):
    """A value that the request's own types refuse, not the field type
    checks, is named by ``path:line`` too, with the exit code of its
    error."""
    vocab, model = small_model
    requests = tmp_path / "requests.jsonl"
    requests.write_text(f"{GOOD_REQUEST}\n{bad}\n", encoding="utf-8")
    if command == "generate":
        argv = ["generate", "--model", str(model), "--vocab", str(vocab),
                "--requests", str(requests), "--out", str(tmp_path / "gen.jsonl")]
    else:
        generations = tmp_path / "generations.jsonl"
        generations.write_text('{"raw_text": "# ABAB # 1900"}\n' * 2, encoding="utf-8")
        argv = ["evaluate", "--requests", str(requests), "--generations", str(generations),
                "--report", str(tmp_path / "r.json")]
    capsys.readouterr()
    assert main(argv) == rc
    assert capsys.readouterr().err == message.format(where=f"{requests}:2:") + "\n"
