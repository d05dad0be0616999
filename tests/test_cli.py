import json

import pytest

from verseforge.cli import main
from conftest import DATA


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


def test_generate_without_scheme_or_requests(mini_corpus, tmp_path, capsys):
    vocab = tmp_path / "uni.vocab"
    model = tmp_path / "uni.ngram"
    main(["train-tokenizer", "--corpus", str(mini_corpus),
          "--kind", "unicode", "--out", str(vocab)])
    main(["train-lm", "--corpus", str(mini_corpus), "--vocab", str(vocab),
          "--order", "3", "--test-fraction", "0.1", "--out", str(model)])
    capsys.readouterr()
    assert main(["generate", "--model", str(model), "--vocab", str(vocab)]) == 2


def test_evaluate_count_mismatch(tmp_path, capsys):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    a.write_text('{"scheme": "ABAB"}\n', encoding="utf-8")
    b.write_text("", encoding="utf-8")
    rc = main(["evaluate", "--requests", str(a), "--generations", str(b),
               "--report", str(tmp_path / "r.json")])
    assert rc == 4


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


def test_significance_of_empty_files_exits_5(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("", encoding="utf-8")
    b.write_text("\n", encoding="utf-8")
    assert main(["significance", "--a", str(a), "--b", str(b)]) == 5
    assert "no paired scores" in capsys.readouterr().err


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
