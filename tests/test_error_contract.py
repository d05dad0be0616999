"""The CLI's error contract under fuzzing: whatever a mutated input file
holds, ``main`` returns a documented exit code and raises nothing."""

import contextlib
import copy
import io
import json
import math
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from verseforge import ngram, tokenizers
from verseforge.cli import main
from helpers import DATA

EXIT_CODES = {0, 2, 3, 4, 5}

# stand-ins for a JSON value of another type
OTHER_VALUES = [None, 0, -1, 7, 10**6, 0.5, -2.5, math.nan, math.inf, "", "x", "ABAB",
                "\udfff", [], [5], {}, True, [[5]]]

# what a character mutation inserts: the separators of every file format
MUTANT_CHARS = "\t\n ,:#\\-059xJé"

REQUESTS = [
    {"scheme": "ABAB", "year": 1900, "meters": ["J", "J", "J", "J"],
     "temperature": 1.0, "seed": 1, "max_tokens": 300},
    {"scheme": "AABBCC", "year": "NaN", "strophe_meter": "T", "seed": 2, "max_tokens": 300},
]


@pytest.fixture(scope="module")
def setup(tmp_path_factory):
    """Input files of every kind, from 40 fixture poems and an order-3
    ``unicode`` model trained on them."""
    tmp = tmp_path_factory.mktemp("contract")
    src = (DATA / "fixture_corpus.jsonl").read_text(encoding="utf-8")
    paths = {name: tmp / name for name in
             ("corpus.jsonl", "uni.vocab", "uni.ngram", "requests.jsonl",
              "generations.jsonl", "a.txt", "b.txt")}
    paths["corpus.jsonl"].write_text("".join(src.splitlines(keepends=True)[:40]),
                                     encoding="utf-8")
    assert main(["train-tokenizer", "--corpus", str(paths["corpus.jsonl"]),
                 "--kind", "unicode", "--out", str(paths["uni.vocab"])]) == 0
    assert main(["train-lm", "--corpus", str(paths["corpus.jsonl"]),
                 "--vocab", str(paths["uni.vocab"]), "--order", "3",
                 "--test-fraction", "0.1", "--out", str(paths["uni.ngram"])]) == 0
    paths["requests.jsonl"].write_text("".join(json.dumps(r) + "\n" for r in REQUESTS),
                                       encoding="utf-8")
    assert main(["generate", "--model", str(paths["uni.ngram"]),
                 "--vocab", str(paths["uni.vocab"]),
                 "--requests", str(paths["requests.jsonl"]),
                 "--out", str(paths["generations.jsonl"])]) == 0
    paths["a.txt"].write_text("0.9\n0.5\n0.7\n", encoding="utf-8")
    paths["b.txt"].write_text("0.8\n0.6\n0.1\n", encoding="utf-8")
    (tmp / "out").mkdir()
    return tmp, paths


def run_in(out, argv):
    """``main(argv)``, whose output files go to the empty directory
    ``out``, and its exit code.  After a non-zero exit no output file is
    left, except what ``generate --out`` streamed by design; the
    directory is emptied again either way."""
    code = main(argv)
    left = sorted(p.name for p in out.iterdir())
    for p in out.iterdir():
        p.unlink()
    if code:
        streamed = ["g.jsonl"] if argv[0] == "generate" else []
        assert left in ([], streamed), (argv, left)
    return code


def commands(name, paths, out):
    """The commands that read the file ``name``."""
    p = {k: str(v) for k, v in paths.items()}
    generate = ["generate", "--model", p["uni.ngram"], "--vocab", p["uni.vocab"]]
    evaluate = ["evaluate", "--requests", p["requests.jsonl"],
                "--generations", p["generations.jsonl"], "--report", f"{out}/r.json"]
    return {
        "corpus.jsonl": [["ingest", "--corpus", p["corpus.jsonl"],
                          "--stats-out", f"{out}/s.json"],
                         ["train-tokenizer", "--corpus", p["corpus.jsonl"],
                          "--kind", "unicode", "--out", f"{out}/v.vocab"]],
        "uni.vocab": [generate + ["--scheme", "ABAB", "--max-tokens", "200"],
                      ["train-lm", "--corpus", p["corpus.jsonl"], "--vocab", p["uni.vocab"],
                       "--order", "2", "--out", f"{out}/m.ngram"]],
        "uni.ngram": [generate + ["--scheme", "ABAB", "--max-tokens", "200"]],
        "requests.jsonl": [generate + ["--requests", p["requests.jsonl"],
                                       "--out", f"{out}/g.jsonl"], evaluate],
        "generations.jsonl": [evaluate],
        "a.txt": [["significance", "--a", p["a.txt"], "--b", p["b.txt"]]],
    }[name]


def value_spots(obj):
    """(container, key) of every value inside a JSON object."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        yield obj, key
        if isinstance(value, (dict, list)):
            yield from value_spots(value)


def retyped(data, text):
    """``text``, JSON lines, with one value of one record replaced by a
    value of another type."""
    records = [json.loads(line) for line in text.splitlines()]
    i = data.draw(st.integers(0, len(records) - 1))
    record = copy.deepcopy(records[i])
    container, key = data.draw(st.sampled_from(list(value_spots(record))))
    old = container[key]
    container[key] = data.draw(st.sampled_from(
        [v for v in OTHER_VALUES if type(v) is not type(old)]))
    records[i] = record
    return "".join(json.dumps(r) + "\n" for r in records)


def char_mutated(data, text):
    """``text`` with one character inserted, deleted or replaced, or cut
    short."""
    at = data.draw(st.integers(0, len(text)))
    how = data.draw(st.sampled_from(["insert", "delete", "replace", "truncate"]))
    if how == "truncate":
        return text[:at]
    ch = "" if how == "delete" else data.draw(st.sampled_from(MUTANT_CHARS))
    return text[:at] + ch + text[at + (how != "insert"):]


def byte_mutated(data, raw):
    """``raw`` with one byte inserted, deleted or replaced, or cut short."""
    at = data.draw(st.integers(0, len(raw)))
    how = data.draw(st.sampled_from(["insert", "delete", "replace", "truncate"]))
    if how == "truncate":
        return raw[:at]
    byte = b"" if how == "delete" else bytes([data.draw(st.integers(0, 255))])
    return raw[:at] + byte + raw[at + (how != "insert"):]


def generated(argv):
    """The exit code and standard output of ``main(argv)``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def imaged(setup):
    """A copy of the model with its image, the command that samples from
    it, and what that command prints."""
    tmp, paths = setup
    model = tmp / "imaged.ngram"
    shutil.copy(paths["uni.ngram"], model)
    argv = commands("uni.ngram", dict(paths, **{"uni.ngram": model}), tmp)[0]
    shutil.copy(f"{paths['uni.ngram']}.img", f"{model}.img")
    expected = generated(argv)
    assert expected[0] == 0
    return model, argv, expected


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_a_mutated_image_changes_no_output(setup, imaged, data):
    tmp, paths = setup
    model, argv, expected = imaged
    raw = Path(f"{paths['uni.ngram']}.img").read_bytes()
    Path(f"{model}.img").write_bytes(byte_mutated(data, raw))
    assert generated(argv) == expected


def test_an_image_of_another_model_or_text_changes_no_output(setup, imaged):
    tmp, paths = setup
    model, argv, expected = imaged
    other = ngram.train([[4, 5, 6, 4]], 2, tokenizers.load_vocab(paths["uni.vocab"]))
    ngram.save(other, tmp / "other.ngram")
    shutil.copy(f"{tmp / 'other.ngram'}.img", f"{model}.img")
    assert generated(argv) == expected
    # an edited text, with the image of the text before: as if alone
    shutil.copy(f"{paths['uni.ngram']}.img", f"{model}.img")
    lines = paths["uni.ngram"].read_text(encoding="utf-8").splitlines(keepends=True)
    at = next(i for i, line in enumerate(lines) if line.startswith("C\t\t"))
    lines[at] = lines[at].replace(":", ":10", 1)
    model.write_text("".join(lines), encoding="utf-8")
    edited = generated(argv)
    Path(f"{model}.img").unlink()
    assert generated(argv) == edited != expected


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_mutated_inputs_exit_with_a_documented_code(setup, data):
    tmp, paths = setup
    name = data.draw(st.sampled_from(["corpus.jsonl", "requests.jsonl", "generations.jsonl",
                                      "uni.vocab", "uni.ngram", "a.txt"]))
    text = paths[name].read_text(encoding="utf-8")
    mutate = retyped if name.endswith(".jsonl") else char_mutated
    mutated = dict(paths, **{name: tmp / f"mutated-{name}"})
    mutated[name].write_text(mutate(data, text), encoding="utf-8")
    for argv in commands(name, mutated, tmp / "out"):
        assert run_in(tmp / "out", argv) in EXIT_CODES, argv


def test_a_missing_output_directory_exits_3_naming_the_output(setup, capsys):
    """Each command that writes a report, vocabulary or model into a
    directory that is missing exits 3 and names that output, with its
    inputs missing too: it checks the output before it opens any input.
    ``generate`` streams into its ``--out`` and is left out."""
    tmp, paths = setup
    gone = tmp / "gone"
    absent = {name: tmp / "absent" / name for name in paths}
    checked = set()
    for name in ("corpus.jsonl", "uni.vocab", "requests.jsonl", "generations.jsonl"):
        for argv in commands(name, absent, gone):
            out = [a for a in argv if a.startswith(f"{gone}/")]
            if argv[0] == "generate" or not out:
                continue
            assert main(argv) == 3, argv
            assert capsys.readouterr().err == (
                f"missing file: [Errno 2] No such file or directory: '{out[0]}'\n")
            checked.add(argv[0])
    assert checked == {"ingest", "train-tokenizer", "train-lm", "evaluate"}
    assert not gone.exists() and not (tmp / "absent").exists()


def with_lone_surrogate(record, n):
    """A copy of ``record`` with a lone surrogate put into its ``n``-th
    string: its string values first, then its keys."""
    record = copy.deepcopy(record)
    spots = list(value_spots(record))
    values = [(c, k) for c, k in spots if isinstance(c[k], str)]
    keys = [(c, k) for c, k in spots if isinstance(c, dict)]
    if n < len(values):
        container, key = values[n]
        container[key] = container[key][:1] + "\ud800" + container[key][1:]
    else:
        container, key = keys[n - len(values)]
        container[key[:1] + "\udc00" + key[1:]] = container.pop(key)
    return record


@pytest.mark.parametrize("name", ["corpus.jsonl", "requests.jsonl", "generations.jsonl"])
def test_a_lone_surrogate_in_any_string_names_its_line(setup, capsys, name):
    """Each string value and key of a record's line, with a lone surrogate
    escape in it, is refused with exit 4 and the line's ``path:line``."""
    tmp, paths = setup
    lines = paths[name].read_text(encoding="utf-8").splitlines(keepends=True)
    record = json.loads(lines[1])
    spots = list(value_spots(record))
    n_strings = sum(isinstance(c[k], str) for c, k in spots) + sum(
        isinstance(c, dict) for c, _ in spots)
    mutated = dict(paths, **{name: tmp / f"surrogate-{name}"})
    for n in range(n_strings):
        line = json.dumps(with_lone_surrogate(record, n)) + "\n"
        mutated[name].write_text("".join([lines[0], line, *lines[2:]]), encoding="utf-8")
        for argv in commands(name, mutated, tmp / "out"):
            code = run_in(tmp / "out", argv)
            err = capsys.readouterr().err
            assert code == 4, (argv, line)
            assert f"{mutated[name]}:2: " in err and "surrogate" in err, err
