import codecs
import io
import re
import sys

import pytest

from cmla import cli
from cmla.model import CmlaParams, load_checkpoint, save_checkpoint


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stdin_bytes(data: bytes):
    """A stand-in for sys.stdin that carries `data` as its byte stream."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A small synthesized corpus plus a trained checkpoint, built once."""
    root = tmp_path_factory.mktemp("cliws")
    data = root / "data"
    code = cli.main(["synth", "--out", str(data), "--sentences", "10", "--dim", "8"])
    assert code == 0
    run_dir = root / "run"
    code = cli.main([
        "train",
        "--data", str(data / "corpus.xml"),
        "--embeddings", str(data / "embeddings.txt"),
        "--lexicon", str(data / "lexicon.txt"),
        "--out", str(run_dir),
        "--channels", "3",
        "--epochs", "5",
        "--lr", "0.3",
    ])
    assert code == 0
    return data, run_dir


# --- synth ------------------------------------------------------------------


def test_synth_writes_three_files(tmp_path, capsys):
    out = tmp_path / "corpus"
    code, stdout, _ = run(capsys, "synth", "--out", str(out), "--sentences", "6")
    assert code == 0
    for name in ("corpus.xml", "embeddings.txt", "lexicon.txt"):
        assert (out / name).is_file()
    assert "sentences: 6" in stdout
    assert "wrote corpus.xml" in stdout


def test_synth_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    run(capsys, "synth", "--out", str(a), "--sentences", "5", "--seed", "9")
    run(capsys, "synth", "--out", str(b), "--sentences", "5", "--seed", "9")
    for name in ("corpus.xml", "embeddings.txt", "lexicon.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_synth_seed_changes_output(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    run(capsys, "synth", "--out", str(a), "--sentences", "5", "--seed", "1")
    run(capsys, "synth", "--out", str(b), "--sentences", "5", "--seed", "2")
    assert (a / "corpus.xml").read_bytes() != (b / "corpus.xml").read_bytes()


# --- train ------------------------------------------------------------------


def test_train_writes_artifacts(workspace):
    _, run_dir = workspace
    assert (run_dir / "checkpoint.json").is_file()
    trace = (run_dir / "loss_trace.txt").read_text().splitlines()
    assert len(trace) == 5
    assert all(float(line) > 0 for line in trace)


def test_train_missing_required_flag_exits_one(capsys, tmp_path):
    code, _, stderr = run(capsys, "train", "--data", str(tmp_path / "nope.xml"))
    assert code == 1
    assert "cmla:" in stderr


@pytest.mark.parametrize("where", ["flag", "config"])
@pytest.mark.parametrize("command, option", [
    ("synth", "out"), ("train", "data"), ("train", "embeddings"), ("train", "lexicon"), ("train", "out"),
    ("eval", "data"), ("eval", "checkpoint"), ("predict", "checkpoint"), ("predict", "embeddings"),
    ("inspect", "embeddings"),
])
def test_empty_required_option_counts_as_missing(workspace, capsys, tmp_path, command, option, where):
    # an empty value would fail late, naming no option, after train made --out
    data, run_dir = workspace
    given = {"data": data / "corpus.xml", "embeddings": data / "embeddings.txt",
             "lexicon": data / "lexicon.txt", "checkpoint": run_dir / "checkpoint.json", "out": tmp_path / "out"}
    argv = [command]
    for key, (_conv, default, _help) in cli._SCHEMAS[command].items():
        if default is None and key != option:
            argv += [f"--{key}", str(given[key])]
    if where == "flag":
        argv += [f"--{option}", ""]
    else:
        (tmp_path / "options.cfg").write_text(f"{option} =\n", encoding="utf-8")
        argv += ["--config", str(tmp_path / "options.cfg")]
    assert run(capsys, *argv) == (1, "", f"cmla: missing required options: --{option}\n")
    assert not (tmp_path / "out").exists()


def test_empty_config_name_exits_one(capsys, tmp_path):
    code, _, stderr = run(capsys, "synth", "--config", "", "--out", str(tmp_path / "out"))
    assert code == 1 and "config file not found" in stderr
    assert not (tmp_path / "out").exists()


def test_empty_optional_values_keep_their_meaning(workspace, capsys, monkeypatch, tmp_path):
    # eval --out "" writes no TSV; predict --input "" reads stdin
    data, run_dir = workspace
    monkeypatch.chdir(tmp_path)
    code, stdout, _ = run(
        capsys, "eval",
        "--data", str(data / "corpus.xml"),
        "--embeddings", str(data / "embeddings.txt"),
        "--lexicon", str(data / "lexicon.txt"),
        "--checkpoint", str(run_dir / "checkpoint.json"),
        "--out", "",
    )
    assert code == 0 and "combined" in stdout and not any(tmp_path.iterdir())
    monkeypatch.setattr(sys, "stdin", stdin_bytes(b"zeer goede ligging\n"))
    code, stdout, _ = run(
        capsys, "predict",
        "--checkpoint", str(run_dir / "checkpoint.json"),
        "--embeddings", str(data / "embeddings.txt"),
        "--input", "",
    )
    assert code == 0 and "sentence 1: zeer goede ligging" in stdout


def test_missing_input_file_exits_one(workspace, capsys, tmp_path):
    data, _ = workspace
    code, _, stderr = run(
        capsys, "train",
        "--data", str(tmp_path / "absent.xml"),
        "--embeddings", str(data / "embeddings.txt"),
        "--lexicon", str(data / "lexicon.txt"),
        "--out", str(tmp_path / "out"),
    )
    assert code == 1
    assert "not found" in stderr


@pytest.mark.parametrize(
    "flag, value",
    [("--lr", "-1"), ("--lr", "nan"), ("--lr", "inf"), ("--lr", "1e400"), ("--epochs", "-1"),
     ("--clip", "0"), ("--clip", "nan"), ("--channels", "0"), ("--layers", "0"),
     ("--init-scale", "0"), ("--init-scale", "inf"), ("--init-scale", "1e308"), ("--seed", "-1"),
     ("--buckets", "0")],
)
def test_invalid_training_hyperparameter_exits_one(workspace, capsys, tmp_path, flag, value):
    data, _ = workspace
    code, _, stderr = run(
        capsys, "train",
        "--data", str(data / "corpus.xml"),
        "--embeddings", str(data / "embeddings.txt"),
        "--lexicon", str(data / "lexicon.txt"),
        "--out", str(tmp_path / "out"),
        "--oov", "hash_bucket",
        flag, value,
    )
    assert code == 1
    assert f"{flag} must be" in stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, flag, value",
    [("synth", "--sentences", "-3"), ("synth", "--sentences", "0"), ("synth", "--dim", "0"),
     ("synth", "--seed", "-1"), ("inspect", "--top", "-2"), ("predict", "--buckets", "0"),
     ("eval", "--buckets", "0")],
)
def test_invalid_option_value_exits_one(workspace, capsys, tmp_path, command, flag, value):
    data, run_dir = workspace
    files = {
        "synth": ["--out", str(tmp_path / "out")],
        "inspect": ["--embeddings", str(data / "embeddings.txt"), "dag"],
        "predict": ["--checkpoint", str(run_dir / "checkpoint.json"),
                    "--embeddings", str(data / "embeddings.txt"), "--oov", "hash_bucket"],
        "eval": ["--data", str(data / "corpus.xml"), "--embeddings", str(data / "embeddings.txt"),
                 "--lexicon", str(data / "lexicon.txt"),
                 "--checkpoint", str(run_dir / "checkpoint.json"),
                 "--out", str(tmp_path / "out"), "--oov", "hash_bucket"],
    }
    code, stdout, stderr = run(capsys, command, *files[command], flag, value)
    assert code == 1
    assert stderr.startswith(f"cmla: {flag} must be ")
    assert stdout == ""
    assert not (tmp_path / "out").exists()


def test_train_out_naming_a_file_exits_two_before_training(workspace, capsys, monkeypatch, tmp_path):
    data, _ = workspace
    out = tmp_path / "afile"
    out.write_text("", encoding="utf-8")
    calls = []
    monkeypatch.setattr(cli, "train", lambda *args: calls.append(args))
    code, stdout, stderr = run(
        capsys, "train",
        "--data", str(data / "corpus.xml"),
        "--embeddings", str(data / "embeddings.txt"),
        "--lexicon", str(data / "lexicon.txt"),
        "--out", str(out),
    )
    assert code == 2
    assert stdout == ""
    assert stderr.count("\n") == 1 and str(out) in stderr
    assert calls == []


def test_malformed_xml_exits_two(workspace, capsys, tmp_path):
    data, _ = workspace
    bad = tmp_path / "bad.xml"
    bad.write_text("<sentences><sentence></sentences>", encoding="utf-8")
    code, _, stderr = run(
        capsys, "train",
        "--data", str(bad),
        "--embeddings", str(data / "embeddings.txt"),
        "--lexicon", str(data / "lexicon.txt"),
        "--out", str(tmp_path / "out"),
    )
    assert code == 2
    assert "line" in stderr


def test_nan_embeddings_exit_two(workspace, capsys, tmp_path):
    data, _ = workspace
    lines = (data / "embeddings.txt").read_text().splitlines()
    header = lines[0]
    dim = int(header.split()[1])
    poisoned = [header]
    for i, line in enumerate(lines[1:]):
        word = line.split()[0]
        values = ["nan"] * dim if i == 0 else line.split()[1:]
        poisoned.append(" ".join([word] + values))
    bad = tmp_path / "nan.txt"
    bad.write_text("\n".join(poisoned) + "\n", encoding="utf-8")
    code, _, stderr = run(
        capsys, "train",
        "--data", str(data / "corpus.xml"),
        "--embeddings", str(bad),
        "--lexicon", str(data / "lexicon.txt"),
        "--out", str(tmp_path / "out"),
        "--epochs", "2",
    )
    assert code == 2
    assert f"{bad}: line 2: non-finite value" in stderr


@pytest.mark.parametrize("literal", ["1_0", "٣"])
def test_embedding_literal_outside_the_c_reader_exits_two(capsys, tmp_path, literal):
    """Python's float reads these; the embedding loader's C reader does not."""
    path = tmp_path / "vectors.txt"
    path.write_text(f"2 2\nhond 1 2\nkat 0.5 {literal}\n", encoding="utf-8")
    code, _, stderr = run(capsys, "inspect", "--embeddings", str(path), "hond")
    assert code == 2
    assert stderr == f"cmla: {path}: line 3: non-numeric value\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")   # the overflow must not leak as a warning
def test_diverging_training_exits_three(workspace, capsys, tmp_path):
    data, _ = workspace
    code, _, stderr = run(
        capsys, "train",
        "--data", str(data / "corpus.xml"),
        "--embeddings", str(data / "embeddings.txt"),
        "--lexicon", str(data / "lexicon.txt"),
        "--out", str(tmp_path / "out"),
        "--epochs", "2",
        "--lr", "1e300",
    )
    assert code == 3
    assert stderr.startswith("cmla: overflow encountered")
    assert stderr.count("\n") == 1 and "sentence index" in stderr


def test_no_subcommand_exits_one(capsys):
    code, _, stderr = run(capsys)
    assert code == 1
    assert "subcommand" in stderr


def test_unknown_flag_exits_one(capsys):
    code, _, stderr = run(capsys, "synth", "--out", "x", "--bogus", "1")
    assert code == 1


# --- config files -----------------------------------------------------------


def test_config_file_supplies_values(workspace, capsys, tmp_path):
    data, _ = workspace
    cfg = tmp_path / "train.cfg"
    cfg.write_text(
        "# training settings\n"
        f"data = {data / 'corpus.xml'}\n"
        f"embeddings = {data / 'embeddings.txt'}\n"
        f"lexicon = {data / 'lexicon.txt'}\n"
        f"out = {tmp_path / 'run'}\n"
        "channels = 2\n"
        "epochs = 1\n",
        encoding="utf-8",
    )
    code, stdout, _ = run(capsys, "train", "--config", str(cfg))
    assert code == 0
    assert "trained 1 epochs" in stdout


def test_flags_override_config(workspace, capsys, tmp_path):
    data, _ = workspace
    cfg = tmp_path / "train.cfg"
    cfg.write_text(
        f"data = {data / 'corpus.xml'}\n"
        f"embeddings = {data / 'embeddings.txt'}\n"
        f"lexicon = {data / 'lexicon.txt'}\n"
        f"out = {tmp_path / 'run'}\n"
        "channels = 2\n"
        "epochs = 7\n",
        encoding="utf-8",
    )
    code, stdout, _ = run(capsys, "train", "--config", str(cfg), "--epochs", "2")
    assert code == 0
    assert "trained 2 epochs" in stdout
    assert len((tmp_path / "run" / "loss_trace.txt").read_text().splitlines()) == 2


@pytest.mark.parametrize(
    "name, escaped, via_config",
    [("no\nsuch", "no\\nsuch", False), ("café\x1b[31m", "café\\x1b[31m", False),
     ("no-such\x00", "no-such\\x00", True)],
    ids=["newline", "escape-sequence", "config-value-ending-in-nul"],
)
def test_error_is_one_printable_line(capsys, tmp_path, name, escaped, via_config):
    # unprintable characters are escaped; printable non-ASCII text stays as it is
    if via_config:
        cfg = tmp_path / "nul.cfg"
        cfg.write_text(f"embeddings = {tmp_path / name}\n", encoding="utf-8")
        args = ("--config", str(cfg))
    else:
        args = ("--embeddings", str(tmp_path / name))
    code, stdout, stderr = run(capsys, "inspect", *args)
    assert code == 1 and stdout == ""
    assert stderr == f"cmla: embeddings file not found: {tmp_path}/{escaped}\n"
    assert stderr[:-1].isprintable()


def test_config_unknown_key_exits_one(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("wibble = 3\n", encoding="utf-8")
    code, _, stderr = run(capsys, "synth", "--config", str(cfg), "--out", str(tmp_path))
    assert code == 1
    assert "wibble" in stderr


def test_config_missing_file_exits_one(capsys, tmp_path):
    code, _, stderr = run(capsys, "synth", "--config", str(tmp_path / "ghost.cfg"))
    assert code == 1
    assert "config file not found" in stderr


def test_config_malformed_line_exits_one(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just some words\n", encoding="utf-8")
    code, _, stderr = run(capsys, "synth", "--config", str(cfg), "--out", str(tmp_path))
    assert code == 1
    assert "line 1" in stderr


def test_config_non_finite_lr_exits_one(workspace, capsys, tmp_path):
    data, _ = workspace
    cfg = tmp_path / "train.cfg"
    cfg.write_text("lr = 1e400\n", encoding="utf-8")
    code, _, stderr = run(
        capsys, "train", "--config", str(cfg),
        "--data", str(data / "corpus.xml"),
        "--embeddings", str(data / "embeddings.txt"),
        "--lexicon", str(data / "lexicon.txt"),
        "--out", str(tmp_path / "out"),
    )
    assert code == 1
    assert stderr == "cmla: --lr must be positive and finite, got inf\n"
    assert not (tmp_path / "out").exists()


def test_config_not_utf8_exits_two_naming_file_and_line(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"seed = 3\ndim = \xff4\n")
    code, stdout, stderr = run(capsys, "synth", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert code == 2 and stdout == ""
    assert stderr == f"cmla: {cfg}: line 2: not UTF-8 text (invalid start byte)\n"
    assert not (tmp_path / "out").exists()


def test_config_file_with_bom_reads_as_without(capsys, tmp_path):
    text = b"sentences = 4\ndim = 5\n"
    results = []
    for name, raw in (("plain", text), ("marked", codecs.BOM_UTF8 + text)):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_bytes(raw)
        code, stdout, stderr = run(capsys, "synth", "--config", str(cfg), "--out", str(tmp_path / name))
        results.append((code, stdout.replace(name, ""), stderr, (tmp_path / name / "embeddings.txt").read_bytes()))
    assert results[0] == results[1] and results[0][0] == 0


@pytest.mark.parametrize("via_config", [False, True])
def test_unknown_oov_policy_exits_one(workspace, capsys, tmp_path, via_config):
    data, run_dir = workspace
    cfg = tmp_path / "predict.cfg"
    cfg.write_text("oov = bogus\n", encoding="utf-8")
    code, stdout, stderr = run(
        capsys, "predict",
        "--checkpoint", str(run_dir / "checkpoint.json"),
        "--embeddings", str(data / "embeddings.txt"),
        *(["--config", str(cfg)] if via_config else ["--oov", "bogus"]),
    )
    assert code == 1 and stdout == ""
    assert stderr == "cmla: --oov must be zero_vector or hash_bucket, got 'bogus'\n"


# --- eval -------------------------------------------------------------------


def test_eval_prints_metrics_table(workspace, capsys):
    data, run_dir = workspace
    code, stdout, _ = run(
        capsys, "eval",
        "--data", str(data / "corpus.xml"),
        "--embeddings", str(data / "embeddings.txt"),
        "--lexicon", str(data / "lexicon.txt"),
        "--checkpoint", str(run_dir / "checkpoint.json"),
    )
    assert code == 0
    for word in ("aspect", "opinion", "combined", "precision", "sentences: 10"):
        assert word in stdout


def test_eval_writes_tsv(workspace, capsys, tmp_path):
    data, run_dir = workspace
    out = tmp_path / "metrics.tsv"
    code, _, _ = run(
        capsys, "eval",
        "--data", str(data / "corpus.xml"),
        "--embeddings", str(data / "embeddings.txt"),
        "--lexicon", str(data / "lexicon.txt"),
        "--checkpoint", str(run_dir / "checkpoint.json"),
        "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("head\t")
    assert len(lines) == 4


def test_eval_dimension_mismatch_exits_two(workspace, capsys, tmp_path):
    data, run_dir = workspace
    other = tmp_path / "other"
    run(capsys, "synth", "--out", str(other), "--sentences", "4", "--dim", "5")
    code, _, stderr = run(
        capsys, "eval",
        "--data", str(data / "corpus.xml"),
        "--embeddings", str(other / "embeddings.txt"),
        "--lexicon", str(data / "lexicon.txt"),
        "--checkpoint", str(run_dir / "checkpoint.json"),
    )
    assert code == 2
    assert "dimension" in stderr
    assert str(run_dir / "checkpoint.json") in stderr and str(other / "embeddings.txt") in stderr


def test_predict_dimension_mismatch_exits_two(workspace, capsys, tmp_path):
    _, run_dir = workspace
    other = tmp_path / "other"
    run(capsys, "synth", "--out", str(other), "--sentences", "4", "--dim", "5")
    inp = tmp_path / "sentences.txt"
    inp.write_text("de soep was lekker\n", encoding="utf-8")
    code, stdout, stderr = run(
        capsys, "predict",
        "--checkpoint", str(run_dir / "checkpoint.json"),
        "--embeddings", str(other / "embeddings.txt"),
        "--input", str(inp),
    )
    assert code == 2 and stdout == ""
    assert "checkpoint dimension 8 != dimension 5" in stderr
    assert str(run_dir / "checkpoint.json") in stderr and str(other / "embeddings.txt") in stderr


# --- predict ----------------------------------------------------------------


def test_predict_from_file(workspace, capsys, tmp_path):
    data, run_dir = workspace
    inp = tmp_path / "sentences.txt"
    inp.write_text("het was een leuke dag en ik heb veel gedaan\n", encoding="utf-8")
    code, stdout, _ = run(
        capsys, "predict",
        "--checkpoint", str(run_dir / "checkpoint.json"),
        "--embeddings", str(data / "embeddings.txt"),
        "--input", str(inp),
    )
    assert code == 0
    assert "sentence 1: het was een leuke dag" in stdout
    assert "aspect spans:" in stdout and "opinion spans:" in stdout
    assert "merged tags:" in stdout
    report_rows = [
        ln for ln in stdout.splitlines() if ln and ln.split("\t")[0].isdigit()
    ]
    assert len(report_rows) == 10  # one row per token


def test_predict_report_pred_column_marks_printed_spans(workspace, capsys, monkeypatch, tmp_path):
    data, _ = workspace
    # the shared 5-epoch checkpoint predicts no spans yet
    code, _, _ = run(
        capsys, "train",
        "--data", str(data / "corpus.xml"),
        "--embeddings", str(data / "embeddings.txt"),
        "--lexicon", str(data / "lexicon.txt"),
        "--out", str(tmp_path),
        "--channels", "3", "--epochs", "60", "--lr", "0.5",
    )
    assert code == 0
    lines = ["zeer goede ligging en prima terras", "het was een leuke dag en ik heb veel gedaan",
             "de kamer was mooie", "ik vond de service echt lekkere", "wat een saaie tuin zeg"]
    monkeypatch.setattr(sys, "stdin", stdin_bytes(("\n".join(lines) + "\n").encode("utf-8")))
    code, stdout, _ = run(
        capsys, "predict",
        "--checkpoint", str(tmp_path / "checkpoint.json"),
        "--embeddings", str(data / "embeddings.txt"),
    )
    assert code == 0
    blocks = stdout.split("sentence ")[1:]
    assert len(blocks) == len(lines)
    flagged = set()
    for block in blocks:
        covered = {}
        for head in ("aspect", "opinion"):
            (shown,) = [ln for ln in block.splitlines() if ln.startswith(f"  {head} spans:")]
            covered[head] = {i for s, e in re.findall(r"\[(\d+),(\d+)\)", shown)
                             for i in range(int(s), int(e))}
        rows = [ln.split("\t") for ln in block.splitlines() if ln.split("\t")[0].isdigit()]
        for row in rows:
            i, pred = int(row[0]), row[5]
            marks = [h for h in ("aspect", "opinion") if i in covered[h]]
            assert pred == ("+".join(marks) or "-")
            flagged.update(marks)
    assert flagged == {"aspect", "opinion"}


def test_predict_from_stdin(workspace, capsys, monkeypatch):
    data, run_dir = workspace
    monkeypatch.setattr(sys, "stdin", stdin_bytes(b"zeer goede ligging\n\n"))
    code, stdout, _ = run(
        capsys, "predict",
        "--checkpoint", str(run_dir / "checkpoint.json"),
        "--embeddings", str(data / "embeddings.txt"),
    )
    assert code == 0
    assert "sentence 1: zeer goede ligging" in stdout
    assert stdout.count("sentence ") == 1


def test_predict_skips_a_line_of_format_characters_as_a_blank_one(workspace, capsys, monkeypatch):
    # a line that is only zero-width space, soft hyphen and word joiner has no tokens
    data, run_dir = workspace
    outputs = []
    for middle in ("\u200b \u00ad\u2060", ""):
        raw = f"zeer goede ligging\n{middle}\nde kamer\n".encode("utf-8")
        monkeypatch.setattr(sys, "stdin", stdin_bytes(raw))
        outputs.append(run(
            capsys, "predict",
            "--checkpoint", str(run_dir / "checkpoint.json"),
            "--embeddings", str(data / "embeddings.txt"),
        ))
    assert outputs[0] == outputs[1] and outputs[0][0] == 0
    assert re.findall(r"^sentence \d+: (.*)$", outputs[0][1], re.M) == ["zeer goede ligging", "de kamer"]


def test_predict_empty_input_warns(workspace, capsys, monkeypatch):
    data, run_dir = workspace
    monkeypatch.setattr(sys, "stdin", stdin_bytes(b""))
    code, stdout, stderr = run(
        capsys, "predict",
        "--checkpoint", str(run_dir / "checkpoint.json"),
        "--embeddings", str(data / "embeddings.txt"),
    )
    assert code == 0
    assert "no sentences" in stderr


def test_predict_stdin_splits_lines_as_files_do(workspace, capsys, monkeypatch):
    data, run_dir = workspace
    monkeypatch.setattr(sys, "stdin", stdin_bytes(b"zeer goede ligging\r\nde kamer\rmooie terras\n"))
    code, stdout, _ = run(
        capsys, "predict",
        "--checkpoint", str(run_dir / "checkpoint.json"),
        "--embeddings", str(data / "embeddings.txt"),
    )
    assert code == 0
    assert re.findall(r"^sentence \d+: (.*)$", stdout, re.M) == ["zeer goede ligging", "de kamer", "mooie terras"]


@pytest.mark.parametrize("source", ["input", "stdin"])
def test_predict_input_with_bom_reads_as_without(workspace, capsys, monkeypatch, tmp_path, source):
    data, run_dir = workspace
    text = "\u00e9\u00e9n goede ligging\nde kamer\n".encode("utf-8")
    results = []
    for raw in (text, codecs.BOM_UTF8 + text):
        (tmp_path / "in.txt").write_bytes(raw)
        monkeypatch.setattr(sys, "stdin", stdin_bytes(raw))
        results.append(run(
            capsys, "predict",
            "--checkpoint", str(run_dir / "checkpoint.json"),
            "--embeddings", str(data / "embeddings.txt"),
            *(["--input", str(tmp_path / "in.txt")] if source == "input" else []),
        ))
    assert results[0] == results[1] and results[0][0] == 0
    assert "sentence 1: \u00e9\u00e9n goede ligging\n" in results[1][1]


def test_predict_rejects_undecodable_stdin(workspace, capsys, monkeypatch):
    data, run_dir = workspace
    monkeypatch.setattr(sys, "stdin", stdin_bytes(b"zeer goede ligging\nzeer caf\xe9 ligging\n"))
    code, stdout, stderr = run(
        capsys, "predict",
        "--checkpoint", str(run_dir / "checkpoint.json"),
        "--embeddings", str(data / "embeddings.txt"),
    )
    assert code == 2 and stdout == ""
    assert "<stdin>: line 2: not UTF-8 text" in stderr


def test_predict_undecodable_stdin_after_bom_names_line(workspace, capsys, monkeypatch):
    # a mark cut off before decoding leaves the byte offsets, and so the line, right
    data, run_dir = workspace
    monkeypatch.setattr(sys, "stdin", stdin_bytes(codecs.BOM_UTF8 + b"goede\n\xe9 ligging\n"))
    code, stdout, stderr = run(
        capsys, "predict",
        "--checkpoint", str(run_dir / "checkpoint.json"),
        "--embeddings", str(data / "embeddings.txt"),
    )
    assert code == 2 and stdout == ""
    assert stderr == "cmla: <stdin>: line 2: not UTF-8 text (invalid continuation byte)\n"


def overflowing_checkpoint(run_dir, tmp_path, layers):
    """The shared checkpoint at `layers` layers, with both classifiers set to
    the finite values +-1.7e308, whose products overflow in the forward pass."""
    params = load_checkpoint(run_dir / "checkpoint.json")
    for head in (params.aspect, params.opinion):
        values = head.classifier.data.reshape(-1)
        values[:] = [1.7e308 * (-1) ** i for i in range(values.size)]
    path = tmp_path / f"overflow{layers}.json"
    save_checkpoint(path, CmlaParams.from_named(params.named_tensors(), layers))
    return path


def departed(text: bytes, change: str) -> tuple:
    """Checkpoint bytes `text` with one departure from the format, the offset
    load_checkpoint names for it and what it expects there."""
    if change == "version":
        at = text.index(b'"version": 1') + len(b'"version": ')
        return text[:at] + b"2" + text[at + 1 :], at, "the tail"
    if change == "integer value":   # the first value of the first list becomes 1
        at = text.index(b'"values": [') + len(b'"values": [')
        return text[:at] + b"1" + re.sub(rb"^[^,\]]*", b"", text[at:]), at, "a finite float"
    return text + b"\n", len(text), "the tail"


@pytest.mark.parametrize("change", ["version", "integer value", "trailing data"])
@pytest.mark.parametrize("command", ["eval", "predict"])
def test_checkpoint_departure_exits_two_naming_its_byte(workspace, capsys, monkeypatch, tmp_path,
                                                        command, change):
    data, run_dir = workspace
    checkpoint = tmp_path / "checkpoint.json"
    text, at, expected = departed((run_dir / "checkpoint.json").read_bytes(), change)
    checkpoint.write_bytes(text)
    corpus = ["--data", str(data / "corpus.xml"), "--lexicon", str(data / "lexicon.txt")]
    monkeypatch.setattr(sys, "stdin", stdin_bytes(b"zeer goede ligging\n"))
    code, stdout, stderr = run(capsys, command, "--checkpoint", str(checkpoint),
                               "--embeddings", str(data / "embeddings.txt"), *(corpus if command == "eval" else []))
    assert (code, stdout, stderr) == (2, "", f"cmla: {checkpoint}: byte {at}: expected {expected}\n")


@pytest.mark.parametrize("layers", [1, 2])
def test_eval_overflowing_checkpoint_exits_two(workspace, capsys, tmp_path, layers):
    data, run_dir = workspace
    checkpoint = overflowing_checkpoint(run_dir, tmp_path, layers)
    code, stdout, stderr = run(
        capsys, "eval",
        "--data", str(data / "corpus.xml"),
        "--embeddings", str(data / "embeddings.txt"),
        "--lexicon", str(data / "lexicon.txt"),
        "--checkpoint", str(checkpoint),
    )
    assert code == 2 and stdout == ""   # no metrics table
    (sentence_id,) = re.findall(rf"^cmla: {re.escape(str(checkpoint))}: .* of sentence (\S+)$", stderr, re.M)
    assert f'id="{sentence_id}"' in (data / "corpus.xml").read_text(encoding="utf-8")


@pytest.mark.parametrize("layers", [1, 2])
def test_predict_overflowing_checkpoint_exits_two(workspace, capsys, monkeypatch, tmp_path, layers):
    data, run_dir = workspace
    checkpoint = overflowing_checkpoint(run_dir, tmp_path, layers)
    monkeypatch.setattr(sys, "stdin", stdin_bytes(b"zeer goede ligging\nde kamer was mooie\n"))
    code, stdout, stderr = run(
        capsys, "predict",
        "--checkpoint", str(checkpoint),
        "--embeddings", str(data / "embeddings.txt"),
    )
    assert code == 2 and stdout == ""   # nothing for the failing first sentence
    assert re.fullmatch(rf"cmla: {re.escape(str(checkpoint))}: .* of sentence input-1\n", stderr)


# --- inspect ----------------------------------------------------------------


def test_inspect_reports_neighbors_and_oov(workspace, capsys):
    data, _ = workspace
    words = (data / "embeddings.txt").read_text().splitlines()[1].split()[0]
    code, stdout, _ = run(
        capsys, "inspect",
        "--embeddings", str(data / "embeddings.txt"),
        words, "zzznonexistent",
    )
    assert code == 0
    assert "dimension 8" in stdout
    assert f"{words}: norm" in stdout
    assert "zzznonexistent: OOV" in stdout
    assert "query coverage: 1/2 (50.0%)" in stdout


def test_inspect_nearest_neighbor_cosine_bounds(workspace, capsys):
    data, _ = workspace
    word = (data / "embeddings.txt").read_text().splitlines()[1].split()[0]
    code, stdout, _ = run(
        capsys, "inspect", "--embeddings", str(data / "embeddings.txt"), word,
    )
    assert code == 0
    neighbor_lines = [ln for ln in stdout.splitlines() if ln.startswith("  ")]
    assert 1 <= len(neighbor_lines) <= 5
    # list is headed by the query itself at cosine 1.0
    first_word, first_cos = neighbor_lines[0].strip().split("\t")
    assert first_word == word
    assert float(first_cos) == pytest.approx(1.0)
    for ln in neighbor_lines:
        cos = float(ln.split("\t")[1])
        assert -1.0 - 1e-9 <= cos <= 1.0 + 1e-9
