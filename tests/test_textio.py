"""Every text input is read as UTF-8 with an optional byte-order mark, and
bytes that are not UTF-8 raise EncodingError naming the file and offset."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from voxfeat.audio_io import AudioBuffer, write_wav
from voxfeat.cli import main
from voxfeat.coherence import load_embeddings
from voxfeat.config import load_config
from voxfeat.errors import EncodingError, VoxfeatError
from voxfeat.mlpipe.table import read_table_csv
from voxfeat.pipeline import _load_transcript, manifest_path_for
from voxfeat.textfeat import (
    load_conllu,
    load_suffix_list,
    load_valence_csv,
    load_word_list,
)
from voxfeat.textio import read_text

BOM = b"\xef\xbb\xbf"
CONLLU = "# text = hello café\n1\thello\t_\tINTJ\t_\t_\t0\troot\t_\t_\n2\txxx\t_\tX\t_\t_\t1\tdep\t_\t_\n"


def embeddings_of(path):
    emb = load_embeddings(path)
    return emb.dim, dict(zip(emb.words, emb.matrix.tolist()))


def config_of(path):
    cfg = load_config(path)
    return cfg.seed, Path(cfg.valence_path).name


def table_of(path):
    t = read_table_csv(path)
    return t.column_names, t.rows.tolist(), t.row_ids, t.target.tolist()


# (file name, UTF-8 text, reader returning comparable values)
READERS = [
    ("e.txt", "2 2\nCafé 1 0\nb 0 1\n", embeddings_of),
    ("v.csv", "good,1.0\ncafé,-0.5\n", load_valence_csv),
    ("w.txt", "good\ncafé\n", load_word_list),
    ("s.txt", "ness\nité\n", load_suffix_list),
    ("a.conllu", CONLLU, load_conllu),
    ("a.txt", "hello café xxx. bye\n", _load_transcript),
    ("c.json", '{"seed": 3, "valence_path": "é.csv"}', config_of),
    ("t.csv", "row_id,é,target\nr1,1.5,0\nr2,2.5,1\n", table_of),
]


@pytest.mark.parametrize("name,text,reader", READERS, ids=[r[0] for r in READERS])
def test_a_byte_order_mark_is_dropped(tmp_path, name, text, reader):
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    for folder, head in ((plain, b""), (marked, BOM)):
        folder.mkdir()
        (folder / name).write_bytes(head + text.encode("utf-8"))
        (folder / "é.csv").write_text("good,1.0\n", encoding="utf-8")  # the config's lexicon
    assert reader(marked / name) == reader(plain / name)


@pytest.mark.parametrize("bom", [b"", BOM], ids=["plain", "bom"])
@pytest.mark.parametrize("name,text,reader", READERS, ids=[r[0] for r in READERS])
def test_latin1_raises_encoding_error_naming_file_and_offset(tmp_path, name, text, reader, bom):
    data = bom + text.encode("latin-1")
    path = tmp_path / name
    path.write_bytes(data)
    offset = data.index("é".encode("latin-1"))
    with pytest.raises(EncodingError, match=rf"{name}: byte {offset} is not UTF-8"):
        reader(path)


def test_encoding_error_is_a_voxfeat_error():
    assert issubclass(EncodingError, VoxfeatError)


def test_read_text_reads_line_ends_as_open_does(tmp_path):
    p = tmp_path / "a.txt"
    p.write_bytes(BOM + b"a\r\nb\rc\n\xc3\xa9")
    assert read_text(p) == "a\nb\nc\né"
    assert read_text(p) == p.read_text(encoding="utf-8-sig")


def test_a_bom_header_is_still_a_header(tmp_path):
    p = tmp_path / "e.txt"
    p.write_bytes(BOM + b"3 2\na 1 0\nb 0 1\nc 1 1\n")
    assert load_embeddings(p).dim == 2
    p = tmp_path / "v.csv"
    p.write_bytes(BOM + b"good,1.0\n")
    assert load_valence_csv(p) == {"good": 1.0}


def make_wav(path, seconds=0.5):
    t = np.arange(int(16000 * seconds)) / 16000
    write_wav(AudioBuffer(0.4 * np.sin(2 * np.pi * 200 * t), 16000), path)


def test_cli_exits_2_on_a_latin1_resource(tmp_path, capsys):
    audio = tmp_path / "audio"
    audio.mkdir()
    make_wav(audio / "a.wav")
    (tmp_path / "v.csv").write_bytes("good,1.0\ncafé,0.5\n".encode("latin-1"))
    # only a family that is on parses its resource
    (tmp_path / "c.json").write_text(json.dumps({"sentiment": True, "valence_path": "v.csv"}))
    rc = main(["--config", str(tmp_path / "c.json"), "extract", str(audio),
               str(tmp_path / "f.csv")])
    assert rc == 2
    assert "v.csv: byte 12 is not UTF-8" in capsys.readouterr().err


def test_manifest_names_the_error_of_a_latin1_transcript(tmp_path, capsys):
    make_wav(tmp_path / "a.wav")
    make_wav(tmp_path / "b.wav")
    (tmp_path / "a.txt").write_bytes("un café noir\n".encode("latin-1"))
    (tmp_path / "b.txt").write_bytes(BOM + "un café noir\n".encode("utf-8"))
    out = tmp_path / "f.csv"
    assert main(["extract", str(tmp_path), str(out)]) == 1
    inputs = json.loads(manifest_path_for(out).read_text())["inputs"]
    assert [i["status"] for i in inputs] == ["error", "ok"]
    assert inputs[0]["message"].startswith("EncodingError: ")
    assert "a.txt: byte 6 is not UTF-8" in inputs[0]["message"]
