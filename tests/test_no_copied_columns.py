"""No two columns of an all-families extract are copies of each other.

A copied column adds no information to the table and, in analyze, only a
perfectly correlated pair for the filters to break. The corpus varies F0,
duration, noise and channel count, and pairs recordings with plain-text
transcripts, CoNLL-U with UPOS and DEPREL, CoNLL-U with UPOS only and no
transcript, so that columns which differ in general differ here too.

Two columns count as copies when they vary, share a NaN pattern and agree
within RTOL elsewhere; or, whatever their NaN cells, when they agree within
RTOL on every row where both are defined, with at least 3 such rows, and
vary across those rows. The second rule catches a column that repeats
another except where one of them is NaN (a rate that is NaN without tags
beside a count-based rate that is 0 there).

The one exemption is stated as a rule: an LLD summary `lld_<x>` beside an
active column `<x>` summarizes the same series with the same statistic, and
`lld_hnr_mean` is the mean that `hnr_db` takes. Those pairs must still be
copies, so the rule cannot hide a column that has stopped being one.
"""

from __future__ import annotations

import csv
import struct

import numpy as np
import pytest

from voxfeat.audio_io import AudioBuffer, write_wav
from voxfeat.config import PipelineConfig
from voxfeat.pipeline import run_extract

SR = 16000
LLD_BANK = ("mean", "stddev", "min", "max", "median")
RTOL = 1e-12

# the UPOS of each word the bundled embedding table holds
UPOS = {
    **dict.fromkeys(("the", "a", "an"), "DET"),
    "and": "CCONJ",
    **dict.fromkeys(("of", "to", "in", "on", "at"), "ADP"),
    **dict.fromkeys(("is", "was"), "AUX"),
    **dict.fromkeys(("it", "he", "she", "they", "we", "you", "i"), "PRON"),
    **dict.fromkeys(("cat", "dog", "man", "woman", "boy", "girl", "house", "tree",
                     "water", "food", "mat", "ball"), "NOUN"),
    **dict.fromkeys(("good", "bad", "big", "small", "old", "new"), "ADJ"),
    **dict.fromkeys(("sat", "ran", "walked", "said", "went", "saw"), "VERB"),
}
DEPREL = {"DET": ("det",), "CCONJ": ("cc",), "ADP": ("case",), "AUX": ("aux", "cop"),
          "PRON": ("nsubj", "obj"), "NOUN": ("nsubj", "obj", "obl", "nmod"),
          "ADJ": ("amod", "xcomp"), "VERB": ("root", "conj", "ccomp")}

# (name, F0 Hz, seconds, noise amplitude, channels, transcript kind)
RECORDINGS = (
    ("r1", 110.0, 1.6, 0.005, 1, "txt"),
    ("r2", 220.0, 1.1, 0.03, 1, "conllu"),
    ("r3", 165.0, 2.0, 0.0, 2, "upos"),
    ("r4", 90.0, 0.8, 0.08, 1, "txt"),
    ("r5", 300.0, 1.3, 0.015, 1, "conllu"),
    ("r6", 135.0, 1.8, 0.05, 1, "upos"),
    ("r7", 250.0, 1.0, 0.2, 1, None),
    ("r8", 190.0, 1.4, 0.01, 1, "conllu"),
    ("r9", 120.0, 1.2, 0.02, 1, "conllu"),
)


def voice(rng, f0_hz, seconds, noise):
    """A gated harmonic tone whose F0 and amplitude wander, plus white noise."""
    t = np.arange(int(seconds * SR)) / SR
    f0 = f0_hz * (1.0 + 0.04 * np.sin(2 * np.pi * rng.uniform(2.0, 6.0) * t)
                  + 0.01 * np.cumsum(rng.normal(size=t.size)) / np.sqrt(t.size))
    phase = 2 * np.pi * np.cumsum(f0) / SR
    x = sum(rng.uniform(0.2, 1.0) / k * np.sin(k * phase) for k in range(1, 6))
    gate = np.sin(2 * np.pi * rng.uniform(0.6, 1.8) * t + rng.uniform(0, 2 * np.pi)) > -0.3
    envelope = 0.3 * (1.0 + 0.3 * np.sin(2 * np.pi * rng.uniform(3.0, 8.0) * t))
    return x * envelope * gate + noise * rng.normal(size=t.size)


def write_stereo(path, left, right):
    ints = np.clip(np.round(np.stack([left, right], axis=1) * 32768.0), -32768, 32767)
    body = ints.astype("<i2").tobytes()
    fmt = struct.pack("<IHHIIHH", 16, 1, 2, SR, SR * 4, 4, 16)
    path.write_bytes(b"RIFF" + struct.pack("<I", 36 + len(body)) + b"WAVE" + b"fmt " + fmt
                     + b"data" + struct.pack("<I", len(body)) + body)


def sentences(rng, words):
    """12-23 sentences of 2-15 words, one of them repeated: enough tokens
    that no two tag or relation counts agree by chance on every row."""
    out = [list(rng.choice(words, size=rng.integers(2, 16)))
           for _ in range(rng.integers(12, 24))]
    out.insert(int(rng.integers(1, len(out))), out[0])
    return out


def conllu(rng, sents, with_deprel):
    blocks = []
    for sent in sents:
        lines = []
        for i, word in enumerate(sent + ["."], 1):
            upos = UPOS.get(word, "PUNCT")
            rel = str(rng.choice(DEPREL.get(upos, ("punct",)))) if with_deprel else "_"
            lines.append("\t".join((str(i), word, word, upos, "_", "_", "0", rel, "_", "_")))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


@pytest.fixture(scope="module")
def table(tmp_path_factory, embeddings_path):
    """The extract of every family over the corpus: (column names, rows x columns)."""
    root = tmp_path_factory.mktemp("copies")
    rng = np.random.default_rng(2024)
    words = list(UPOS)
    valence = root / "valence.csv"
    valence.write_text("".join(f"{w},{rng.uniform(-1, 1):.3f}\n" for w in words[::2]))
    audio = root / "audio"
    audio.mkdir()
    for name, f0, seconds, noise, channels, kind in RECORDINGS:
        x = voice(rng, f0, seconds, noise)
        if channels == 2:
            write_stereo(audio / f"{name}.wav", x, 0.6 * np.roll(x, 23)
                         + 0.01 * rng.normal(size=x.size))
        else:
            write_wav(AudioBuffer(x, SR), audio / f"{name}.wav")
        sents = sentences(rng, words)
        if kind == "txt":
            (audio / f"{name}.txt").write_text(
                " ".join(" ".join(s).capitalize() + "." for s in sents) + "\n")
        elif kind is not None:
            (audio / f"{name}.conllu").write_text(conllu(rng, sents, kind == "conllu"))
    cfg = PipelineConfig(sentiment=True, coherence=True, lld_functionals=LLD_BANK,
                         embeddings_path=embeddings_path, valence_path=str(valence))
    out = root / "features.csv"
    manifest = run_extract(audio, out, cfg, jobs=1)
    assert manifest.all_ok, manifest.results
    with open(out, newline="") as f:
        header, *rows = list(csv.reader(f))
    assert [row[0] for row in rows] == [r[0] for r in RECORDINGS]
    return header[1:], np.array([[float(cell) for cell in row[1:]] for row in rows])


def copies(x):
    """Each pair (i, j), i < j, of columns of x with the same NaN pattern
    whose other cells agree within RTOL relative."""
    nan = np.isnan(x)
    filled = np.where(nan, 0.0, x)
    a, b = filled[:, :, None], filled[:, None, :]
    close = np.abs(a - b) <= RTOL * np.maximum(np.abs(a), np.abs(b))
    same = np.all(close & (nan[:, :, None] == nan[:, None, :]), axis=0)
    i, j = np.nonzero(np.triu(same, 1))
    return list(zip(i.tolist(), j.tolist()))


def agree_where_defined(x):
    """Each pair (i, j), i < j, of columns of x that are both defined on at
    least 3 rows, vary across those rows and agree within RTOL on each."""
    defined = ~np.isnan(x)
    filled = np.where(defined, x, 0.0)
    a, b = filled[:, :, None], filled[:, None, :]
    both = defined[:, :, None] & defined[:, None, :]
    close = np.abs(a - b) <= RTOL * np.maximum(np.abs(a), np.abs(b))
    agree = np.all(close | ~both, axis=0) & (both.sum(axis=0) >= 3)
    spread = (np.where(both, a, -np.inf).max(axis=0)
              - np.where(both, a, np.inf).min(axis=0))
    i, j = np.nonzero(np.triu(agree & (spread > 0), 1))
    return list(zip(i.tolist(), j.tolist()))


def exempt(a, b):
    """Whether the pair is an LLD summary and the active column it repeats."""
    pair = {a, b}
    return pair == {"lld_hnr_mean", "hnr_db"} or any(
        f"lld_{other}" in pair for other in pair)


def varies(column):
    kept = column[~np.isnan(column)]
    return kept.size > 1 and np.ptp(kept) > 0


def test_corpus_covers_every_family(table):
    names, x = table
    assert x.shape[0] == len(RECORDINGS)
    for prefix in ("f0_semitone", "centroid", "lld_", "type_token_ratio", "pos_count",
                   "dep_count", "sentiment_valence", "coherence_q3_n_"):
        assert any(name.startswith(prefix) for name in names), prefix


def test_no_column_copies_another(table):
    names, x = table
    pairs = {(i, j) for i, j in copies(x) if varies(x[:, i])}
    pairs.update(agree_where_defined(x))
    copied = [f"{names[i]} == {names[j]}" for i, j in sorted(pairs)
              if not exempt(names[i], names[j])]
    assert not copied, "copied columns: " + ", ".join(copied)


def test_exempt_pairs_are_still_copies(table):
    # an exemption that no longer holds would hide a column that now
    # carries a value of its own
    names, x = table
    col = dict(zip(names, x.T))
    pairs = [(name, name[4:]) for name in names
             if name.startswith("lld_") and name[4:] in col]
    pairs.append(("lld_hnr_mean", "hnr_db"))
    # rms x5, zcr x2, centroid, bandwidth, flatness, rolloff and flux x2,
    # mfcc1-4 x2, hnr_stddev, and the HNR mean
    assert len(pairs) == 27
    for a, b in pairs:
        assert copies(np.column_stack([col[a], col[b]])) == [(0, 1)], (a, b)
