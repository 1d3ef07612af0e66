"""Deterministic synthetic inputs for the benchmark.

Everything here is a pure function of a numpy Generator: the same seed
writes byte-identical WAVs, transcripts, resource files and feature tables.
The seed varies noise, phases, gate boundaries, words and which file gets
which property; the amount of work (audio seconds, voiced share, F0 set,
sentence counts, table shape, NaN count) is fixed per workload, so timings
from different seeds are comparable.

This module does not import voxfeat: the program only ever sees the files.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

SR = 16000

# universal POS tags and a spread of dependency relations (with subtypes,
# which the program folds into their base relation)
UPOS = ("ADJ", "ADP", "ADV", "AUX", "CCONJ", "DET", "INTJ", "NOUN", "NUM",
        "PART", "PRON", "PROPN", "PUNCT", "SCONJ", "SYM", "VERB", "X")
UPOS_WEIGHTS = (6, 8, 5, 4, 3, 9, 1, 20, 2, 2, 7, 3, 0, 2, 1, 15, 1)
DEPRELS = ("nsubj", "nsubj:pass", "obj", "obl", "obl:tmod", "advmod", "amod",
           "det", "case", "conj", "cc", "mark", "aux", "nmod", "compound",
           "xcomp", "ccomp", "advcl", "acl", "discourse")
SYLLABLES = tuple(c + v for c in "bdfgklmnprstvz" for v in "aeiou")


# ---------------------------------------------------------------------------
# audio
# ---------------------------------------------------------------------------

def write_wav(path: Path, x: np.ndarray, encoding: str) -> int:
    """Write float samples in [-1, 1], shape (n,) or (n, channels).

    encoding is "pcm16", "pcm24" or "float32". Returns the file size.
    """
    x = x.reshape(x.shape[0], -1)
    channels = x.shape[1]
    if encoding == "pcm16":
        code, bits = 1, 16
        data = np.clip(np.round(x * 32768.0), -32768, 32767).astype("<i2").tobytes()
    elif encoding == "pcm24":
        code, bits = 1, 24
        ints = np.clip(np.round(x * 8388608.0), -8388608, 8388607).astype("<i4")
        data = ints.view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
    elif encoding == "float32":
        code, bits = 3, 32
        data = x.astype("<f4").tobytes()
    else:
        raise ValueError(f"unknown encoding {encoding!r}")
    block = channels * bits // 8
    fmt = struct.pack("<4sIHHIIHH", b"fmt ", 16, code, channels, SR, SR * block, block, bits)
    pad = b"\0" if len(data) % 2 else b""
    body = b"WAVE" + fmt + b"data" + struct.pack("<I", len(data)) + data + pad
    blob = b"RIFF" + struct.pack("<I", len(body)) + body
    path.write_bytes(blob)
    return len(blob)


def _split(rng: np.random.Generator, total: int, parts: int) -> np.ndarray:
    """total samples cut into parts of +-30 % around the mean length."""
    weights = 1.0 + rng.uniform(-0.3, 0.3, parts)
    sizes = np.floor(total * weights / weights.sum()).astype(np.int64)
    sizes[-1] += total - sizes.sum()
    return sizes


def gated_voice(rng: np.random.Generator, seconds: float, f0_hz: float,
                duty: float, channels: int) -> tuple[np.ndarray, float]:
    """Harmonic tone at a constant F0, switched on and off by a gate.

    Voiced stretches of roughly 0.5 s alternate with gaps that are either
    near-silence or white-noise bursts. Returns the samples and the share
    of samples the gate holds open.
    """
    n = int(round(seconds * SR))
    n_voiced = max(1, int(round(seconds / 0.9)))
    voiced = _split(rng, int(round(duty * n)), n_voiced)
    gaps = _split(rng, n - int(voiced.sum()), n_voiced + 1)
    gate = np.zeros(n)
    noisy = np.zeros(n)
    pos = int(gaps[0])
    noisy[:pos] = rng.integers(0, 2)
    for i, length in enumerate(voiced):
        gate[pos:pos + length] = 1.0
        pos += int(length)
        noisy[pos:pos + int(gaps[i + 1])] = rng.integers(0, 2)
        pos += int(gaps[i + 1])

    ramp = np.hanning(161)
    soft = np.convolve(gate, ramp / ramp.sum(), mode="same")
    t = np.arange(n) / SR
    tone = np.zeros(n)
    for h in range(1, 7):
        tone += 0.8 ** h * np.sin(2 * np.pi * h * f0_hz * t + rng.uniform(0, 2 * np.pi))
    tone *= 0.5 / np.max(np.abs(tone))
    # one voice on every channel; only the noise differs between channels
    out = np.empty((n, channels))
    for ch in range(channels):
        floor = rng.normal(0.0, 0.002, n)
        bursts = rng.normal(0.0, 0.03, n) * noisy
        out[:, ch] = tone * soft + floor + bursts
    return out, float(gate.mean())


# ---------------------------------------------------------------------------
# text
# ---------------------------------------------------------------------------

class Language:
    """A synthetic vocabulary with fixed tags and Zipf frequencies."""

    def __init__(self, rng: np.random.Generator, size: int):
        words: list[str] = []
        seen = {"the", "a"}
        while len(words) < size - 2:
            n_syl = int(rng.integers(1, 4))
            word = "".join(SYLLABLES[i] for i in rng.integers(0, len(SYLLABLES), n_syl))
            if word not in seen:
                seen.add(word)
                words.append(word)
        self.words = ["the", "a"] + words
        p = np.asarray(UPOS_WEIGHTS, dtype=float)
        tags = rng.choice(len(UPOS), size=len(self.words), p=p / p.sum())
        self.tags = ["DET", "DET"] + [UPOS[i] for i in tags[2:]]
        ranks = np.arange(len(self.words))
        freq = 1.0 / (ranks + 2.7)
        self.p = freq / freq.sum()

    def sentence(self, rng: np.random.Generator) -> list[tuple[str, str, str]]:
        """(form, upos, deprel) triples; a few markers and numbers mixed in."""
        length = int(rng.integers(5, 16))
        out = []
        for i in rng.choice(len(self.words), size=length, p=self.p):
            r = rng.random()
            if r < 0.01:
                out.append(("xxx", "X", "dep"))
            elif r < 0.02:
                out.append((str(int(rng.integers(2, 100))), "NUM", "nummod"))
            else:
                out.append((self.words[i], self.tags[i], DEPRELS[int(rng.integers(len(DEPRELS)))]))
        r = int(rng.integers(length))
        out[r] = (out[r][0], out[r][1], "root")
        return out


def write_conllu(path: Path, sentences: list[list[tuple[str, str, str]]]) -> None:
    lines = []
    for s_id, sent in enumerate(sentences, 1):
        lines.append(f"# sent_id = {s_id}")
        for i, (form, upos, deprel) in enumerate(sent, 1):
            head = 0 if deprel == "root" else 1 + (i % len(sent))
            lines.append(f"{i}\t{form}\t{form}\t{upos}\t_\t_\t{head}\t{deprel}\t_\t_")
        lines.append("")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_txt(path: Path, sentences: list[list[tuple[str, str, str]]]) -> None:
    text = " ".join(
        " ".join(w for w, _, _ in sent).capitalize() + "." for sent in sentences)
    path.write_text(text + "\n", encoding="utf-8")


def write_resources(rng: np.random.Generator, lang: Language, out: Path,
                    dim: int = 50) -> dict:
    """An embedding table over 80 % of the vocabulary and a valence CSV."""
    n = len(lang.words)
    covered = rng.permutation(n)[: int(0.8 * n)]
    vecs = rng.normal(0.0, 1.0, (covered.size, dim))
    emb = [f"{covered.size} {dim}"]
    emb += [lang.words[i] + " " + " ".join(f"{v:.4f}" for v in row)
            for i, row in zip(covered, vecs)]
    emb_path = out / "embeddings.txt"
    emb_path.write_text("\n".join(emb) + "\n", encoding="utf-8")
    rated = rng.permutation(n)[: int(0.4 * n)]
    val = ["word,valence"] + [f"{lang.words[i]},{rng.uniform(1, 9):.3f}" for i in rated]
    val_path = out / "valence.csv"
    val_path.write_text("\n".join(val) + "\n", encoding="utf-8")
    return {"embeddings_path": str(emb_path), "valence_path": str(val_path)}


# ---------------------------------------------------------------------------
# feature tables
# ---------------------------------------------------------------------------

def write_table(rng: np.random.Generator, path: Path, n_rows: int, n_cols: int,
                n_planted: int, binary: bool) -> dict:
    """A feature table with the structure `analyze` is built for.

    Columns: planted informative ones, blocks of 8 sharing a latent factor
    (pairwise r about 0.56, so the correlation filter keeps them), one
    near-copy (r > 0.99, always dropped) per 20 columns, and 2 constants
    (always dropped). Exactly 1 % of the cells are NaN. The target is
    balanced 0/1 or a noisy sum of the planted columns.
    """
    n_const, n_dup = 2, n_cols // 20
    n_block = n_cols - n_planted - n_const - n_dup
    x = np.empty((n_rows, n_cols))
    if binary:
        y = rng.permutation(np.arange(n_rows) % 2).astype(np.float64)
        x[:, :n_planted] = rng.normal(0.0, 1.0, (n_rows, n_planted)) + (y - 0.5)[:, None] * 1.2
    else:
        x[:, :n_planted] = rng.normal(0.0, 1.0, (n_rows, n_planted))
        y = x[:, :n_planted].sum(axis=1) + rng.normal(0.0, 1.0, n_rows)
    start = n_planted
    for b in range(0, n_block, 8):
        width = min(8, n_block - b)
        latent = rng.normal(0.0, 1.0, (n_rows, 1))
        x[:, start + b: start + b + width] = (
            0.75 * latent + 0.66 * rng.normal(0.0, 1.0, (n_rows, width)))
    start += n_block
    sources = rng.choice(np.arange(n_planted, n_planted + n_block), n_dup, replace=False)
    x[:, start:start + n_dup] = x[:, sources] + 0.03 * rng.normal(0.0, 1.0, (n_rows, n_dup))
    start += n_dup
    x[:, start:] = rng.uniform(-1.0, 1.0, n_const)[None, :]
    x *= rng.uniform(0.5, 20.0, n_cols)[None, :]

    order = rng.permutation(n_cols)
    x = x[:, order]
    names = [f"f{j:03d}" for j in range(n_cols)]
    planted = sorted(names[int(np.flatnonzero(order == j)[0])] for j in range(n_planted))
    n_nan = int(round(0.01 * n_rows * n_cols))
    cells = rng.choice(n_rows * n_cols, n_nan, replace=False)
    x.reshape(-1)[cells] = np.nan

    lines = [",".join(["row_id"] + names + ["target"])]
    for i in range(n_rows):
        lines.append(",".join([f"r{i:04d}"] + [repr(float(v)) for v in x[i]]
                              + [repr(float(y[i]))]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {"path": str(path), "rows": n_rows, "cols": n_cols, "planted": planted,
            "nan_cells": n_nan}


# ---------------------------------------------------------------------------
# workload inputs
# ---------------------------------------------------------------------------

def write_recordings(rng: np.random.Generator, out: Path, seconds: list[float],
                     f0s: list[float], stereo: int, encoding: str = "pcm16",
                     prefix: str = "rec") -> list[dict]:
    """One gated-voice WAV per entry of seconds; the seed permutes which file
    gets which duration, F0 and channel count, so totals do not depend on it."""
    out.mkdir(parents=True, exist_ok=True)
    n = len(seconds)
    dur = rng.permutation(seconds)
    f0 = rng.permutation(f0s) * rng.uniform(0.97, 1.03, n)
    chans = rng.permutation([2] * stereo + [1] * (n - stereo))
    files = []
    for i in range(n):
        x, duty = gated_voice(rng, float(dur[i]), float(f0[i]), 0.6, int(chans[i]))
        sid = f"{prefix}_{i:02d}"
        size = write_wav(out / f"{sid}.wav", x, encoding)
        files.append({"source_id": sid, "seconds": x.shape[0] / SR, "f0_hz": float(f0[i]),
                      "duty": duty, "channels": int(chans[i]), "encoding": encoding,
                      "bytes": size, "transcript": None, "sentences": 0, "tokens": 0})
    return files


def write_transcripts(rng: np.random.Generator, lang: Language, out: Path,
                      files: list[dict], kinds: list[str | None],
                      sentence_counts: list[int]) -> None:
    """Pair files with "conllu", "txt" or no transcript, permuted by seed;
    sentence_counts holds one count per transcript."""
    out.mkdir(parents=True, exist_ok=True)
    kinds = [kinds[i] for i in rng.permutation(len(kinds))]
    counts = iter(rng.permutation(sentence_counts))
    for meta, kind in zip(files, kinds):
        if kind is None:
            continue
        sents = [lang.sentence(rng) for _ in range(int(next(counts)))]
        path = out / f"{meta['source_id']}.{kind}"
        (write_conllu if kind == "conllu" else write_txt)(path, sents)
        meta.update(transcript=kind, sentences=len(sents),
                    tokens=sum(len(s) for s in sents))
