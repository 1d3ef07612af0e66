"""Semantic coherence over phrase vectors.

Each sentence maps to the mean of its word embeddings; order-q coherence is
the cosine between phrase vectors q+1 sentences apart (order 0 = adjacent).
Normalized statistics subtract a document-internal baseline: the mean cosine
over every defined phrase pair in the same transcript. COHERENCE declares
both series per order; the normalized one has no stddev, which the shift
leaves unchanged, so it would copy the raw series' stddev. The one scalar
is the longest sentence's token count; the determiner rate is the syntax
family's pos_rate_DET.

A transcript's phrase vectors are computed once, as the rows of one
(phrases, dim) array v; sentences with no in-vocabulary word have no row.
The order-q series is the row-wise cosine of v[:-g] against v[g:] with
g = q + 1, clipped to [-1, 1]; identical rows give exactly 1.0, and a row of
zero norm gives NaN, which is dropped. The baseline groups identical unit
rows (their pairs count 1.0 each) and dots each group with the sum of the
groups before it, so it takes O(phrases x dim) memory, never a
phrases x phrases matrix; it is NaN with fewer than two nonzero rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path

import numpy as np

from .errors import ConfigError, DimensionMismatch, EmptyFile
from .functionals import DEFAULT_BANK, Family
from .textfeat import Transcript
from .textio import read_text

ORDERS = (0, 1, 2, 3)


@dataclass(frozen=True, eq=False)
class EmbeddingTable:
    """Word vectors as the rows of one nonempty (words, dim) float `matrix`:
    row i is the vector of words[i], and `index` maps each word to its row."""

    words: tuple[str, ...]
    matrix: np.ndarray = field(repr=False)
    index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.words or self.matrix.ndim != 2 or self.matrix.shape[1] < 1:
            raise ValueError("embedding table must be nonempty with dim >= 1")
        if self.matrix.shape[0] != len(self.words):
            raise ValueError(f"{len(self.words)} words for {self.matrix.shape[0]} rows")
        index = dict(zip(self.words, range(len(self.words))))
        if len(index) < len(self.words):
            raise ValueError("embedding words must be distinct")
        object.__setattr__(self, "index", index)

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]


def load_embeddings(path: str | Path) -> EmbeddingTable:
    """Read "word v1 v2 ... vdim" lines, optional "count dim" header.

    The header is recognized when the first line holds exactly two integer
    fields. A repeated word keeps its last row, at the place of its first.
    Errors name a row by its number among the non-blank lines.

    The values are parsed in one np.loadtxt call. Where it fails, or finds
    a width other than the header's, the rows are parsed again one at a
    time, which raises the error that names the row, and accepts what
    float() accepts beyond loadtxt, such as "1_0" or non-ASCII digits.
    """
    path = Path(path)
    lines = [ln for ln in read_text(path).splitlines() if ln.strip()]
    if not lines:
        raise EmptyFile(f"{path}: no embedding rows")
    start = 0
    dim: int | None = None
    head = lines[0].split()
    if len(head) == 2:
        try:
            int(head[0]), int(head[1])
            dim = int(head[1])
            start = 1
        except ValueError:
            pass
    body = lines[start:]
    matrix = _parse_block(body, dim) if body else None
    if matrix is None:
        matrix = _parse_rows(path, body, start, dim)
    words = [line.split(None, 1)[0].lower() for line in body]
    last = dict(zip(words, range(len(words))))
    if len(last) < len(words):
        matrix = matrix[list(last.values())]
    return EmbeddingTable(tuple(last), matrix)


def _parse_block(body: list[str], dim: int | None) -> np.ndarray | None:
    """The (rows, dim) values of every body line in one C-level parse, or
    None where it fails, or finds no values or a width other than dim."""
    try:
        # the word column reads as 0.0 and is dropped
        block = np.loadtxt(body, comments=None, converters={0: lambda word: 0.0}, ndmin=2)
    except ValueError:
        return None
    width = block.shape[1] - 1
    if width < 1 or (dim is not None and width != dim):
        return None
    return np.ascontiguousarray(block[:, 1:])


def _parse_rows(path: Path, body: list[str], start: int, dim: int | None) -> np.ndarray:
    """The values of every body line parsed one row at a time, raising
    DimensionMismatch or ConfigError naming the first bad row, and EmptyFile
    for a table with no rows or no values."""
    rows = [line.split() for line in body]
    if rows and dim is None:
        dim = len(rows[0]) - 1  # headerless: first row fixes the dimension
    values = []
    for i, row in enumerate(rows, start + 1):
        if len(row) - 1 != dim:
            raise DimensionMismatch(f"{path.name}:{i}: {len(row) - 1} values, expected {dim}")
        try:
            values.append(np.array(row[1:], dtype=float))
        except ValueError as exc:
            raise ConfigError(f"{path}:{i}: {exc}") from None
    if not rows or dim is None or dim < 1:
        raise EmptyFile(f"{path}: no usable embedding rows")
    return np.array(values)


def phrase_vector(sentence: tuple[str, ...], emb: EmbeddingTable) -> np.ndarray | None:
    """Mean embedding of a sentence's in-vocabulary lower forms; None when
    all are out of vocabulary."""
    rows = [emb.matrix[emb.index[w]] for w in sentence if w in emb.index]
    if not rows:
        return None
    return np.mean(rows, axis=0)


def _phrase_matrix(t: Transcript, emb: EmbeddingTable) -> np.ndarray:
    """Phrase vectors of the sentences that have one, as rows of a
    (phrases, dim) array.

    Each is phrase_vector's mean, bit for bit: the sentences with k
    in-vocabulary words are stacked as (m, k, dim), summed over axis 1 in
    the order np.mean sums them, and divided by k."""
    rows = np.fromiter(map(emb.index.get, t.lowers, repeat(-1)), np.intp, t.n_tokens)
    lengths = np.array(t.lengths, dtype=np.intp)
    known = rows >= 0
    rows = rows[known]
    hits = np.add.reduceat(known, np.cumsum(lengths) - lengths) if lengths.size else lengths
    defined = np.flatnonzero(hits)
    hits = hits[defined]
    first = np.cumsum(hits) - hits  # each defined sentence's first entry of rows
    out = np.empty((defined.size, emb.dim))
    for k in np.unique(hits).tolist():
        group = np.flatnonzero(hits == k)
        words = emb.matrix[rows[first[group, None] + np.arange(k)]]
        out[group] = words.sum(axis=1) / k
    return out


def _unit_rows(v: np.ndarray) -> np.ndarray:
    """Rows scaled to unit length; rows of zero or non-finite norm are NaN."""
    norms = np.sqrt(np.einsum("ij,ij->i", v, v))
    ok = (norms > 0.0) & np.isfinite(norms)
    unit = np.full_like(v, np.nan)
    unit[ok] = v[ok] / norms[ok, None]
    return unit


def _series(v: np.ndarray, unit: np.ndarray, q: int) -> np.ndarray:
    gap = q + 1
    # parallel-but-distinct rows can round a few ulps past +-1
    c = np.clip(np.einsum("ij,ij->i", unit[:-gap], unit[gap:]), -1.0, 1.0)
    # identical rows are exactly 1.0 so repeated sentences are exact
    c[np.all(v[:-gap] == v[gap:], axis=1) & ~np.isnan(unit[gap:, 0])] = 1.0
    return c[~np.isnan(c)]


def _baseline(unit: np.ndarray) -> float:
    """Mean cosine over all pairs of defined rows, in O(rows x dim) memory.

    Identical rows are grouped, so their pairs count exactly 1.0; each
    group's cross pairs are its dot products with the sum of the groups
    before it.
    """
    rows, counts = np.unique(unit[~np.isnan(unit[:, 0])], axis=0, return_counts=True)
    m = int(counts.sum())
    if m < 2:
        return float("nan")
    weighted = counts[:, None] * rows
    before = np.cumsum(weighted, axis=0) - weighted
    same = float(np.sum(counts * (counts - 1))) / 2.0
    cross = float(np.einsum("ij,ij->", weighted, before))
    return (same + cross) / (m * (m - 1) / 2.0)


def coherence_features(t: Transcript, emb: EmbeddingTable) -> dict[str, np.ndarray | float]:
    """COHERENCE's values keyed by entry: the order-q cosine series, the
    same series minus the baseline (the mean cosine over all defined phrase
    pairs of this transcript), and the longest sentence."""
    v = _phrase_matrix(t, emb)
    unit = _unit_rows(v)
    baseline = _baseline(unit)
    values: dict[str, np.ndarray | float] = {}
    for q in ORDERS:
        series = _series(v, unit, q)
        values[f"coherence_q{q}"] = series
        values[f"coherence_q{q}_n"] = series - baseline
    values["max_phrase_length"] = float(max(t.lengths, default=0))
    return values


def _cosine_text(q: int) -> str:
    return f"cosine(phrase_i, phrase_i+{q + 1}) over sentence mean-vectors"


_NORMALIZED_STATS = tuple(s for s in DEFAULT_BANK.stats if s != "stddev")

COHERENCE = Family("text.coherence", (
    *(entry for q in ORDERS for entry in (
        (f"coherence_q{q}", _cosine_text(q), DEFAULT_BANK.stats, ""),
        (f"coherence_q{q}_n", _cosine_text(q) + ", minus the all-pairs cosine baseline",
         _NORMALIZED_STATS, ""))),
    ("max_phrase_length", "token count of the longest sentence"),
), lambda t, res: coherence_features(t, res.embeddings))
COHERENCE_FEATURE_NAMES = COHERENCE.names
coherence_feature_vector = COHERENCE.vector
