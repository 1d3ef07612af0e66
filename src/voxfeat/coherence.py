"""Semantic coherence over phrase vectors.

Each sentence maps to the mean of its word embeddings; order-q coherence is
the cosine between phrase vectors q+1 sentences apart (order 0 = adjacent).
Normalized statistics subtract a document-internal baseline: the mean cosine
over every defined phrase pair in the same transcript.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .acoustic import FrameSeries
from .errors import DimensionMismatch, EmptyFile
from .functionals import Family, FeatureVector, FunctionalBank, apply_bank, stat_text
from .textfeat import Token, Transcript

ORDERS = (0, 1, 2, 3)
_STATS = ("mean", "stddev", "min", "max", "p10")
_BANK = FunctionalBank(_STATS)


@dataclass(frozen=True)
class EmbeddingTable:
    dim: int
    vectors: dict[str, np.ndarray]

    def __post_init__(self) -> None:
        if self.dim < 1 or not self.vectors:
            raise ValueError("embedding table must be nonempty with dim >= 1")

    def __contains__(self, word: str) -> bool:
        return word in self.vectors


@dataclass(frozen=True)
class CoherenceFeatures:
    per_order: dict[int, dict[str, float]]
    max_phrase_length: int
    determiner_rate: float
    skipped_phrases: int


def load_embeddings(path: str | Path) -> EmbeddingTable:
    """Read "word v1 v2 ... vdim" lines, optional "count dim" header.

    The header is recognized when the first line holds exactly two integer
    fields. Duplicate words keep the last row.
    """
    path = Path(path)
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if ln.strip()]
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
    vectors: dict[str, np.ndarray] = {}
    for i, line in enumerate(lines[start:], start + 1):
        parts = line.split()
        word = parts[0].lower()
        vec = np.array([float(v) for v in parts[1:]])
        if dim is None:
            dim = vec.size  # headerless: first row fixes the dimension
        if vec.size != dim:
            raise DimensionMismatch(f"{path.name}:{i}: {vec.size} values, expected {dim}")
        vectors[word] = vec
    if not vectors or dim is None or dim < 1:
        raise EmptyFile(f"{path}: no usable embedding rows")
    return EmbeddingTable(dim, vectors)


def phrase_vector(sentence: tuple[Token, ...], emb: EmbeddingTable) -> np.ndarray | None:
    """Mean embedding of in-vocabulary tokens; None when all are OOV."""
    rows = [emb.vectors[t.lower] for t in sentence if t.lower in emb.vectors]
    if not rows:
        return None
    return np.mean(rows, axis=0)


def _cosine(u: np.ndarray, v: np.ndarray) -> float:
    # identical arrays short-circuit to 1.0 so repeated sentences are exact
    if u.shape == v.shape and np.array_equal(u, v):
        if np.any(u != 0):
            return 1.0
        return float("nan")
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return float("nan")
    # parallel-but-distinct vectors can round a few ulps past +-1
    return float(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0))


def _defined_vectors(t: Transcript, emb: EmbeddingTable) -> tuple[list[np.ndarray], int]:
    vectors = [phrase_vector(s, emb) for s in t.sentences]
    defined = [v for v in vectors if v is not None]
    return defined, len(vectors) - len(defined)


def coherence_series(t: Transcript, emb: EmbeddingTable, q: int) -> np.ndarray:
    """Cosines at phrase distance q+1 over defined phrase vectors.

    NaN cosines (zero-norm vectors) are excluded. Fewer than q+2 defined
    phrases yields an empty series.
    """
    if q not in ORDERS:
        raise ValueError(f"order must be one of {ORDERS}, got {q}")
    defined, _ = _defined_vectors(t, emb)
    gap = q + 1
    values = [
        _cosine(defined[i], defined[i + gap]) for i in range(len(defined) - gap)
    ]
    out = np.array([v for v in values if not np.isnan(v)])
    return out


def coherence_features(t: Transcript, emb: EmbeddingTable) -> CoherenceFeatures:
    """Raw and baseline-normalized coherence statistics for orders 0-3.

    The baseline is the mean cosine over all defined phrase pairs of this
    transcript; normalized stats run on (c - baseline). Also reports the
    longest sentence, the determiner rate (NaN without POS tags), and how
    many sentences had no in-vocabulary word.
    """
    defined, skipped = _defined_vectors(t, emb)

    pair_cosines = []
    for i in range(len(defined)):
        for j in range(i + 1, len(defined)):
            c = _cosine(defined[i], defined[j])
            if not np.isnan(c):
                pair_cosines.append(c)
    baseline = float(np.mean(pair_cosines)) if pair_cosines else float("nan")

    per_order: dict[int, dict[str, float]] = {}
    for q in ORDERS:
        series = coherence_series(t, emb, q)
        raw = apply_bank(FrameSeries("c", series, 0.0), _BANK)
        norm = apply_bank(FrameSeries("c", series - baseline, 0.0), _BANK)
        stats = {s: raw[f"c_{s}"] for s in _STATS}
        stats.update({f"n_{s}": norm[f"c_{s}"] for s in _STATS})
        per_order[q] = stats

    lengths = [len(s) for s in t.sentences]
    max_phrase_length = max(lengths) if lengths else 0
    tokens = t.tokens()
    tagged = [tok for tok in tokens if tok.pos is not None]
    if tagged and tokens:
        dets = sum(1 for tok in tokens if tok.pos in ("DET", "DT"))
        determiner_rate = dets / len(tokens)
    else:
        determiner_rate = float("nan")

    return CoherenceFeatures(per_order, max_phrase_length, determiner_rate, skipped)


def coherence_feature_vector(cf: CoherenceFeatures, source_id: str = "") -> FeatureVector:
    values = {f"coherence_q{q}_{key}": value
              for q in ORDERS for key, value in cf.per_order[q].items()}
    values["max_phrase_length"] = float(cf.max_phrase_length)
    values["determiner_rate"] = cf.determiner_rate
    return COHERENCE.vector(values, source_id)


def _cosine_text(q: int) -> str:
    return f"cosine(phrase_i, phrase_i+{q + 1}) over sentence mean-vectors"


COHERENCE = Family("text.coherence", (
    *((f"coherence_q{q}_{prefix}{stat}", f"{text}; {stat_text(stat, over='')}")
      for q in ORDERS
      for prefix, text in (
          ("", _cosine_text(q)),
          ("n_", _cosine_text(q) + ", minus the all-pairs cosine baseline"))
      for stat in _STATS),
    ("max_phrase_length", "token count of the longest sentence"),
    ("determiner_rate", "determiner-tagged tokens / N"),
), lambda t, res: coherence_feature_vector(coherence_features(t, res.embeddings)))
COHERENCE_FEATURE_NAMES = COHERENCE.names


def bundled_embeddings_path() -> Path:
    """Tiny embedding table shipped for tests and smoke runs."""
    return Path(__file__).parent / "data" / "tiny_embeddings.txt"
