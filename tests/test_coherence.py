"""Phrase-vector coherence tests."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from voxfeat.acoustic import FrameSeries
from voxfeat.coherence import (
    COHERENCE_FEATURE_NAMES,
    ORDERS,
    EmbeddingTable,
    _phrase_matrix,
    bundled_embeddings_path,
    coherence_feature_vector,
    coherence_features,
    coherence_series,
    load_embeddings,
    phrase_vector,
)
from voxfeat.errors import ConfigError, DimensionMismatch, EmptyFile
from voxfeat.functionals import FunctionalBank, apply_bank
from voxfeat.textfeat import Token, Transcript, tokenize


def table(**vectors):
    dim = len(next(iter(vectors.values())))
    return EmbeddingTable(dim, {w: np.asarray(v, dtype=float) for w, v in vectors.items()})


def sent(*words, pos=None):
    return tuple(
        Token(w, w.lower(), pos=(pos[i] if pos else None)) for i, w in enumerate(words)
    )


class TestLoadEmbeddings:
    def test_with_header(self, tmp_path):
        p = tmp_path / "e.txt"
        p.write_text("2 2\na 1 0\nb 0 1\n")
        emb = load_embeddings(p)
        assert emb.dim == 2
        assert set(emb.vectors) == {"a", "b"}

    def test_headerless_inferred_dim(self, tmp_path):
        p = tmp_path / "e.txt"
        p.write_text("word 1 2 3 4 5\n")
        assert load_embeddings(p).dim == 5

    def test_dimension_mismatch(self, tmp_path):
        p = tmp_path / "e.txt"
        p.write_text("2 2\na 1 0\nb 0 1 7\n")
        with pytest.raises(DimensionMismatch):
            load_embeddings(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "e.txt"
        p.write_text("\n\n")
        with pytest.raises(EmptyFile):
            load_embeddings(p)

    def test_duplicate_last_wins(self, tmp_path):
        p = tmp_path / "e.txt"
        p.write_text("a 1 0\na 0 2\n")
        np.testing.assert_array_equal(load_embeddings(p).vectors["a"], [0.0, 2.0])

    def test_bundled_table_loads(self):
        emb = load_embeddings(bundled_embeddings_path())
        assert emb.dim == 8
        assert len(emb.vectors) <= 50
        assert "the" in emb


class TestPhraseVector:
    def test_single_word_identity(self):
        emb = table(cat=[1.0, 2.0])
        np.testing.assert_array_equal(phrase_vector(sent("cat"), emb), [1.0, 2.0])

    def test_mean_of_two(self):
        emb = table(a=[1.0, 0.0], b=[0.0, 1.0])
        np.testing.assert_array_equal(phrase_vector(sent("a", "b"), emb), [0.5, 0.5])

    def test_all_oov_absent(self):
        emb = table(cat=[1.0, 0.0])
        assert phrase_vector(sent("dog", "bird"), emb) is None

    def test_oov_words_ignored(self):
        emb = table(cat=[2.0, 4.0])
        np.testing.assert_array_equal(phrase_vector(sent("zz", "cat"), emb), [2.0, 4.0])


class TestCoherenceSeries:
    def test_repeated_sentence_exactly_one(self):
        emb = table(the=[0.3, 0.7], cat=[0.9, 0.1])
        t = Transcript(tuple(sent("the", "cat") for _ in range(5)))
        for q in (0, 1, 2, 3):
            series = coherence_series(t, emb, q)
            assert series.size == 5 - (q + 1)
            assert np.all(series == 1.0)

    def test_orthogonal_alternation(self):
        emb = table(a=[1.0, 0.0], b=[0.0, 1.0])
        t = Transcript((sent("a"), sent("b"), sent("a")))
        np.testing.assert_array_equal(coherence_series(t, emb, 0), [0.0, 0.0])
        np.testing.assert_array_equal(coherence_series(t, emb, 1), [1.0])

    def test_too_few_phrases_empty(self):
        emb = table(a=[1.0, 0.0])
        t = Transcript((sent("a"), sent("a"), sent("a")))
        assert coherence_series(t, emb, 3).size == 0

    def test_cosine_bounds_random_sweep(self):
        rng = np.random.default_rng(31)
        words = [f"w{i}" for i in range(20)]
        for _ in range(50):
            emb = EmbeddingTable(6, {w: rng.standard_normal(6) for w in words})
            sentences = tuple(
                sent(*(words[j] for j in rng.integers(0, 20, rng.integers(1, 6))))
                for _ in range(rng.integers(4, 10))
            )
            t = Transcript(sentences)
            for q in (0, 1, 2, 3):
                series = coherence_series(t, emb, q)
                assert np.all(series >= -1.0 - 1e-12)
                assert np.all(series <= 1.0 + 1e-12)

    def test_parallel_phrases_clipped_to_unit_interval(self):
        # unit rows of v, 3.7v and -0.2v dot a few ulps past +-1 unclipped
        rng = np.random.default_rng(34)
        for _ in range(40):
            v = rng.standard_normal(5)
            emb = table(a=v, b=3.7 * v, c=-0.2 * v)
            t = Transcript((sent("a"), sent("b"), sent("c"), sent("a")))
            for q in (0, 1, 2):
                series = coherence_series(t, emb, q)
                assert np.all(np.abs(series) <= 1.0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(32)
        words = [f"w{i}" for i in range(8)]
        base = {w: rng.standard_normal(4) for w in words}
        t = Transcript(tuple(sent(words[i], words[(i + 3) % 8]) for i in range(6)))
        a = coherence_series(t, EmbeddingTable(4, base), 0)
        scaled = {w: 7.5 * v for w, v in base.items()}
        b = coherence_series(t, EmbeddingTable(4, scaled), 0)
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_oov_sentence_skipped_transparently(self):
        emb = table(a=[1.0, 0.0], b=[0.0, 1.0])
        t1 = Transcript((sent("a"), sent("b"), sent("a")))
        t2 = Transcript((sent("a"), sent("zzz"), sent("b"), sent("a")))
        for q in (0, 1, 2, 3):
            np.testing.assert_array_equal(
                coherence_series(t1, emb, q), coherence_series(t2, emb, q)
            )

    def test_invalid_order(self):
        emb = table(a=[1.0])
        with pytest.raises(ValueError):
            coherence_series(Transcript((sent("a"),)), emb, 4)


class TestCoherenceFeatures:
    def test_repeated_sentence_raw_one_normalized_zero(self):
        emb = table(the=[0.3, 0.7], cat=[0.9, 0.1])
        t = Transcript(tuple(sent("the", "cat") for _ in range(6)))
        cf = coherence_features(t, emb)
        for q in (0, 1, 2, 3):
            assert cf.per_order[q]["mean"] == 1.0
            assert cf.per_order[q]["n_mean"] == 0.0

    def test_markers_and_phrase_length(self):
        emb = table(the=[1.0, 0.0], cat=[0.0, 1.0])
        t = Transcript((sent("the", "big", "cat", "sat", pos=["DET", "ADJ", "NOUN", "VERB"]),))
        cf = coherence_features(t, emb)
        assert cf.max_phrase_length == 4
        assert cf.determiner_rate == 0.25

    def test_single_sentence_stats_nan(self):
        emb = table(cat=[1.0, 1.0])
        t = Transcript((sent("cat"),))
        cf = coherence_features(t, emb)
        for q in (0, 1, 2, 3):
            assert np.isnan(cf.per_order[q]["mean"])
        assert cf.max_phrase_length == 1

    def test_untagged_determiner_rate_nan(self):
        emb = table(cat=[1.0, 0.0])
        cf = coherence_features(Transcript((sent("cat"),)), emb)
        assert np.isnan(cf.determiner_rate)

    def test_skipped_count(self):
        emb = table(cat=[1.0, 0.0])
        t = Transcript((sent("cat"), sent("qqq"), sent("cat")))
        cf = coherence_features(t, emb)
        assert cf.skipped_phrases == 1

    def test_feature_vector_names(self):
        emb = table(cat=[1.0, 0.0])
        cf = coherence_features(Transcript((sent("cat"),)), emb)
        fv = coherence_feature_vector(cf, "s")
        assert fv.names == COHERENCE_FEATURE_NAMES
        assert len(COHERENCE_FEATURE_NAMES) == 4 * 10 + 2

    def test_max_stat_ordering(self):
        rng = np.random.default_rng(33)
        words = [f"w{i}" for i in range(10)]
        emb = EmbeddingTable(5, {w: rng.standard_normal(5) for w in words})
        sentences = tuple(
            sent(*(words[j] for j in rng.integers(0, 10, 3))) for _ in range(12)
        )
        cf = coherence_features(Transcript(sentences), emb)
        for q in (0, 1, 2, 3):
            stats = cf.per_order[q]
            if not np.isnan(stats["mean"]):
                assert stats["min"] <= stats["mean"] <= stats["max"]

    def test_tokenize_integration_with_bundled_table(self):
        emb = load_embeddings(bundled_embeddings_path())
        t = tokenize("The cat sat on the mat. The dog ran. The cat sat on the mat.")
        cf = coherence_features(t, emb)
        assert cf.per_order[0]["mean"] is not None
        series = coherence_series(t, emb, 1)
        assert series.size == 1
        assert series[0] == 1.0  # identical first and third sentence


STATS = ("mean", "stddev", "min", "max", "p10")
BANK = FunctionalBank(STATS)


def reference_coherence(t, emb):
    """The per-pair coherence_features the phrase matrix replaced: one Python
    cosine call per phrase pair, phrase vectors rebuilt for every order.
    Returns (per_order, series by order, skipped, max_phrase_length,
    determiner_rate)."""

    def cosine(u, v):
        if u.shape == v.shape and np.array_equal(u, v):
            if np.any(u != 0):
                return 1.0
            return float("nan")
        nu = float(np.linalg.norm(u))
        nv = float(np.linalg.norm(v))
        if nu == 0.0 or nv == 0.0:
            return float("nan")
        return float(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0))

    def defined_vectors():
        vectors = [phrase_vector(s, emb) for s in t.sentences]
        defined = [v for v in vectors if v is not None]
        return defined, len(vectors) - len(defined)

    def series(q):
        defined, _ = defined_vectors()
        gap = q + 1
        values = [cosine(defined[i], defined[i + gap]) for i in range(len(defined) - gap)]
        return np.array([v for v in values if not np.isnan(v)])

    defined, skipped = defined_vectors()
    pair_cosines = []
    for i in range(len(defined)):
        for j in range(i + 1, len(defined)):
            c = cosine(defined[i], defined[j])
            if not np.isnan(c):
                pair_cosines.append(c)
    baseline = float(np.mean(pair_cosines)) if pair_cosines else float("nan")

    per_order, by_order = {}, {}
    for q in ORDERS:
        by_order[q] = series(q)
        raw = apply_bank(FrameSeries("c", by_order[q], 0.0), BANK)
        norm = apply_bank(FrameSeries("c", by_order[q] - baseline, 0.0), BANK)
        per_order[q] = {s: raw[f"c_{s}"] for s in STATS}
        per_order[q].update({f"n_{s}": norm[f"c_{s}"] for s in STATS})

    lengths = [len(s) for s in t.sentences]
    max_phrase_length = max(lengths) if lengths else 0
    tokens = t.tokens()
    tagged = [tok for tok in tokens if tok.pos is not None]
    if tagged and tokens:
        dets = sum(1 for tok in tokens if tok.pos in ("DET", "DT"))
        determiner_rate = dets / len(tokens)
    else:
        determiner_rate = float("nan")
    return per_order, by_order, skipped, max_phrase_length, determiner_rate


def random_table(rng):
    """Random embeddings plus an all-zero one and scaled and negated copies
    of one vector."""
    dim = int(rng.integers(1, 7))
    base = rng.standard_normal(dim)
    vectors = {f"w{i}": rng.standard_normal(dim) for i in range(8)}
    vectors.update(zero=np.zeros(dim), par=base, par3=3.7 * base, neg=-0.2 * base)
    return EmbeddingTable(dim, vectors)


def random_case(rng):
    """A random table and transcript: OOV words, repeated sentences, POS
    tags on some transcripts."""
    emb = random_table(rng)
    vocab = [*emb.vectors, "oov1", "oov2", "oov3"]
    tagged = rng.random() < 0.5
    sentences = []
    for _ in range(int(rng.integers(0, 14))):
        if sentences and rng.random() < 0.25:
            sentences.append(sentences[int(rng.integers(0, len(sentences)))])
            continue
        words = [vocab[j] for j in rng.integers(0, len(vocab), rng.integers(1, 5))]
        tags = [("DET", "NOUN", "VERB")[j] for j in rng.integers(0, 3, len(words))]
        sentences.append(sent(*words, pos=tags if tagged else None))
    return Transcript(tuple(sentences)), emb


class TestMatchesReference:
    """The phrase-matrix coherence equals the per-pair loop it replaced."""

    def check(self, t, emb):
        per_order, by_order, skipped, longest, rate = reference_coherence(t, emb)
        cf = coherence_features(t, emb)
        for q in ORDERS:
            assert list(cf.per_order[q]) == list(per_order[q])
            np.testing.assert_allclose(
                list(cf.per_order[q].values()), list(per_order[q].values()),
                rtol=0, atol=1e-12)
            np.testing.assert_allclose(coherence_series(t, emb, q), by_order[q],
                                       rtol=0, atol=1e-12)
        assert cf.skipped_phrases == skipped
        assert cf.max_phrase_length == longest
        np.testing.assert_array_equal(cf.determiner_rate, rate)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_transcripts(self, seed):
        rng = np.random.default_rng(40 + seed)
        for _ in range(40):
            self.check(*random_case(rng))

    @pytest.mark.parametrize("n_defined", [0, 1, 2, 3, 4, 5])
    def test_defined_phrase_counts(self, n_defined):
        # 0, 1, 2 and q+1 defined phrases for every order, between OOV sentences
        rng = np.random.default_rng(50 + n_defined)
        for _ in range(10):
            emb = random_table(rng)
            defined = [sent(f"w{j}") for j in rng.integers(0, 8, n_defined)]
            oov = [sent("oov1", "oov2")] * int(rng.integers(0, 3))
            self.check(Transcript(tuple(oov + defined + oov)), emb)

    def test_zero_and_parallel_vectors(self):
        emb = random_table(np.random.default_rng(60))
        words = ("zero", "par", "par3", "zero", "neg", "par", "zero", "par3", "w1")
        self.check(Transcript(tuple(sent(w) for w in words)), emb)
        # only zero vectors: every cosine is undefined
        self.check(Transcript(tuple(sent("zero") for _ in range(6))), emb)


def test_memory_stays_linear_in_phrases():
    # an n x n float matrix over 2,000 phrases would take 32 MB by itself
    rng = np.random.default_rng(70)
    emb = EmbeddingTable(50, {f"w{i}": rng.standard_normal(50) for i in range(400)})
    t = Transcript(tuple(
        sent(*(f"w{j}" for j in rng.integers(0, 400, rng.integers(1, 9))))
        for _ in range(2000)))
    tracemalloc.start()
    try:
        cf = coherence_features(t, emb)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert np.isfinite(cf.per_order[3]["n_mean"])


# ---------------------------------------------------------------------------
# the grouped phrase matrix and the one-pass table loader against the loops
# they replaced
# ---------------------------------------------------------------------------

def reference_phrase_matrix(t, emb):
    """Each sentence's mean of its in-vocabulary rows, one np.mean per sentence."""
    vectors = []
    for sentence in t.sentences:
        rows = [emb.vectors[tok.lower] for tok in sentence if tok.lower in emb.vectors]
        if rows:
            vectors.append(np.mean(rows, axis=0))
    return (np.array(vectors, dtype=float).reshape(len(vectors), emb.dim),
            len(t.sentences) - len(vectors))


def reference_load_embeddings(path):
    """(words in table order, rows) parsed one line and one float() at a time."""
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if ln.strip()]
    head = lines[0].split()
    start = 1 if len(head) == 2 and all(f.lstrip("-").isdigit() for f in head) else 0
    vectors = {}
    for line in lines[start:]:
        parts = line.split()
        vectors[parts[0].lower()] = np.array([float(v) for v in parts[1:]])
    return list(vectors), np.array(list(vectors.values()))


def row_by_row_load_embeddings(path):
    """load_embeddings as it was before its one-shot parse: one np.array
    per row, then one stack of the rows."""
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if ln.strip()]
    if not lines:
        raise EmptyFile(f"{path}: no embedding rows")
    start = 0
    dim = None
    head = lines[0].split()
    if len(head) == 2:
        try:
            int(head[0]), int(head[1])
            dim = int(head[1])
            start = 1
        except ValueError:
            pass
    rows = [line.split() for line in lines[start:]]
    if rows and dim is None:
        dim = len(rows[0]) - 1
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
    return EmbeddingTable(dim, dict(zip([row[0].lower() for row in rows], values)))


def outcome(loader, path):
    """A loaded table as (dim, words, matrix bytes, index), or its error as
    (type, message)."""
    try:
        emb = loader(path)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return type(exc), str(exc)
    return emb.dim, list(emb.vectors), emb.matrix.tobytes(), emb.index


class TestPhraseMatrixMatchesReference:
    """Sentences of 7, 8 and 9 in-vocabulary words sit at the edges of
    numpy's 8-way unrolled sum, and 130 past its 128-element block."""

    @pytest.mark.parametrize("dim", [1, 2, 5, 50])
    def test_sentence_lengths_at_the_summation_edges(self, dim):
        rng = np.random.default_rng(90 + dim)
        words = [f"w{i}" for i in range(40)]
        emb = EmbeddingTable(dim, {w: rng.standard_normal(dim) * 10.0 ** rng.integers(-3, 4)
                                   for w in words})
        sentences = []
        for k in (1, 7, 8, 9, 130, 8, 0, 9, 2, 130, 7, 0, 0, 1):
            known = [words[j] for j in rng.integers(0, len(words), k)]
            oov = ["oov"] * int(rng.integers(0 if k else 1, 4))
            mixed = known + oov
            rng.shuffle(mixed)
            sentences.append(sent(*mixed))
        t = Transcript(tuple(sentences))
        got, skipped = _phrase_matrix(t, emb)
        want, want_skipped = reference_phrase_matrix(t, emb)
        np.testing.assert_array_equal(got, want)
        assert skipped == want_skipped == 3

    @pytest.mark.parametrize("seed", range(4))
    def test_random_transcripts(self, seed):
        rng = np.random.default_rng(95 + seed)
        for _ in range(40):
            t, emb = random_case(rng)
            got, skipped = _phrase_matrix(t, emb)
            want, want_skipped = reference_phrase_matrix(t, emb)
            np.testing.assert_array_equal(got, want)
            assert skipped == want_skipped
            for s in t.sentences:
                v = phrase_vector(s, emb)
                if v is not None:
                    assert any(np.array_equal(v, row) for row in got)

    def test_all_oov_and_empty(self):
        emb = table(a=[1.0, 2.0])
        for t in (Transcript(()), Transcript((sent("x", "y"), sent("z")))):
            got, skipped = _phrase_matrix(t, emb)
            assert got.shape == (0, 2) and skipped == len(t.sentences)


class TestLoadEmbeddingsMatchesReference:
    def test_values_parse_like_float(self, tmp_path):
        rng = np.random.default_rng(99)
        values = np.concatenate([rng.standard_normal(600) * 10.0 ** rng.integers(-300, 300, 600),
                                 [0.0, -0.0, 5e-324, 1.7976931348623157e308]])
        texts = [repr(float(v)) for v in values] + ["1e5", "-.5", "7.", "+3", "1_0", "00012"]
        rows = [" ".join(texts[i:i + 5]) for i in range(0, len(texts), 5)]
        while len(rows[-1].split()) < 5:
            rows[-1] += " 1"
        lines = [f"W{i % 97} {row}" for i, row in enumerate(rows)]  # duplicates, upper case
        p = tmp_path / "e.txt"
        for header in ("", f"{len(lines)} 5\n"):
            p.write_text(header + "\n\n".join(lines) + "\n")
            emb = load_embeddings(p)
            words, matrix = reference_load_embeddings(p)
            assert list(emb.vectors) == words == list(emb.index)
            assert emb.matrix.tobytes() == matrix.tobytes()
            for w, row in emb.vectors.items():
                assert row.tobytes() == matrix[emb.index[w]].tobytes()

    def test_mismatch_names_the_line(self, tmp_path):
        p = tmp_path / "e.txt"
        p.write_text("a 1 0\n\nb 0 1\nc 0 1 7\n")
        with pytest.raises(DimensionMismatch, match=r"e\.txt:3: 3 values, expected 2"):
            load_embeddings(p)
        p.write_text("2 3\na 1 0 1\nb 0 1\n")
        with pytest.raises(DimensionMismatch, match=r"e\.txt:3: 2 values, expected 3"):
            load_embeddings(p)

    def test_header_alone_or_zero_width_is_empty(self, tmp_path):
        p = tmp_path / "e.txt"
        for text in ("3 4\n", "a\nb\n", "2 0\na\n"):
            p.write_text(text)
            with pytest.raises(EmptyFile):
                load_embeddings(p)

    @pytest.mark.parametrize("value", [
        "1,5", "1.5e", "infinity", "-Infinity", "nan", "-nan", "1e400", "-1e-400", "0x10",
        "\u0661\u0662", "\uff11", "1__0", "1_0", "+.5e-3", "5e-324", "1d5", '"1"', "#1",
    ])
    @pytest.mark.parametrize("header", ["", "3 2\n"])
    def test_odd_values_parse_like_the_row_by_row_parser(self, tmp_path, value, header):
        p = tmp_path / "e.txt"
        p.write_text(f"{header}a 1 2\nB {value} -0.0\nc 3 4\n", encoding="utf-8")
        assert outcome(load_embeddings, p) == outcome(row_by_row_load_embeddings, p)

    @pytest.mark.parametrize("text", [
        "a\t1\t2\nb\t3 4\n",                   # tabs
        "  a   1    2  \n\n b 3\t\t 4\n",        # runs of spaces, blank line
        "2 2\r\na 1 2\r\n\r\nb 3 4\r\n",          # CRLF
        "a 1 2\rb 3 4\r",                        # lone CR
        "a\u00a01 2\nb\u30003 4\x0c\n",           # non-ASCII and form-feed whitespace
        "2 2\na 1 2\nb 3 4 5\n",                 # too wide
        "2 2\na 1 2\nb 3\n",                     # too narrow
        "a 1 2\nb 3\n",                          # narrower than the first row
        "2 3\na 1 2\nb 3 4\n",                   # narrower than the header
        "a\nb\n", "2 0\na\n", "3 4\n", "1 1\n2 2\n", "1 x\n",
        "a 1 2\na 3 4\nA 5 6\nb 7 8\n",           # a repeated word keeps its last row
    ])
    def test_layouts_parse_like_the_row_by_row_parser(self, tmp_path, text):
        p = tmp_path / "e.txt"
        p.write_bytes(text.encode("utf-8"))
        assert outcome(load_embeddings, p) == outcome(row_by_row_load_embeddings, p)

    def test_table_built_from_vectors(self):
        emb = table(a=[1.0, 2.0], b=[3.0, 4.0])
        np.testing.assert_array_equal(emb.matrix, [[1.0, 2.0], [3.0, 4.0]])
        assert emb.index == {"a": 0, "b": 1}
