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
    _series,
    _unit_rows,
    coherence_feature_vector,
    coherence_features,
    load_embeddings,
    phrase_vector,
)
from voxfeat.errors import ConfigError, DimensionMismatch, EmptyFile
from voxfeat.functionals import FunctionalBank, apply_bank
from voxfeat.textfeat import tokenize

from transcripts import transcript_of


def coherence_series(t, emb, q):
    """The series coherence_features summarizes at order q: cosines at phrase
    distance q+1 over the defined phrase vectors, zero-norm pairs left out."""
    v = _phrase_matrix(t, emb)
    return _series(v, _unit_rows(v), q)


def features(t, emb):
    """The summarized COHERENCE row of t, by feature name."""
    return coherence_feature_vector(coherence_features(t, emb))


def table(**vectors):
    return EmbeddingTable(tuple(vectors), np.array(list(vectors.values()), dtype=float))


class TestLoadEmbeddings:
    def test_with_header(self, tmp_path):
        p = tmp_path / "e.txt"
        p.write_text("2 2\na 1 0\nb 0 1\n")
        emb = load_embeddings(p)
        assert emb.dim == 2
        assert emb.words == ("a", "b")

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
        emb = load_embeddings(p)
        assert emb.words == ("a",)
        np.testing.assert_array_equal(emb.matrix, [[0.0, 2.0]])

    def test_bundled_table_loads(self, embeddings_path):
        emb = load_embeddings(embeddings_path)
        assert emb.dim == 8
        assert len(emb.words) <= 50
        assert "the" in emb.index


class TestPhraseVector:
    def test_single_word_identity(self):
        emb = table(cat=[1.0, 2.0])
        np.testing.assert_array_equal(phrase_vector(("cat",), emb), [1.0, 2.0])

    def test_mean_of_two(self):
        emb = table(a=[1.0, 0.0], b=[0.0, 1.0])
        np.testing.assert_array_equal(phrase_vector(("a", "b",), emb), [0.5, 0.5])

    def test_all_oov_absent(self):
        emb = table(cat=[1.0, 0.0])
        assert phrase_vector(("dog", "bird",), emb) is None

    def test_oov_words_ignored(self):
        emb = table(cat=[2.0, 4.0])
        np.testing.assert_array_equal(phrase_vector(("zz", "cat",), emb), [2.0, 4.0])


class TestCoherenceSeries:
    def test_repeated_sentence_exactly_one(self):
        emb = table(the=[0.3, 0.7], cat=[0.9, 0.1])
        t = transcript_of(*[("the", "cat")] * 5)
        for q in (0, 1, 2, 3):
            series = coherence_series(t, emb, q)
            assert series.size == 5 - (q + 1)
            assert np.all(series == 1.0)

    def test_orthogonal_alternation(self):
        emb = table(a=[1.0, 0.0], b=[0.0, 1.0])
        t = transcript_of(["a"], ["b"], ["a"])
        np.testing.assert_array_equal(coherence_series(t, emb, 0), [0.0, 0.0])
        np.testing.assert_array_equal(coherence_series(t, emb, 1), [1.0])

    def test_too_few_phrases_empty(self):
        emb = table(a=[1.0, 0.0])
        t = transcript_of(["a"], ["a"], ["a"])
        assert coherence_series(t, emb, 3).size == 0

    def test_summarized_at_each_order(self):
        # coherence_features reports orders 0-3 and no other, each the
        # same series this module's helper builds, raw and normalized
        rng = np.random.default_rng(3)
        emb = table(**{w: rng.normal(size=4) for w in "abcdef"})
        t = transcript_of(*(rng.choice(list("abcdefz"), size=3) for _ in range(12)))
        values = coherence_features(t, emb)
        assert list(values) == [*(f"coherence_q{q}{kind}" for q in ORDERS for kind in ("", "_n")),
                                "max_phrase_length"]
        assert ORDERS == (0, 1, 2, 3)
        assert not any(name.startswith("coherence_q4") for name in COHERENCE_FEATURE_NAMES)
        fv = coherence_feature_vector(values)
        for q in ORDERS:
            series = coherence_series(t, emb, q)
            assert series.size > 0
            np.testing.assert_array_equal(values[f"coherence_q{q}"], series)
            np.testing.assert_allclose(
                [fv[f"coherence_q{q}_{s}"] for s in ("mean", "min", "max")],
                [series.mean(), series.min(), series.max()], rtol=1e-12)

    def test_cosine_bounds_random_sweep(self):
        rng = np.random.default_rng(31)
        words = [f"w{i}" for i in range(20)]
        for _ in range(50):
            emb = EmbeddingTable(tuple(words), rng.standard_normal((len(words), 6)))
            t = transcript_of(*(
                [words[j] for j in rng.integers(0, 20, rng.integers(1, 6))]
                for _ in range(rng.integers(4, 10))
            ))
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
            t = transcript_of(["a"], ["b"], ["c"], ["a"])
            for q in (0, 1, 2):
                series = coherence_series(t, emb, q)
                assert np.all(np.abs(series) <= 1.0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(32)
        words = [f"w{i}" for i in range(8)]
        base = {w: rng.standard_normal(4) for w in words}
        t = transcript_of(*((words[i], words[(i + 3) % 8]) for i in range(6)))
        a = coherence_series(t, table(**base), 0)
        scaled = {w: 7.5 * v for w, v in base.items()}
        b = coherence_series(t, table(**scaled), 0)
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_oov_sentence_skipped_transparently(self):
        emb = table(a=[1.0, 0.0], b=[0.0, 1.0])
        t1 = transcript_of(["a"], ["b"], ["a"])
        t2 = transcript_of(["a"], ["zzz"], ["b"], ["a"])
        for q in (0, 1, 2, 3):
            np.testing.assert_array_equal(
                coherence_series(t1, emb, q), coherence_series(t2, emb, q)
            )


class TestCoherenceFeatures:
    def test_repeated_sentence_raw_one_normalized_zero(self):
        emb = table(the=[0.3, 0.7], cat=[0.9, 0.1])
        t = transcript_of(*[("the", "cat")] * 6)
        fv = features(t, emb)
        for q in (0, 1, 2, 3):
            assert fv[f"coherence_q{q}_mean"] == 1.0
            assert fv[f"coherence_q{q}_n_mean"] == 0.0

    def test_markers_and_phrase_length(self):
        emb = table(the=[1.0, 0.0], cat=[0.0, 1.0])
        t = transcript_of(("the", "big", "cat", "sat"))
        assert features(t, emb)["max_phrase_length"] == 4

    def test_single_sentence_stats_nan(self):
        emb = table(cat=[1.0, 1.0])
        t = transcript_of(["cat"])
        fv = features(t, emb)
        for q in (0, 1, 2, 3):
            assert np.isnan(fv[f"coherence_q{q}_mean"])
        assert fv["max_phrase_length"] == 1

    def test_oov_sentence_has_no_phrase_row(self):
        emb = table(cat=[1.0, 0.0])
        t = transcript_of(["cat"], ["qqq"], ["cat"])
        assert _phrase_matrix(t, emb).shape == (2, 2)

    def test_feature_vector_names(self):
        emb = table(cat=[1.0, 0.0])
        fv = coherence_feature_vector(coherence_features(transcript_of(["cat"]), emb), "s")
        assert fv.names == COHERENCE_FEATURE_NAMES and fv.source_id == "s"
        # five raw statistics and four normalized ones (no stddev) per order
        assert len(COHERENCE_FEATURE_NAMES) == 4 * 9 + 1
        assert not any(name.endswith("_n_stddev") for name in COHERENCE_FEATURE_NAMES)

    def test_max_stat_ordering(self):
        rng = np.random.default_rng(33)
        words = [f"w{i}" for i in range(10)]
        emb = EmbeddingTable(tuple(words), rng.standard_normal((len(words), 5)))
        t = transcript_of(*([words[j] for j in rng.integers(0, 10, 3)] for _ in range(12)))
        fv = features(t, emb)
        for q in (0, 1, 2, 3):
            lo, mean, hi = (fv[f"coherence_q{q}_{s}"] for s in ("min", "mean", "max"))
            if not np.isnan(mean):
                assert lo <= mean <= hi

    def test_tokenize_integration_with_bundled_table(self, embeddings_path):
        emb = load_embeddings(embeddings_path)
        t = tokenize("The cat sat on the mat. The dog ran. The cat sat on the mat.")
        assert np.isfinite(features(t, emb)["coherence_q0_mean"])
        series = coherence_series(t, emb, 1)
        assert series.size == 1
        assert series[0] == 1.0  # identical first and third sentence


STATS = ("mean", "stddev", "min", "max", "p10")
BANK = FunctionalBank(STATS)


def reference_coherence(t, emb):
    """The per-pair coherence_features the phrase matrix replaced: one Python
    cosine call per phrase pair, phrase vectors rebuilt for every order.
    Returns (per_order, series by order, skipped, max_phrase_length)."""

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
    return per_order, by_order, skipped, max_phrase_length


def random_table(rng):
    """Random embeddings plus an all-zero one and scaled and negated copies
    of one vector."""
    dim = int(rng.integers(1, 7))
    base = rng.standard_normal(dim)
    vectors = {f"w{i}": rng.standard_normal(dim) for i in range(8)}
    vectors.update(zero=np.zeros(dim), par=base, par3=3.7 * base, neg=-0.2 * base)
    return table(**vectors)


def random_case(rng):
    """A random table and transcript: OOV words, repeated sentences."""
    emb = random_table(rng)
    vocab = [*emb.words, "oov1", "oov2", "oov3"]
    sentences = []
    for _ in range(int(rng.integers(0, 14))):
        if sentences and rng.random() < 0.25:
            sentences.append(sentences[int(rng.integers(0, len(sentences)))])
            continue
        sentences.append([vocab[j] for j in rng.integers(0, len(vocab), rng.integers(1, 5))])
    return transcript_of(*sentences), emb


class TestMatchesReference:
    """The phrase-matrix coherence equals the per-pair loop it replaced."""

    def check(self, t, emb):
        per_order, by_order, skipped, longest = reference_coherence(t, emb)
        fv = features(t, emb)
        for q in ORDERS:
            # every reference statistic but the normalized stddev, which
            # is the raw stddev
            keys = [key for key in per_order[q] if key != "n_stddev"]
            names = [name for name in fv.names if name.startswith(f"coherence_q{q}_")]
            assert names == [f"coherence_q{q}_{key}" for key in keys]
            np.testing.assert_allclose([fv[name] for name in names],
                                       [per_order[q][key] for key in keys], rtol=0, atol=1e-12)
            np.testing.assert_allclose(per_order[q]["n_stddev"], per_order[q]["stddev"],
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(coherence_series(t, emb, q), by_order[q],
                                       rtol=0, atol=1e-12)
        assert _phrase_matrix(t, emb).shape[0] == len(t.sentences) - skipped
        assert fv["max_phrase_length"] == longest

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
            defined = [[f"w{j}"] for j in rng.integers(0, 8, n_defined)]
            oov = [["oov1", "oov2"]] * int(rng.integers(0, 3))
            self.check(transcript_of(*oov, *defined, *oov), emb)

    def test_zero_and_parallel_vectors(self):
        emb = random_table(np.random.default_rng(60))
        words = ("zero", "par", "par3", "zero", "neg", "par", "zero", "par3", "w1")
        self.check(transcript_of(*([w] for w in words)), emb)
        # only zero vectors: every cosine is undefined
        self.check(transcript_of(*[["zero"]] * 6), emb)


def test_memory_stays_linear_in_phrases():
    # an n x n float matrix over 2,000 phrases would take 32 MB by itself
    rng = np.random.default_rng(70)
    emb = EmbeddingTable(tuple(f"w{i}" for i in range(400)), rng.standard_normal((400, 50)))
    t = transcript_of(*(
        [f"w{j}" for j in rng.integers(0, 400, rng.integers(1, 9))]
        for _ in range(2000)))
    tracemalloc.start()
    try:
        fv = features(t, emb)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert np.isfinite(fv["coherence_q3_n_mean"])


# ---------------------------------------------------------------------------
# the grouped phrase matrix and the one-pass table loader against the loops
# they replaced
# ---------------------------------------------------------------------------

def reference_phrase_matrix(t, emb):
    """Each sentence's mean of its in-vocabulary rows, one np.mean per sentence."""
    vectors = []
    for sentence in t.sentences:
        rows = [emb.matrix[emb.index[w]] for w in sentence if w in emb.index]
        if rows:
            vectors.append(np.mean(rows, axis=0))
    return np.array(vectors, dtype=float).reshape(len(vectors), emb.dim)


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
    vectors = dict(zip([row[0].lower() for row in rows], values))  # the last row of a word
    return EmbeddingTable(tuple(vectors), np.array(list(vectors.values())))


def outcome(loader, path):
    """A loaded table as (dim, words, matrix bytes, index), or its error as
    (type, message)."""
    try:
        emb = loader(path)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return type(exc), str(exc)
    return emb.dim, emb.words, emb.matrix.tobytes(), emb.index


class TestPhraseMatrixMatchesReference:
    """Sentences of 7, 8 and 9 in-vocabulary words sit at the edges of
    numpy's 8-way unrolled sum, and 130 past its 128-element block."""

    @pytest.mark.parametrize("dim", [1, 2, 5, 50])
    def test_sentence_lengths_at_the_summation_edges(self, dim):
        rng = np.random.default_rng(90 + dim)
        words = [f"w{i}" for i in range(40)]
        emb = table(**{w: rng.standard_normal(dim) * 10.0 ** rng.integers(-3, 4)
                       for w in words})
        sentences = []
        for k in (1, 7, 8, 9, 130, 8, 0, 9, 2, 130, 7, 0, 0, 1):
            known = [words[j] for j in rng.integers(0, len(words), k)]
            oov = ["oov"] * int(rng.integers(0 if k else 1, 4))
            mixed = known + oov
            rng.shuffle(mixed)
            sentences.append(mixed)
        t = transcript_of(*sentences)
        got = _phrase_matrix(t, emb)
        np.testing.assert_array_equal(got, reference_phrase_matrix(t, emb))
        assert got.shape[0] == len(t.sentences) - 3

    @pytest.mark.parametrize("seed", range(4))
    def test_random_transcripts(self, seed):
        rng = np.random.default_rng(95 + seed)
        for _ in range(40):
            t, emb = random_case(rng)
            np.testing.assert_array_equal(_phrase_matrix(t, emb), reference_phrase_matrix(t, emb))

    @pytest.mark.parametrize("seed", range(4))
    def test_phrase_vector_over_sentences_is_the_matrix(self, seed):
        # the traced benchmark replay calls phrase_vector(s, emb) for s in
        # t.sentences; its defined vectors are _phrase_matrix's rows, bit for bit
        rng = np.random.default_rng(120 + seed)
        for _ in range(40):
            t, emb = random_case(rng)
            got = _phrase_matrix(t, emb)
            vectors = [phrase_vector(s, emb) for s in t.sentences]
            defined = [v for v in vectors if v is not None]
            assert len(defined) == got.shape[0]
            assert all(v.tobytes() == row.tobytes() for v, row in zip(defined, got))

    def test_all_oov_and_empty(self):
        emb = table(a=[1.0, 2.0])
        for t in (transcript_of(), transcript_of(["x", "y"], ["z"])):
            assert _phrase_matrix(t, emb).shape == (0, 2)


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
            assert list(emb.words) == words == list(emb.index)
            assert emb.matrix.tobytes() == matrix.tobytes()

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
        assert emb.index == {"a": 0, "b": 1} and emb.dim == 2

    @pytest.mark.parametrize("words,shape", [
        ((), (0, 2)), (("a",), (1, 0)), (("a", "b"), (1, 2)), (("a",), (2, 2)),
        (("a", "b", "a"), (3, 2)),
    ])
    def test_table_rejects_a_bad_shape_or_a_repeated_word(self, words, shape):
        with pytest.raises(ValueError):
            EmbeddingTable(words, np.zeros(shape))
