"""Acceptance criteria, one test per criterion with a printed verdict line.

Every test prints "[criterion NN] label: PASS/FAIL" through capsys.disabled()
so the verdict survives output capture. Tolerances are pinned next to each
assertion.
"""

from __future__ import annotations

import math
import re
import time
from collections import Counter

import numpy as np
import scipy.stats

from voxfeat.acoustic import f0_track, spectra
from voxfeat.audio_io import AudioBuffer, frame_signal, write_wav
from voxfeat.coherence import EmbeddingTable, coherence_feature_vector, coherence_features
from voxfeat.config import PipelineConfig
from voxfeat.functionals import gemaps_core, spectral_set
from voxfeat.mlpipe.select import (
    _fold_indices,
    anova_f_select,
    anova_f_values,
    cv_score_curve,
    mrmr_rank,
    rfe_select,
)
from voxfeat.mlpipe.table import FeatureTable, fit_columns, standardize_columns
from voxfeat.mlpipe.transform import correlation_matrix, ica, low_variance_filter, pca
from voxfeat.pipeline import run_extract
from voxfeat.textfeat import (
    DEFAULT_SUFFIXES,
    NUMBER_WORDS,
    complexity,
    sentiment,
    tokenize,
)

SR = 16000


def report(capsys, num: int, label: str, ok: bool, detail: str = ""):
    line = f"[criterion {num:02d}] {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    with capsys.disabled():
        print(line)
    assert ok, line


# -- criterion 1 -------------------------------------------------------------

def test_criterion_01_dsp_sine(capsys):
    """1 s 440 Hz sine: f0 +-2 Hz, jitter <0.001, shimmer <0.01,
    centroid 440 +-50 Hz, runtime < 1 s."""
    t = np.arange(SR) / SR
    buf = AudioBuffer(0.7 * np.sin(2 * np.pi * 440.0 * t), SR)
    t0 = time.perf_counter()
    g = gemaps_core(buf)
    spec = spectral_set(buf)
    runtime = time.perf_counter() - t0

    f0 = f0_track(buf)
    voiced = f0.values[np.isfinite(f0.values)]
    f0_mean = float(voiced.mean())
    centroid = spec.as_dict()["centroid_mean"]

    ok = (abs(f0_mean - 440.0) <= 2.0
          and g["jitter_local"] < 0.001
          and g["shimmer_local"] < 0.01
          and abs(centroid - 440.0) <= 50.0
          and runtime < 1.0)
    report(capsys, 1, "dsp-440hz-sine", ok,
           f"f0={f0_mean:.2f} Hz, jitter={g['jitter_local']:.1e}, "
           f"shimmer={g['shimmer_local']:.1e}, centroid={centroid:.1f} Hz, "
           f"{runtime:.3f} s")


# -- criterion 2 -------------------------------------------------------------

def test_criterion_02_parseval(capsys):
    """sum |X[k]|^2 == n_fft * sum x^2 on 1000 random frames, 1e-9 relative."""
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(1000):
        frame_len = int(rng.integers(32, 512))
        n_fft = 1 << (frame_len - 1).bit_length()
        x = rng.standard_normal(frame_len)
        frames = frame_signal(AudioBuffer(x, SR), frame_len, frame_len, "rectangular")
        m = spectra(frames, n_fft).magnitudes[0]
        half = m[0] ** 2 + m[-1] ** 2 + 2.0 * np.sum(m[1:-1] ** 2)
        direct = n_fft * np.sum(x * x)
        worst = max(worst, abs(half - direct) / direct)
    report(capsys, 2, "parseval-identity", worst < 1e-9,
           f"worst relative error {worst:.2e} over 1000 frames")


# -- criterion 3 -------------------------------------------------------------

_NUM_RE = re.compile(r"^\d+(?:[.,]\d+)*$")
_MARKERS = {"xxx", "[unintelligible]", "[inaudible]"}


def oracle_complexity(words: list[str]):
    """Independent recomputation of the seven lexical metrics."""
    n = len(words)
    counts = Counter(words)
    v = len(counts)
    v1 = sum(1 for c in counts.values() if c == 1)
    probs = [c / n for c in counts.values()]
    entropy = -sum(p * math.log2(p) for p in probs)
    return {
        "unintelligible_word_ratio": sum(w in _MARKERS for w in words) / n,
        "standardized_word_entropy":
            entropy / math.log2(v) if v > 1 else float("nan"),
        "suffix_ratio": sum(
            any(w.endswith(s) and len(w) > len(s) for s in DEFAULT_SUFFIXES)
            for w in words) / n,
        "number_ratio": sum(
            bool(_NUM_RE.match(w)) or w in NUMBER_WORDS for w in words) / n,
        "brunet_index": n ** (v ** -0.165),
        "honore_statistic":
            100.0 * math.log(n) / (1.0 - v1 / v) if v1 != v else float("nan"),
        "type_token_ratio": v / n,
    }


CORPORA = (
    "the cat sat on the mat. the dog sat on the log.",
    "one two three four five. six seven eight nine ten.",
    "kindness movement information ability joyful hopeless slowly.",
    "xxx the xxx went xxx home.",
    "a a a a a a.",
    "alpha beta gamma delta epsilon.",
    "she walked to the shop and she bought 3 apples for 2,50 euros.",
    "to be or not to be that is the question.",
    "big bigger biggest small smaller smallest tiny tinier tiniest.",
    "the 42 owls counted 7 mice and 19 stars in 3 hours.",
)


def test_criterion_03_lexical_oracles(capsys):
    """All seven metrics match a scratch oracle on 10 corpora to 1e-9;
    Brunet pinned to 11.19 +- 0.01 at N=100, V=50."""
    worst = 0.0
    for text in CORPORA:
        t = tokenize(text)
        words = list(t.lowers)
        want = oracle_complexity(words)
        got = complexity(t)
        for field, expected in want.items():
            actual = got[field]
            if math.isnan(expected):
                assert math.isnan(actual), (text, field)
            else:
                worst = max(worst, abs(actual - expected))

    fifty_twice = " ".join(f"w{i:02d} w{i:02d}" for i in range(50))
    pinned = complexity(tokenize(fifty_twice))["brunet_index"]
    ok = worst < 1e-9 and abs(pinned - 11.19) <= 0.01
    report(capsys, 3, "lexical-oracles", ok,
           f"worst abs error {worst:.2e}, brunet(100,50)={pinned:.4f}")


# -- criterion 4 -------------------------------------------------------------

def test_criterion_04_coherence(capsys):
    """Repeated sentence: exactly 1.0 at every order; 1000 random draws stay
    inside [-1, 1]."""
    rng = np.random.default_rng(4)
    words = ("the", "cat", "sat", "on", "mat")
    emb = EmbeddingTable(words, rng.standard_normal((len(words), 6)))
    t = tokenize(" ".join(["the cat sat on mat."] * 6))
    # an empty series would give NaN statistics
    feats = coherence_feature_vector(coherence_features(t, emb))
    exact = all(feats[f"coherence_q{q}_{stat}"] == 1.0
                for q in (0, 1, 2, 3) for stat in ("mean", "min", "max"))

    vocab = [f"w{i}" for i in range(6)]
    lo, hi = np.inf, -np.inf
    for draw in range(1000):
        vecs = {w: rng.standard_normal(3) for w in vocab}
        if draw % 50 == 0:
            vecs[vocab[0]] = np.zeros(3)  # zero-norm path must stay excluded
        table = EmbeddingTable(tuple(vecs), np.array(list(vecs.values())))
        pool = vocab + ["oov1", "oov2"]
        sents = [
            " ".join(rng.choice(pool, size=rng.integers(2, 5)))
            for _ in range(int(rng.integers(3, 6)))
        ]
        draw_feats = coherence_feature_vector(
            coherence_features(tokenize(". ".join(sents) + "."), table))
        for q in (0, 1, 2, 3):
            q_min, q_max = draw_feats[f"coherence_q{q}_min"], draw_feats[f"coherence_q{q}_max"]
            if not math.isnan(q_min):  # NaN: no defined cosine at this order
                lo = min(lo, q_min)
                hi = max(hi, q_max)
    ok = exact and lo >= -1.0 and hi <= 1.0
    report(capsys, 4, "coherence-bounds", ok,
           f"repeated-sentence exact 1.0: {exact}, range [{lo:.4f}, {hi:.4f}]")


# -- criterion 5 -------------------------------------------------------------

def oracle_mrmr_order(x: np.ndarray, y: np.ndarray, k: int) -> list[int]:
    """Brute-force greedy: recompute every candidate criterion each step."""

    def corr(a, b):
        sa, sb = a.std(), b.std()
        if sa == 0 or sb == 0:
            return 0.0
        r = float(((a - a.mean()) * (b - b.mean())).mean() / (sa * sb))
        return max(-1.0, min(1.0, r))

    p = x.shape[1]
    rel = [abs(corr(x[:, j], y)) for j in range(p)]
    chosen: list[int] = []
    for _ in range(k):
        best, best_val = -1, -np.inf
        for j in range(p):
            if j in chosen:
                continue
            red = (np.mean([abs(corr(x[:, j], x[:, s])) for s in chosen])
                   if chosen else 0.0)
            val = rel[j] - red
            if val > best_val:
                best, best_val = j, val
        chosen.append(best)
    return chosen


def test_criterion_05_mrmr_brute_force(capsys):
    """Greedy ranking equals brute-force criterion evaluation on 100 random
    6x50 tables, exactly."""
    rng = np.random.default_rng(5)
    names = tuple(f"g{j}" for j in range(6))
    matches = 0
    for _ in range(100):
        x = rng.standard_normal((50, 6))
        y = x @ rng.standard_normal(6) + 0.5 * rng.standard_normal(50)
        tbl = FeatureTable(names, x, tuple(f"r{i}" for i in range(50)),
                           target=y)
        got = mrmr_rank(tbl, 6).kept_columns
        z = (x - x.mean(axis=0)) / x.std(axis=0)
        want = tuple(names[j] for j in oracle_mrmr_order(z, y, 6))
        matches += got == want
    report(capsys, 5, "mrmr-vs-brute-force", matches == 100,
           f"{matches}/100 tables matched exactly")


# -- criterion 6 -------------------------------------------------------------

def test_criterion_06_pca(capsys):
    """Component orthonormality within 1e-8; rank-1 data puts >= 1 - 1e-9 of
    the variance on the first component."""
    rng = np.random.default_rng(6)
    x = rng.standard_normal((40, 8))
    res = pca(FeatureTable(tuple(f"c{j}" for j in range(8)), x,
                           tuple(f"r{i}" for i in range(40))), 8)
    gram = res.components @ res.components.T
    ortho_err = float(np.abs(gram - np.eye(8)).max())

    rank1 = np.outer(rng.standard_normal(40), rng.standard_normal(8))
    res1 = pca(FeatureTable(tuple(f"c{j}" for j in range(8)), rank1,
                            tuple(f"r{i}" for i in range(40))), 3)
    evr1 = float(res1.explained_variance_ratio[0])
    ok = ortho_err < 1e-8 and evr1 >= 1.0 - 1e-9
    report(capsys, 6, "pca-orthonormal-rank1", ok,
           f"orthonormality error {ortho_err:.1e}, rank-1 EVR {evr1:.12f}")


# -- criterion 7 -------------------------------------------------------------

def test_criterion_07_ica(capsys):
    """Two mixed uniform sources (n=5000, fixed seed) recovered with
    |corr| > 0.95 up to permutation and sign."""
    rng = np.random.default_rng(7)
    src = rng.uniform(-np.sqrt(3), np.sqrt(3), (5000, 2))
    mixed = src @ np.array([[1.0, 0.6], [0.4, 1.0]]).T
    tbl = FeatureTable(("m1", "m2"), mixed,
                       tuple(f"r{i}" for i in range(5000)))
    res = ica(tbl, 2)
    c = np.empty((2, 2))
    for i in range(2):
        for j in range(2):
            c[i, j] = abs(np.corrcoef(src[:, i],
                                      res.transformed.rows[:, j])[0, 1])
    paired = max(min(c[0, 0], c[1, 1]), min(c[0, 1], c[1, 0]))
    report(capsys, 7, "ica-uniform-recovery", paired > 0.95,
           f"matched |corr| {paired:.4f}, converged={res.converged}")


# -- criterion 8 -------------------------------------------------------------

def test_criterion_08_anova_rfe(capsys):
    """ANOVA F equals the pooled t^2 within 1e-9 relative; noiseless RFE on
    y = x2 - x7 among 10 features keeps exactly {x2, x7}."""
    rng = np.random.default_rng(8)
    n = 40
    y = np.repeat([0.0, 1.0], n // 2)
    x = rng.standard_normal((n, 6))
    tbl = FeatureTable(tuple(f"c{j}" for j in range(6)), x,
                       tuple(f"r{i}" for i in range(n)), target=y)
    f_vals = anova_f_values(tbl)
    worst = 0.0
    for j in range(6):
        t_stat = scipy.stats.ttest_ind(x[y == 0, j], x[y == 1, j],
                                       equal_var=True).statistic
        worst = max(worst, abs(f_vals[j] - t_stat ** 2) / t_stat ** 2)

    x10 = rng.standard_normal((60, 10))
    target = x10[:, 2] - x10[:, 7]
    tbl10 = FeatureTable(tuple(f"x{j}" for j in range(10)), x10,
                         tuple(f"r{i}" for i in range(60)), target=target)
    kept = set(rfe_select(tbl10, 2).kept_columns)
    ok = worst < 1e-9 and kept == {"x2", "x7"}
    report(capsys, 8, "anova-t2-and-rfe", ok,
           f"worst F vs t^2 rel error {worst:.2e}, RFE kept {sorted(kept)}")


# -- criterion 9 -------------------------------------------------------------

def test_criterion_09_leakage(capsys):
    """A feature informative only on one fold's validation rows is never
    selected when that fold is fitted, even though whole-table selection
    would rank it in the top k."""
    rng = np.random.default_rng(9)
    n, folds, seed, k = 60, 5, 0, 2
    y = np.tile([0.0, 1.0], n // 2)
    ids = tuple(f"r{i:02d}" for i in range(n))
    strong = 2.0 * y + 0.2 * rng.standard_normal(n)
    weak = 0.5 * y + 0.8 * rng.standard_normal(n)
    noise = rng.standard_normal((n, 3))

    probe = FeatureTable(("d",), np.zeros((n, 1)), ids, target=y)
    fold_idx = _fold_indices(probe, folds, seed)
    all_ids = frozenset(ids)

    leaked_fits = 0
    toothless = 0
    for f, val_idx in enumerate(fold_idx):
        leak = np.zeros(n)
        leak[val_idx] = 2.0 * y[val_idx] - 1.0
        cols = np.column_stack([strong, weak, leak, noise])
        names = ("strong", "weak", "leak", "n1", "n2", "n3")
        tbl = FeatureTable(names, cols, ids, target=y)

        # whole-table selection must find the leak attractive, otherwise
        # this fold proves nothing
        if "leak" not in anova_f_select(tbl, k).kept_columns:
            toothless += 1

        calls: list[tuple[frozenset, tuple]] = []

        def spy(sub, kk):
            res = anova_f_select(sub, kk)
            calls.append((frozenset(sub.row_ids), res.kept_columns))
            return res

        cv_score_curve(tbl, spy, "logistic", [k], folds, seed)
        train_ids = all_ids - frozenset(ids[i] for i in val_idx)
        fold_calls = [kept for seen, kept in calls if seen == train_ids]
        assert fold_calls, "fold fit not observed"
        leaked_fits += any("leak" in kept for kept in fold_calls)

    ok = leaked_fits == 0 and toothless == 0
    report(capsys, 9, "validation-leak-never-selected", ok,
           f"leak selected in {leaked_fits}/{folds} guarded fits, "
           f"globally top-{k} in {folds - toothless}/{folds} tables")


# -- criterion 10 ------------------------------------------------------------

def test_criterion_10_determinism_and_speed(capsys, tmp_path):
    """extract twice over a 10-file, 60 s corpus: byte-identical CSVs and
    each run under 30 s."""
    rng = np.random.default_rng(10)
    audio = tmp_path / "audio"
    audio.mkdir()
    t = np.arange(SR * 6) / SR
    for i in range(10):
        freq = 120.0 + 40.0 * i
        x = (0.4 * np.sin(2 * np.pi * freq * t)
             + 0.1 * np.sin(2 * np.pi * 2.1 * freq * t)
             + 0.02 * rng.standard_normal(t.size))
        write_wav(AudioBuffer(np.clip(x, -1.0, 1.0), SR),
                  audio / f"rec_{i:02d}.wav")
        if i % 2 == 0:
            (audio / f"rec_{i:02d}.txt").write_text(
                "the speaker described a quiet morning walk through town. "
                f"recording number {i} mentions two birds and one bridge.\n")

    cfg = PipelineConfig()
    t0 = time.perf_counter()
    run_extract(audio, tmp_path / "a.csv", cfg)
    first = time.perf_counter() - t0
    t0 = time.perf_counter()
    run_extract(audio, tmp_path / "b.csv", cfg)
    second = time.perf_counter() - t0
    identical = ((tmp_path / "a.csv").read_bytes()
                 == (tmp_path / "b.csv").read_bytes())
    ok = identical and first < 30.0 and second < 30.0
    report(capsys, 10, "determinism-and-speed", ok,
           f"byte-identical={identical}, runs {first:.1f} s / {second:.1f} s "
           f"for 60 s of audio")


# -- criterion 11 ------------------------------------------------------------

def test_criterion_11_degenerate_inputs(capsys):
    """Silence, 1-token transcripts, all-OOV transcripts and constant tables
    all honor their NaN/empty contracts without crashing."""
    checks: list[bool] = []

    silence = AudioBuffer(np.zeros(SR), SR)
    g = gemaps_core(silence)
    s = spectral_set(silence)
    d = g.as_dict()
    checks.append(len(g.names) == 25 and len(s.names) == 30)
    checks.append(math.isnan(d["f0_semitone_mean"]))
    checks.append(math.isnan(d["jitter_local"]))

    one = tokenize("hello")
    cf = complexity(one)
    checks.append(cf["type_token_ratio"] == 1.0)
    checks.append(math.isnan(cf["standardized_word_entropy"]))
    checks.append(math.isnan(cf["honore_statistic"]))
    emb = EmbeddingTable(("hello",), np.array([[1.0, 0.0]]))
    feats = coherence_feature_vector(coherence_features(one, emb))
    checks.append(math.isnan(feats["coherence_q0_mean"]))

    oov = tokenize("zzz yyy www. qqq ppp rrr.")
    oov_feats = coherence_feature_vector(coherence_features(oov, emb))
    checks.append(all(math.isnan(oov_feats[f"coherence_q{q}_mean"])
                      for q in (0, 1, 2, 3)))
    checks.append(math.isnan(sentiment(oov, {"happy": 0.9})))

    # six copies of 0.1 sum to 0.6 and average to an ulp below 0.1, and
    # three of them to 0.30000000000000004 and an ulp above it, the value
    # imputed into the NaN cells of the last column
    const_rows = np.column_stack([np.full((6, 2), 3.0), np.full((6, 2), 0.1)])
    const_rows[[1, 3, 4], 3] = np.nan
    const = FeatureTable(("a", "b", "c", "d"), const_rows,
                         tuple(f"r{i}" for i in range(6)),
                         target=np.array([0.0, 0, 0, 1, 1, 1]))
    z = standardize_columns(const.rows, fit_columns(const.rows))
    checks.append(bool(np.all(z == 0.0)))
    checks.append(low_variance_filter(const).kept_columns == ())
    checks.append(bool(np.all(anova_f_values(const) == 0.0)))
    checks.append(np.array_equal(correlation_matrix(const), np.eye(4)))

    ok = all(checks)
    report(capsys, 11, "degenerate-inputs", ok,
           f"{sum(checks)}/{len(checks)} contracts held")
