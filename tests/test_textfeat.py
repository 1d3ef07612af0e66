"""Tokenization, complexity, CoNLL-U, syntax counts, sentiment."""

from __future__ import annotations

import numpy as np
import pytest

from voxfeat.errors import ConfigError, EmptyLexicon, MalformedConllu
from voxfeat.textfeat import (
    _NUMERIC_RE,
    COMPLEXITY_FEATURE_NAMES,
    DEFAULT_SUFFIXES,
    DEPRELS,
    NUMBER_WORDS,
    SYNTAX_FEATURE_NAMES,
    UNTAGGED,
    UPOS_TAGS,
    Transcript,
    complexity,
    complexity_feature_vector,
    load_conllu,
    load_valence_csv,
    load_word_list,
    sentiment,
    syntax_counts,
    syntax_feature_vector,
    tokenize,
)

from transcripts import transcript_of


class TestTokenize:
    def test_two_sentences(self):
        t = tokenize("The cat. The cat.")
        assert len(t.sentences) == 2
        assert t.sentences == (("the", "cat"), ("the", "cat"))
        assert t.lengths == (2, 2)

    def test_marker_flagged(self):
        t = tokenize("uh xxx okay")
        assert t.flagged == (False, True, False)

    def test_bracketed_marker_survives_punctuation(self):
        t = tokenize("so [inaudible] then")
        assert t.flagged[1]
        assert t.lowers[1] == "inaudible"  # brackets stripped from the token

    @pytest.mark.parametrize("text,flags", [
        ("yes xxx, no", [False, True, False]),
        ("yes xxx. no", [False, True, False]),
        ("yes [inaudible], no", [False, True, False]),
        ("yes ([inaudible]) no", [False, True, False]),
        ("yes [Unintelligible]; no", [False, True, False]),
        ("yes (xxx) no", [False, True, False]),
        ("yes \"XXX\" no", [False, True, False]),
        ("yes [xxx] no", [False, True, False]),
        ("yes xxxx no", [False, False, False]),
        ("yes inaudible, no", [False, False, False]),
        ("yes [inaudible no", [False, False, False]),
        ("yes xxx-ish no", [False, False, False]),
    ])
    def test_marker_next_to_punctuation(self, text, flags):
        assert list(tokenize(text).flagged) == flags

    def test_marker_flag_matches_conllu(self, tmp_path):
        p = tmp_path / "a.conllu"
        p.write_text("1\tyes\t_\t_\t_\t_\t_\t_\t_\t_\n2\txxx\t_\t_\t_\t_\t_\t_\t_\t_\n"
                     "3\t,\t_\t_\t_\t_\t_\t_\t_\t_\n4\tno\t_\t_\t_\t_\t_\t_\t_\t_\n")
        t = load_conllu(p)
        tagged = [w for w, flag in zip(t.lowers, t.flagged) if flag]
        t = tokenize("yes xxx, no")
        assert tagged == [w for w, flag in zip(t.lowers, t.flagged) if flag]

    def test_empty_text(self):
        assert tokenize("").sentences == ()

    def test_punctuation_only_tokens_dropped(self):
        t = tokenize("well -- yes")
        assert t.lowers == ("well", "yes")

    def test_exclamation_question_split(self):
        t = tokenize("Go! Now? Please.")
        assert len(t.sentences) == 3

    def test_decimal_point_does_not_end_a_sentence(self):
        t = tokenize("He paid 3.50 dollars. Then 1,000.5 more.")
        assert t.sentences == (("he", "paid", "3.50", "dollars"), ("then", "1,000.5", "more"))
        assert complexity(t)["number_ratio"] == 2 / 7

    @pytest.mark.parametrize("text,sentences", [
        ("I have 3. Next", (("i", "have", "3"), ("next",))),
        ("Take .5 now", (("take",), ("5", "now"))),
        ("It was 3.. 4 more", (("it", "was", "3"), ("4", "more"))),
        ("Call 3.5.7 now!2.5", (("call", "3.5.7", "now"), ("2.5",))),
        ("Version v2.x here", (("version", "v2"), ("x", "here"))),
    ])
    def test_a_point_ends_a_sentence_unless_digits_flank_it(self, text, sentences):
        assert tokenize(text).sentences == sentences


class TestComplexity:
    def test_all_unique_uniform(self):
        cf = complexity(transcript_of(["a", "b", "c", "d"]))
        assert cf["type_token_ratio"] == 1.0
        assert cf["standardized_word_entropy"] == 1.0  # H=2 bits over log2(4)
        assert np.isnan(cf["honore_statistic"])  # V1 == V

    def test_brunet_oracle_n100_v50(self):
        # 100^(50^-0.165) = 11.19 within 0.01
        words = [f"w{i}" for i in range(50)] * 2
        cf = complexity(transcript_of(words))
        assert cf["brunet_index"] == pytest.approx(11.19, abs=0.01)

    def test_number_ratio(self):
        cf = complexity(transcript_of(["one", "2", "three", "cats"]))
        assert cf["number_ratio"] == 0.75

    def test_suffix_ratio(self):
        cf = complexity(transcript_of(["happiness", "quickly", "cat", "ly"]))
        # "ly" itself is not longer than the suffix, so 2 of 4 match
        assert cf["suffix_ratio"] == 0.5

    def test_unintelligible_union_no_double_count(self):
        t = transcript_of(["xxx", "qzqz", "cat"], flagged=[True, False, False])
        cf = complexity(t, lexicon=frozenset({"cat"}))
        # xxx flagged AND out-of-lexicon counts once; qzqz out-of-lexicon
        assert cf["unintelligible_word_ratio"] == pytest.approx(2 / 3)

    def test_no_lexicon_only_markers_count(self):
        t = tokenize("uh xxx okay")
        cf = complexity(t)
        assert cf["unintelligible_word_ratio"] == pytest.approx(1 / 3)

    def test_empty_transcript_all_nan(self):
        cf = complexity(transcript_of())
        for name in COMPLEXITY_FEATURE_NAMES:
            assert np.isnan(cf[name])

    def test_single_repeated_word(self):
        cf = complexity(transcript_of(["go", "go", "go"]))
        assert np.isnan(cf["standardized_word_entropy"])  # V=1
        assert cf["type_token_ratio"] == pytest.approx(1 / 3)

    def test_ratio_bounds_random_sweep(self):
        rng = np.random.default_rng(23)
        vocab = [f"w{i}" for i in range(12)] + ["xxx", "five", "kindness"]
        for _ in range(100):
            n = int(rng.integers(1, 30))
            words = [vocab[i] for i in rng.integers(0, len(vocab), n)]
            t = tokenize(" ".join(words))
            cf = complexity(t)
            for ratio in (cf["unintelligible_word_ratio"], cf["suffix_ratio"],
                          cf["number_ratio"], cf["type_token_ratio"]):
                assert 0.0 <= ratio <= 1.0
            if not np.isnan(cf["standardized_word_entropy"]):
                assert 0.0 <= cf["standardized_word_entropy"] <= 1.0 + 1e-12

    def test_entropy_one_iff_equiprobable(self):
        balanced = complexity(transcript_of(["a", "b", "a", "b"]))
        skewed = complexity(transcript_of(["a", "a", "a", "b"]))
        assert balanced["standardized_word_entropy"] == pytest.approx(1.0)
        assert skewed["standardized_word_entropy"] < 1.0

    def test_brunet_monotone_in_vocabulary(self):
        # richer vocabulary at fixed N gives a lower index
        n = 60
        prev = np.inf
        for v in (1, 2, 5, 10, 30, 60):
            words = [f"w{i % v}" for i in range(n)]
            cf = complexity(transcript_of(words))
            assert cf["brunet_index"] <= prev + 1e-12
            prev = cf["brunet_index"]

    def test_duplicated_transcript_ttr_halves(self):
        words = ["the", "cat", "sat", "down"]
        once = complexity(transcript_of(words))
        twice = complexity(transcript_of(words, words))
        assert twice["type_token_ratio"] <= once["type_token_ratio"] / 2 + 1e-12


class TestConllu:
    CONTENT = (
        "# sent_id = 1\n"
        "1\tThe\tthe\tDET\tDT\t_\t2\tdet\t_\t_\n"
        "2\tcat\tcat\tNOUN\tNN\t_\t0\troot\t_\t_\n"
        "\n"
        "1\tIt\tit\tPRON\tPRP\t_\t2\tnsubj\t_\t_\n"
        "2\tsat\tsit\tVERB\tVBD\t_\t0\troot\t_\t_\n"
    )

    def test_basic_parse(self, tmp_path):
        p = tmp_path / "a.conllu"
        p.write_text(self.CONTENT)
        t = load_conllu(p)
        assert len(t.sentences) == 2
        assert t.sentences == (("the", "cat"), ("it", "sat"))
        assert t.pos[1] == "NOUN"
        assert t.deprel[1] == "root"

    def test_range_and_empty_node_skipped(self, tmp_path):
        content = (
            "1-2\tdon't\t_\t_\t_\t_\t_\t_\t_\t_\n"
            "1\tdo\tdo\tAUX\t_\t_\t0\troot\t_\t_\n"
            "2\tn't\tnot\tPART\t_\t_\t1\tadvmod\t_\t_\n"
            "2.1\telided\t_\t_\t_\t_\t_\t_\t_\t_\n"
        )
        p = tmp_path / "b.conllu"
        p.write_text(content)
        t = load_conllu(p)
        assert t.lowers == ("do", "n't")

    def test_wrong_column_count(self, tmp_path):
        p = tmp_path / "c.conllu"
        p.write_text("1\tcat\tNOUN\n")
        with pytest.raises(MalformedConllu):
            load_conllu(p)

    def test_empty_form_names_file_and_line(self, tmp_path):
        p = tmp_path / "e.conllu"
        p.write_text("1\tThe\tthe\tDET\tDT\t_\t2\tdet\t_\t_\n"
                     "2\t\t_\tX\t_\t_\t0\troot\t_\t_\n")
        with pytest.raises(MalformedConllu, match=r"^e\.conllu:2: empty FORM"):
            load_conllu(p)

    def test_underscore_means_untagged(self, tmp_path):
        p = tmp_path / "d.conllu"
        p.write_text("1\thm\thm\t_\t_\t_\t0\t_\t_\t_\n")
        t = load_conllu(p)
        assert t.pos == (None,)
        assert t.deprel == (None,)


class TestSyntaxCounts:
    def test_all_noun(self):
        t = transcript_of(["cats", "dogs", "mats"], pos=["NOUN", "NOUN", "NOUN"])
        sc = syntax_counts(t)
        assert sc["pos_count_NOUN"] == 3
        assert sc["pos_rate_NOUN"] == 1.0
        assert all(v == 0 for k, v in sc.items()
                   if k.startswith("pos_") and not k.endswith("_NOUN"))

    def test_empty_transcript(self):
        sc = syntax_counts(transcript_of())
        assert all(v == 0 for n, v in sc.items() if "_count_" in n)
        assert all(np.isnan(v) for n, v in sc.items() if "_rate_" in n)

    def test_rates(self):
        t = transcript_of(["cat", "ran", "home"], pos=["NOUN", "VERB", "NOUN"])
        assert syntax_counts(t)["pos_rate_NOUN"] == pytest.approx(2 / 3)

    def test_subtype_folds_to_base(self):
        sc = syntax_counts(transcript_of(["was"], pos=["AUX"], deprel=["aux:pass"]))
        assert sc["dep_count_aux"] == 1

    def test_unknown_tag_goes_untagged(self):
        sc = syntax_counts(transcript_of(["um"], pos=["WEIRD"], deprel=["madeup"]))
        assert sc["pos_count_UNTAGGED"] == 1
        assert sc["dep_count_UNTAGGED"] == 1

    def test_fixed_width(self):
        fv1 = syntax_feature_vector(syntax_counts(transcript_of()))
        fv2 = syntax_feature_vector(syntax_counts(transcript_of(["hi"], pos=["INTJ"])))
        assert fv1.names == fv2.names == SYNTAX_FEATURE_NAMES
        assert len(SYNTAX_FEATURE_NAMES) == (17 + 1) * 2 + (37 + 1) * 2

    def test_pos_rates_sum_to_one(self):
        t = transcript_of(["a", "cat", "sat"], pos=["DET", "NOUN", "VERB"])
        total = sum(v for n, v in syntax_counts(t).items() if n.startswith("pos_rate_"))
        assert total == pytest.approx(1.0)

    def test_duplication_leaves_rates_unchanged(self):
        words = ["the", "cat", "sat"]
        tags = ["DET", "NOUN", "VERB"]
        once = syntax_feature_vector(syntax_counts(transcript_of(words, pos=tags)))
        twice = syntax_feature_vector(syntax_counts(transcript_of(words, words, pos=tags * 2)))
        for name in SYNTAX_FEATURE_NAMES:
            if "_rate_" in name:
                a, b = once[name], twice[name]
                assert (np.isnan(a) and np.isnan(b)) or a == pytest.approx(b)


class TestSentiment:
    LEX = {"good": 1.0, "bad": -1.0}

    def test_mean_valence(self):
        assert sentiment(tokenize("good good bad"), self.LEX) == pytest.approx(1 / 3)

    def test_symmetric_pair(self):
        assert sentiment(tokenize("good bad"), self.LEX) == 0.0

    def test_no_matches_nan(self):
        assert np.isnan(sentiment(tokenize("the cat sat"), self.LEX))

    def test_empty_lexicon(self):
        with pytest.raises(EmptyLexicon):
            sentiment(tokenize("hi"), {})


class TestLoaders:
    def test_valence_csv(self, tmp_path):
        p = tmp_path / "v.csv"
        p.write_text("word,valence\ngood,1.0\nBad,-0.5\n")
        lex = load_valence_csv(p)
        assert lex == {"good": 1.0, "bad": -0.5}

    def test_valence_csv_malformed(self, tmp_path):
        p = tmp_path / "v.csv"
        p.write_text("good,1.0\nbad\n")
        with pytest.raises(ConfigError, match=r"v\.csv:2: expected 'word,valence'"):
            load_valence_csv(p)

    def test_valence_csv_empty(self, tmp_path):
        p = tmp_path / "v.csv"
        p.write_text("")
        with pytest.raises(EmptyLexicon):
            load_valence_csv(p)

    def test_word_list(self, tmp_path):
        p = tmp_path / "w.txt"
        p.write_text("Cat\ndog\n\n")
        assert load_word_list(p) == frozenset({"cat", "dog"})

    def test_complexity_feature_vector_names(self):
        cf = complexity(tokenize("a b"))
        fv = complexity_feature_vector(cf, "s1")
        assert fv.names == COMPLEXITY_FEATURE_NAMES
        assert fv.source_id == "s1"


# ---------------------------------------------------------------------------
# the per-type text features against the per-token loops they replaced
# ---------------------------------------------------------------------------

def reference_complexity(t, lexicon=None, suffixes=DEFAULT_SUFFIXES, number_words=NUMBER_WORDS):
    """complexity as a loop over tokens, unchanged from before it counted types."""
    lowers = list(t.lowers)
    n = len(lowers)
    if n == 0:
        return dict.fromkeys(COMPLEXITY_FEATURE_NAMES, float("nan"))
    counts = {}
    for w in lowers:
        counts[w] = counts.get(w, 0) + 1
    v = len(counts)
    v1 = sum(1 for c in counts.values() if c == 1)
    unintelligible = sum(
        1 for lower, flag in zip(t.lowers, t.flagged)
        if flag or (lexicon is not None and lower not in lexicon))
    probs = np.array(list(counts.values()), dtype=float) / n
    entropy = float(-(probs * np.log2(probs)).sum())
    standardized = entropy / np.log2(v) if v > 1 else float("nan")
    suffix_hits = sum(1 for w in lowers
                      if any(w.endswith(suf) and len(w) > len(suf) for suf in suffixes))
    number_hits = sum(1 for w in lowers if _NUMERIC_RE.match(w) or w in number_words)
    brunet = n ** (v ** -0.165)
    honore = 100.0 * np.log(n) / (1.0 - v1 / v) if v1 != v else float("nan")
    return dict(zip(COMPLEXITY_FEATURE_NAMES, (
        unintelligible / n, standardized, suffix_hits / n, number_hits / n,
        float(brunet), float(honore), v / n)))


def reference_syntax_counts(t):
    """syntax_counts as a loop over tokens, with its counts and rates named
    the way the SYNTAX declaration names them."""
    pos_counts = {tag: 0 for tag in UPOS_TAGS + (UNTAGGED,)}
    dep_counts = {rel: 0 for rel in DEPRELS + (UNTAGGED,)}
    n = 0
    for pos, deprel in zip(t.pos, t.deprel):
        pos_counts[pos if pos in pos_counts else UNTAGGED] += 1
        base = deprel.split(":")[0] if deprel else None
        dep_counts[base if base in dep_counts else UNTAGGED] += 1
        n += 1
    out = {}
    for kind, counts in (("pos", pos_counts), ("dep", dep_counts)):
        out.update((f"{kind}_count_{key}", c) for key, c in counts.items())
        out.update((f"{kind}_rate_{key}", c / n if n else float("nan"))
                   for key, c in counts.items())
    return out


def reference_sentiment(t, lexicon):
    hits = [lexicon[lower] for lower in t.lowers if lower in lexicon]
    return float(np.mean(hits)) if hits else float("nan")


# a word equal to a suffix, words one character longer, numerals, number
# words in any case, markers and words of every kind the rules tell apart
TEXT_VOCAB = (
    "ness", "kindness", "xness", "ly", "fly", "only", "ity", "city", "able", "table",
    "1,000.5", "12", "1.2.3", "1,", ".5", "one", "Thousand", "TWENTY", "zero",
    "xxx", "cat", "Cat", "dog", "the", "a", "sat", "qzqz", "é", "straße",
)
TEXT_TAGS = (*UPOS_TAGS, None, "WEIRD", UNTAGGED, "DT")
TEXT_RELS = (*DEPRELS, None, "", "nsubj:pass", "obl:tmod", "madeup", "madeup:sub", "root")


def random_text(rng, n_sentences):
    sentences, pos, deprel, flagged = [], [], [], []
    for _ in range(n_sentences):
        words = [TEXT_VOCAB[j] for j in rng.integers(0, len(TEXT_VOCAB), rng.integers(1, 12))]
        sentences.append(words)
        for w in words:
            pos.append(TEXT_TAGS[int(rng.integers(0, len(TEXT_TAGS)))])
            deprel.append(TEXT_RELS[int(rng.integers(0, len(TEXT_RELS)))])
            flagged.append(bool(w == "xxx" or rng.random() < 0.05))
    return transcript_of(*sentences, pos=pos, deprel=deprel, flagged=flagged)


def same_fields(a, b):
    """Two value dicts with the same keys and the same values, NaN equal to NaN."""
    assert a.keys() == b.keys()
    np.testing.assert_array_equal(np.array([a[k] for k in a], dtype=float),
                                  np.array([b[k] for k in a], dtype=float))


class TestTextMatchesReferenceLoops:
    SUFFIX_LISTS = (DEFAULT_SUFFIXES, (), ("ness",), ("", "ly"), ("y", "ity", "a.b"))
    LEXICONS = (None, frozenset({"cat", "dog", "the", "ness", "xxx"}), frozenset())

    @pytest.mark.parametrize("seed", range(6))
    def test_random_transcripts(self, seed):
        rng = np.random.default_rng(80 + seed)
        valence = {"cat": 0.5, "dog": -0.25, "one": 0.1, "ness": 1.0 / 3.0, "sat": -2.0}
        for n_sentences in (0, 1, 2, 5, 30):
            t = random_text(rng, n_sentences)
            for suffixes in self.SUFFIX_LISTS:
                for lexicon in self.LEXICONS:
                    same_fields(complexity(t, lexicon, suffixes),
                                reference_complexity(t, lexicon, suffixes))
            same_fields(syntax_counts(t), reference_syntax_counts(t))
            np.testing.assert_array_equal(sentiment(t, valence), reference_sentiment(t, valence))

    def test_tokenized_text(self):
        t = tokenize("The kindness of 1,000.5 cats. xxx [inaudible] ness! Only one? "
                     "Twenty-one, (twelve) 12 ... fly.")
        for suffixes in self.SUFFIX_LISTS:
            for lexicon in self.LEXICONS:
                same_fields(complexity(t, lexicon, suffixes),
                            reference_complexity(t, lexicon, suffixes))

    def test_a_word_equal_to_a_suffix_is_not_suffixed(self):
        t = transcript_of(["ness", "ly", "kindness", "fly"])
        assert complexity(t)["suffix_ratio"] == 0.5
        assert complexity(t, suffixes=())["suffix_ratio"] == 0.0

    def test_a_nan_valence_is_a_match(self):
        t = transcript_of(["cat", "dog"])
        assert np.isnan(sentiment(t, {"cat": float("nan"), "dog": 1.0}))
        assert np.isnan(reference_sentiment(t, {"cat": float("nan"), "dog": 1.0}))

    def test_empty_transcript(self):
        t = transcript_of()
        same_fields(complexity(t), reference_complexity(t))
        assert t.lowers == () and t.sentences == () and t.n_tokens == 0
        same_fields(syntax_counts(t), reference_syntax_counts(t))
        assert np.isnan(sentiment(t, {"cat": 1.0}))


class TestTranscript:
    def test_sentences_split_the_columns_by_lengths(self):
        t = transcript_of(["The", "Cat"], ["sat"])
        assert t.lowers == ("the", "cat", "sat")
        assert t.lengths == (2, 1)
        assert t.sentences == (("the", "cat"), ("sat",))
        assert t.n_tokens == 3

    @pytest.mark.parametrize("sentences", [
        (), (("a",),), (("a", "b"), ("c",), ("d", "e", "f")), (("x",),) * 4,
    ])
    def test_sentences_round_trip(self, sentences):
        assert transcript_of(*sentences).sentences == sentences

    @pytest.mark.parametrize("columns", [
        (("a", "b"), (None,), (None, None), (False, False), (2,)),
        (("a", "b"), (None, None), (None, None, None), (False, False), (2,)),
        (("a", "b"), (None, None), (None, None), (False,), (2,)),
    ])
    def test_columns_of_unequal_length_rejected(self, columns):
        with pytest.raises(ValueError, match="equal length"):
            Transcript(*columns)

    @pytest.mark.parametrize("lengths", [(1, 0), (0,), (0, 1), (2, -1, 1)])
    def test_empty_sentence_rejected(self, lengths):
        n = sum(lengths)
        words = ("a",) * max(n, 0)
        with pytest.raises(ValueError, match="nonempty"):
            Transcript(words, (None,) * len(words), (None,) * len(words),
                       (False,) * len(words), lengths)

    @pytest.mark.parametrize("lengths", [(), (1,), (2, 2), (3,)])
    def test_lengths_must_sum_to_the_token_count(self, lengths):
        with pytest.raises(ValueError, match="sum"):
            Transcript(("a", "b"), (None, None), (None, None), (False, False), lengths)

    def test_empty_lower_form_rejected(self):
        with pytest.raises(ValueError, match="lower"):
            Transcript(("a", ""), (None, None), (None, None), (False, False), (2,))

    def test_equality_is_by_columns(self):
        assert transcript_of(["a", "b"]) == transcript_of(["a", "b"])
        assert transcript_of(["a", "b"]) != transcript_of(["a"], ["b"])
        assert transcript_of(["a"]) != transcript_of(["a"], pos=["DET"])


def reference_load_conllu(path, markers=frozenset({"xxx", "[unintelligible]", "[inaudible]"})):
    """load_conllu's sentences as (lower, pos, deprel, flag) tuples, parsed
    by the line loop it had before tokens were tuples."""
    sentences, current = [], []
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            if current:
                sentences.append(tuple(current))
                current = []
            continue
        if line.startswith("#"):
            continue
        cols = line.split("\t")
        if "-" in cols[0] or "." in cols[0]:
            continue
        current.append((cols[1].lower(), cols[3] if cols[3] != "_" else None,
                        cols[7] if cols[7] != "_" else None, cols[1].lower() in markers))
    if current:
        sentences.append(tuple(current))
    return tuple(sentences)


def test_conllu_matches_reference_parse(tmp_path):
    lines = [
        "# text = one", "1\tThe\tthe\tDET\t_\t_\t2\tdet\t_\t_",
        "2\tXXX\t_\t_\t_\t_\t0\tnsubj:pass\t_\t_", " \t ", "", "# two",
        "1-2\tdon't\t_\t_\t_\t_\t_\t_\t_\t_", "1\tdo\tdo\tAUX\t_\t_\t0\troot\t_\t_",
        "2.1\tgone\t_\t_\t_\t_\t_\t_\t_\t_", "2\t[inaudible]\t_\tX\t_\t_\t1\t_\t_\t_",
        "　", "1\tStraße\t_\tNOUN\t_\t_\t0\troot\t_\t_",
    ]
    p = tmp_path / "r.conllu"
    for sep in ("\n", "\r\n", "\r"):
        p.write_bytes(sep.join(lines).encode("utf-8") + b"\n")
        t = load_conllu(p)
        tokens = list(zip(t.lowers, t.pos, t.deprel, t.flagged))
        got = tuple(tuple(tokens[end - n:end]) for n, end in zip(t.lengths, np.cumsum(t.lengths)))
        assert got == reference_load_conllu(p)
        assert [len(s) for s in got] == [2, 2, 1]
