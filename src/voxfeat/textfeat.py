"""Transcript features: tokenization, lexical-complexity metrics, CoNLL-U
ingestion, part-of-speech / dependency counts, and lexicon sentiment.

Tagging itself is out of scope; tags arrive via CoNLL-U files produced by
any external tagger.
"""

from __future__ import annotations

import re
import string
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, compress
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, EmptyLexicon, MalformedConllu
from .functionals import Family, FeatureVector

DEFAULT_MARKERS = frozenset({"xxx", "[unintelligible]", "[inaudible]"})

DEFAULT_SUFFIXES = ("ness", "ment", "tion", "ity", "able", "ful", "less", "ly")

NUMBER_WORDS = frozenset({
    "zero", "one", "two", "three", "four", "five", "six", "seven", "eight",
    "nine", "ten", "eleven", "twelve", "thirteen", "fourteen", "fifteen",
    "sixteen", "seventeen", "eighteen", "nineteen", "twenty", "thirty",
    "forty", "fifty", "sixty", "seventy", "eighty", "ninety", "hundred",
    "thousand", "million", "billion",
})

# universal part-of-speech inventory, plus a bucket for untagged tokens
UPOS_TAGS = (
    "ADJ", "ADP", "ADV", "AUX", "CCONJ", "DET", "INTJ", "NOUN", "NUM",
    "PART", "PRON", "PROPN", "PUNCT", "SCONJ", "SYM", "VERB", "X",
)
# universal dependency relations (subtypes like nsubj:pass fold into the base)
DEPRELS = (
    "acl", "advcl", "advmod", "amod", "appos", "aux", "case", "cc", "ccomp",
    "clf", "compound", "conj", "cop", "csubj", "dep", "det", "discourse",
    "dislocated", "expl", "fixed", "flat", "goeswith", "iobj", "list",
    "mark", "nmod", "nsubj", "nummod", "obj", "obl", "orphan", "parataxis",
    "punct", "reparandum", "root", "vocative", "xcomp",
)
UNTAGGED = "UNTAGGED"
_POS = UPOS_TAGS + (UNTAGGED,)
_DEP = DEPRELS + (UNTAGGED,)

_NUMERIC_RE = re.compile(r"^\d+(?:[.,]\d+)*$")


class Token(NamedTuple):
    surface: str
    lower: str
    pos: str | None = None
    deprel: str | None = None
    is_unintelligible: bool = False


@dataclass(frozen=True)
class Transcript:
    """Sentences of tokens. The flat token tuple and each token's lower form
    (`lowers`) are built once, here, and shared by every text family."""

    sentences: tuple[tuple[Token, ...], ...]
    _tokens: tuple[Token, ...] = field(init=False, repr=False, compare=False)
    lowers: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        sentences = tuple(tuple(s) for s in self.sentences)
        object.__setattr__(self, "sentences", sentences)
        if not all(sentences):
            raise ValueError("sentences must be nonempty")
        tokens = tuple(chain.from_iterable(sentences))
        if not all(map(attrgetter("surface"), tokens)):
            raise ValueError("token surfaces must be nonempty")
        object.__setattr__(self, "_tokens", tokens)
        object.__setattr__(self, "lowers", tuple(map(attrgetter("lower"), tokens)))

    def tokens(self) -> tuple[Token, ...]:
        return self._tokens

    @property
    def n_tokens(self) -> int:
        return len(self._tokens)


@dataclass(frozen=True)
class ComplexityFeatures:
    unintelligible_word_ratio: float
    standardized_word_entropy: float
    suffix_ratio: float
    number_ratio: float
    brunet_index: float
    honore_statistic: float
    type_token_ratio: float


@dataclass(frozen=True)
class SyntaxCounts:
    pos_counts: dict[str, int]
    dep_counts: dict[str, int]
    total_tokens: int

    def rate(self, count: int) -> float:
        return count / self.total_tokens if self.total_tokens else np.nan


def tokenize(text: str, markers: frozenset[str] = DEFAULT_MARKERS) -> Transcript:
    """Split text into sentences on .!? and tokens on whitespace.

    Marker matching happens on the raw lowercased token before punctuation
    stripping, so bracketed markers like "[inaudible]" survive. Tokens that
    are pure punctuation vanish.
    """
    sentences = []
    for chunk in re.split(r"[.!?]+", text):
        tokens = []
        for raw in chunk.split():
            flagged = raw.lower() in markers
            surface = raw.strip(string.punctuation)
            if not surface:
                continue
            tokens.append(Token(surface, surface.lower(), None, None, flagged))
        if tokens:
            sentences.append(tuple(tokens))
    return Transcript(tuple(sentences))


def complexity(
    t: Transcript,
    lexicon: frozenset[str] | set[str] | None = None,
    suffixes: tuple[str, ...] = DEFAULT_SUFFIXES,
    number_words: frozenset[str] = NUMBER_WORDS,
) -> ComplexityFeatures:
    """Seven lexical-richness metrics.

    With N tokens, V distinct lower forms, V1 forms occurring once:
    entropy is base-2 Shannon over token frequencies standardized by
    log2(V) (NaN when V=1); brunet = N^(V^-0.165); honore =
    100 ln(N)/(1 - V1/V) (NaN when every type is a hapax); suffix matches
    require the word to be strictly longer than the suffix.

    Every rule but the marker flag depends on the lower form alone, so each
    distinct form is tested once and weighted by its count.
    """
    n = t.n_tokens
    if n == 0:
        nan = float("nan")
        return ComplexityFeatures(nan, nan, nan, nan, nan, nan, nan)

    counts = Counter(t.lowers)  # forms in first-occurrence order
    v = len(counts)
    v1 = list(counts.values()).count(1)

    flagged = list(compress(t.lowers, map(attrgetter("is_unintelligible"), t.tokens())))
    unintelligible = len(flagged)
    if lexicon is not None:
        unintelligible += (sum(c for w, c in counts.items() if w not in lexicon)
                           - sum(1 for w in flagged if w not in lexicon))
    probs = np.array(list(counts.values()), dtype=float) / n
    entropy = float(-(probs * np.log2(probs)).sum())
    standardized = entropy / np.log2(v) if v > 1 else float("nan")
    suffix_hits = 0
    if suffixes:
        # one or more characters before one of the suffixes
        suffixed = re.compile("(?s).+(?:" + "|".join(map(re.escape, suffixes)) + ")")
        suffix_hits = sum(c for w, c in counts.items() if suffixed.fullmatch(w))
    number_hits = sum(c for w, c in counts.items()
                      if _NUMERIC_RE.match(w) or w in number_words)
    brunet = n ** (v ** -0.165)
    honore = 100.0 * np.log(n) / (1.0 - v1 / v) if v1 != v else float("nan")

    return ComplexityFeatures(
        unintelligible_word_ratio=unintelligible / n,
        standardized_word_entropy=standardized,
        suffix_ratio=suffix_hits / n,
        number_ratio=number_hits / n,
        brunet_index=float(brunet),
        honore_statistic=float(honore),
        type_token_ratio=v / n,
    )


def load_conllu(path: str | Path, markers: frozenset[str] = DEFAULT_MARKERS) -> Transcript:
    """Parse a CoNLL-U file into a tagged Transcript.

    Token lines carry 10 tab-separated columns; UPOS is column 4 and DEPREL
    column 8 ("_" means untagged). Multiword ranges ("1-2") and empty nodes
    ("1.1") are skipped. Sentences separate on blank lines.
    """
    path = Path(path)
    sentences: list[tuple[Token, ...]] = []
    current: list[Token] = []
    for line_no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if not line or line.isspace():
            if current:
                sentences.append(tuple(current))
                current = []
            continue
        if line[0] == "#":
            continue
        cols = line.split("\t")
        if len(cols) != 10:
            raise MalformedConllu(
                f"{path.name}:{line_no}: {len(cols)} columns, expected 10"
            )
        token_id, surface, _, pos, _, _, _, deprel, _, _ = cols
        if "-" in token_id or "." in token_id:
            continue
        lower = surface.lower()
        current.append(Token(surface, lower, None if pos == "_" else pos,
                             None if deprel == "_" else deprel, lower in markers))
    if current:
        sentences.append(tuple(current))
    return Transcript(tuple(sentences))


def syntax_counts(t: Transcript) -> SyntaxCounts:
    """Token counts over the fixed tag and relation inventories.

    Unknown or missing tags land in UNTAGGED so the output width never
    varies. Relation subtypes fold into their base (nsubj:pass -> nsubj).
    """
    pos_counts = {tag: 0 for tag in _POS}
    dep_counts = {rel: 0 for rel in _DEP}
    tokens = t.tokens()
    for pos, count in Counter(map(attrgetter("pos"), tokens)).items():
        pos_counts[pos if pos in pos_counts else UNTAGGED] += count
    for deprel, count in Counter(map(attrgetter("deprel"), tokens)).items():
        base = deprel.split(":")[0] if deprel else None
        dep_counts[base if base in dep_counts else UNTAGGED] += count
    return SyntaxCounts(pos_counts, dep_counts, len(tokens))


def syntax_feature_vector(sc: SyntaxCounts, source_id: str = "") -> FeatureVector:
    values = {}
    for kind, counts in (("pos", sc.pos_counts), ("dep", sc.dep_counts)):
        for key, count in counts.items():
            values[f"{kind}_count_{key}"] = count
            values[f"{kind}_rate_{key}"] = sc.rate(count)
    return SYNTAX.vector(values, source_id)


SYNTAX = Family("text.syntax", (
    *((f"pos_count_{tag}", f"occurrences of part-of-speech {tag}") for tag in _POS),
    *((f"pos_rate_{tag}", f"occurrences of part-of-speech {tag} / N") for tag in _POS),
    *((f"dep_count_{rel}", f"occurrences of dependency relation {rel}") for rel in _DEP),
    *((f"dep_rate_{rel}", f"occurrences of dependency relation {rel} / N") for rel in _DEP),
), lambda t, res: syntax_feature_vector(syntax_counts(t)))
SYNTAX_FEATURE_NAMES = SYNTAX.names


def complexity_feature_vector(cf: ComplexityFeatures, source_id: str = "") -> FeatureVector:
    return COMPLEXITY.vector(vars(cf), source_id)


COMPLEXITY = Family("text.complexity", (
    ("unintelligible_word_ratio", "flagged-or-out-of-lexicon words / N"),
    ("standardized_word_entropy", "Shannon entropy of token frequencies / log2(V)"),
    ("suffix_ratio", "derivational-suffix-bearing words / N"),
    ("number_ratio", "numeral tokens (digits or number words) / N"),
    ("brunet_index", "N^(V^-0.165)"),
    ("honore_statistic", "100 * ln(N) / (1 - V1/V), V1 = once-only forms"),
    ("type_token_ratio", "V / N (distinct lower-cased forms over tokens)"),
), lambda t, res: complexity_feature_vector(complexity(t, res.lexicon, res.suffixes)))
COMPLEXITY_FEATURE_NAMES = COMPLEXITY.names


def sentiment(t: Transcript, lexicon: dict[str, float]) -> float:
    """Mean valence of lexicon-matched token occurrences; NaN if none match."""
    if not lexicon:
        raise EmptyLexicon("sentiment lexicon is empty")
    hits = list(map(lexicon.__getitem__, filter(lexicon.__contains__, t.lowers)))
    return float(np.mean(hits)) if hits else float("nan")


SENTIMENT = Family("text.sentiment", (
    ("sentiment_valence", "mean lexicon valence over matched token occurrences"),
), lambda t, res: SENTIMENT.vector({"sentiment_valence": sentiment(t, res.valence)}))


# ---------------------------------------------------------------------------
# lexicon file loaders
# ---------------------------------------------------------------------------

def load_valence_csv(path: str | Path) -> dict[str, float]:
    """CSV "word,valence" per line; one optional header line tolerated."""
    out: dict[str, float] = {}
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ConfigError(f"{path}:{i + 1}: expected 'word,valence', got {line!r}")
        word, raw = parts[0].strip().lower(), parts[1].strip()
        try:
            out[word] = float(raw)
        except ValueError:
            if i == 0:
                continue  # header
            raise ConfigError(f"{path}:{i + 1}: bad valence {raw!r}") from None
    if not out:
        raise EmptyLexicon(f"{path}: no valence entries")
    return out


def load_word_list(path: str | Path) -> frozenset[str]:
    words = {
        line.strip().lower()
        for line in Path(path).read_text(encoding="utf-8").splitlines()
        if line.strip()
    }
    return frozenset(words)


def load_suffix_list(path: str | Path) -> tuple[str, ...]:
    return tuple(
        line.strip().lower()
        for line in Path(path).read_text(encoding="utf-8").splitlines()
        if line.strip()
    )
