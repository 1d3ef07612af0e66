"""Transcript features: tokenization, lexical-complexity metrics, CoNLL-U
ingestion, part-of-speech / dependency counts, and lexicon sentiment.

Tagging itself is out of scope; tags arrive via CoNLL-U files produced by
any external tagger.
"""

from __future__ import annotations

import re
import string
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, compress
from pathlib import Path

import numpy as np

from .errors import ConfigError, EmptyLexicon, MalformedConllu
from .functionals import Family
from .textio import read_text

# transcribers' tokens for unintelligible speech
MARKERS = frozenset({"xxx", "[unintelligible]", "[inaudible]"})
# what tokenize strips from a token before matching a bracketed marker
_PUNCT_OUTSIDE_MARKERS = string.punctuation.replace("[", "").replace("]", "")

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
# a run of .!? ends a sentence, except a "." with a digit on each side
_SENTENCE_END = re.compile(r"(?:[!?]|(?<!\d)\.|\.(?!\d))+")


@dataclass(frozen=True)
class Transcript:
    """A transcript as per-token columns: each token's lower form, its UPOS
    tag and dependency relation (None when untagged) and whether it is an
    unintelligible marker; and `lengths`, the token count of each sentence,
    whose tokens follow one another in the columns."""

    lowers: tuple[str, ...]
    pos: tuple[str | None, ...]
    deprel: tuple[str | None, ...]
    flagged: tuple[bool, ...]
    lengths: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.lowers)
        if not len(self.pos) == len(self.deprel) == len(self.flagged) == n:
            raise ValueError("token columns must have equal length")
        if not all(length > 0 for length in self.lengths):
            raise ValueError("sentences must be nonempty")
        if sum(self.lengths) != n:
            raise ValueError(f"sentence lengths sum to {sum(self.lengths)}, not {n} tokens")
        if not all(self.lowers):
            raise ValueError("token lower forms must be nonempty")

    @property
    def n_tokens(self) -> int:
        return len(self.lowers)

    @property
    def sentences(self) -> tuple[tuple[str, ...], ...]:
        """Each sentence's lower forms."""
        return tuple(self.lowers[end - length:end]
                     for length, end in zip(self.lengths, accumulate(self.lengths)))


def tokenize(text: str) -> Transcript:
    """Split text into sentences on .!? and tokens on whitespace.

    A "." with a digit on each side ("3.50") does not end a sentence. A
    token is its raw form with the punctuation around it stripped; tokens
    that are pure punctuation vanish. It is flagged as a marker when its
    lowercased raw form, that form with the punctuation around it stripped
    except square brackets (so "[inaudible]," matches "[inaudible]"), or
    its lower form (so "xxx," and "(xxx)" match "xxx") is in MARKERS.
    """
    lowers: list[str] = []
    flagged: list[bool] = []
    lengths: list[int] = []
    for chunk in _SENTENCE_END.split(text):
        start = len(lowers)
        for raw in chunk.split():
            surface = raw.strip(string.punctuation)
            if not surface:
                continue
            lower = surface.lower()
            raw_lower = raw.lower()
            lowers.append(lower)
            flagged.append(lower in MARKERS or raw_lower in MARKERS
                           or raw_lower.strip(_PUNCT_OUTSIDE_MARKERS) in MARKERS)
        if len(lowers) > start:
            lengths.append(len(lowers) - start)
    untagged = (None,) * len(lowers)
    return Transcript(tuple(lowers), untagged, untagged, tuple(flagged), tuple(lengths))


def complexity(
    t: Transcript,
    lexicon: frozenset[str] | set[str] | None = None,
    suffixes: tuple[str, ...] = DEFAULT_SUFFIXES,
) -> dict[str, float]:
    """COMPLEXITY's seven lexical-richness metrics, keyed by entry.

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
        return dict.fromkeys(COMPLEXITY.names, float("nan"))

    counts = Counter(t.lowers)  # forms in first-occurrence order
    v = len(counts)
    v1 = list(counts.values()).count(1)

    flagged = list(compress(t.lowers, t.flagged))
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
                      if _NUMERIC_RE.match(w) or w in NUMBER_WORDS)
    brunet = n ** (v ** -0.165)
    honore = 100.0 * np.log(n) / (1.0 - v1 / v) if v1 != v else float("nan")

    return {
        "unintelligible_word_ratio": unintelligible / n,
        "standardized_word_entropy": standardized,
        "suffix_ratio": suffix_hits / n,
        "number_ratio": number_hits / n,
        "brunet_index": float(brunet),
        "honore_statistic": float(honore),
        "type_token_ratio": v / n,
    }


def load_conllu(path: str | Path) -> Transcript:
    """Parse a CoNLL-U file into a tagged Transcript.

    Token lines carry 10 tab-separated columns; UPOS is column 4 and DEPREL
    column 8 ("_" means untagged). Multiword ranges ("1-2") and empty nodes
    ("1.1") are skipped. Sentences separate on blank lines. A token line
    without 10 columns, or with an empty FORM (column 2), raises
    MalformedConllu naming the file and line.
    """
    path = Path(path)
    lowers: list[str] = []
    pos: list[str | None] = []
    deprel: list[str | None] = []
    flagged: list[bool] = []
    lengths: list[int] = []
    start = 0  # where the current sentence's tokens begin
    for line_no, line in enumerate(read_text(path).splitlines(), 1):
        if not line or line.isspace():
            if len(lowers) > start:
                lengths.append(len(lowers) - start)
                start = len(lowers)
            continue
        if line[0] == "#":
            continue
        cols = line.split("\t")
        if len(cols) != 10:
            raise MalformedConllu(
                f"{path.name}:{line_no}: {len(cols)} columns, expected 10"
            )
        token_id, surface, _, upos, _, _, _, rel, _, _ = cols
        if "-" in token_id or "." in token_id:
            continue
        if not surface:
            raise MalformedConllu(f"{path.name}:{line_no}: empty FORM column")
        lower = surface.lower()
        lowers.append(lower)
        pos.append(None if upos == "_" else upos)
        deprel.append(None if rel == "_" else rel)
        flagged.append(lower in MARKERS)
    if len(lowers) > start:
        lengths.append(len(lowers) - start)
    return Transcript(tuple(lowers), tuple(pos), tuple(deprel), tuple(flagged), tuple(lengths))


def syntax_counts(t: Transcript) -> dict[str, float]:
    """SYNTAX's token counts over the fixed tag and relation inventories,
    each with its rate over N (NaN when N = 0), keyed by entry.

    Unknown or missing tags land in UNTAGGED so the output width never
    varies. Relation subtypes fold into their base (nsubj:pass -> nsubj).
    """
    n = t.n_tokens
    bases: Counter[str | None] = Counter()
    for rel, count in Counter(t.deprel).items():
        bases[rel.split(":")[0] if rel else None] += count
    values: dict[str, float] = {}
    for (kind, _, inventory), tags in zip(_INVENTORIES, (Counter(t.pos), bases)):
        counts = dict.fromkeys(inventory, 0)
        for tag, count in tags.items():
            counts[tag if tag in counts else UNTAGGED] += count
        for tag, count in counts.items():
            values[f"{kind}_count_{tag}"] = count
            values[f"{kind}_rate_{tag}"] = count / n if n else float("nan")
    return values


# (name prefix, what is counted, inventory) for the tags and the relations
_INVENTORIES = (("pos", "part-of-speech", _POS), ("dep", "dependency relation", _DEP))

SYNTAX = Family("text.syntax", tuple(
    (f"{kind}_{stat}_{tag}", f"occurrences of {what} {tag}{over}")
    for kind, what, inventory in _INVENTORIES
    for stat, over in (("count", ""), ("rate", " / N"))
    for tag in inventory
), lambda t, res: syntax_counts(t))
SYNTAX_FEATURE_NAMES = SYNTAX.names
syntax_feature_vector = SYNTAX.vector

COMPLEXITY = Family("text.complexity", (
    ("unintelligible_word_ratio", "flagged-or-out-of-lexicon words / N"),
    ("standardized_word_entropy", "Shannon entropy of token frequencies / log2(V)"),
    ("suffix_ratio", "derivational-suffix-bearing words / N"),
    ("number_ratio", "numeral tokens (digits or number words) / N"),
    ("brunet_index", "N^(V^-0.165)"),
    ("honore_statistic", "100 * ln(N) / (1 - V1/V), V1 = once-only forms"),
    ("type_token_ratio", "V / N (distinct lower-cased forms over tokens)"),
), lambda t, res: complexity(t, res.lexicon, res.suffixes))
COMPLEXITY_FEATURE_NAMES = COMPLEXITY.names
complexity_feature_vector = COMPLEXITY.vector


def sentiment(t: Transcript, lexicon: dict[str, float]) -> float:
    """Mean valence of lexicon-matched token occurrences; NaN if none match."""
    if not lexicon:
        raise EmptyLexicon("sentiment lexicon is empty")
    hits = list(map(lexicon.__getitem__, filter(lexicon.__contains__, t.lowers)))
    return float(np.mean(hits)) if hits else float("nan")


SENTIMENT = Family("text.sentiment", (
    ("sentiment_valence", "mean lexicon valence over matched token occurrences"),
), lambda t, res: {"sentiment_valence": sentiment(t, res.valence)})


# ---------------------------------------------------------------------------
# lexicon file loaders
# ---------------------------------------------------------------------------

def load_valence_csv(path: str | Path) -> dict[str, float]:
    """CSV "word,valence" per line; one optional header line tolerated."""
    out: dict[str, float] = {}
    lines = read_text(path).splitlines()
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
    return frozenset(load_suffix_list(path))


def load_suffix_list(path: str | Path) -> tuple[str, ...]:
    """The stripped, lowered, non-blank lines of path, in file order."""
    return tuple(word for line in read_text(path).splitlines() if (word := line.strip().lower()))
