"""The one way the test modules build a Transcript from words."""

from __future__ import annotations

from voxfeat.textfeat import Transcript


def transcript_of(*sentences, pos=None, deprel=None, flagged=None) -> Transcript:
    """The Transcript of sentences given as sequences of words: each word's
    lower form, and pos, deprel and flagged given one entry per token of the
    whole transcript (untagged and unflagged where not given)."""
    sentences = [tuple(s) for s in sentences]
    lowers = tuple(w.lower() for s in sentences for w in s)
    untagged = (None,) * len(lowers)
    return Transcript(
        lowers,
        untagged if pos is None else tuple(pos),
        untagged if deprel is None else tuple(deprel),
        (False,) * len(lowers) if flagged is None else tuple(flagged),
        tuple(map(len, sentences)),
    )
