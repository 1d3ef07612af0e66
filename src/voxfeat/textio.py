"""The one reader of text input files: embedding tables, lexicons, word and
suffix lists, transcripts, config JSON and feature CSVs."""

from __future__ import annotations

import codecs
from pathlib import Path

from .errors import EncodingError


def read_text(path: str | Path) -> str:
    """The file decoded as UTF-8, without a leading byte-order mark, and with
    "\\r\\n" and "\\r" read as "\\n" as open() reads them.

    Undecodable bytes raise EncodingError naming the file and the offset of
    the first bad byte; OSError passes through.
    """
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # utf-8-sig counts from after the byte-order mark it drops
        offset = exc.start + (len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0)
        raise EncodingError(f"{path}: byte {offset} is not UTF-8 ({exc.reason})") from None
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text
