"""The one reader and writer of text files. It reads the inputs (embedding
tables, lexicons, word and suffix lists, transcripts, config JSON and
feature CSVs) and writes every output atomically."""

from __future__ import annotations

import codecs
import os
from pathlib import Path

from .errors import EncodingError, UnwritableOutput


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


def write_text(path: str | Path, text: str) -> None:
    """Write text as UTF-8 through a temporary file in the same directory,
    renamed over path, so a failed write leaves any file at path as it was.

    Any OSError raises UnwritableOutput naming path.
    """
    path = Path(path)
    # created with 0o666 like open() does, so the umask sets the final mode
    # (mkstemp's 0o600 would stick to the renamed file)
    tmp = path.parent / f".{path.name}.{os.urandom(8).hex()}.tmp"
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise UnwritableOutput(f"cannot write {path}: {exc}") from None
