"""Durable file I/O shared by every artefact writer and JSONL reader.

Every file this repo persists — evaluation reports, recovered-mapping
JSON, the grid checkpoint journal, the knowledge store, traces — goes
through :func:`atomic_write`: the bytes land in a temporary file in the
target directory, are flushed and fsync'd, and then :func:`os.replace`
swaps the file into place. A reader (or a run resuming from a
checkpoint) therefore sees either the previous complete file or the new
complete file, never a truncated hybrid, even if the writing process is
SIGKILLed mid-write.

The JSONL files share one record layer: :func:`dump_records` is the
serializer (a header line, then one sorted-key object per record) and
:func:`read_records` the reader, which hands each line that is not a
JSON object to the caller's own bad-line policy. The header rule: given
a format, a file is read only when it is empty or its first line is
that format's header at that version; any other file raises
:class:`RecordFileError`, so no writer overwrites a file not its own.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections.abc import Callable, Iterable, Iterator
from pathlib import Path

__all__ = ["RecordFileError", "atomic_append", "atomic_write", "dump_records",
           "parse_record", "read_records"]


class RecordFileError(ValueError):
    """A JSONL file's first line is not the header its reader expects."""


def atomic_write(path: str | Path, data: str | bytes, encoding: str = "utf-8") -> None:
    """Write ``data`` to ``path`` atomically (temp file + ``os.replace``).

    The temporary file is created next to the target so the final
    replace stays on one filesystem (cross-device renames are not
    atomic). The file's bytes are fsync'd before the swap, and the
    containing directory is fsync'd after it where the platform allows,
    so the rename itself survives a crash.
    """
    target = Path(path)
    directory = target.parent if str(target.parent) else Path(".")
    payload = data.encode(encoding) if isinstance(data, str) else data
    fd, temp_name = tempfile.mkstemp(
        dir=directory, prefix=f".{target.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_name, target)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise
    try:  # directory fsync is best-effort: not supported everywhere
        directory_fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(directory_fd)
        finally:
            os.close(directory_fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass


def atomic_append(path: str | Path, line: str, encoding: str = "utf-8") -> None:
    """Append one line to ``path`` as a single ``O_APPEND`` write.

    The whole-file rewrite of :func:`atomic_write` is the wrong tool for
    an append-only stream written concurrently by a parent and its grid
    workers — two rewriters would race and one would win. ``O_APPEND``
    makes the kernel perform the seek-to-end and the write as one atomic
    step, and issuing the entire line (terminator included) as a single
    ``os.write`` keeps concurrent writers' lines from interleaving on
    local filesystems. A reader therefore sees only whole lines — the
    telemetry stream's durability contract: a line is either absent or
    complete, and lines from different processes never shear each other.

    ``line`` must not contain a newline of its own; one is appended.
    """
    if "\n" in line:
        raise ValueError("atomic_append writes single lines (no embedded newline)")
    payload = (line + "\n").encode(encoding)
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, payload)
    finally:
        os.close(fd)


def dump_records(header: dict, records: Iterable[dict]) -> str:
    """``header`` then ``records`` as JSONL: sorted keys, one per line."""
    lines = [json.dumps(header, sort_keys=True)]
    lines += [json.dumps(record, sort_keys=True) for record in records]
    return "\n".join(lines) + "\n"


def parse_record(line: str) -> dict:
    """One JSONL line as an object; ValueError says why it is not one."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError:
        raise ValueError("not valid JSON (truncated?)") from None
    if not isinstance(record, dict):
        raise ValueError("not an object")
    return record


def read_records(
    path: str | Path,
    format: str | None = None,
    version: int | None = None,
    on_bad_line: Callable[[int, str], None] | None = None,
) -> Iterator[tuple[int, dict]]:
    """Yield ``(line_number, record)`` for every JSON object in ``path``.

    Bytes that are not UTF-8 decode to replacement characters, blank
    lines are skipped, and every other line :func:`parse_record` refuses
    goes to ``on_bad_line(line_number, reason)`` (which may raise) and
    is dropped; ``None`` drops it silently. With a ``format``, the first
    line must be that format's header at ``version``, and it is yielded
    first. The whole file is read, and an ``OSError`` or
    :class:`RecordFileError` raised, at the first ``next()``.
    """
    text = Path(path).read_bytes().decode("utf-8", errors="replace")
    header_due = format is not None
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = parse_record(line)
        except ValueError as error:
            if header_due:
                raise RecordFileError(f"{path}: not a {format} file ({error})") from None
            if on_bad_line is not None:
                on_bad_line(number, str(error))
            continue
        if header_due:
            if record.get("format") != format:
                raise RecordFileError(
                    f"{path}: not a {format} file (format={record.get('format')!r})"
                )
            if record.get("version") != version:
                # Named by its format's last word: "unsupported trace version".
                raise RecordFileError(
                    f"{path}: unsupported {format.rsplit('-', 1)[-1]} version "
                    f"{record.get('version')!r} (expected {version})"
                )
            header_due = False
        yield number, record
