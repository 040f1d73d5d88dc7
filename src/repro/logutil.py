"""Shared logging setup for the CLI.

Status and diagnostic lines ("Reverse-engineering No.4 ...", campaign
and fleet progress) go through the ``repro`` logger to **stderr**; artefact and
summary output (tables, run summaries, recovered mappings) stays on
**stdout**. That split is load-bearing: the byte-identity tests and the
kill-and-resume smoke compare stdout, so diagnostics must never land
there.

:func:`setup_logging` is idempotent and rebinds its handler to the
*current* ``sys.stderr`` on every call — required under pytest, where
``capsys`` swaps the stream between tests.
"""

from __future__ import annotations

import logging
import sys

__all__ = ["get_logger", "setup_logging"]

_LEVELS = ("debug", "info", "warning", "error")


def get_logger(name: str = "repro") -> logging.Logger:
    """The shared ``repro`` logger (or a child of it)."""
    return logging.getLogger(name)


def setup_logging(level: str = "info", quiet: bool = False) -> logging.Logger:
    """(Re)configure the ``repro`` logger: plain messages on stderr.

    ``quiet`` raises the threshold to WARNING regardless of ``level``,
    silencing status lines while keeping real problems visible.
    """
    if level not in _LEVELS:
        raise ValueError(f"log level must be one of {_LEVELS}, got {level!r}")
    logger = logging.getLogger("repro")
    for handler in list(logger.handlers):
        logger.removeHandler(handler)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(message)s"))
    logger.addHandler(handler)
    logger.setLevel(logging.WARNING if quiet else getattr(logging, level.upper()))
    logger.propagate = False
    return logger
