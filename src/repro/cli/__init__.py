"""The unified ``repro`` command-line interface (see :mod:`repro.cli.main`)."""

from repro.cli.main import build_parser, main

__all__ = ["build_parser", "main"]
