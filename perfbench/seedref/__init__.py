"""Frozen copy of the tonescale library at commit e68ceae (the seed).

The benchmark checks every output of the program against these modules, so
they must not follow later library changes. Only the package name in the
import lines differs from the originals; ``cli_io`` is not copied because
the reference works on arrays, not files.
"""
