"""The INI format shared by experiment configs and noise profiles.

Both are read by `read_ini`: a path or the document text in, every section and
key checked against a schema, values cast by a typed getter whose errors name
the field. `#` and `;` start an inline comment in either kind of document.
"""
from __future__ import annotations

import configparser
import os


def read_ini(source, schema, error, kind: str):
    """Parse an INI document given as a path or as its text.

    Anything containing a newline or starting with '[' is document text, and a
    blank string is an empty document; any other string is a path. `schema` is
    the set of allowed (section, key) pairs; `error` is the exception type
    raised for every problem and `kind` names the document in its messages.

    Returns (get, directory). `get(section, key, cast, default=None)` returns
    `cast(value)`, or `default` when the key is absent. `directory` is the
    file's directory, or None for document text.
    """
    if isinstance(source, os.PathLike):
        source = os.fspath(source)
    if not isinstance(source, str):
        raise error(f"expected a path or document text, got {type(source)!r}")
    directory = None
    if "\n" in source or source.lstrip().startswith("[") or not source.strip():
        text = source
    elif os.path.exists(source):
        directory = os.path.dirname(os.path.abspath(source))
        with open(source, encoding="utf-8") as fh:
            text = fh.read()
    else:
        raise error(f"{kind} file not found: {source}")

    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise error(f"malformed {kind}: {exc}") from exc
    sections = {section for section, _ in schema}
    for section in parser.sections():
        if section not in sections:
            raise error(f"unknown {kind} section [{section}]")
        for key in parser[section]:
            if (section, key) not in schema:
                raise error(f"unknown field {key!r} in section [{section}]")

    def get(section, key, cast, default=None):
        if not parser.has_option(section, key):
            return default
        raw = parser.get(section, key)
        try:
            return cast(raw)
        except (ValueError, TypeError):
            raise error(
                f"field {key!r} in [{section}] has invalid value {raw!r}") from None

    return get, directory


def parse_pairs(text: str) -> tuple:
    """'0-1, 2-3' or '0-1 2-3' -> ((0, 1), (2, 3)); ValueError otherwise."""
    pairs = []
    for chunk in text.replace(",", " ").split():
        i, j = chunk.split("-")
        pairs.append((int(i), int(j)))
    return tuple(pairs)
