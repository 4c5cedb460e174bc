"""Shared exception types, each a fault that ends a command. A lookup that
finds nothing is not one: it returns a value (``RatioScorer.argmax_over_b``
gives None, ``corpus.tokenize`` gives ())."""


def describe(exc: Exception) -> str:
    """A failure's one-line message; an OSError's names its file."""
    if isinstance(exc, OSError) and exc.filename:
        return f"{exc.filename}: {exc.strerror}"
    return str(exc)


class AlmtError(Exception):
    pass


class ParseError(AlmtError):
    """Malformed input file (carries line/offset context in the message)."""


class ConfigError(AlmtError):
    """Invalid run configuration or missing strategy parameters."""
