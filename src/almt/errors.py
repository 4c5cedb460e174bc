"""Shared exception types."""


class AlmtError(Exception):
    pass


class ParseError(AlmtError):
    """Malformed input file (carries line/offset context in the message)."""


class DegenerateNeighborhoodError(AlmtError):
    """Ratio-score denominator is not positive."""


class OracleGapError(AlmtError):
    """Selected ids missing from the oracle reference corpus."""

    def __init__(self, missing):
        self.missing = sorted(missing)
        super().__init__(f"reference corpus is missing {len(self.missing)} selected ids: "
                         f"{self.missing[:10]}{'...' if len(self.missing) > 10 else ''}")


class ConfigError(AlmtError):
    """Invalid run configuration or missing strategy parameters."""
