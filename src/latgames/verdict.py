"""Boolean check outcomes that carry a reproducible witness on failure."""
from __future__ import annotations

from dataclasses import dataclass


def format_atom(value) -> str:
    """Render a witness value (label, exact rational, or tuple of labels);
    a rational renders as ``str`` of its ``Fraction``, "p" or "p/q"."""
    if isinstance(value, tuple):
        return "(" + ",".join(format_atom(v) for v in value) + ")"
    return str(value)


@dataclass(frozen=True)
class Verdict:
    """Outcome of a checker.

    ``holds`` is False exactly when ``witness`` is present; the witness is a
    tuple of (field, value) pairs that re-checks as a genuine violation.
    """

    holds: bool
    witness: tuple | None = None

    def __post_init__(self):
        if self.holds and self.witness is not None:
            raise ValueError("a holding verdict must not carry a witness")
        if not self.holds and self.witness is None:
            raise ValueError("a failing verdict must carry a witness")

    def __bool__(self) -> bool:
        return self.holds

    def witness_dict(self) -> dict:
        return dict(self.witness or ())

    def describe(self) -> str:
        if self.holds:
            return "PASS"
        fields = " ".join(f"{k}={format_atom(v)}" for k, v in self.witness)
        return f"FAIL {fields}"
