"""Per-line ``# repro: allow[CODE]`` suppressions, strict about waste.

A suppression silences exactly one rule on exactly one line::

    elapsed = time.time()  # repro: allow[CLK001]
    for links in targets:  # repro: allow[SOA001,ITER001]

Design rules:

* **Codes are explicit.** There is no bare ``# repro: allow`` — a
  suppression that does not name its rule hides future, unrelated
  violations on the same line.
* **Unused suppressions error.** When the named rule no longer fires on
  that line (the violation was fixed, the code moved, the code was
  mistyped), the analyzer emits :data:`SUPPRESSION_CODE` instead of
  silently carrying the stale comment forward. ``SUP001`` findings are
  themselves unsuppressible — they always fail the run.
* **Malformed directives error too.** ``# repro: allow`` spelled with a
  typo (``alow``, missing brackets, empty brackets) is reported rather
  than ignored; a directive the author believes is active must never be
  a no-op.
"""

from __future__ import annotations

import io
import re
import tokenize
from typing import Iterator

__all__ = ["SUPPRESSION_CODE", "SuppressionSheet"]

#: The framework code unused/malformed suppressions are reported under.
#: Not suppressible.
SUPPRESSION_CODE = "SUP001"

#: A well-formed directive comment: ``allow[CODE]`` or ``allow[A,B]``
#: behind the directive prefix.
_DIRECTIVE = re.compile(r"#\s*repro:\s*allow\[([A-Za-z0-9_,\s]+)\]")

#: Anything that *looks* like an attempted directive (for malformed
#: detection): a ``repro:`` comment mentioning allow.
_ATTEMPT = re.compile(r"#\s*repro:\s*(\S*)")


class SuppressionSheet:
    """The parsed suppressions of one module, with usage tracking."""

    def __init__(self) -> None:
        self._allows: dict[tuple[int, str], bool] = {}  # (line, code) -> used
        self.malformed: list[tuple[int, str]] = []

    @classmethod
    def parse(cls, source: str) -> "SuppressionSheet":
        """Scan the module's *comment tokens* for directives.

        Tokenizing (rather than a raw line scan) keeps docstrings and
        string literals that merely *mention* the directive syntax —
        documentation, the analyzer's own tests — from registering as
        live suppressions. A module that fails to tokenize yields an
        empty sheet; it also fails ``ast.parse``, so the analyzer
        reports it as a ``PARSE`` finding regardless.
        """
        sheet = cls()
        try:
            tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
        except (tokenize.TokenError, IndentationError, SyntaxError):
            return sheet
        for token in tokens:
            if token.type != tokenize.COMMENT or "repro:" not in token.string:
                continue
            line_no = token.start[0]
            match = _DIRECTIVE.search(token.string)
            if match:
                codes = [c.strip() for c in match.group(1).split(",")]
                if any(not c for c in codes):
                    sheet.malformed.append((line_no, "empty code in allow[...]"))
                    continue
                for code in codes:
                    sheet._allows[(line_no, code)] = False
                continue
            attempt = _ATTEMPT.search(token.string)
            if attempt is not None:
                sheet.malformed.append(
                    (line_no, f"malformed directive {attempt.group(0).strip()!r}")
                )
        return sheet

    def consume(self, line: int, code: str) -> bool:
        """Whether a finding of ``code`` at ``line`` is suppressed.

        Marks the suppression used. :data:`SUPPRESSION_CODE` findings
        are never consumable.
        """
        if code == SUPPRESSION_CODE:
            return False
        key = (line, code)
        if key in self._allows:
            self._allows[key] = True
            return True
        return False

    def problems(self) -> Iterator[tuple[int, str]]:
        """``(line, message)`` for every suppression that silenced
        nothing and every malformed directive."""
        for (line, code), used in sorted(self._allows.items()):
            if not used:
                yield line, f"unused suppression: no {code} finding on this line"
        for line, what in sorted(self.malformed):
            yield line, what
