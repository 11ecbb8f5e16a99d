"""Finding records, suppression pragmas, and stable fingerprints.

A :class:`Finding` is one diagnostic from one checker pass. Findings are
value objects: hashable, ordered by location, and serialisable to the JSON
shape ``repro check --json`` documents.

Two suppression mechanisms exist, in precedence order:

* a pragma comment — ``# staticcheck: ignore`` on the offending line
  silences every rule on that line, ``# staticcheck: ignore[unit-suffix,
  unit-mix]`` silences the named rules, and the file-level form
  ``# staticcheck: ignore-file[...]`` (conventionally near the top of the
  file) silences rules for the whole file — fixture files full of
  deliberate violations opt out wholesale instead of annotating every
  line;
* a baseline file of fingerprints for grandfathered findings (see
  :mod:`repro.staticcheck.baseline`).

Fingerprints deliberately exclude line numbers so unrelated edits above a
grandfathered finding do not resurrect it; they combine rule, file, and the
offending symbol (or the message when no symbol applies).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional

#: Severity levels, mildest first.
SEVERITIES = ("note", "warning", "error")

_PRAGMA_RE = re.compile(
    r"#\s*staticcheck:\s*ignore(?P<scope>-file)?"
    r"(?:\[(?P<rules>[A-Za-z0-9_,\- ]*)\])?"
)


@dataclass(frozen=True, order=True)
class Finding:
    """One diagnostic: where, which rule, and what is wrong."""

    path: str  #: repo-relative posix path
    line: int  #: 1-based
    col: int  #: 0-based, as reported by ``ast``
    rule: str
    message: str
    symbol: str = ""  #: offending identifier, when one exists
    severity: str = "error"
    family: str = ""  #: rule family (``axes``/``fingerprint``/``obs``/...)
    fix_hint: str = ""  #: one-line suggested remediation

    @property
    def fingerprint(self) -> str:
        """Line-number-free identity used by the baseline file."""
        return f"{self.rule}::{self.path}::{self.symbol or self.message}"

    def render(self) -> str:
        """One-line human rendering, clickable in most terminals."""
        return f"{self.path}:{self.line}:{self.col + 1}: {self.rule}: {self.message}"

    def to_json(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
            "symbol": self.symbol,
            "severity": self.severity,
            "family": self.family,
            "fix_hint": self.fix_hint,
            "fingerprint": self.fingerprint,
        }

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "Finding":
        """Rebuild a finding from :meth:`to_json` output (cache entries).

        ``fingerprint`` is derived, never stored state, so it is ignored
        on the way back in.
        """
        return cls(
            path=str(data["path"]),
            line=int(data["line"]),  # type: ignore[call-overload]
            col=int(data["col"]),  # type: ignore[call-overload]
            rule=str(data["rule"]),
            message=str(data["message"]),
            symbol=str(data.get("symbol", "")),
            severity=str(data.get("severity", "error")),
            family=str(data.get("family", "")),
            fix_hint=str(data.get("fix_hint", "")),
        )


@dataclass(frozen=True)
class PragmaIndex:
    """Suppression pragmas parsed from one source file.

    ``lines`` maps line number -> frozenset of suppressed rule names; the
    empty frozenset means "suppress everything on this line".
    ``file_rules`` is the union of ``ignore-file`` pragmas: None when the
    file carries none, the empty frozenset for a blanket file-wide
    suppression, a non-empty set for named rules.
    """

    lines: Dict[int, FrozenSet[str]] = field(default_factory=dict)
    file_rules: Optional[FrozenSet[str]] = None

    def suppresses(self, line: int, rule: str) -> bool:
        if self.file_rules is not None:
            if not self.file_rules or rule in self.file_rules:
                return True
        rules = self.lines.get(line)
        if rules is None:
            return False
        return not rules or rule in rules


def _parse_rule_list(raw: Optional[str]) -> FrozenSet[str]:
    if raw is None:
        return frozenset()
    return frozenset(rule.strip() for rule in raw.split(",") if rule.strip())


def parse_pragmas(source: str) -> PragmaIndex:
    """Collect ``# staticcheck: ignore[...]`` / ``ignore-file[...]`` pragmas."""
    lines: Dict[int, FrozenSet[str]] = {}
    file_rules: Optional[FrozenSet[str]] = None
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _PRAGMA_RE.search(text)
        if match is None:
            continue
        rules = _parse_rule_list(match.group("rules"))
        if match.group("scope"):
            if file_rules is None:
                file_rules = rules
            elif file_rules and rules:
                file_rules = file_rules | rules
            else:
                # either pragma being a blanket ignore makes the union one
                file_rules = frozenset()
        else:
            lines[lineno] = rules
    return PragmaIndex(lines=lines, file_rules=file_rules)


def apply_pragmas(findings: List[Finding], pragmas: PragmaIndex) -> List[Finding]:
    """Drop findings whose line carries a matching suppression pragma."""
    return [f for f in findings if not pragmas.suppresses(f.line, f.rule)]
