"""Person-ID token rules shared by trace scoring, QA validation, and ID remapping.

Two token forms are recognized: "Person N" (case-insensitive) and "PN"
(uppercase P), each with N a non-negative integer at a word boundary. One
regex matches both, so each text is scanned once.
"""

from __future__ import annotations

import re

from .errors import ValidationError

# Group 1 holds the digits. The two token forms cannot overlap, so one
# left-to-right scan finds every token of both.
PERSON_RE = re.compile(r"\b(?:(?i:person)\s+|P)(\d+)\b")


def _ids(digit_runs: list[str]) -> list[int]:
    """The IDs the digit runs spell; a ValidationError when a run has more
    digits than Python converts to an int (sys.get_int_max_str_digits)."""
    try:
        return list(map(int, digit_runs))
    except ValueError:
        longest = max(map(len, digit_runs))
        raise ValidationError(f"person id of {longest} digits is too long") from None


def extract_person_ids(text: str) -> set[int]:
    """All person IDs mentioned in text via either token form."""
    return set(_ids(PERSON_RE.findall(text)))


def replace_person_ids(text: str, mapping: dict[int, int]) -> str:
    """Rewrite every person token through mapping, preserving the token style.

    A token whose ID maps to itself keeps its text; a remapped ID is written
    in canonical ASCII digits. Raises KeyError if the text mentions an ID
    absent from the mapping.
    """

    def _sub(match: re.Match) -> str:
        (old,) = _ids([match.group(1)])
        new = mapping[old]
        if new == old:
            return match.group(0)
        prefix = match.group(0)[: match.start(1) - match.start(0)]
        return prefix + str(new)

    return PERSON_RE.sub(_sub, text)
