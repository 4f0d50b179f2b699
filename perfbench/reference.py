"""Reference digests and the check every job outcome must pass.

Integers are hashed from `int.to_bytes`, never from `str()`: decimal
conversion is quadratic, and Python refuses it past 4300 digits by default.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

PINS = Path(__file__).resolve().parent / "pins.json"


def int_digest(value: int) -> str:
    raw = value.to_bytes(value.bit_length() // 8 + 1, "big", signed=True)
    return hashlib.sha256(raw).hexdigest()


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_pins() -> dict[str, str]:
    """Job name -> sha256 of the value or the exact stdout bytes the job must
    produce, computed by make_pins.py without the library."""
    return json.loads(PINS.read_text(encoding="utf-8"))["digests"]


def verdict(kind: str, outcome: dict, expected: list[str]) -> tuple[str, str] | None:
    """None if the outcome is right; else ("error" | "mismatch", reason).

    An error is a job that raised or exited non-zero; a mismatch is a job
    whose result differs from any of its references.
    """
    if outcome.get("error"):
        return "error", outcome["error"]
    if kind == "verify":
        if outcome["checks"] and not outcome["checks_failed"] and outcome["overall"]:
            return None
        return "mismatch", ("battery did not pass: "
                            f"{outcome['checks_failed']} of {outcome['checks']} checks failed "
                            f"({', '.join(outcome['failed_checks'])})")
    if not expected:
        return "mismatch", "no reference for this job"
    for digest in expected:
        if outcome["digest"] != digest:
            return "mismatch", f"sha256 {outcome['digest'][:16]}... != reference {digest[:16]}..."
    return None
