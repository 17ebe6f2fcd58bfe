"""Reference model every reply is checked against.

The model holds, per key, the last acknowledged value: an insert sets
it, an append concatenates onto it (or creates it), and a key with no
entry must answer not-found.  A mutation that raised leaves its key's
state unknown, and the key is not checked again.
"""

from __future__ import annotations

_UNKNOWN = object()


class Model:
    """Expected store contents for the keys one load thread owns."""

    def __init__(self, initial: dict[bytes, bytes] | None = None) -> None:
        self.values: dict[bytes, object] = dict(initial or {})
        self.wrong = 0
        self.first_wrong: str | None = None

    def insert(self, key: bytes, value: bytes) -> None:
        self.values[key] = value

    def append(self, key: bytes, fragment: bytes) -> None:
        old = self.values.get(key)
        if old is _UNKNOWN:
            return
        self.values[key] = fragment if old is None else old + fragment

    def forget(self, key: bytes) -> None:
        """A mutation of *key* failed: its outcome is ambiguous."""
        self.values[key] = _UNKNOWN

    def check(self, key: bytes, reply: bytes | None) -> bool:
        """Check one lookup reply (``None`` = not-found); count and
        remember the first mismatch."""
        expected = self.values.get(key)
        if expected is _UNKNOWN or expected == reply:
            return True
        self.wrong += 1
        if self.first_wrong is None:
            self.first_wrong = (
                f"key {key!r}: expected {_show(expected)}, got {_show(reply)}"
            )
        return False

    def known(self) -> dict[bytes, bytes]:
        """Every key whose last acknowledged value is known."""
        return {
            key: value
            for key, value in self.values.items()
            if value is not _UNKNOWN
        }


def _show(value: object) -> str:
    if value is None:
        return "not-found"
    if isinstance(value, bytes):
        return f"{len(value)} B {value[:12].hex()}..."
    return repr(value)
