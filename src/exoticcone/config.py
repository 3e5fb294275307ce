"""Runtime limits and tuning knobs.

Settings come from, in increasing precedence: built-in defaults, a
key=value config file (path given by --config or the EXOTICCONE_CONFIG
environment variable), and command-line flags.
"""

from __future__ import annotations

import os

from .errors import DomainError
from .records import Record

ENV_VAR = "EXOTICCONE_CONFIG"

# bytes per memo entry, used to turn cache_bytes into an entry cap: a
# Kostant memo entry measured 133 B, and 128 makes the default cap
# 2**26 / 128 = 524,288 entries
_ENTRY_BYTES = 128


class Config(Record):
    rank_cap: int = 8
    degree_cap: int = 12
    closure_depth: int = 4
    cache_bytes: int = 1 << 26

    def __post_init__(self):
        for name in self._fields:
            value = getattr(self, name)
            # closure depth 0 searches the seeds alone, with no round
            low = 0 if name == "closure_depth" else 1
            if type(value) is not int or value < low:
                raise DomainError(f"config {name} must be an int >= {low}")

    @property
    def cache_entries(self) -> int:
        return max(1024, self.cache_bytes // _ENTRY_BYTES)


# the entries all memos may hold together; cli.run sets it from the
# loaded config, and a library user may set it directly
memo_cap = Config().cache_entries

_memos = []  # (memo, nested): an entry of a nested memo is a dict
_held = 0  # entries stored since the last clear, a dict by its length


def new_memo(nested: bool = False) -> dict:
    memo = {}
    _memos.append((memo, nested))
    return memo


def store(memo: dict, key, value, size: int = 1):
    """Keep value in memo under key, and return it. All memos together
    hold ``memo_cap`` entries at most: a store that would pass the cap
    clears every memo first, and a value larger than the cap is not kept.
    No lock is taken: a race can lose a count, which the next recount
    mends, or clear early, but a value is a function of its key, so no
    caller ever sees a wrong one."""
    global _held
    if size <= memo_cap:
        _held += size
        if _held > memo_cap:
            # a memo cleared by hand leaves _held high, so recount; list()
            # copies at once, where a live view raises if a thread stores
            _held = size + sum(sum(map(len, list(m.values()))) if nested
                               else len(m) for m, nested in list(_memos))
        if _held > memo_cap:
            for m, _ in list(_memos):
                m.clear()
            _held = size
        memo[key] = value
    return value


def _parse_file(path: str) -> dict:
    known = set(Config._fields)
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read config file {path}: {exc}") from exc
    out = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in known:
            raise DomainError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            out[key] = int(value.strip())
        except ValueError as exc:
            raise DomainError(
                f"{path}:{lineno}: {key} must be an integer"
            ) from exc
    return out


def load_config(path: str | None = None, overrides: dict | None = None
                ) -> Config:
    """Defaults, then the config file if any, then explicit overrides."""
    values = {}
    source = path or os.environ.get(ENV_VAR)
    if source:
        if not os.path.exists(source):
            raise DomainError(f"config file not found: {source}")
        values.update(_parse_file(source))
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    return Config(**values)
