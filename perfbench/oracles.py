"""Independent correctness oracles, run outside the timed region.

Each oracle recomputes an answer the program gave, by a route that shares
no index with the program's own: 128-bit addresses become 16-byte
big-endian strings that numpy compares and searches directly, and
longest-prefix matching tests every probed prefix length in turn instead of
walking a flattened interval table.
"""

from __future__ import annotations

import hashlib

import numpy as np

_ADDRESS_BYTES = np.dtype([("hi", ">u8"), ("lo", ">u8")])


def address_keys(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """128-bit addresses as sortable, comparable 16-byte strings."""
    packed = np.empty(len(hi), dtype=_ADDRESS_BYTES)
    packed["hi"] = hi
    packed["lo"] = lo
    return packed.view("S16")


def int_key(value: int) -> bytes:
    return value.to_bytes(16, "big")


def batch_keys(batch) -> np.ndarray:
    return address_keys(np.asarray(batch.hi), np.asarray(batch.lo))


def _masked(hi: np.ndarray, lo: np.ndarray, length: int) -> np.ndarray:
    if length <= 64:
        keep_hi = np.uint64(0) if length == 0 else ~np.uint64((1 << (64 - length)) - 1)
        return address_keys(hi & keep_hi, np.zeros_like(lo))
    keep_lo = ~np.uint64((1 << (128 - length)) - 1) if length < 128 else ~np.uint64(0)
    return address_keys(hi, lo & keep_lo)


class PrefixVerdicts:
    """Longest-prefix-match verdicts over a ``{IPv6Prefix: bool}`` map.

    Lengths are tried longest first; the first length whose masked network
    is one of the stored networks decides.  Uncovered addresses read False.
    """

    def __init__(self, verdicts: dict):
        by_length: dict[int, dict[bytes, bool]] = {}
        for prefix, verdict in verdicts.items():
            by_length.setdefault(prefix.length, {})[int_key(prefix.network)] = bool(verdict)
        self._tables = []
        for length in sorted(by_length, reverse=True):
            table = by_length[length]
            networks = sorted(table)
            self._tables.append((
                length,
                np.array(networks, dtype="S16"),
                np.array([table[n] for n in networks], dtype=bool),
            ))

    def lookup(self, hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
        result = np.zeros(len(hi), dtype=bool)
        undecided = np.ones(len(hi), dtype=bool)
        for length, networks, verdicts in self._tables:
            masked = _masked(hi, lo, length)
            pos = np.minimum(np.searchsorted(networks, masked), len(networks) - 1)
            hit = (networks[pos] == masked) & undecided
            result[hit] = verdicts[pos[hit]]
            undecided &= ~hit
        return result

    def lookup_batch(self, batch) -> np.ndarray:
        return self.lookup(np.asarray(batch.hi), np.asarray(batch.lo))


def digest(*parts) -> str:
    """Stable short hash of arrays, bytes and strings."""
    h = hashlib.blake2b(digest_size=12)
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        elif isinstance(part, bytes):
            h.update(part)
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def common_prefix_equal(a: list[str], b: list[str]) -> bool:
    """Digests of two runs agree on every unit both completed."""
    n = min(len(a), len(b))
    return n > 0 and a[:n] == b[:n]
