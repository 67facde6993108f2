"""Byte-store wrapper: values cross the DHT boundary as bytes.

The plain simulated substrates store Python objects by reference, which
silently lets index code depend on in-process aliasing (mutate a fetched
bucket and the "stored" copy changes too).  A deployed DHT stores bytes;
this wrapper enforces those semantics by pickling every value on
``put``/``local_write`` and unpickling a *fresh copy* on every
``get``/``peek``.

Running the full index test battery over ``SerializingDHT(LocalDHT())``
is the proof that the LHT/PHT implementations persist every mutation
through an explicit write — i.e. that they would work over a real
byte-oriented DHT such as OpenDHT.
"""

from __future__ import annotations

import pickle
from typing import Any

from repro.dht.base import DHT
from repro.dht.kernel import DelegatingDHT

__all__ = ["SerializingDHT"]


class SerializingDHT(DelegatingDHT):
    """Wrap a substrate so all values are stored in serialized form."""

    def __init__(self, inner: DHT) -> None:
        super().__init__(inner)
        self.bytes_written = 0

    def _encode(self, value: Any) -> bytes:
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        self.bytes_written += len(payload)
        return payload

    @staticmethod
    def _decode(payload: Any) -> Any:
        # ``None`` and ``NO_REPLY`` are outcomes, not payloads: they
        # pass through undecoded.
        return pickle.loads(payload) if isinstance(payload, bytes) else payload

    # ------------------------------------------------------------------
    # DHT interface
    # ------------------------------------------------------------------

    def put(self, key: str, value: Any) -> None:
        self.inner.put(key, self._encode(value))

    def get(self, key: str) -> Any | None:
        return self._decode(self.inner.get(key))

    def remove(self, key: str) -> Any | None:
        return self._decode(self.inner.remove(key))

    def local_write(self, key: str, value: Any) -> None:
        self.inner.local_write(key, self._encode(value))

    # ------------------------------------------------------------------
    # Direct peer access (replica copies are bytes like everything else)
    # ------------------------------------------------------------------

    def probe_get(self, key: str, peer_id: int) -> Any | None:
        return self._decode(self.inner.probe_get(key, peer_id))

    def put_at(self, key: str, value: Any, peer_id: int) -> None:
        self.inner.put_at(key, self._encode(value), peer_id)

    def remove_at(self, key: str, peer_id: int) -> Any | None:
        return self._decode(self.inner.remove_at(key, peer_id))

    def local_write_at(self, key: str, value: Any, peer_id: int) -> None:
        self.inner.local_write_at(key, self._encode(value), peer_id)

    # ------------------------------------------------------------------
    # Introspection (peek decodes too; the rest delegate)
    # ------------------------------------------------------------------

    def peek(self, key: str) -> Any | None:
        return self._decode(self.inner.peek(key))
