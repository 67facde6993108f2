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

A layer above that writes one value to several holders (the replica
fan-out) encodes it once through :meth:`SerializingDHT.encoded` and
hands each holder the same :class:`Encoded` payload, which this layer
passes through as the bytes it stores.
"""

from __future__ import annotations

import pickle
from typing import Any

from repro.dht.base import DHT
from repro.dht.kernel import DelegatingDHT, stack_layers

__all__ = ["Encoded", "SerializingDHT", "serializing_layer"]


def serializing_layer(dht: DHT) -> "SerializingDHT | None":
    """The outermost byte layer of a wrapper stack, or ``None``."""
    for layer in stack_layers(dht):
        if isinstance(layer, SerializingDHT):
            return layer
    return None


class Encoded:
    """A value already encoded by a :class:`SerializingDHT`: that layer
    stores ``payload`` as is instead of pickling the value again."""

    __slots__ = ("payload",)

    def __init__(self, payload: bytes) -> None:
        self.payload = payload


class SerializingDHT(DelegatingDHT):
    """Wrap a substrate so all values are stored in serialized form."""

    def __init__(self, inner: DHT) -> None:
        super().__init__(inner)
        #: Payload bytes handed to the substrate: one payload per write.
        self.bytes_written = 0

    @staticmethod
    def encoded(value: Any) -> Encoded:
        """``value``'s payload, for a caller that writes it to several
        holders: one encoding, passed through by every write here."""
        if type(value) is Encoded:
            return value
        return Encoded(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))

    def _encode(self, value: Any) -> bytes:
        payload = self.encoded(value).payload
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
