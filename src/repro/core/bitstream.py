"""Stochastic bit-stream container.

In stochastic computing (SC) a value ``x`` in ``[0, 1]`` is represented by a
random bit-stream in which the probability of observing a '1' equals ``x``
(unipolar encoding).  This module provides :class:`Bitstream`, a thin,
vectorised wrapper whose *last axis* is the stream (bit) dimension.  A
``Bitstream`` can therefore hold a single stream, a vector of streams (e.g.
one per image pixel) or an arbitrary n-d batch.

Execution backends
------------------
How the bits are *stored and executed* is delegated to a pluggable
:class:`~repro.core.backend.ExecutionBackend` chosen at construction time
from the backend registry:

* ``unpacked`` (default) — one ``uint8`` byte per bit; zero conversion
  cost, and ``.bits`` is a free view of the payload.
* ``packed`` — 64 bits per ``uint64`` word in ``numpy.packbits`` order with
  a canonical zero tail; bulk logic, popcount-based value recovery and SNG
  comparator output all run on words, moving 8x less memory.

Select globally with the ``REPRO_BACKEND`` environment variable (or the
``--backend`` CLI flag), programmatically with
:func:`repro.core.backend.set_backend` /
:func:`~repro.core.backend.use_backend`, or per-stream via the ``backend=``
constructor argument.  All public APIs — including ``.bits``, which unpacks
on demand and caches — behave identically under every backend;
``tests/test_backend_equivalence.py`` asserts bit-exact agreement op by op.
To add a third backend, subclass ``ExecutionBackend``, register it, and run
that suite against its name (see :mod:`repro.core.backend`).

Batched word-domain execution
-----------------------------
The application kernels and the in-memory engine work on whole operand
stacks without leaving the payload layout: :meth:`Bitstream.select`
slices batch axes of the payload (a ``(k, n_pixels, N)`` stack splits into
per-role streams), :meth:`Bitstream.compare` / :meth:`Bitstream.constant`
build comparator output and per-element constant streams, and
:meth:`Bitstream.flip` / :meth:`Bitstream.flip_at` XOR fault masks or
scattered fault sites into the payload.  ``.bits``, ``__getitem__``
(which may index the stream axis), ``concat`` and operands from a
different backend unpack; none of them is on the kernel hot path.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Union

import numpy as np

from .backend import ExecutionBackend, get_backend

__all__ = ["Bitstream"]

ArrayLike = Union[np.ndarray, Sequence[int], Sequence[Sequence[int]]]


def _resolve(backend: Union[ExecutionBackend, str, None]) -> ExecutionBackend:
    """A backend instance, a registry name, or ``None`` for the active one."""
    if isinstance(backend, ExecutionBackend):
        return backend
    return get_backend(backend)


def _as_bits(data: ArrayLike) -> np.ndarray:
    """Coerce ``data`` into a contiguous uint8 array of 0/1 values."""
    arr = np.asarray(data)
    if arr.dtype == np.bool_:
        arr = arr.astype(np.uint8)
    if not np.issubdtype(arr.dtype, np.integer):
        raise TypeError(
            f"bit-stream data must be integer or boolean, got dtype {arr.dtype}"
        )
    arr = arr.astype(np.uint8, copy=False)
    if arr.size and (arr.max() > 1):
        raise ValueError("bit-stream data must contain only 0s and 1s")
    return np.ascontiguousarray(arr)


class Bitstream:
    """An n-dimensional batch of stochastic bit-streams.

    Parameters
    ----------
    bits:
        Array-like of 0/1 values.  The last axis is the stream length ``N``;
        leading axes are batch dimensions.
    backend:
        Execution backend instance or registry name; defaults to the active
        backend (see :mod:`repro.core.backend`).

    Examples
    --------
    >>> bs = Bitstream([1, 0, 1, 0, 1])
    >>> bs.length
    5
    >>> float(bs.value())
    0.6
    """

    __slots__ = ("_backend", "_data", "_length", "_bits_cache")

    def __init__(self, bits: ArrayLike,
                 backend: Union[ExecutionBackend, str, None] = None):
        arr = _as_bits(bits)
        if arr.ndim == 0:
            arr = arr.reshape(1)
        be = _resolve(backend)
        self._backend = be
        self._length = arr.shape[-1]
        self._data = be.pack(arr)
        self._bits_cache = self._data if be.stores_bits else None

    @classmethod
    def _from_payload(cls, data: np.ndarray, length: int,
                      backend: ExecutionBackend) -> "Bitstream":
        """Wrap an already-canonical backend payload (no validation)."""
        obj = cls.__new__(cls)
        obj._backend = backend
        obj._data = data
        obj._length = length
        obj._bits_cache = data if backend.stores_bits else None
        return obj

    def _payload_for(self, backend: ExecutionBackend) -> np.ndarray:
        """This stream's payload converted to ``backend``'s layout."""
        if self._backend is backend:
            return self._data
        return backend.pack(self.bits)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def zeros(cls, shape: Union[int, tuple],
              backend: Union[ExecutionBackend, str, None] = None) -> "Bitstream":
        """All-zero stream(s) representing probability 0."""
        shape = (shape,) if isinstance(shape, (int, np.integer)) else tuple(shape)
        be = _resolve(backend)
        return cls._from_payload(be.zeros(shape[:-1], shape[-1]), shape[-1], be)

    @classmethod
    def ones(cls, shape: Union[int, tuple],
             backend: Union[ExecutionBackend, str, None] = None) -> "Bitstream":
        """All-one stream(s) representing probability 1."""
        shape = (shape,) if isinstance(shape, (int, np.integer)) else tuple(shape)
        be = _resolve(backend)
        return cls._from_payload(be.ones(shape[:-1], shape[-1]), shape[-1], be)

    @classmethod
    def from_bool(cls, mask: np.ndarray,
                  backend: Union[ExecutionBackend, str, None] = None
                  ) -> "Bitstream":
        """Build directly from a boolean array (comparator fast path).

        SNG generation ends in a vectorised comparison; this constructor
        hands the boolean result straight to the backend, which packs it
        without materialising an intermediate uint8 copy.
        """
        arr = np.asarray(mask)
        if arr.dtype != np.bool_:
            arr = arr.astype(np.bool_)
        if arr.ndim == 0:
            arr = arr.reshape(1)
        be = _resolve(backend)
        return cls._from_payload(be.from_bool(arr), arr.shape[-1], be)

    @classmethod
    def constant(cls, bits: np.ndarray, length: int,
                 backend: Union[ExecutionBackend, str, None] = None
                 ) -> "Bitstream":
        """Per-element constant streams: all-ones where ``bits`` is 1.

        This is the word-domain form of broadcasting an operand bit-plane
        along the stream axis (one payload row per element instead of
        ``length`` repeated bits), used by the faulty IMSNG scan.
        """
        be = _resolve(backend)
        sel = np.asarray(bits) != 0
        data = np.where(sel[..., None], be.ones((), length),
                        be.zeros((), length))
        return cls._from_payload(data, length, be)

    @classmethod
    def compare(cls, codes: np.ndarray, rn: np.ndarray,
                backend: Union[ExecutionBackend, str, None] = None
                ) -> "Bitstream":
        """Batched SNG comparator: stream bit ``j`` is 1 iff ``codes > rn_j``.

        ``rn`` carries the stream axis last and broadcasts against
        ``codes[..., None]`` — one vectorised greater-than over the whole
        operand batch, packed straight into the payload.
        """
        return cls.from_bool(np.asarray(codes)[..., None] > rn, backend)

    @classmethod
    def from_packed(cls, packed: np.ndarray, length: int,
                    backend: Union[ExecutionBackend, str, None] = None
                    ) -> "Bitstream":
        """Rebuild a stream batch from ``numpy.packbits`` output.

        Parameters
        ----------
        packed:
            Array produced by :meth:`packed`; last axis holds packed bytes
            (exactly ``ceil(length / 8)`` of them).
        length:
            Original (unpacked) stream length ``N``.

        Stray bits beyond ``length`` inside the final byte are ignored, so
        ``Bitstream.from_packed(bs.packed(), bs.length) == bs`` round-trips
        exactly for every length, including non-multiples of 8.
        """
        arr = np.ascontiguousarray(packed, dtype=np.uint8)
        if arr.ndim == 0:
            arr = arr.reshape(1)
        if length < 1:
            raise ValueError("length must be a positive integer")
        n_bytes = (length + 7) // 8
        if arr.shape[-1] != n_bytes:
            raise ValueError(
                f"packed last axis has {arr.shape[-1]} bytes, but length "
                f"{length} requires exactly {n_bytes}")
        be = _resolve(backend)
        return cls._from_payload(be.from_packed_bytes(arr, length), length, be)

    @classmethod
    def bernoulli(
        cls,
        p: Union[float, np.ndarray],
        length: int,
        rng: Union[np.random.Generator, int, None] = None,
    ) -> "Bitstream":
        """Draw i.i.d. Bernoulli streams with per-element probability ``p``.

        This is the idealised "software SNG": each bit is an independent coin
        flip.  ``p`` may be a scalar or an array; the result has shape
        ``p.shape + (length,)``.
        """
        gen = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
        prob = np.asarray(p, dtype=np.float64)
        if np.any((prob < 0) | (prob > 1)):
            raise ValueError("probabilities must lie in [0, 1]")
        u = gen.random(prob.shape + (length,))
        return cls.from_bool(u < prob[..., None])

    # ------------------------------------------------------------------
    # Views and basic properties
    # ------------------------------------------------------------------
    @property
    def backend(self) -> ExecutionBackend:
        """The execution backend storing and operating on this stream."""
        return self._backend

    @property
    def bits(self) -> np.ndarray:
        """Unpacked uint8 array of 0/1 values (last axis = stream).

        Under the ``unpacked`` backend this is the live payload; other
        backends unpack on first access and cache the result.  That cache is
        marked read-only — writing through it cannot reach the packed
        payload, so mutation raises instead of silently desynchronising.
        """
        if self._bits_cache is None:
            cache = self._backend.unpack(self._data, self._length)
            cache.setflags(write=False)
            self._bits_cache = cache
        return self._bits_cache

    @property
    def length(self) -> int:
        """Stream length ``N`` (size of the last axis)."""
        return self._length

    @property
    def batch_shape(self) -> tuple:
        """Shape of the batch dimensions (everything but the last axis)."""
        return self._data.shape[:-1]

    @property
    def shape(self) -> tuple:
        return self._data.shape[:-1] + (self._length,)

    def packed(self) -> np.ndarray:
        """Pack the stream into bytes along the last axis (MSB first)."""
        return self._backend.to_packed_bytes(self._data, self._length)

    def copy(self) -> "Bitstream":
        return Bitstream._from_payload(self._data.copy(), self._length,
                                       self._backend)

    # ------------------------------------------------------------------
    # Value recovery
    # ------------------------------------------------------------------
    def popcount(self) -> np.ndarray:
        """Number of '1's per stream (integer array of batch shape)."""
        return self._backend.popcount(self._data, self._length)

    def value(self) -> np.ndarray:
        """Estimated unipolar value = popcount / N, per stream."""
        return self._backend.mean(self._data, self._length)

    def bipolar_value(self) -> np.ndarray:
        """Estimated bipolar value = 2*P(1) - 1, per stream."""
        return 2.0 * self.value() - 1.0

    # ------------------------------------------------------------------
    # Logic (the SC arithmetic primitives operate via the backend; these
    # dunder helpers make interactive exploration pleasant)
    # ------------------------------------------------------------------
    def _binary(self, other: "Bitstream", op: str) -> "Bitstream":
        if not isinstance(other, Bitstream):
            raise TypeError("expected a Bitstream operand")
        if other.length != self.length:
            raise ValueError(
                f"stream length mismatch: {self.length} vs {other.length}"
            )
        be = self._backend
        fn = getattr(be, op)
        return Bitstream._from_payload(
            fn(self._data, other._payload_for(be)), self._length, be)

    def __and__(self, other: "Bitstream") -> "Bitstream":
        return self._binary(other, "bitwise_and")

    def __or__(self, other: "Bitstream") -> "Bitstream":
        return self._binary(other, "bitwise_or")

    def __xor__(self, other: "Bitstream") -> "Bitstream":
        return self._binary(other, "bitwise_xor")

    def __invert__(self) -> "Bitstream":
        return Bitstream._from_payload(
            self._backend.bitwise_not(self._data, self._length),
            self._length, self._backend)

    @staticmethod
    def mux(sel: "Bitstream", a: "Bitstream", b: "Bitstream") -> "Bitstream":
        """Backend-routed 2-to-1 MUX: per bit, ``b`` where ``sel`` else ``a``."""
        if not (sel.length == a.length == b.length):
            raise ValueError("stream lengths differ")
        be = sel._backend
        data = be.mux2(sel._data, a._payload_for(be), b._payload_for(be),
                       sel._length)
        return Bitstream._from_payload(data, sel._length, be)

    @staticmethod
    def maj(a: "Bitstream", b: "Bitstream", c: "Bitstream") -> "Bitstream":
        """Backend-routed 3-input majority ``ab + ac + bc`` (bit-wise)."""
        if not (a.length == b.length == c.length):
            raise ValueError("stream lengths differ")
        be = a._backend
        data = be.maj3(a._data, b._payload_for(be), c._payload_for(be))
        return Bitstream._from_payload(data, a._length, be)

    @staticmethod
    def exact_count(streams: Sequence["Bitstream"]) -> "list[Bitstream]":
        """One-hot count indicators over parallel stream batches.

        Given ``d`` equal-shape batches, returns ``d + 1`` batches
        ``E[0] .. E[d]`` where bit ``j`` of ``E[k]`` is 1 iff *exactly*
        ``k`` of the inputs have bit ``j`` set — the symmetric function
        behind the Bernstein MUX network (the select population count of
        :func:`repro.apps.filters.gamma_correct_sc`).  Evaluated by
        word-domain dynamic programming (two ANDs + an OR per input and
        count), so packed payloads never unpack.
        """
        group = list(streams)
        if not group:
            raise ValueError("exact_count needs at least one stream batch")
        first = group[0]
        e = [Bitstream.ones(first.shape, first._backend)]
        for x in group:
            nx = ~x
            nxt = [e[0] & nx]
            nxt.extend((e[k] & nx) | (e[k - 1] & x) for k in range(1, len(e)))
            nxt.append(e[-1] & x)
            e = nxt
        return e

    def flip(self, mask: np.ndarray) -> "Bitstream":
        """XOR a boolean per-bit fault mask into the payload.

        The mask lives in the bit domain (shape ``batch + (length,)``, as
        sampled by the fault model); it is packed once and applied as a
        word-domain XOR, so the stream data itself never unpacks.
        """
        return self ^ Bitstream.from_bool(mask, self._backend)

    def flip_at(self, flat_sites: np.ndarray) -> "Bitstream":
        """XOR-flip individual bits addressed by flat bit-domain indices.

        ``flat_sites`` indexes the C-order bit view ``batch_shape +
        (length,)`` (site ``i`` is bit ``i % length`` of batch element
        ``i // length``).  Duplicate sites cancel pairwise — XOR semantics,
        matching :meth:`flip` of a mask with those bits set.  This is the
        sparse fault path: the engine draws the flip *count* from a
        Binomial and scatters that many sites straight into the payload,
        instead of materialising a full ``shape``-sized Bernoulli mask.
        """
        sites = np.asarray(flat_sites, dtype=np.int64).reshape(-1)
        if sites.size == 0:
            return self
        n_sites = int(np.prod(self.shape))
        if sites.min() < 0 or sites.max() >= n_sites:
            raise IndexError(
                f"flip sites must lie in [0, {n_sites}) for shape "
                f"{self.shape}")
        return Bitstream._from_payload(
            self._backend.scatter_flip(self._data, sites, self._length),
            self._length, self._backend)

    # ------------------------------------------------------------------
    # Structural ops
    # ------------------------------------------------------------------
    def __getitem__(self, idx) -> "Bitstream":
        return Bitstream(self.bits[idx], backend=self._backend)

    def select(self, index) -> "Bitstream":
        """Slice batch axes directly on the payload (no unpacking).

        ``index`` may be anything that indexes the *leading* axes of an
        ndarray (ints, slices, tuples thereof); unlike :meth:`__getitem__`
        the stream axis is never indexed, which is what lets a generated
        ``(k, n_pixels, N)`` operand stack split into per-role streams
        without leaving the word domain.
        """
        data = self._data[index]
        if data.ndim == 0 or data.shape[-1:] != self._data.shape[-1:]:
            raise IndexError("select() must preserve the storage axis")
        return Bitstream._from_payload(data, self._length, self._backend)

    def roll(self, shift: int) -> "Bitstream":
        """Circularly rotate every stream by ``shift`` bit positions.

        Rotation is the classic zero-cost decorrelation trick: it preserves
        the encoded value exactly while destroying bit-level alignment with
        other streams generated from the same random source.
        """
        return Bitstream._from_payload(
            self._backend.roll(self._data, shift, self._length),
            self._length, self._backend)

    def reshape(self, *batch_shape: int) -> "Bitstream":
        """Reshape batch dimensions, keeping the stream axis untouched."""
        return Bitstream._from_payload(
            self._backend.batch_reshape(self._data, tuple(batch_shape),
                                        self._length),
            self._length, self._backend)

    def concat(self, other: "Bitstream") -> "Bitstream":
        """Concatenate along the stream axis (doubling resolution)."""
        if self.batch_shape != other.batch_shape:
            raise ValueError("batch shapes must match for concat")
        return Bitstream(np.concatenate([self.bits, other.bits], axis=-1),
                         backend=self._backend)

    @staticmethod
    def stack(streams: Iterable["Bitstream"]) -> "Bitstream":
        """Stack equal-length streams into a new leading batch axis."""
        group = list(streams)
        if not group:
            raise ValueError("cannot stack zero streams")
        first = group[0]
        be = first._backend
        if all(s._backend is be and s.length == first.length for s in group):
            return Bitstream._from_payload(
                be.batch_stack([s._data for s in group]), first.length, be)
        mats = [s.bits for s in group]
        return Bitstream(np.stack(mats, axis=0), backend=be)

    # ------------------------------------------------------------------
    # Comparison / repr
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bitstream):
            return NotImplemented
        if self.shape != other.shape:
            return False
        if self._backend is other._backend:
            return bool(np.array_equal(self._data, other._data))
        return bool(np.array_equal(self.bits, other.bits))

    def __hash__(self):  # pragma: no cover - mutable container
        raise TypeError("Bitstream is not hashable")

    def __len__(self) -> int:
        return self.shape[0]

    def __repr__(self) -> str:
        if self._data.ndim == 1 and self.length <= 32:
            body = "".join(str(int(b)) for b in self.bits)
            return f"Bitstream('{body}', value={self.value():.4f})"
        return (
            f"Bitstream(batch={self.batch_shape}, N={self.length}, "
            f"mean_value={float(np.mean(self.value())):.4f})"
        )
