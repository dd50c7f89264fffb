"""Zero-copy shared-memory scene transport for the serving stack.

Before this module every served request round-tripped its payload the
slow way: :func:`repro.apps.executor.build_tile_tasks` copied each tile
slice out of the scene arrays and pickled them through the pool's task
pipe, so a client streaming requests over the *same* scene re-shipped the
whole image on every request.  :class:`SceneStore` removes that ceiling:

* the front-end publishes a scene's input arrays **once** into a
  ``multiprocessing.shared_memory`` segment, keyed by a content digest
  (SHA-256 over names, shapes, dtypes and raw bytes) — publishing the
  same scene again is a cache *hit* that ships zero bytes;
* tile tasks carry only a tiny picklable :class:`SceneTileRef`
  (``digest``, segment name, field table, ``(r0, r1, c0, c1)`` window)
  instead of copied arrays;
* workers attach to a segment lazily (:func:`fetch_tile`), cache the
  attachment in a bounded LRU, and copy out just their tile window — the
  scene bytes cross the process boundary through the page cache, not the
  pickle pipe.

Lifetime and hygiene contracts
------------------------------
* **Refcounted unlink.**  Every in-flight request holds one reference on
  its scene (taken by ``publish``/``checkout``, dropped by ``release`` in
  the scheduler's finalize path, ok/failed/cancelled alike).  The store
  itself holds one *cache* reference per resident scene (bounded LRU by
  count and bytes) and one *pin* per explicit ``put_scene`` handle.  A
  segment is unlinked exactly when its last reference drops.
* **Leak-proof teardown.**  ``close()`` unlinks every segment regardless
  of outstanding references (teardown is final), and a ``weakref``
  finalizer does the same if a store is dropped or the interpreter exits
  with scenes resident — no orphaned ``/dev/shm`` blocks and no
  ``resource_tracker`` "leaked shared_memory" noise from the parent.
* **Worker-death safety.**  Workers only ever *attach* (read-only use);
  a SIGKILL'd worker's mappings are reclaimed by the kernel and the
  parent still owns the unlink, so a crash mid-request leaks nothing.
  Worker attachments deliberately bypass ``SharedMemory`` in favour of a
  raw read-only ``shm_open`` + ``mmap``: attaching through
  ``SharedMemory`` registers the name with the *attaching* process's
  ``resource_tracker``, and either way that goes wrong — a worker forked
  before the parent's tracker existed spawns its own tracker, which
  "cleans up" the segment registration at worker exit and warns about
  leaks it never owned, while a worker sharing the parent's tracker
  (forkserver/spawn) would, if it *unregistered* to avoid that, erase
  the parent's registration and crash the shared tracker on the real
  unlink.  A plain mmap touches no tracker in any start method.
* **Isolation.**  ``fetch_tile`` returns tile *copies*; kernels never
  see shm-backed memory, so a (buggy) kernel mutating its inputs cannot
  corrupt the shared scene or other requests.
"""

from __future__ import annotations

import hashlib
import itertools
import mmap
import os
import secrets
import threading
import weakref
from collections import OrderedDict
from multiprocessing import shared_memory
from typing import Any, Dict, NamedTuple, Tuple

import numpy as np

try:   # CPython's POSIX shared-memory primitive (what SharedMemory wraps)
    import _posixshmem
except ImportError:  # pragma: no cover - non-POSIX platform
    _posixshmem = None

__all__ = ["SceneStore", "SceneTileRef", "SceneTicket", "scene_digest",
           "fetch_tile"]

#: Shared-memory segment names are ``<prefix>-<digest12>-<pid>-<token>`` —
#: greppable in ``/dev/shm`` so the hygiene tests can assert none outlive
#: their store.
SCENE_PREFIX = "repro-scene"


def scene_digest(inputs: Dict[str, np.ndarray]) -> str:
    """Content address of a scene: SHA-256 over names, dtypes, shapes, bytes.

    Field order is normalised (sorted by name) so two dicts with the same
    contents hash identically regardless of insertion order.
    """
    h = hashlib.sha256()
    for name in sorted(inputs):
        arr = np.ascontiguousarray(inputs[name])
        h.update(name.encode())
        h.update(str(arr.dtype).encode())
        h.update(str(arr.shape).encode())
        h.update(arr.data)
    return h.hexdigest()


class SceneTileRef(NamedTuple):
    """Picklable reference one tile task carries instead of copied arrays.

    ``fields`` is the scene's layout table: ``(name, offset, shape,
    dtype_str)`` per input array, all sharing one 2-D ``shape`` inside the
    segment named ``shm_name``.  ``window`` is the tile's ``(r0, r1, c0,
    c1)`` bounds; :func:`fetch_tile` resolves the reference in the worker.
    """

    digest: str
    shm_name: str
    fields: Tuple[Tuple[str, int, Tuple[int, ...], str], ...]
    window: Tuple[int, int, int, int]


class SceneTicket(NamedTuple):
    """Per-request scene-store accounting, recorded on the tile plan.

    ``digest`` names the scene reference the request must ``release``.
    ``hit`` says whether the scene bytes were already resident;
    ``bytes_shipped`` counts what actually crossed a process boundary for
    the scene — the full input bytes on a miss, zero on a hit.
    """

    digest: str
    hit: bool
    bytes_shipped: int


class _Scene:
    """One resident scene: its segment, layout, and reference counts."""

    __slots__ = ("shm", "fields", "shape", "nbytes", "refs", "cached",
                 "pins")

    def __init__(self, shm: shared_memory.SharedMemory,
                 fields: Tuple[Tuple[str, int, Tuple[int, ...], str], ...],
                 shape: Tuple[int, ...], nbytes: int) -> None:
        self.shm = shm
        self.fields = fields
        self.shape = shape
        self.nbytes = nbytes
        self.refs = 0      # in-flight requests holding this scene
        self.pins = 0      # explicit put_scene handles
        self.cached = False  # held by the store's LRU


def _unlink_quiet(shm: shared_memory.SharedMemory) -> None:
    try:
        shm.close()
    except BufferError:  # pragma: no cover - exported views at teardown
        pass
    try:
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - already gone
        pass


def _finalize_scenes(scenes: Dict[str, _Scene]) -> None:
    """Weakref/atexit fallback: unlink whatever the store still holds."""
    for scene in list(scenes.values()):
        _unlink_quiet(scene.shm)
    scenes.clear()


class SceneStore:
    """Content-addressed shared-memory store of served scene inputs.

    Parameters
    ----------
    max_cached_scenes / max_cached_bytes:
        Bounds on the cross-request cache (scenes kept resident after
        their last request finishes, so the next request over the same
        scene is a hit).  Pinned scenes (``put_scene`` handles) and
        scenes with requests in flight never count against eviction —
        only idle cached scenes are evicted, oldest first.

    Thread-safe: the serving client publishes from caller threads while
    the scheduler releases on its event loop.
    """

    def __init__(self, max_cached_scenes: int = 64,
                 max_cached_bytes: int = 256 * 1024 * 1024) -> None:
        if max_cached_scenes < 0 or max_cached_bytes < 0:
            raise ValueError("cache bounds must be >= 0")
        self.max_cached_scenes = max_cached_scenes
        self.max_cached_bytes = max_cached_bytes
        self._scenes: "OrderedDict[str, _Scene]" = OrderedDict()
        self._lock = threading.Lock()
        self._closed = False
        self._seq = itertools.count()
        # Counters (reported via stats(); the scheduler mirrors the
        # per-request ones into ServeMetrics).
        self.hits = 0
        self.misses = 0
        self.bytes_shipped = 0
        self._finalizer = weakref.finalize(self, _finalize_scenes,
                                           self._scenes)

    # ------------------------------------------------------------------
    # publish / checkout / release
    # ------------------------------------------------------------------
    def publish(self, inputs: Dict[str, np.ndarray]) -> SceneTicket:
        """Ensure a scene is resident; returns its ticket with one
        reference taken (the caller's request must ``release`` it)."""
        if not inputs:
            raise ValueError("cannot publish an empty scene")
        digest = scene_digest(inputs)
        with self._lock:
            self._ensure_open()
            scene = self._scenes.get(digest)
            if scene is not None:
                scene.refs += 1
                self._scenes.move_to_end(digest)
                self.hits += 1
                return SceneTicket(digest, True, 0)
            scene = self._create(digest, inputs)
            scene.refs = 1
            scene.cached = self.max_cached_scenes > 0
            self._scenes[digest] = scene
            self.misses += 1
            self.bytes_shipped += scene.nbytes
            self._evict()
            return SceneTicket(digest, False, scene.nbytes)

    def checkout(self, digest: str) -> Tuple[Tuple, Tuple[int, ...]]:
        """Take one reference on an already-resident scene by digest.

        Returns ``(fields, shape)`` so a tile plan can be built without
        the arrays.  Raises :class:`KeyError` with a client-readable
        message when the digest is unknown or already expired.
        """
        with self._lock:
            self._ensure_open()
            scene = self._scenes.get(digest)
            if scene is None:
                raise KeyError(
                    f"unknown or expired scene {digest!r}: publish it "
                    f"first (put_scene) or resend the inputs")
            scene.refs += 1
            self._scenes.move_to_end(digest)
            self.hits += 1
            return scene.fields, scene.shape

    def release(self, digest: str) -> None:
        """Drop one request reference; unlink when nothing holds the scene."""
        with self._lock:
            scene = self._scenes.get(digest)
            if scene is None:
                return
            scene.refs = max(0, scene.refs - 1)
            self._maybe_unlink(digest, scene)

    # ------------------------------------------------------------------
    # explicit handles (put_scene / drop_scene)
    # ------------------------------------------------------------------
    def pin(self, inputs: Dict[str, np.ndarray]) -> SceneTicket:
        """Publish and pin a scene: it stays resident until ``unpin``
        (or store close), regardless of LRU pressure."""
        ticket = self.publish(inputs)
        with self._lock:
            scene = self._scenes.get(ticket.digest)
            if scene is not None:
                scene.pins += 1
                scene.refs -= 1   # convert the publish ref into the pin
        return ticket

    def unpin(self, digest: str) -> None:
        with self._lock:
            scene = self._scenes.get(digest)
            if scene is None:
                return
            scene.pins = max(0, scene.pins - 1)
            self._maybe_unlink(digest, scene)

    # ------------------------------------------------------------------
    # introspection / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        with self._lock:
            resident = len(self._scenes)
            resident_bytes = sum(s.nbytes for s in self._scenes.values())
            pinned = sum(1 for s in self._scenes.values() if s.pins)
        lookups = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": (self.hits / lookups) if lookups else None,
            "bytes_shipped": self.bytes_shipped,
            "resident": resident,
            "resident_bytes": resident_bytes,
            "pinned": pinned,
        }

    @property
    def resident(self) -> int:
        with self._lock:
            return len(self._scenes)

    def close(self) -> None:
        """Unlink every segment.  Final: outstanding references are void
        (only reachable at teardown, when no new tiles will dispatch)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            _finalize_scenes(self._scenes)
        self._finalizer.detach()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "SceneStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # internals (call with the lock held)
    # ------------------------------------------------------------------
    def _ensure_open(self) -> None:
        if self._closed:
            raise RuntimeError("SceneStore is closed")

    def _create(self, digest: str, inputs: Dict[str, np.ndarray]) -> _Scene:
        arrays = {name: np.ascontiguousarray(arr)
                  for name, arr in inputs.items()}
        shapes = {a.shape for a in arrays.values()}
        if len(shapes) != 1:
            raise ValueError("scene inputs must share one shape")
        (shape,) = shapes
        fields = []
        offset = 0
        for name in sorted(arrays):
            arr = arrays[name]
            fields.append((name, offset, arr.shape, str(arr.dtype)))
            offset += arr.nbytes
        total = max(offset, 1)
        shm = self._new_segment(digest, total)
        for (name, off, fshape, dtype) in fields:
            view = np.ndarray(fshape, dtype=np.dtype(dtype),
                              buffer=shm.buf, offset=off)
            view[...] = arrays[name]
        return _Scene(shm, tuple(fields), shape, offset)

    def _new_segment(self, digest: str,
                     size: int) -> shared_memory.SharedMemory:
        for _ in range(16):
            name = (f"{SCENE_PREFIX}-{digest[:12]}-{os.getpid()}-"
                    f"{next(self._seq)}-{secrets.token_hex(2)}")
            try:
                return shared_memory.SharedMemory(name=name, create=True,
                                                  size=size)
            except FileExistsError:  # stale block from a killed run
                continue
        raise RuntimeError("could not allocate a scene segment name")

    def _maybe_unlink(self, digest: str, scene: _Scene) -> None:
        if scene.refs <= 0 and scene.pins <= 0 and not scene.cached:
            del self._scenes[digest]
            _unlink_quiet(scene.shm)

    def _evict(self) -> None:
        """Evict idle cached scenes (oldest first) past the LRU bounds."""
        def over() -> bool:
            cached = [s for s in self._scenes.values() if s.cached]
            return (len(cached) > self.max_cached_scenes
                    or sum(s.nbytes for s in cached) > self.max_cached_bytes)
        while over():
            victim = next((d for d, s in self._scenes.items()
                           if s.cached and s.refs <= 0 and s.pins <= 0),
                          None)
            if victim is None:   # everything busy/pinned: nothing evictable
                break
            scene = self._scenes[victim]
            scene.cached = False
            self._maybe_unlink(victim, scene)

    # ------------------------------------------------------------------
    # plan-side helpers
    # ------------------------------------------------------------------
    def tile_ref(self, digest: str,
                 window: Tuple[int, int, int, int]) -> SceneTileRef:
        """Build one tile's reference (the caller holds a reference)."""
        with self._lock:
            scene = self._scenes[digest]
            return SceneTileRef(digest, scene.shm.name, scene.fields,
                                window)


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
class _Attachment:
    """Read-only mapping of one scene segment, tracker-neutral.

    On POSIX this maps the segment with raw ``shm_open`` + ``mmap``
    (see the module docstring for why attaching through ``SharedMemory``
    would poison the ``resource_tracker`` in one start method or
    another).  Windows has no resource tracker for shared memory, so the
    ``SharedMemory`` fallback there is already safe.
    """

    __slots__ = ("name", "buf", "_shm")

    def __init__(self, name: str) -> None:
        self.name = name
        if _posixshmem is not None:
            self._shm = None
            fd = _posixshmem.shm_open("/" + name, os.O_RDONLY, mode=0o600)
            try:
                size = os.fstat(fd).st_size
                self.buf = mmap.mmap(fd, size, prot=mmap.PROT_READ)
            finally:
                os.close(fd)
        else:  # pragma: no cover - non-POSIX platform
            self._shm = shared_memory.SharedMemory(name=name)
            self.buf = self._shm.buf

    def close(self) -> None:
        if self._shm is not None:  # pragma: no cover - non-POSIX platform
            self._shm.close()
        else:
            self.buf.close()


#: Bounded LRU of segment attachments, keyed by segment name.  An entry
#: is just the mapping — ndarray views are created per task and dropped
#: immediately, so eviction can always close the mapping without
#: tripping over exported buffers.
_ATTACHMENTS: "OrderedDict[str, _Attachment]" = OrderedDict()
_MAX_ATTACHMENTS = 32


def _attach(shm_name: str) -> _Attachment:
    att = _ATTACHMENTS.get(shm_name)
    if att is not None:
        _ATTACHMENTS.move_to_end(shm_name)
        return att
    att = _Attachment(shm_name)
    _ATTACHMENTS[shm_name] = att
    while len(_ATTACHMENTS) > _MAX_ATTACHMENTS:
        _, old = _ATTACHMENTS.popitem(last=False)
        try:
            old.close()
        except BufferError:  # pragma: no cover - defensive
            pass
    return att


def fetch_tile(ref: SceneTileRef) -> Dict[str, np.ndarray]:
    """Resolve one tile reference into named 1-D arrays (worker side).

    Attaches to the scene segment (cached across tasks of the same
    worker), then copies out just the tile window per field — the copy
    both isolates the kernel from the shared bytes and matches the copy
    mode's ``.copy().ravel()`` layout bit for bit.
    """
    att = _attach(ref.shm_name)
    r0, r1, c0, c1 = ref.window
    out = {}
    for (name, offset, shape, dtype) in ref.fields:
        view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=att.buf,
                          offset=offset)
        out[name] = view[r0:r1, c0:c1].copy().ravel()
    return out

