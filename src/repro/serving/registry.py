"""Named, versioned model storage that materialises programmed engines.

The registry is the serving layer's source of truth for *what* can be
served.  Models are persisted through :mod:`repro.io.serialize` — one
plain-JSON artifact per version under ``root/<name>/v<NNNN>.json`` — so
a registry directory survives process restarts and can be shipped
between machines like any other artifact directory.

Materialisation is the expensive half: programming a crossbar replays
the whole pulse-train write sequence.  :meth:`ModelRegistry.get_engine`
therefore keeps a small LRU cache of *programmed* engines keyed by
``(name, version, max_rows, seed)``; re-registering a name invalidates
every cached engine of that name so stale weights can never serve a
request after an update.
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.backends.registry import get_backend_class
from repro.core.engine import FeBiMEngine
from repro.core.quantization import QuantizedBayesianModel
from repro.crossbar.tiling import TiledFeBiM
from repro.devices.fefet import MultiLevelCellSpec
from repro.io.serialize import DEFAULT_BACKEND, load_artifact, save_model
from repro.utils.rng import RngLike
from repro.utils.validation import check_positive_int

#: Registered names must be filesystem- and URL-safe.
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")

_VERSION_RE = re.compile(r"^v(\d{4,})\.json$")


def _check_name(name: str) -> str:
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise ValueError(
            "model name must be 1-64 chars of [A-Za-z0-9._-] starting "
            f"alphanumeric, got {name!r}"
        )
    return name


class ModelRegistry:
    """Versioned quantised-model store with an LRU of programmed engines.

    Parameters
    ----------
    root:
        Directory holding the artifacts (created if missing).
    engine_cache_size:
        Maximum number of programmed engines kept alive at once.  The
        cache evicts least-recently-used; an evicted engine is simply
        re-programmed on the next request for it.
    backend:
        The array technology this registry serves (a
        :mod:`repro.backends` registry name; ``"fefet"`` by default).
        Every registration stamps the artifact with it, and
        :meth:`load` *rejects* an artifact registered for a different
        backend instead of silently programming the wrong array type.
        Artifacts written before the field existed count as
        ``"fefet"``.
    backend_options:
        Extra backend constructor arguments applied to every engine
        this registry materialises (e.g. ``{"n_cycles": 255}`` for a
        memristor registry).  Part of the registry's serving
        configuration, like ``backend`` itself: models validated on a
        non-default configuration must be served by a registry opened
        with the same options.

    Notes
    -----
    All public methods are thread-safe: the serving scheduler resolves
    engines from its worker thread while registrations arrive from
    others.  Engine construction itself happens *outside* the registry
    lock so a slow programming pass never blocks registrations — the
    only consequence is that two concurrent first requests for the same
    engine may both program it, with one result winning the cache slot.
    """

    def __init__(
        self,
        root: Union[str, Path],
        engine_cache_size: int = 8,
        backend: str = DEFAULT_BACKEND,
        backend_options: Optional[dict] = None,
    ):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.engine_cache_size = check_positive_int(
            engine_cache_size, "engine_cache_size"
        )
        get_backend_class(backend)  # fail fast on unknown names
        self.backend = str(backend)
        self.backend_options = dict(backend_options or {})
        self._lock = threading.RLock()
        self._engines: "OrderedDict[tuple, object]" = OrderedDict()
        # latest-version cache: version=None resolution sits on the
        # serving hot path (every submit routes through it), and a
        # directory scan per request is a syscall tax the scheduler
        # shouldn't pay.  Maintained by register()/unregister() and
        # dropped by invalidate(); registrations made by *other
        # processes* become visible after invalidate(name).
        self._latest: Dict[str, int] = {}
        # Invalidation stamps (see generation()): per name, plus an
        # epoch that invalidate() of every name moves.
        self._generations: Dict[str, int] = {}
        self._epoch = 0

    # ---------------------------------------------------------- persistence
    def _model_dir(self, name: str) -> Path:
        return self.root / _check_name(name)

    def register(
        self,
        name: str,
        model: QuantizedBayesianModel,
        spec: Optional[MultiLevelCellSpec] = None,
    ) -> int:
        """Persist ``model`` as the next version of ``name``.

        Returns the new version number (1 for a first registration).
        Any cached engines for ``name`` — all versions — are dropped, so
        subsequent ``version=None`` lookups serve the new weights.
        """
        _check_name(name)
        with self._lock:
            directory = self._model_dir(name)
            directory.mkdir(parents=True, exist_ok=True)
            version = (self.versions(name)[-1] + 1) if self.versions(name) else 1
            save_model(
                directory / f"v{version:04d}.json",
                model,
                spec,
                backend=self.backend,
            )
            self._invalidate_locked(name)
            self._latest[name] = version
        return version

    def versions(self, name: str) -> List[int]:
        """Registered version numbers of ``name``, ascending (may be [])."""
        directory = self._model_dir(name)
        if not directory.is_dir():
            return []
        found = []
        for entry in directory.iterdir():
            match = _VERSION_RE.match(entry.name)
            if match:
                found.append(int(match.group(1)))
        return sorted(found)

    def latest_version(self, name: str) -> int:
        """The highest registered version of ``name`` (cached).

        Raises
        ------
        KeyError
            If ``name`` has no registered versions.
        """
        with self._lock:
            cached = self._latest.get(name)
            if cached is not None:
                return cached
            versions = self.versions(name)
            if not versions:
                raise KeyError(f"no model registered under {name!r}")
            self._latest[name] = versions[-1]
            return versions[-1]

    def list_models(self) -> Dict[str, List[int]]:
        """Every registered name mapped to its version list."""
        out = {}
        for entry in sorted(self.root.iterdir()):
            if entry.is_dir() and self.versions(entry.name):
                out[entry.name] = self.versions(entry.name)
        return out

    def load(
        self,
        name: str,
        version: Optional[int] = None,
        *,
        backend: Optional[str] = None,
    ) -> Tuple[QuantizedBayesianModel, MultiLevelCellSpec]:
        """Load ``(model, spec)`` for a version (latest by default).

        ``backend`` names the technology the caller will program the
        model onto.  Left ``None`` (the legacy form) it defaults to the
        registry's own backend and the artifact's registered backend
        must match it; passing it explicitly is the deployment path —
        a replica spec naming a different technology than the artifact
        was registered for is an *explicit* cross-technology decision
        (written into the deployment by an operator), so the pin check
        is waived.

        Raises
        ------
        ValueError
            If the artifact was registered for a different backend than
            this registry serves (and no explicit override was given) —
            programming a model quantised for one array technology onto
            another must be an explicit decision, never an accident of
            sharing a directory.
        """
        version = self.resolve_version(name, version)
        path = self._model_dir(name) / f"v{version:04d}.json"
        if not path.is_file():
            raise KeyError(f"model {name!r} has no version {version}")
        model, spec, artifact = load_artifact(path)
        if backend is None and artifact != self.backend:
            raise ValueError(
                f"model {name!r} v{version} was registered for backend "
                f"{artifact!r} but this registry serves {self.backend!r}; "
                f"open the registry with backend={artifact!r}, re-register "
                f"the model, or name the backend explicitly in a "
                f"deployment replica spec"
            )
        return model, spec

    def unregister(self, name: str) -> None:
        """Delete every version of ``name`` and its cached engines."""
        with self._lock:
            directory = self._model_dir(name)
            for version in self.versions(name):
                (directory / f"v{version:04d}.json").unlink()
            if directory.is_dir() and not any(directory.iterdir()):
                directory.rmdir()
            self._invalidate_locked(name)

    def resolve_version(self, name: str, version: Optional[int]) -> int:
        if version is None:
            return self.latest_version(name)
        return int(version)

    # -------------------------------------------------------- materialisation
    def get_engine(
        self,
        name: str,
        version: Optional[int] = None,
        *,
        max_rows: Optional[int] = None,
        seed: RngLike = None,
        backend: Optional[str] = None,
        backend_options: Optional[dict] = None,
        fresh: bool = False,
    ):
        """A programmed engine for ``name``/``version`` (latest by default).

        ``fresh=True`` skips the cache *read* and materialises anew —
        the replacement rung of the repair ladders.  The replacement
        takes over the cache slot, so later lookups of the same
        configuration serve the new hardware; other cached engines of
        the model are untouched (unlike :meth:`invalidate`).

        Returns a flat :class:`FeBiMEngine`, or a
        :class:`~repro.crossbar.tiling.TiledFeBiM` when ``max_rows`` is
        given (hierarchical WTA for many-class models).

        ``backend``/``backend_options`` override the registry's serving
        configuration for this engine only — the deployment path, where
        each replica names its own technology (see
        :meth:`load` for the pin-check semantics).  Left ``None`` they
        resolve to the registry defaults, so a single-replica
        deployment on the registry backend shares the *same cache
        entry* (and therefore the same programmed engine object) as a
        lookup without overrides.

        Engines are built with the default variation model, circuit
        parameters and mirror gain, and cached (LRU) when the
        configuration is hashable and reproducible: ``seed`` of
        ``None``/``int`` and hashable backend options.  Any other
        configuration builds a fresh uncached engine — a Generator seed
        has stream position, so caching it would serve different noise
        than a fresh materialisation.
        """
        version = self.resolve_version(name, version)
        backend_name = self.backend if backend is None else str(backend)
        options = dict(
            self.backend_options if backend_options is None else backend_options
        )
        try:
            options_key = tuple(sorted(options.items()))
            hash(options_key)
        except TypeError:
            options_key = None  # unhashable option values: uncacheable
        cacheable = (
            (seed is None or isinstance(seed, int)) and options_key is not None
        )
        key = (name, version, max_rows, seed, backend_name, options_key)
        if cacheable and not fresh:
            with self._lock:
                if key in self._engines:
                    self._engines.move_to_end(key)
                    return self._engines[key]

        model, spec = self.load(name, version, backend=backend)
        if max_rows is None:
            engine = FeBiMEngine(
                model,
                spec=spec,
                seed=seed,
                backend=backend_name,
                backend_options=options,
            )
        else:
            engine = TiledFeBiM(
                model,
                max_rows=max_rows,
                spec=spec,
                seed=seed,
                backend=backend_name,
                backend_options=options,
            )
        if cacheable:
            with self._lock:
                self._engines[key] = engine
                self._engines.move_to_end(key)
                while len(self._engines) > self.engine_cache_size:
                    self._engines.popitem(last=False)
        return engine

    # ------------------------------------------------------------ cache admin
    def _invalidate_locked(self, name: str) -> None:
        self._generations[name] = self._generations.get(name, 0) + 1
        self._latest.pop(name, None)
        for key in [k for k in self._engines if k[0] == name]:
            del self._engines[key]

    def invalidate(self, name: Optional[str] = None) -> None:
        """Drop cached engines and version lookups for ``name`` (all
        names when ``None``) — e.g. after another process wrote into
        the registry directory."""
        with self._lock:
            if name is None:
                self._epoch += 1
                self._engines.clear()
                self._latest.clear()
            else:
                self._invalidate_locked(name)

    def generation(self, name: str) -> tuple:
        """A stamp that changes whenever ``name``'s engines are
        invalidated (:meth:`register`, :meth:`unregister`,
        :meth:`invalidate`): holders of engines built outside the cache
        compare it to know when to rebuild."""
        return self._epoch, self._generations.get(name, 0)

    def cached_engines(self) -> List[tuple]:
        """Cache keys currently alive, least- to most-recently used."""
        with self._lock:
            return list(self._engines)

    def __contains__(self, name: str) -> bool:
        return bool(self.versions(name))

    def __repr__(self) -> str:
        return (
            f"ModelRegistry({str(self.root)!r}, backend={self.backend!r}, "
            f"{len(self.list_models())} models, "
            f"{len(self._engines)}/{self.engine_cache_size} engines cached)"
        )
