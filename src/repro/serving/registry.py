"""Named, versioned model storage that materialises programmed engines.

The registry is the serving layer's source of truth for *what* can be
served.  Models are persisted through :mod:`repro.io.serialize` — one
plain-JSON artifact per version under ``root/<name>/v<NNNN>.json`` — so
a registry directory survives process restarts and can be shipped
between machines like any other artifact directory.

Materialisation programs a crossbar: :meth:`ModelRegistry.get_engine`
replays the whole pulse-train write sequence on every call, and the
caller owns the array it gets back.  In the serving layer that caller is
a replica's host, so each programmed array has one owner, whose canary
baseline, wear ledger and heal ladder describe that array alone.  The
registry keeps the artifacts, a latest-version cache and per-name
generation stamps: re-registering a name moves its stamp, so holders
of its engines (the router's implicit deployments) rebuild and stale
weights never serve a request after an update.
"""

from __future__ import annotations

import re
import threading
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
    """Versioned quantised-model store that programs engines on demand.

    Parameters
    ----------
    root:
        Directory holding the artifacts (created if missing).
    engine_cache_size:
        How many implicit deployments (the routes of undeployed models,
        each holding one programmed engine) a
        :class:`~repro.serving.router.Router` over this registry keeps
        at once; the least recently served one drains and shuts, and is
        re-programmed on its next request.
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
    All public methods are thread-safe: replicas are placed from
    router and worker threads while registrations arrive from others.
    Engine construction happens *outside* the registry lock, so a slow
    programming pass never blocks registrations.
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
        ``name``'s generation stamp moves, so subsequent ``version=None``
        lookups serve the new weights.
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
        """Delete every version of ``name`` (its generation stamp moves)."""
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
    ):
        """Program a new engine for ``name``/``version`` (latest by default).

        Every call programs its own array, which the caller owns.
        Returns a flat :class:`FeBiMEngine`, or a
        :class:`~repro.crossbar.tiling.TiledFeBiM` when ``max_rows`` is
        given (hierarchical WTA for many-class models).

        ``backend``/``backend_options`` override the registry's serving
        configuration for this engine only — the deployment path, where
        each replica names its own technology (see :meth:`load` for the
        pin-check semantics).  Left ``None`` they resolve to the
        registry defaults, so a single-replica deployment on the
        registry backend programs, from the same ``seed``, the
        bit-identical engine an undeployed model's implicit deployment
        does.  Engines are built with the default variation model,
        circuit parameters and mirror gain.
        """
        version = self.resolve_version(name, version)
        model, spec = self.load(name, version, backend=backend)
        config = dict(
            spec=spec,
            seed=seed,
            backend=self.backend if backend is None else str(backend),
            backend_options=dict(
                self.backend_options if backend_options is None
                else backend_options
            ),
        )
        if max_rows is None:
            return FeBiMEngine(model, **config)
        return TiledFeBiM(model, max_rows=max_rows, **config)

    # ---------------------------------------------------------- invalidation
    def _invalidate_locked(self, name: str) -> None:
        self._generations[name] = self._generations.get(name, 0) + 1
        self._latest.pop(name, None)

    def invalidate(self, name: Optional[str] = None) -> None:
        """Move the generation stamp and drop the version lookup of
        ``name`` (of every name when ``None``) — e.g. after another
        process wrote into the registry directory."""
        with self._lock:
            if name is None:
                self._epoch += 1
                self._latest.clear()
            else:
                self._invalidate_locked(name)

    def generation(self, name: str) -> tuple:
        """A stamp that changes whenever ``name`` is invalidated
        (:meth:`register`, :meth:`unregister`, :meth:`invalidate`):
        holders of its programmed engines compare it to know when to
        rebuild."""
        return self._epoch, self._generations.get(name, 0)

    def __contains__(self, name: str) -> bool:
        return bool(self.versions(name))

    def __repr__(self) -> str:
        return (
            f"ModelRegistry({str(self.root)!r}, backend={self.backend!r}, "
            f"{len(self.list_models())} models)"
        )
