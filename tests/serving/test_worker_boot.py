"""A worker process boots on the serving import graph.

Standing up a process-placed replica, or respawning one after its
worker is killed, costs one fresh interpreter importing
:mod:`repro.serving.worker`, and with it the whole ``repro`` package.
Modules no serving path calls import where they are called: the
Fig. 5c transients' ODE solver (``scipy.integrate``), Bayesian-network
and TAN structure code (``networkx``) and ``GaussianNaiveBayes``'s
``scipy.stats``.  These tests check the loaded module set of a fresh
interpreter run on this checkout's ``src``, never a timing.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: Modules a boot must not load.
DEFERRED = ("networkx", "scipy.integrate", "scipy.stats")

BOOT = """
import json, sys
import repro
print(json.dumps({{
    "file": repro.__file__,
    "loaded": [m for m in {deferred!r} if m in sys.modules],
}}))
"""

CALLS = """
import json, sys
import numpy as np
import repro.serving.worker
booted = [m for m in {deferred!r} if m in sys.modules]

from repro.bayes import TreeAugmentedNaiveBayes, naive_bayes_network
from repro.crossbar import macro_transient, wta_transient

wta = wta_transient(np.array([2.0e-6, 0.2e-6]))
macro = macro_transient(np.array([2.2e-6, 1.0e-6]), cols=64)
net = naive_bayes_network(
    np.array([0.6, 0.4]), [np.array([[0.9, 0.1], [0.2, 0.8]])]
)
rng = np.random.default_rng(0)
tan = TreeAugmentedNaiveBayes(n_levels=4).fit(
    rng.integers(0, 4, (200, 3)), rng.integers(0, 2, 200)
)
print(json.dumps({{
    "file": repro.__file__,
    "booted": booted,
    "called": [m for m in {deferred!r} if m in sys.modules],
    "wta": wta.winner,
    "macro": macro.winner,
    "nodes": net.node_names,
    "roots": tan.parents_.count(None),
}}))
"""


def run_fresh(code: str) -> dict:
    """Run ``code`` in a fresh interpreter whose only ``PYTHONPATH`` entry
    is this checkout's ``src``; returns its last stdout line as JSON."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_package_import_loads_no_deferred_module():
    out = run_fresh(BOOT.format(deferred=DEFERRED))
    assert Path(out["file"]).resolve().is_relative_to(SRC)
    assert out["loaded"] == []


def test_worker_boot_defers_and_the_call_sites_still_resolve():
    """A worker boot loads none of the deferred modules; after it, the
    transients, a network's topology and a TAN fit still run, each
    loading its module on first call."""
    out = run_fresh(CALLS.format(deferred=DEFERRED))
    assert Path(out["file"]).resolve().is_relative_to(SRC)
    assert out["booted"] == []
    assert {"networkx", "scipy.integrate"} <= set(out["called"])
    assert (out["wta"], out["macro"]) == (0, 0)
    assert out["nodes"] == ["event", "evidence_1"]
    assert out["roots"] == 1
