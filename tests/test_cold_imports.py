"""What a process pays to import the real runtime: the layers it runs, only.

A package ``__init__`` imports nothing that every importer of its
submodules does not need (CONTRIBUTING.md).  ``repro.runtime`` exports the
scheduler and the fabric and nothing of raintap, whose collector pulls in
all of ``repro.obs`` and ``repro.spec``.  The import runs in a fresh
interpreter: this process has long since loaded everything.
"""

from __future__ import annotations

import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

import repro
import repro.obs

ROOT = pathlib.Path(repro.__file__).parents[2]


def modules_after(statement: str) -> set[str]:
    """The ``repro`` modules a fresh interpreter holds after ``statement``."""
    probe = f"{statement}\nimport sys\nprint(*(m for m in sys.modules if m.startswith('repro')))"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, check=True, text=True, timeout=60,
    )
    return set(out.stdout.split())


def test_the_runtime_package_loads_no_telemetry_obs_or_spec():
    loaded = modules_after("from repro.runtime import AsyncioScheduler, UdpFabric")
    assert {"repro.runtime.scheduler", "repro.runtime.udp"} <= loaded
    heavy = ("repro.runtime.collector", "repro.runtime.telemetry", "repro.obs", "repro.spec")
    assert sorted(m for m in loaded if any(m == p or m.startswith(p + ".") for p in heavy)) == []


def test_every_obs_name_is_its_defining_modules_object():
    homes: dict[str, list[str]] = {}
    for info in pkgutil.iter_modules(repro.obs.__path__):
        for name in importlib.import_module(f"repro.obs.{info.name}").__all__:
            homes.setdefault(name, []).append(info.name)
    for name in repro.obs.__all__:
        assert len(homes.get(name, [])) == 1, f"{name} is listed by {homes.get(name)}"
        module = sys.modules[f"repro.obs.{homes[name][0]}"]
        assert getattr(repro.obs, name) is getattr(module, name), name
