"""Import-graph guard.

The replay path (``repro.sim`` and ``repro.traces`` with every public name
resolved) must not load the run ledger, the SLO checker, the timeline
analyzer, the workload lab or LHR checkpointing, nor the standard
library's HTTP, e-mail and TLS modules; the CLI must not load those three
either.  Each check runs in a fresh interpreter, so what this process
imported cannot hide a regression.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

#: Standard-library modules neither a replay nor the CLI may load.
NETWORK_STACK = ("http.server", "email", "ssl")

#: Modules a replay must never load.
GUARDED = (
    *NETWORK_STACK,
    "repro.obs.runs",
    "repro.obs.slo",
    "repro.obs.timeline",
    "repro.workloads",
    "repro.core.serialization",
)

#: What a replay imports: both packages, with every public name bound.
REPLAY_IMPORTS = (
    "import repro.sim, repro.traces\n"
    "from repro.sim import *\n"
    "from repro.traces import *\n"
)

PACKAGES = (
    "repro",
    "repro.bounds",
    "repro.core",
    "repro.obs",
    "repro.policies",
    "repro.proto",
    "repro.sim",
    "repro.traces",
    "repro.util",
    "repro.workloads",
)


def run_python(code: str):
    """Run ``code`` in a fresh interpreter that imports this ``repro``;
    return the JSON its last output line prints."""
    env = dict(os.environ)
    source_root = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (source_root, env.get("PYTHONPATH")) if path
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_replay_path_loads_no_guarded_module():
    loaded = run_python(
        REPLAY_IMPORTS + "import json, sys\nprint(json.dumps(sorted(sys.modules)))"
    )
    assert "repro.sim.engine" in loaded and "repro.traces.packed" in loaded
    assert [name for name in GUARDED if name in loaded] == []


def test_cli_loads_no_network_stack():
    loaded = run_python(
        "import json, sys\nimport repro.cli\nprint(json.dumps(sorted(sys.modules)))"
    )
    assert "repro.cli" in loaded
    assert [name for name in NETWORK_STACK if name in loaded] == []


def test_every_registered_policy_class_is_loaded():
    # A tracer that walks ``CachePolicy`` subclasses before any policy is
    # built must find every registered policy's class.
    missing = run_python(
        REPLAY_IMPORTS
        + """
import json
from repro.policies.base import CachePolicy

def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)

loaded = set(subclasses(CachePolicy))
built = {name: type(build_policy(name, 1 << 20)) for name in known_policies()}
print(json.dumps(sorted(name for name, cls in built.items() if cls not in loaded)))
"""
    )
    assert missing == []


#: Checks every package's ``__all__``; run after ``packages`` and
#: ``submodules_first`` are assigned.
RESOLVE = """
import importlib, inspect, json, pkgutil, types
import repro

if submodules_first:
    # Import every submodule first: one that shares an exported name
    # (``repro.bounds.infinite_cap``) must not replace the export on its
    # package.
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)
problems = []
for package in packages:
    module = importlib.import_module(package)
    starred = {}
    exec(f"from {package} import *", starred)
    starred.pop("__builtins__")
    if set(starred) != set(module.__all__):
        problems.append(f"from {package} import * binds {sorted(starred)}")
    table = getattr(module, "_EXPORTS", {})
    for name in module.__all__:
        value = getattr(module, name)
        if isinstance(value, types.ModuleType):
            problems.append(f"{package}.{name} is a module")
            continue
        if starred.get(name) is not value:
            problems.append(f"from {package} import * binds another {name}")
        if inspect.isclass(value) or inspect.isfunction(value):
            home = value.__module__
        else:
            home = table.get(name, package)
        if getattr(importlib.import_module(home), name, None) is not value:
            problems.append(f"{package}.{name} is not {home}.{name}")
        if table.get(name, home) != home:
            problems.append(f"{package}.{name} is bound from {table[name]}, not {home}")
print(json.dumps(problems))
"""


@pytest.mark.parametrize(
    "submodules_first", [False, True], ids=["names-first", "submodules-first"]
)
def test_every_export_resolves_to_its_defining_module(submodules_first):
    setup = f"packages = {PACKAGES!r}\nsubmodules_first = {submodules_first!r}\n"
    assert run_python(setup + RESOLVE) == []


def test_unknown_name_raises_attribute_error():
    import repro.sim

    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        repro.sim.no_such_name
    assert "simulate" in dir(repro.sim)
