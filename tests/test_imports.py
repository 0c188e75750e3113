"""What each entry point loads at import: no scipy anywhere, networkx only
where a topology is built, and no repro layer it does not run.

``import repro`` loads no subpackage, a subpackage's ``__init__`` is its
docstring, and a heavy optional dependency is imported inside the
function that uses it, so a CLI verb, a daemon boot or a campaign parent
pays only for the layers it runs (DESIGN.md §10).  A campaign's pool
cells import no repro module outside a pinned set: a worker forks from
the parent and pays for each module it loads on its own.
scipy serves one ``kstest`` in :func:`repro.core.distfit.fit_lognormal`
and three ``scipy.stats.norm`` helpers in
:mod:`repro.workload.distributions`; networkx backs
:class:`repro.net.topology.Topology`.  Each entry point, and every module
of the ``core``, ``workload`` and ``gridftp`` layers, is imported in a
fresh interpreter, since this process has long since loaded both.
"""

import ast
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core.distfit import LognormalFit, fit_lognormal

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))

#: entry point -> modules its import must not load
FORBIDDEN = {
    "repro.cli": {"scipy", "networkx"},
    "repro.core": {"scipy", "networkx"},
    "repro.workload": {"scipy", "networkx"},
    "repro.gridftp": {"scipy", "networkx"},
    "repro.service.daemon": {"scipy"},
    "repro.experiments.runner": {"scipy", "networkx"},
    "repro.experiments.cache": {"scipy", "networkx"},
    "repro.sim.experiment": {"scipy"},
}

#: the entries above that stand for every module of their layer: a layer's
#: ``__init__`` imports none of them, so its interpreter imports each one
LAYERS = {"repro.core", "repro.workload", "repro.gridftp"}

#: entry point -> (prefixes of the repro modules its import must not
#: load, the modules under them it may)
UNUSED_LAYERS = {
    "repro.service.daemon": (
        ("repro.sim", "repro.service.loadtest", "repro.vc.hntes",
         "repro.vc.lambdastation", "repro.vc.provisioner", "repro.core."),
        {"repro.core.rng"},
    ),
    "repro.cli": (
        ("repro.faults", "repro.core.alpha_flows", "repro.core.burstiness",
         "repro.core.distfit", "repro.core.interarrival"),
        set(),
    ),
    "repro.sim.experiment": (("repro.sim.scenarios", "repro.sim.replay"), set()),
    **{entry: (("repro.sim", "repro.net", "repro.faults", "repro.vc",
                "repro.experiments.campaigns"), set())
       for entry in ("repro.experiments.runner", "repro.experiments.cache")},
}

#: what perfbench's ``sweep_campaign`` parent imports before its pool forks
SWEEP_PARENT = ("repro.experiments.runner", "repro.experiments.cache",
                "repro.experiments.spec", "repro.experiments.registry",
                "repro.service.loadtest")
#: the repro modules that parent's cells import on their own: the three
#: policies ``make_scheduler`` registers on first use.  A cell that
#: reached ``campaigns`` for a helper loaded the simulator in every
#: forked worker (65-82 ms each), and cold cells/s fell from 374 to 278
SWEEP_CELL_IMPORTS = ["repro.sched.fcfs", "repro.sched.globalsched",
                      "repro.sched.predictive"]

#: the fixed sample: ``default_rng(SEED).lognormal(MU, SIGMA, N)``
SEED, MU, SIGMA, N = 20120101, 20.0, 1.5, 400
#: fit_lognormal on that sample at the commit before scipy moved into it
PARENT_FIT = LognormalFit(
    median=float.fromhex("0x1.e206253113053p+28"),
    sigma=float.fromhex("0x1.77b400e02c66fp+0"),
    ks_statistic=float.fromhex("0x1.97f03928d08c0p-6"),
    ks_pvalue=float.fromhex("0x1.eb83b404184b7p-1"),
    n=400,
)

_FIT_SCRIPT = f"""
import dataclasses, json, sys
import numpy as np
from repro.core.distfit import fit_lognormal
before = "scipy" in sys.modules
fit = fit_lognormal(np.random.default_rng({SEED}).lognormal({MU}, {SIGMA}, {N}))
fields = {{k: v.hex() if isinstance(v, float) else v
          for k, v in dataclasses.asdict(fit).items()}}
print(json.dumps({{"before": before, "after": "scipy" in sys.modules, "fit": fields}}))
"""

_LAYER_SCRIPT = """
import importlib, json, pkgutil, sys
import {name} as layer
for module in pkgutil.iter_modules(layer.__path__, layer.__name__ + "."):
    importlib.import_module(module.name)
print(json.dumps(sorted(sys.modules)))
"""

#: a small sched_compare-shaped pipeline, run in-process: the lazy imports
#: of its cells are what each forked worker of a pool would pay for
_SWEEP_SCRIPT = f"""
import json, sys, tempfile
import {", ".join(SWEEP_PARENT)}
from repro.experiments.cache import ResultCache
from repro.experiments.runner import Runner
from repro.experiments.spec import PipelineSpec
before = set(sys.modules)
spec = PipelineSpec.from_dict({{"name": "pool", "seed": 3, "stages": [
    {{"name": "grid", "scenario": "service_loadtest",
     "params": {{"mode": "sim", "n_requests": 20, "workers": 2}},
     "axes": {{"scheduler": ["fcfs", "predictive", "global"], "rate_per_s": [0.5]}}}},
    {{"name": "latency", "scenario": "latency_sweep", "needs": ["grid"]}},
    {{"name": "front", "scenario": "pareto_front", "needs": ["grid"]}}]}})
with tempfile.TemporaryDirectory() as root:
    result = Runner(jobs=1, cache=ResultCache(root)).run_pipeline(spec)
assert result.n_failed == 0 and result.n_executed == 5, result
print(json.dumps(sorted(m for m in set(sys.modules) - before if m.startswith("repro"))))
"""

_SCRIPTS = {
    **{name: f"import {name}, json, sys; print(json.dumps(sorted(sys.modules)))"
       for name in {"repro", *FORBIDDEN, *UNUSED_LAYERS} - LAYERS},
    **{name: _LAYER_SCRIPT.format(name=name) for name in LAYERS},
    "fit_lognormal": _FIT_SCRIPT,
    "sweep_cells": _SWEEP_SCRIPT,
}


@pytest.fixture(scope="module")
def fresh():
    """Every script's parsed stdout, each from its own fresh interpreter
    (started together: the cost is the slowest import, not their sum)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    procs = {
        name: subprocess.Popen([sys.executable, "-c", script], env=env,
                               stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                               text=True)
        for name, script in _SCRIPTS.items()
    }
    out = {}
    for name, proc in procs.items():
        stdout, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 0, f"{name}: {stderr}"
        out[name] = json.loads(stdout)
    return out


def test_import_repro_loads_no_subpackage(fresh):
    assert [m for m in fresh["repro"] if m.startswith("repro.")] == []


@pytest.mark.parametrize("entry", sorted(FORBIDDEN))
def test_entry_point_skips_heavy_imports(fresh, entry):
    assert FORBIDDEN[entry] & set(fresh[entry]) == set()


@pytest.mark.parametrize(
    "package",
    sorted(p for p in os.listdir(os.path.join(SRC, "repro"))
           if os.path.isfile(os.path.join(SRC, "repro", p, "__init__.py"))),
)
def test_subpackage_init_is_its_docstring(package):
    # one import path per name: import the defining submodule
    with open(os.path.join(SRC, "repro", package, "__init__.py")) as fh:
        body = ast.parse(fh.read()).body
    assert len(body) == 1 and isinstance(body[0], ast.Expr)
    assert isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str)


@pytest.mark.parametrize("entry", sorted(UNUSED_LAYERS))
def test_entry_point_loads_only_the_layers_it_runs(fresh, entry):
    prefixes, allowed = UNUSED_LAYERS[entry]
    assert [m for m in fresh[entry] if m.startswith(prefixes) and m not in allowed] == []


def test_sweep_cells_import_only_the_scheduler_policies(fresh):
    # what a forked worker would load on top of the parent's modules
    assert fresh["sweep_cells"] == SWEEP_CELL_IMPORTS


def test_fit_lognormal_loads_scipy_on_first_call(fresh):
    got = fresh["fit_lognormal"]
    assert not got["before"] and got["after"]
    fit = LognormalFit(**{k: float.fromhex(v) if isinstance(v, str) else v
                          for k, v in got["fit"].items()})
    # bit for bit the call of a process that had scipy loaded already
    assert fit == fit_lognormal(np.random.default_rng(SEED).lognormal(MU, SIGMA, N))
    # the pin's last bits may move with the NumPy and scipy builds (SIMD
    # log, kstest); on the ones it was captured with all fields are equal
    assert fit.n == PARENT_FIT.n
    for field in ("median", "sigma", "ks_statistic", "ks_pvalue"):
        assert getattr(fit, field) == pytest.approx(getattr(PARENT_FIT, field), rel=1e-9)
