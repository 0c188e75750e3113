"""What each entry point loads at import: no scipy anywhere, networkx only
where a topology is built, and no repro layer it does not run.

``import repro`` loads no subpackage, a subpackage's ``__init__`` is its
docstring (``repro.experiments`` aside), and a heavy optional dependency
is imported inside the function that uses it, so a CLI verb, a daemon
boot or a campaign parent pays only for the layers it runs (DESIGN.md
§10).
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
    "repro.experiments.runner": {"scipy"},
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
}

#: the one subpackage whose ``__init__`` imports its layer.  The parent of
#: a campaign imports ``repro.experiments``, so its pool workers fork with
#: ``campaigns`` (and the simulator behind it) loaded; with this init cut
#: too, the ``pareto_front`` stage imported the simulator in a freshly
#: forked worker on every cold ``sweep_campaign`` pass (65-82 ms per
#: child) and cold cells/s fell in 4 of 4 rounds (median 374 -> 278).
EAGER_INITS = {"experiments"}

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

_SCRIPTS = {
    **{name: f"import {name}, json, sys; print(json.dumps(sorted(sys.modules)))"
       for name in {"repro", *FORBIDDEN, *UNUSED_LAYERS} - LAYERS},
    **{name: _LAYER_SCRIPT.format(name=name) for name in LAYERS},
    "fit_lognormal": _FIT_SCRIPT,
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
           if os.path.isfile(os.path.join(SRC, "repro", p, "__init__.py"))
           and p not in EAGER_INITS),
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
