"""Every function the benchmark traces by name still exists.

The benchmark's tracer skips names that no longer resolve, so a deleted or
renamed function would leave its per-layer metrics silently at 0.
"""

import importlib.util
from pathlib import Path

# the tracer resolves names only in loaded modules; these two load the rest
import twirlsim.cli  # noqa: F401
import twirlsim.verify  # noqa: F401

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
# deleted together with the hand-written Poisson sampler; the next benchmark
# revision traces sampling.compound_poisson_kicks instead
STALE = {"sampling.poisson_by_inversion"}


def load_tracer():
    spec = importlib.util.spec_from_file_location("traced_layers_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    tracer = load_tracer()
    missing = [name for name in tracer.LAYER_FUNCTIONS
               if name not in STALE and tracer._resolve(name) is None]
    assert missing == []
