"""The names the benchmark's tracer wraps must exist in the package.

``perfbench/tracing.py`` looks cascadelab's functions up by name.  Loading
it and installing its tracer here makes a rename or deletion of a traced
name fail this suite, not only the benchmark.
"""

import importlib.util
from pathlib import Path

from cascadelab import cascade, interpolation, seeding

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_tracer_installs_and_restores_every_traced_name():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    originals = (seeding.derive_rng, cascade.CascadeFields.all_fields, interpolation.attach_fields)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert interpolation.attach_fields is not originals[2]
    finally:
        tracer.uninstall()
    restored = (seeding.derive_rng, cascade.CascadeFields.all_fields, interpolation.attach_fields)
    assert restored == originals
