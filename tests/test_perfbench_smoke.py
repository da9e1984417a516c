"""perfbench's traced run still finds every hook it patches and every layer.

The tracer replaces library functions and methods by name, and the probe
calls each traced layer once; a renamed or moved hook, or a layer that is no
longer called, would crash a traced benchmark run.  This test runs the same
install -> probe -> uninstall -> metrics sequence in well under a second.
A traced run's metric names come from the hooks and from
`sweeps.SWEEP_NAMES`, and must be exactly the `per_layer` names that
BENCHMARK.json declares, so a renamed, dropped or added hook or sweep
breaks the traced run's result; the names are pinned here.  The test reads
the benchmark's files and changes none of them.
"""

import json
import math
from pathlib import Path

from moufang3.polys import Poly

ROOT = Path(__file__).resolve().parent.parent
# what `layers.replay` and `layers.traced_run` add to `layer_metrics`
UNTRACED = ("kernel.draws", "kernel.mul_calls", "kernel.inv_calls",
            "kernel.rng_s", "kernel.mul_s", "kernel.inv_s",
            "subloops.brute_count_l_set_s", "cli.process_overhead_s",
            "trace.overhead_s", "trace.overhead_ratio")


def test_traced_probe_reaches_every_layer(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import layers
    import tracing

    substitute = Poly.__dict__["substitute"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        layers.probe(ROOT)
    finally:
        tracer.uninstall()
    assert Poly.__dict__["substitute"] is substitute
    metrics = layers.layer_metrics(tracer)
    idle = sorted(name for name, value in metrics.items() if not value > 0)
    assert not idle, f"layers the probe never reached: {idle}"
    assert not [name for name, value in metrics.items()
                if not math.isfinite(value)]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert sorted([*metrics, *UNTRACED]) == sorted(m["name"] for m in declared)
