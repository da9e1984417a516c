"""perfbench's traced run still finds every hook it patches and every layer.

The tracer replaces library functions and methods by name, and the probe
calls each traced layer once; a renamed or moved hook, or a layer that is no
longer called, would crash a traced benchmark run.  This test runs the same
install -> probe -> uninstall -> metrics sequence in well under a second.
It reads the benchmark's files and changes none of them.
"""

from pathlib import Path

from moufang3.polys import Poly

ROOT = Path(__file__).resolve().parent.parent


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
