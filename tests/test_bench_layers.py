"""The traced benchmark run (bench/run.py --trace 1) wraps ghzeta functions
by name and reads fields of their results, so every name it relies on must
still resolve: this loads bench/layers.py and bench/tracer.py by path (it
does not change them), registers every wrapper and installs them over the
loaded ghzeta modules, runs a few small ops traced, and uninstalls."""

import importlib.util
import json
from pathlib import Path

import ghzeta.cli
import ghzeta.zeta
from ghzeta.structure import PLCertificate

BENCH = Path(__file__).resolve().parents[1] / "bench"

TRACED_OPS = [
    ["eval", "--sigma", "2", "--t", "3", "--alpha", "1/3", "--f", "1,-1"],
    ["classify", "--alpha", "1", "--f", "1,0,-1,2", "--q", "4"],  # two characters
    ["zeros", "--alpha", "1", "--f", "1,-2", "--q", "2", "--rect", "1.3,1.9,0,10",
     "--grid", "1x2"],
    ["density", "--minpoly", "1,2,-1", "--interval", "0.4,0.5", "--theta", "1/100",
     "--N", "1000"],
    ["construct-phi", "--minpoly", "1,2,-1", "--interval", "0.4,0.5"],
]


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_tracer_resolves_every_target(tmp_path):
    layers, tracer_mod = _load("layers"), _load("tracer")
    tracer = tracer_mod.Tracer()
    layers.instrument(tracer)  # getattr on every wrapped name
    assert tracer._targets
    assert hasattr(PLCertificate, "searched_conductors")  # read by the detect_pl_form hook

    original = ghzeta.zeta.hurwitz_zeta
    tracer.install(tracer_mod.ghzeta_namespaces())
    try:
        patched = {id(value) for _, _, value in tracer._patches}
        # every registered original is bound somewhere, so install replaced it
        assert all(id(orig) in patched for orig, _ in tracer._targets)
        assert ghzeta.zeta.hurwitz_zeta is not original
        for i, argv in enumerate(TRACED_OPS):
            assert ghzeta.cli.main(argv + ["--output", str(tmp_path / f"{i}.json")]) == 0
    finally:
        tracer.uninstall()
    assert ghzeta.zeta.hurwitz_zeta is original and not tracer._patches
    for name in ("zeta.hurwitz_zeta", "zeta.f_eval", "structure.detect_pl_form",
                 "density.private_prime_scan", "construction.bohr_solve"):
        assert tracer.calls[name] > 0, name
    # the classify op took the hook's searched_conductors branch
    classify = json.loads((tmp_path / "1.json").read_text())["results"]["certificate"]
    assert classify["proof"] == "MultipleCharacters"
