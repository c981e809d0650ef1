"""Smoke test of the benchmark at N=64 with a few frames.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import measure  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "frames": {"kind": "frames", "n": 64, "c": [8], "frames": 8, "two_d_every": 4,
               "reference_frames": 8},
    "sweep": {"kind": "sweep", "n": 64, "c": [8], "trials": 2, "frames": 2, "workers": 1,
              "reference_frames": 8},
}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("kind", sorted(SMALL))
def test_every_named_metric_appears_with_its_unit(kind, trace):
    contract = run.load_contract()
    raw = run.measure(f"smoke_{kind}", SMALL[kind], seed=3, seconds=0.2, trace=trace)
    result = run.result_line(raw, contract, trace)
    listed = contract["per_layer" if trace else "end_to_end"]
    assert [m["name"] for m in listed] == list(result["metrics"])
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, m["name"]
    assert result["correct"], raw["checks"]
    assert result["attempted"] >= 1


def test_tracer_restores_every_wrapped_attribute():
    m = workloads.load_afdmest()
    before = {(name, attr): obj for name, mod in m.items() for attr, obj in vars(mod).items()}
    with tracing.Tracer(m) as tracer:
        wrapped = tracer.wrapped()
    names = {(mod.__name__, attr) for mod, attr, _ in wrapped}
    assert {("afdmest.estimator", "joint_estimate"), ("afdmest.estimator", "pspr"),
            ("afdmest.harness", "run_sweep")} <= names
    # names imported from another layer are wrapped where they are looked up
    assert any(mod.__name__ != obj.__module__ for mod, _, obj in wrapped)
    spec = dict(SMALL["frames"], name="smoke")
    measure.run_frames(m, spec, seed=3, seconds=0.1, trace=True)
    after = {(name, attr): obj for name, mod in m.items() for attr, obj in vars(mod).items()}
    assert after.keys() == before.keys()
    assert all(after[key] is obj for key, obj in before.items())
