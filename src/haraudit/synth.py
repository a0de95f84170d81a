"""Synthetic recordings with ground-truth-annotated failure injections.

Each class gets a constant per-channel signature plus Gaussian noise; the
label track follows the segment layout. Three injection kinds reproduce the
failure modes the audit is meant to surface:

- ``composite_overlap``: a span keeps its label but carries another class's
  signature (two classes sharing the same motion).
- ``transient_irregularity``: a span inside a static-class segment is
  overwritten by a strong high-frequency periodic burst, label unchanged
  (spontaneous movement or a sensor glitch mid-recording).
- ``transition_shift``: the label boundary lags the signal change by
  ``extent`` samples (coarse annotation around activity transitions).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from typing import get_args, get_origin, get_type_hints

import numpy as np

from ._io import open_text, write_json
from .recordings import SensorRecording

INJECTION_KINDS = ("composite_overlap", "transient_irregularity", "transition_shift")
#: How a scenario file's type errors name the JSON type a field needs.
JSON_TYPES = {int: "an integer", float: "a number", str: "a string", list: "an array"}

#: Burst shape for transient_irregularity spans (amplitude in raw signal
#: units, period in samples, per-channel phase step in radians).
BURST_AMPLITUDE = 6.0
BURST_PERIOD = 8
BURST_PHASE_STEP = np.pi / 2


@dataclass(frozen=True)
class Injection:
    kind: str
    location: int
    extent: int

    def __post_init__(self):
        if self.kind not in INJECTION_KINDS:
            raise ValueError(f"unknown injection kind {self.kind!r}")
        if self.location < 0 or self.extent <= 0:
            raise ValueError("injection needs location >= 0 and extent > 0")


@dataclass(frozen=True)
class InjectionSpan:
    """Resolved [start, end) sample range an injection affected."""

    kind: str
    start_sample: int
    end_sample: int


@dataclass
class ScenarioSpec:
    """Deterministic recipe for one synthetic recording."""

    num_classes: int = 3
    num_channels: int = 2
    samples_per_segment: int = 2000
    num_segments: int = 9
    class_signatures: list[list[float]] = field(default_factory=list)
    noise_std: float = 0.5
    injections: list[Injection] = field(default_factory=list)
    seed: int = 42

    def __post_init__(self):
        for name, low in (("num_classes", 2), ("num_channels", 1), ("samples_per_segment", 1),
                          ("num_segments", 1), ("noise_std", 0)):
            if not getattr(self, name) >= low:
                raise ValueError(f"{name} must be at least {low}, got {getattr(self, name)}")
        if not self.class_signatures:
            self.class_signatures = default_signatures(
                self.num_classes, self.num_channels
            )
        sig = np.asarray(self.class_signatures, dtype=float)
        if sig.shape != (self.num_classes, self.num_channels):
            raise ValueError(
                f"class_signatures must be [{self.num_classes} x "
                f"{self.num_channels}], got {sig.shape}"
            )
        self.class_signatures = sig.tolist()  # floats, as scenario.json stores them
        total = self.samples_per_segment * self.num_segments
        for inj in self.injections:
            if inj.location + inj.extent > total:
                raise ValueError(
                    f"injection {inj.kind} at {inj.location}+{inj.extent} "
                    f"exceeds the {total}-sample recording"
                )
            if inj.kind == "transition_shift" and (
                inj.location % self.samples_per_segment != 0 or inj.location == 0
            ):
                raise ValueError(
                    "transition_shift location must land on an interior "
                    "segment boundary"
                )

    @property
    def total_samples(self) -> int:
        return self.samples_per_segment * self.num_segments


def default_signatures(num_classes: int, num_channels: int) -> list[list[float]]:
    """Well-separated constant signatures: class 0 at the origin, the rest on
    alternating +/-2 corners."""
    sigs = [[0.0] * num_channels]
    for c in range(1, num_classes):
        sigs.append(
            [2.0 if ((c + ch) % 2 == 0) else -2.0 for ch in range(num_channels)]
        )
    return sigs


def default_scenario() -> ScenarioSpec:
    """Desk-scale audit scenario: 3 classes, 2 channels, one transient burst
    and one lagging label boundary, seed 42."""
    return ScenarioSpec(
        injections=[
            Injection(kind="transient_irregularity", location=3000, extent=800),
            Injection(kind="transition_shift", location=6000, extent=150),
        ]
    )


def generate(
    spec: ScenarioSpec, subject_id: str = "s0"
) -> tuple[SensorRecording, list[InjectionSpan]]:
    """Generate session r0 of ``subject_id`` and the exact sample ranges each injection hit.

    The seed fully determines the output; identical specs give byte-identical
    recordings.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.total_samples
    signatures = np.asarray(spec.class_signatures, dtype=float)

    segment_classes = np.arange(spec.num_segments) % spec.num_classes
    signal_class = np.repeat(segment_classes, spec.samples_per_segment)
    labels = signal_class.copy()

    spans: list[InjectionSpan] = []
    base = signatures[signal_class].copy()
    for inj in spec.injections:
        start, end = inj.location, inj.location + inj.extent
        if inj.kind == "transition_shift":
            # Labels lag the signal: the span keeps the class that ended at
            # the boundary while the signal already switched.
            labels[start:end] = labels[start - 1]
        elif inj.kind == "composite_overlap":
            other = (signal_class[start:end] + 1) % spec.num_classes
            base[start:end] = signatures[other]
        else:  # transient_irregularity
            t = np.arange(start, end)
            phases = BURST_PHASE_STEP * np.arange(spec.num_channels)
            base[start:end] = BURST_AMPLITUDE * np.sin(
                2.0 * np.pi * t[:, None] / BURST_PERIOD + phases[None, :]
            )
        spans.append(InjectionSpan(kind=inj.kind, start_sample=start, end_sample=end))

    channels = base + rng.normal(0.0, spec.noise_std, size=(n, spec.num_channels))
    rec = SensorRecording(
        channels=channels,
        labels=labels,
        subject_id=subject_id,
        session_id="r0",
        channel_names=[f"ch{c}" for c in range(spec.num_channels)],
    )
    return rec, spans


def generate_corpus(
    spec: ScenarioSpec, num_subjects: int = 4
) -> tuple[list[SensorRecording], list[list[InjectionSpan]]]:
    """Generate one recording per subject, injections only for the first.

    Subject k reuses the spec with seed ``spec.seed + k``; only subject 0
    receives the spec's injections so the other subjects provide clean
    training material.
    """
    if num_subjects < 2:
        raise ValueError("need at least 2 subjects for a grouped split")
    recordings, annotations = [], []
    for k in range(num_subjects):
        sub_spec = replace(
            spec,
            seed=spec.seed + k,
            injections=list(spec.injections) if k == 0 else [],
        )
        rec, spans = generate(sub_spec, subject_id=f"s{k}")
        recordings.append(rec)
        annotations.append(spans)
    return recordings, annotations


def save_scenario(spec: ScenarioSpec, dest) -> None:
    write_json(asdict(spec), dest)


def load_scenario(src) -> ScenarioSpec:
    """A scenario file, which must hold every ScenarioSpec field and no other key,
    each value of the field's declared type (an int passes as a float)."""
    with open_text(src) as fh:
        return _typed(json.load(fh), ScenarioSpec, "scenario")


def _typed(value, kind, where: str):
    """``value`` as ``kind``: a list type item by item, a dataclass field by field
    from a JSON object, a float from an int; any other mismatch is refused."""
    if get_origin(kind) is list and isinstance(value, list):
        return [_typed(item, get_args(kind)[0], f"{where}[{i}]") for i, item in enumerate(value)]
    if is_dataclass(kind) and isinstance(value, dict):
        names = [f.name for f in fields(kind)]
        for problem, keys in (("lacks", set(names) - value.keys()),
                              ("has unknown", value.keys() - set(names))):
            if keys:
                raise ValueError(f"{where} {problem} keys {sorted(keys)}")
        hints = get_type_hints(kind)
        return kind(**{n: _typed(value[n], hints[n], f"{where}.{n}") for n in names})
    if kind is float and type(value) is int:
        return float(value)
    if type(value) is not kind:
        expected = "an object" if is_dataclass(kind) else JSON_TYPES[get_origin(kind) or kind]
        raise ValueError(f"{where} must be {expected}, got {json.dumps(value)}")
    return value
