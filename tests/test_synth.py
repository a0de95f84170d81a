import io
import re

import numpy as np
import pytest

from haraudit.synth import (
    Injection,
    ScenarioSpec,
    default_scenario,
    generate,
    generate_corpus,
    load_scenario,
    save_scenario,
)


class TestGeneration:
    def test_no_injections_no_annotations(self):
        spec = ScenarioSpec(
            num_classes=2,
            num_channels=1,
            samples_per_segment=500,
            num_segments=4,
            class_signatures=[[-2.0], [2.0]],
            noise_std=0.2,
            seed=1,
        )
        rec, spans = generate(spec)
        assert spans == []
        assert rec.num_samples == 2000
        assert rec.labels.size == rec.num_samples

    def test_labels_follow_cycling_segments(self):
        spec = ScenarioSpec(
            num_classes=3, num_channels=1, samples_per_segment=100, num_segments=6,
            class_signatures=[[0.0], [1.0], [2.0]], noise_std=0.0, seed=0,
        )
        rec, _ = generate(spec)
        assert rec.labels[0] == 0 and rec.labels[150] == 1 and rec.labels[250] == 2
        assert rec.labels[350] == 0  # classes cycle

    def test_transition_shift_annotation_covers_extent(self):
        spec = ScenarioSpec(
            num_classes=3, num_channels=1, samples_per_segment=1000, num_segments=3,
            class_signatures=[[0.0], [3.0], [-3.0]], noise_std=0.0,
            injections=[Injection("transition_shift", location=1000, extent=150)],
            seed=5,
        )
        rec, spans = generate(spec)
        assert spans == [spans[0]]
        assert spans[0].end_sample - spans[0].start_sample == 150
        # labels lag the signal change: the shifted span keeps the old class
        assert (rec.labels[1000:1150] == 0).all()
        assert rec.labels[1150] == 1
        # signal already switched at the boundary
        assert abs(rec.channels[1100, 0] - 3.0) < 1e-9

    def test_composite_overlap_swaps_signature_only(self):
        spec = ScenarioSpec(
            num_classes=2, num_channels=1, samples_per_segment=1000, num_segments=2,
            class_signatures=[[-5.0], [5.0]], noise_std=0.0,
            injections=[Injection("composite_overlap", location=200, extent=100)],
            seed=5,
        )
        rec, spans = generate(spec)
        assert (rec.labels[200:300] == 0).all()  # label unchanged
        assert abs(rec.channels[250, 0] - 5.0) < 1e-9  # other class's signature

    def test_transient_burst_is_periodic_and_label_preserving(self):
        spec = ScenarioSpec(
            num_classes=2, num_channels=1, samples_per_segment=1000, num_segments=2,
            class_signatures=[[-5.0], [5.0]], noise_std=0.0,
            injections=[Injection("transient_irregularity", location=100, extent=400)],
            seed=5,
        )
        rec, _ = generate(spec)
        assert (rec.labels[100:500] == 0).all()
        burst = rec.channels[100:500, 0]
        assert burst.max() > 4.0 and burst.min() < -4.0
        assert abs(burst.mean()) < 0.2  # zero-mean oscillation

    def test_same_seed_reproduces_bytes(self):
        spec = default_scenario()
        a, _ = generate(spec)
        b, _ = generate(spec)
        assert np.array_equal(a.channels, b.channels)
        assert np.array_equal(a.labels, b.labels)

    def test_injection_outside_recording_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            ScenarioSpec(
                samples_per_segment=100, num_segments=2,
                injections=[Injection("composite_overlap", location=150, extent=100)],
            )

    def test_transition_shift_must_sit_on_boundary(self):
        with pytest.raises(ValueError, match="boundary"):
            ScenarioSpec(
                samples_per_segment=100, num_segments=3,
                injections=[Injection("transition_shift", location=150, extent=10)],
            )

    @pytest.mark.parametrize("signatures, shape", [
        ([[0, 0], [1, 1]], (2, 2)), ([[0], [1], [2]], (3, 1)),
    ], ids=["two-classes", "one-channel"])
    def test_signatures_must_be_classes_by_channels(self, signatures, shape):
        with pytest.raises(ValueError, match=re.escape(
                f"class_signatures must be [3 x 2], got {shape}") + "$"):
            ScenarioSpec(num_classes=3, num_channels=2, class_signatures=signatures)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown injection"):
            Injection("spike", location=0, extent=10)


class TestCorpus:
    def test_injections_confined_to_one_subject(self):
        recs, annotations = generate_corpus(default_scenario(), num_subjects=4)
        assert len(recs) == 4
        assert [len(a) for a in annotations] == [2, 0, 0, 0]
        assert [r.subject_id for r in recs] == ["s0", "s1", "s2", "s3"]

    def test_subjects_differ_but_are_reproducible(self):
        recs_a, _ = generate_corpus(default_scenario(), num_subjects=3)
        recs_b, _ = generate_corpus(default_scenario(), num_subjects=3)
        assert not np.array_equal(recs_a[0].channels, recs_a[1].channels)
        for a, b in zip(recs_a, recs_b):
            assert np.array_equal(a.channels, b.channels)

    def test_single_subject_rejected(self):
        with pytest.raises(ValueError):
            generate_corpus(default_scenario(), num_subjects=1)


def test_scenario_round_trips_through_json():
    spec = default_scenario()
    buf = io.StringIO()
    save_scenario(spec, buf)
    buf.seek(0)
    back = load_scenario(buf)
    assert back == spec
