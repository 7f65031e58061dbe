import numpy as np
import pytest

from latentpoison.attack import Perturbation
from latentpoison.evaluation import AttackReport, ConfidenceRow, detection_probability
from latentpoison.reporting import (
    delta_to_csv,
    grid_array,
    parse_report,
    render_grid,
    report_to_csv,
    write_pgm,
    write_report,
)

# Confidence-table shape used to validate the renderer: three attack
# setups whose per-group means are known in advance.
REFERENCE_ROWS = [
    ("original_class1", 0.80),
    ("reconstruction_class1", 0.79),
    ("attacked_0to1", 0.98),
    ("original_class0", 0.93),
    ("reconstruction_class0", 0.85),
    ("attacked_1to0", 0.95),
]


def _reference_report():
    rows = [ConfidenceRow(name, mean, 0.02) for name, mean in REFERENCE_ROWS]
    return AttackReport(
        mode="independent",
        family="additive",
        norm_order=2,
        rows=rows,
        epsilon_plus=0.79 - 0.98,
        epsilon_minus=0.85 - 0.95,
        detection_max=0.04,
        sparsity_fraction=0.5,
        config={"seed": 0, "latent_dim": 2},
    )


class TestReportCsv:
    def test_round_trip_of_reference_values(self):
        text = report_to_csv(_reference_report())
        meta, rows = parse_report(text)
        assert meta["mode"] == "independent"
        assert meta["norm_order"] == "2"
        assert float(meta["epsilon_plus"]) == pytest.approx(-0.19)
        assert float(meta["epsilon_minus"]) == pytest.approx(-0.10)
        parsed = {r.name: r.mean for r in rows}
        for name, mean in REFERENCE_ROWS:
            assert parsed[name] == mean

    def test_configuration_echoed(self):
        text = report_to_csv(_reference_report())
        assert "# config.seed = 0" in text
        assert "# config.latent_dim = 2" in text
        assert "# sparsity_threshold_ratio = 0.05" in text
        assert "# prior_interval_halfwidth = 2.807" in text

    def test_serialization_byte_stable(self, tmp_path):
        report = _reference_report()
        write_report(report, tmp_path / "a.csv")
        write_report(report, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_floats_survive_round_trip_exactly(self):
        report = _reference_report()
        report.epsilon_plus = 0.1234567890123456789
        meta, _ = parse_report(report_to_csv(report))
        assert float(meta["epsilon_plus"]) == report.epsilon_plus


class TestDeltaCsv:
    def test_dump_lists_every_element(self):
        pert = Perturbation(np.array([0.0, 1.0, -2.0]), 1, "additive", 0.01, "poisoning")
        lines = delta_to_csv(pert).splitlines()
        assert "# provenance = poisoning" in lines
        table = [l for l in lines if l and not l.startswith("#")]
        assert table[0] == "index,value,detection_probability"
        assert len(table) == 4
        index, value, prob = table[2].split(",")
        assert (index, float(value)) == ("1", 1.0)
        assert float(prob) == pytest.approx(0.0355, abs=1e-3)

    def test_single_vector_dump_bytes(self):
        pert = Perturbation(np.array([0.0]), 2, "additive", 0.5, "independent")
        assert delta_to_csv(pert) == (
            "# latentpoison perturbation dump v1\n"
            "# provenance = independent\n"
            "# family = additive\n"
            "# norm_order = 2\n"
            "# reg_weight = 0.5\n"
            "index,value,detection_probability\n"
            f"0,0.0,{detection_probability(0.0)!r}\n"
        )

    def test_per_direction_dump_lists_both_vectors(self):
        pert = Perturbation(np.array([0.5, -0.25]), 2, "additive", 0.01, "independent",
                            delta_reverse=np.array([3.0, -4.0]))
        lines = delta_to_csv(pert).splitlines()
        assert "# per_direction = True" in lines
        table = [l.split(",") for l in lines if l and not l.startswith("#")][1:]
        assert [(int(i), float(v)) for i, v, _ in table] == [
            (0, 0.5), (1, -0.25), (2, 3.0), (3, -4.0)
        ]
        assert [float(p) for _, _, p in table] == [
            detection_probability(v) for v in (0.5, -0.25, 3.0, -4.0)
        ]


class TestPgm:
    def test_exact_bytes_for_known_image(self, tmp_path):
        image = np.array([[0.0, 1.0], [0.5, 0.25]])
        path = tmp_path / "img.pgm"
        write_pgm(image, path)
        assert path.read_bytes() == b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64])

    def test_rejects_non_2d(self, tmp_path):
        with pytest.raises(ValueError, match="2-D"):
            write_pgm(np.zeros((2, 2, 2)), tmp_path / "x.pgm")


class TestGrid:
    def test_single_image_is_image_plus_border(self):
        image = np.ones((3, 4))
        grid = grid_array([image], columns=1)
        assert grid.shape == (5, 6)
        np.testing.assert_array_equal(grid[1:4, 1:5], image)
        assert grid[0].sum() == 0 and grid[:, 0].sum() == 0

    def test_six_images_three_columns_dimensions(self):
        images = [np.ones((5, 7))] * 6
        grid = grid_array(images, columns=3)
        assert grid.shape == (2 * 5 + 3, 3 * 7 + 4)

    def test_partial_last_row_filled_with_separator(self):
        images = [np.ones((2, 2))] * 3
        grid = grid_array(images, columns=2)
        assert grid.shape == (2 * 2 + 3, 2 * 2 + 3)
        np.testing.assert_array_equal(grid[4:6, 4:6], 0.0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="differ"):
            grid_array([np.ones((2, 2)), np.ones((3, 2))], columns=2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            grid_array([], columns=2)

    def test_bad_columns_rejected(self):
        with pytest.raises(ValueError, match="columns"):
            grid_array([np.ones((2, 2))], columns=0)

    def test_grid_file_byte_stable(self, tmp_path):
        images = [np.linspace(0, 1, 16).reshape(4, 4)] * 4
        render_grid(images, 2, tmp_path / "a.pgm")
        render_grid(images, 2, tmp_path / "b.pgm")
        assert (tmp_path / "a.pgm").read_bytes() == (tmp_path / "b.pgm").read_bytes()
