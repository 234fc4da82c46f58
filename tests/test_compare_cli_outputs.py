import importlib.util
import os

import numpy as np
import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "compare_cli_outputs.py")
_spec = importlib.util.spec_from_file_location("compare_cli_outputs", TOOL)
compare_cli_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_cli_outputs)


def test_grid_difference_sizes_grids_of_one_shape_and_nan_pattern():
    a = np.array([[0.0, np.nan, 1.0], [2.0, 3.0, np.nan]])
    b = a + np.array([[1e-9, 5.0, -3e-8], [0.0, 2e-9, 7.0]])
    assert compare_cli_outputs.grid_difference(a, b) == pytest.approx(3e-8, rel=1e-6)
    assert compare_cli_outputs.grid_difference(a, a) == 0.0
    assert compare_cli_outputs.grid_difference(np.full((1, 2), np.nan),
                                               np.full((1, 2), np.nan)) == 0.0
    moved_nan = a.copy()
    moved_nan[0, 0], moved_nan[0, 1] = np.nan, 0.0
    assert compare_cli_outputs.grid_difference(a, moved_nan) is None
    assert compare_cli_outputs.grid_difference(a, a[:, :2]) is None
