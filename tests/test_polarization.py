import numpy as np
import pytest

from pltt.polarization import (
    apply_mueller,
    beamsplitter,
    compose,
    degree_of_polarization,
    galvo_mirror,
    ideal_mirror,
    is_passive,
    linear_polarizer,
    quarter_wave_plate,
    retarder,
    reverse_pass,
    rotate_element,
    rotation_mueller,
)


def random_physical_stokes(rng, n):
    """
    n physical Stokes vectors of unit intensity, the polarized part drawn
    uniformly from the unit Poincare ball.
    """
    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    out = np.ones((n, 4))
    out[:, 1:] = v * (rng.random(n) ** (1.0 / 3.0))[:, None]
    return out


UNPOL = np.array([1.0, 0.0, 0.0, 0.0])
HORIZ = np.array([1.0, 1.0, 0.0, 0.0])


def test_qwp_at_45_makes_right_circular():
    out = quarter_wave_plate(np.pi / 4) @ HORIZ
    np.testing.assert_allclose(out, [1.0, 0.0, 0.0, 1.0], atol=1e-12)


def test_qwp_at_0_swaps_s2_s3():
    out = quarter_wave_plate(0.0) @ np.array([1.0, 0.0, 1.0, 0.0])
    np.testing.assert_allclose(out, [1.0, 0.0, 0.0, -1.0], atol=1e-12)
    out = quarter_wave_plate(0.0) @ np.array([1.0, 0.0, 0.0, 1.0])
    np.testing.assert_allclose(out, [1.0, 0.0, 1.0, 0.0], atol=1e-12)


def test_linear_polarizer_matrices():
    expected0 = 0.5 * np.array(
        [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]], dtype=float
    )
    np.testing.assert_allclose(linear_polarizer(0.0), expected0, atol=1e-12)
    expected45 = 0.5 * np.array(
        [[1, 0, 1, 0], [0, 0, 0, 0], [1, 0, 1, 0], [0, 0, 0, 0]], dtype=float
    )
    np.testing.assert_allclose(linear_polarizer(np.pi / 4), expected45, atol=1e-12)


def test_malus_law():
    polarized = linear_polarizer(0.0) @ UNPOL
    for theta in np.linspace(0.0, np.pi, 37):
        got = (linear_polarizer(theta) @ polarized)[0]
        expected = 0.5 * np.cos(theta) ** 2
        assert abs(got - expected) < 1e-12


def test_crossed_polarizers_extinguish():
    crossed = compose([linear_polarizer(np.pi / 2), linear_polarizer(0.0)])
    rng = np.random.default_rng(7)
    for s in random_physical_stokes(rng, 20):
        np.testing.assert_allclose(crossed @ s, 0.0, atol=1e-12)


def test_compose_applies_last_listed_first():
    # polarizer first, then QWP: circular output
    circ = compose([quarter_wave_plate(np.pi / 4), linear_polarizer(0.0)]) @ UNPOL
    np.testing.assert_allclose(circ[3], 0.5, atol=1e-12)
    # QWP first does nothing to unpolarized light, polarizer then keeps it linear
    lin = compose([linear_polarizer(0.0), quarter_wave_plate(np.pi / 4)]) @ UNPOL
    np.testing.assert_allclose(lin[3], 0.0, atol=1e-12)
    np.testing.assert_allclose(lin[1], 0.5, atol=1e-12)


def test_compose_empty_raises():
    with pytest.raises(ValueError):
        compose([])


def test_rotation_consistency_for_angled_elements():
    # element(theta) must equal R(theta) element(0) R(-theta)
    builders = [
        linear_polarizer,
        quarter_wave_plate,
        lambda th: retarder(th, 0.7),
        lambda th: retarder(th, 2.3),
    ]
    rng = np.random.default_rng(11)
    for build in builders:
        at_zero = build(0.0)
        for theta in rng.uniform(-np.pi, np.pi, 25):
            expected = rotation_mueller(theta) @ at_zero @ rotation_mueller(-theta)
            np.testing.assert_allclose(build(theta), expected, atol=1e-12)


def test_angled_elements_have_period_pi():
    rng = np.random.default_rng(13)
    for theta in rng.uniform(-np.pi, np.pi, 10):
        np.testing.assert_allclose(
            linear_polarizer(theta + np.pi), linear_polarizer(theta), atol=1e-12
        )
        np.testing.assert_allclose(
            quarter_wave_plate(theta + np.pi), quarter_wave_plate(theta), atol=1e-12
        )


def test_rotator_rotates_polarization_plane():
    out = rotation_mueller(np.pi / 4) @ HORIZ
    np.testing.assert_allclose(out, [1.0, 0.0, 1.0, 0.0], atol=1e-12)
    # two rotators compose by angle addition
    np.testing.assert_allclose(
        compose([rotation_mueller(0.3), rotation_mueller(0.5)]), rotation_mueller(0.8), atol=1e-12
    )


def test_mirror_flips_handedness_and_s2():
    mir = ideal_mirror()
    np.testing.assert_allclose(mir @ np.array([1.0, 0, 0, 1.0]), [1, 0, 0, -1], atol=1e-15)
    np.testing.assert_allclose(mir @ np.array([1.0, 0, 1.0, 0]), [1, 0, -1, 0], atol=1e-15)
    np.testing.assert_allclose(mir @ HORIZ, HORIZ, atol=1e-15)
    np.testing.assert_allclose(galvo_mirror(), mir, atol=1e-15)


def test_beamsplitter_arms():
    np.testing.assert_allclose(beamsplitter("transmit", 0.3), 0.3 * np.eye(4), atol=1e-15)
    np.testing.assert_allclose(
        beamsplitter("reflect", 0.3), 0.3 * np.diag([1.0, 1, -1, -1]), atol=1e-15
    )
    with pytest.raises(ValueError):
        beamsplitter("transmit", 1.5)
    with pytest.raises(ValueError):
        beamsplitter("sideways", 0.5)


def test_retarder_preserves_degree_of_polarization():
    rng = np.random.default_rng(17)
    for s in random_physical_stokes(rng, 30):
        out = retarder(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)) @ s
        np.testing.assert_allclose(
            degree_of_polarization(out), degree_of_polarization(s), atol=1e-12
        )


def test_reverse_pass_element_identities():
    # reciprocal elements seen by the returning beam: angles negate for
    # polarizers and retarders, rotators keep their matrix (the frame
    # flip absorbs the sign), mirrors are their own reverse
    np.testing.assert_allclose(
        reverse_pass(linear_polarizer(0.7)), linear_polarizer(-0.7), atol=1e-12
    )
    np.testing.assert_allclose(
        reverse_pass(retarder(0.4, 1.1)), retarder(-0.4, 1.1), atol=1e-12
    )
    np.testing.assert_allclose(reverse_pass(rotation_mueller(0.3)), rotation_mueller(0.3),
                               atol=1e-12)
    np.testing.assert_allclose(reverse_pass(ideal_mirror()), ideal_mirror(), atol=1e-12)


def test_reverse_pass_unwinds_rotator_round_trip():
    rot = rotation_mueller(0.37)
    round_trip = compose([reverse_pass(rot), ideal_mirror(), rot])
    np.testing.assert_allclose(round_trip, ideal_mirror(), atol=1e-12)


def test_folded_circular_polarizer_extinguishes():
    # classic isolator: LP then QWP at 45 deg, mirror, back through both.
    # The return pass must use reverse_pass; reusing the forward
    # matrices collapses the chain to the bare polarizer instead.
    lp0 = linear_polarizer(0.0)
    q45 = quarter_wave_plate(np.pi / 4)
    mir = ideal_mirror()
    folded = compose([reverse_pass(lp0), reverse_pass(q45), mir, q45, lp0])
    assert abs((folded @ UNPOL)[0]) < 1e-12
    naive = compose([lp0, q45, mir, q45, lp0])
    np.testing.assert_allclose(naive, lp0, atol=1e-12)
    assert (naive @ UNPOL)[0] > 0.4


def test_rotate_element_matches_direct_construction():
    base = retarder(0.0, 1.9)
    np.testing.assert_allclose(rotate_element(base, 0.8), retarder(0.8, 1.9), atol=1e-12)


def test_degree_of_polarization_contract():
    assert degree_of_polarization(HORIZ) == pytest.approx(1.0)
    assert degree_of_polarization(UNPOL) == 0.0
    # slight overshoot from roundoff clamps to exactly 1
    assert degree_of_polarization([1.0, 1.0 + 5e-10, 0.0, 0.0]) == 1.0
    with pytest.raises(ValueError):
        degree_of_polarization([0.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        degree_of_polarization([-1.0, 0.0, 0.0, 0.0])


def test_degree_of_polarization_of_an_array_is_an_array():
    rng = np.random.default_rng(29)
    stack = random_physical_stokes(rng, 6).reshape(2, 3, 4)
    dop = degree_of_polarization(stack)
    assert isinstance(dop, np.ndarray) and dop.shape == (2, 3)
    expected = [degree_of_polarization(s) for s in stack.reshape(6, 4)]
    np.testing.assert_array_equal(dop.ravel(), expected)
    np.testing.assert_array_equal(degree_of_polarization([HORIZ, UNPOL]), [1.0, 0.0])


def test_apply_mueller_to_one_vector_and_to_rows():
    rng = np.random.default_rng(31)
    m = retarder(0.3, 1.2) @ linear_polarizer(0.9)
    rows = random_physical_stokes(rng, 5)
    one = apply_mueller(m, rows[0])
    assert one.shape == (4,)
    np.testing.assert_allclose(one, m @ rows[0], rtol=0, atol=1e-15)
    batch = apply_mueller(m, rows)
    assert batch.shape == (5, 4)
    np.testing.assert_allclose(batch, [m @ s for s in rows], rtol=0, atol=1e-15)
    np.testing.assert_array_equal(apply_mueller(m.tolist(), HORIZ.tolist()), m @ HORIZ)


def test_random_stokes_are_physical():
    rng = np.random.default_rng(23)
    samples = random_physical_stokes(rng, 200)
    assert samples.shape == (200, 4)
    assert np.all(np.sum(samples[:, 1:] ** 2, axis=1) <= samples[:, 0] ** 2)
    assert np.all(samples[:, 0] == 1.0)


def test_standard_elements_are_passive():
    rng = np.random.default_rng(29)
    for _ in range(20):
        theta = rng.uniform(0, np.pi)
        assert is_passive(linear_polarizer(theta))
        assert is_passive(retarder(theta, rng.uniform(0, 2 * np.pi)))
        assert is_passive(rotation_mueller(theta))
    assert is_passive(ideal_mirror())
    assert not is_passive(2.0 * np.eye(4))


def test_apply_mueller_batches():
    rng = np.random.default_rng(31)
    stokes = random_physical_stokes(rng, 12)
    m = retarder(0.3, 0.9)
    batched = apply_mueller(m, stokes)
    for i in range(12):
        np.testing.assert_allclose(batched[i], m @ stokes[i], atol=1e-14)


def _negative_throughput():
    m = np.eye(4)
    m[0, 0] = -1.0
    return m


def _entry_above_throughput():
    m = 0.5 * np.eye(4)
    m[1, 2] = 0.9
    return m


@pytest.mark.parametrize("m", [_negative_throughput(), _entry_above_throughput()],
                         ids=["negative m00", "entry above m00"])
def test_is_passive_rejects_negative_throughput_and_entries_above_it(m):
    assert not is_passive(m)
