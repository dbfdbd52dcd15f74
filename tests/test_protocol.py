"""Full protocol runs: feedback energetics, the no-go check, free evolution.

A policy is given as one (omega, nx, ny, nz) row per outcome; ``policy_table``
pads it with the identity, so an empty policy is the identity policy.  A
single case runs as a block of one.
"""

import dataclasses
import math
import tracemalloc
import types

import numpy as np
import pytest

from minqet import analytic, checks, entanglement, measurement, optimizer, protocol, qmath
from minqet.measurement import MeasurementModel, weight_block
from minqet.model import ModelParams, ParamsBlock, build_hamiltonian, ground_state

from conftest import case_block, case_report, policy_table, run_batch

UNIT = ModelParams(h=1.0, k=1.0)
MAX_EB_UNIT = 0.11474763394014725
E_A_PROJECTIVE_UNIT = 0.7071067811865475
Y_TURN = (0.0, 0.0, 1.0, 0.0)  # the identity: no turn about the y axis


def optimal_rows(params, model):
    """The closed-form policy of one case: its block of one's ``optimal_table`` row."""
    omega, axes = protocol.optimal_table(ParamsBlock.of([params]), *weight_block(model.rows[None]))
    return np.column_stack([omega[0], axes[0]]).tolist()


def matrix(turn):
    """The 2x2 unitary of an (omega, nx, ny, nz) row."""
    return protocol.rotations(turn[0], turn[1:])


def test_local_unitary_matrix_is_unitary():
    u = protocol.rotations(0.7, (0.0, 1.0, 0.0))
    assert float(np.max(np.abs(u @ u.conj().T - np.eye(2)))) <= 1e-12


def test_run_identity_policy_moves_nothing():
    report = run_batch([(UNIT, measurement.projective_pair(), [Y_TURN] * 2)])
    assert abs(report.e_b[0]) <= 1e-12
    assert abs(report.e_a[0] - E_A_PROJECTIVE_UNIT) <= 1e-12


def test_run_optimal_projective_unit_point():
    model = measurement.projective_pair()
    report = case_report(run_batch([(UNIT, model, optimal_rows(UNIT, model))]), 0, 2)
    closed = analytic.max_EB_closed(UNIT, *weight_block(model.rows))
    assert abs(report.e_b - MAX_EB_UNIT) <= 1e-10
    assert abs(report.e_b - closed) <= 1e-10
    assert report.max_eb_closed == closed
    assert abs(report.total_final_energy - (report.e_a - report.e_b)) <= 1e-10
    assert report.total_final_energy >= -1e-10


def test_turn_gains_is_the_form_of_the_measured_kets():
    # D_ab = Re<phi|delta_ab O - B_a^dag O B_b|phi>, O = h Z_B + 2 k XX, on the kets
    # phi = M_A(mu)|g> themselves, with the operators built here
    block, coeffs = checks.draw_members(5, range(40))[:2]
    phi = measurement.measured_kets(ground_state(block), coeffs)
    turns = [np.eye(4)] + [qmath.tensor(qmath.pauli("i"), 1j * qmath.pauli(a)) for a in "xyz"]
    o = block.h[:, None, None, None] * qmath.Z_B + 2.0 * block.k[:, None, None, None] * qmath.XX
    direct = np.empty(phi.shape[:-1] + (4, 4))
    for a in range(4):
        for b in range(4):
            op = (a == b) * o - turns[a].conj().T @ o @ turns[b]
            direct[..., a, b] = (phi.conj()[..., None, :] @ op @ phi[..., None])[..., 0, 0].real
    gains = protocol.turn_gains(block, coeffs)
    assert np.abs(gains - direct).max() <= 1e-14 * np.abs(direct).max()


def test_run_entropy_fields_delegate():
    model = measurement.projective_pair()
    report = run_batch([(UNIT, model, [Y_TURN] * 2)])
    g = ground_state(UNIT)
    kets = measurement.kraus_operators(model.rows) @ g
    reference = entanglement.consumption_block(g[None], kets[None])
    assert abs(report.delta_s[0] - reference.delta_s[0]) <= 1e-12
    assert abs(report.mutual_info[0] - reference.mutual_info[0]) <= 1e-12


def test_run_never_exceeds_input(small_ensemble):
    # a Haar rotation per outcome, six rows per case
    haar = protocol.haar_turns(np.random.default_rng(31).random((96, 3)))
    cases = [
        (params, model, haar[6 * i : 6 * i + model.n_outcomes].tolist())
        for i, (params, model) in enumerate(small_ensemble[:16])
    ]
    report = run_batch(cases)
    assert np.all(report.e_b <= report.e_a + 1e-10)
    assert np.all(report.total_final_energy >= -1e-10)


def test_run_negative_energy_density_at_b():
    model = measurement.projective_pair()
    report = case_report(run_batch([(UNIT, model, optimal_rows(UNIT, model))]), 0, 2)
    local_b = sum(prob * (h_b + v) for prob, _, h_b, v, _ in report.per_outcome)
    assert abs(local_b + report.e_b) <= 1e-10
    assert local_b < 0.0


def test_run_is_phase_independent():
    base = MeasurementModel.from_weights([0.5, 0.5], [0.25, -0.25])
    rows = base.rows.copy()
    rows[:, 3] = 0.41 * np.arange(1, 3)
    shifted = MeasurementModel(rows)
    policy = optimal_rows(UNIT, base)
    report = run_batch([(UNIT, base, policy), (UNIT, shifted, policy)])
    for name in ("e_a", "e_b", "delta_s"):
        r0, r1 = getattr(report, name)
        assert abs(r0 - r1) <= 1e-12


def test_optimal_policy_angles():
    (omega0, *axis0), _ = optimal_rows(UNIT, measurement.projective_pair())
    assert axis0 == [0.0, 1.0, 0.0]
    # outcome q = +1/2: cos 2w = 3/sqrt(10), sin 2w = -1/sqrt(10)
    assert abs(math.cos(2 * omega0) - 3.0 / math.sqrt(10.0)) <= 1e-12
    assert abs(math.sin(2 * omega0) - (-1.0 / math.sqrt(10.0))) <= 1e-12


def test_optimal_policy_trivial_without_correlation():
    model = MeasurementModel.from_weights([0.5, 0.5], [0.0, 0.0])
    for omega, *_ in optimal_rows(UNIT, model):
        assert omega == 0.0


def test_optimal_table_equals_one_call_per_case(small_ensemble):
    # a block of 12 cases, row for row the 12 blocks of one, bit for bit
    params, models = zip(*small_ensemble[:12])
    coeffs = measurement.coefficient_block(models)
    omega, axes = protocol.optimal_table(ParamsBlock.of(params), *measurement.weight_block(coeffs))
    assert omega.shape == (12, 6) and axes.shape == (12, 6, 3)
    for row, (p, model) in enumerate(zip(params, models)):
        n = model.n_outcomes
        assert np.column_stack([omega[row, :n], axes[row, :n]]).tolist() == optimal_rows(p, model)
        assert not omega[row, n:].any()  # padding: the identity


# optimal_table's angles on edge weights, frozen bit for bit: (h, k) from
# 1e-8 to 1e8, each with the outcomes |q| = p, q = +0.0, q = -0.0 and a
# zero-padding row, then a generic pair padded by three zero rows.  Re-recorded
# when the angles left [0, pi) for (-pi/2, pi/2]: each negative angle w read
# pi + w, rounded, which was 3.141592653589793 for the four w of size ~1e-17
EDGE_HK = [
    (1e-8, 1e-8), (1e-8, 1e8), (1e8, 1e-8), (1e8, 1e8), (1e-8, 1.0), (1.0, 1e-8), (0.8, 2.1)
]
EDGE_WEIGHTS = [
    [(0.3, 0.3), (0.3, -0.3), (0.2, 0.0), (0.2, -0.0), (0.0, 0.0)],
    [(0.43, 0.21), (0.57, -0.21), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0)],
]
EDGE_OMEGA = [
    [-0.1608752771983211, 0.1608752771983211],
    [-0.08068755521034572, 0.061097585345677524],
    [-2.5e-17, 2.5e-17],
    [-1.2209302325581395e-17, 9.210526315789473e-18],
    [-5e-17, 5e-17],
    [-2.441860465116279e-17, 1.8421052631578946e-17],
    [-0.1608752771983211, 0.1608752771983211],
    [-0.08068755521034573, 0.06109758534567753],
    [-2.5e-09, 2.5e-09],
    [-1.2209302325581394e-09, 9.210526315789473e-10],
    [-4.999999999999999e-09, 4.999999999999999e-09],
    [-2.441860465116278e-09, 1.8421052631578943e-09],
    [-0.08787872560243666, 0.08787872560243666],
    [-0.04325672039277124, 0.03266735903182121],
]


def test_optimal_table_edge_weights_are_frozen():
    cases = [(hk, weights) for hk in EDGE_HK for weights in EDGE_WEIGHTS]
    block = ParamsBlock.of([ModelParams(*hk) for hk, _ in cases])
    p, q = np.array([weights for _, weights in cases]).transpose(2, 1, 0)
    omega, axes = protocol.optimal_table(block, p, q)
    frozen = np.zeros((len(cases), 5))
    frozen[:, :2] = EDGE_OMEGA
    assert omega.tobytes() == frozen.tobytes()  # the zeros' signs too
    assert axes.shape == (len(cases), 5, 3)
    assert (axes == (0.0, 1.0, 0.0)).all()


def test_optimal_policy_beats_a_grid():
    model = measurement.projective_pair()
    best = run_batch([(UNIT, model, optimal_rows(UNIT, model))]).e_b[0]
    rng = np.random.default_rng(12)

    def random_row():
        omega = float(rng.uniform(0, math.pi))
        v = rng.normal(size=3)
        return (omega, *(v / np.linalg.norm(v)).tolist())

    cases = [(UNIT, model, [random_row() for _ in range(2)]) for _ in range(60)]
    assert np.all(run_batch(cases).e_b <= best + 1e-8)


def test_policy_shuffling_never_helps(small_ensemble):
    cases = []
    for params, model in small_ensemble[:6]:
        policy = optimal_rows(params, model)
        cases += [(params, model, policy), (params, model, policy[1:] + policy[:1])]
    e_b = run_batch(cases).e_b
    assert np.all(e_b[1::2] <= e_b[::2] + 1e-10)


def passive_cost(cases):
    """The cost -E_B of (params, model, turn) cases, each turning B by its row at every outcome."""
    n = max(model.n_outcomes for _, model, _ in cases)
    return -run_batch([(params, model, [turn] * n) for params, model, turn in cases]).e_b


def test_passive_identity_is_zero():
    cost = passive_cost([(UNIT, measurement.projective_pair(), Y_TURN)])
    assert abs(cost[0]) <= 1e-12


def test_passive_random_unitaries_nonnegative():
    turns = protocol.haar_turns(np.random.default_rng(0).random((200, 3))).tolist()
    cost = passive_cost([(UNIT, measurement.projective_pair(), turn) for turn in turns])
    assert np.all(cost >= -1e-10)


def test_passive_quarter_rotation_positive():
    turn = (math.pi / 2.0, 0.0, 1.0, 0.0)
    assert passive_cost([(UNIT, measurement.projective_pair(), turn)])[0] > 1e-3


def test_evolution_series_closed_form():
    model = measurement.projective_pair()
    e_a = measurement.input_energy_closed(UNIT, model.rows)
    times = np.linspace(0.0, math.pi / 2.0, 65)
    t, hb, _, v = protocol.evolve_series(UNIT, model, times)
    amp = UNIT.h**2 / UNIT.eps * 0.5
    for t_i, hb_i, v_i in zip(t.tolist(), hb.tolist(), v.tolist()):
        closed = amp * (1.0 - math.cos(4.0 * UNIT.k * t_i))
        assert abs(hb_i - closed) <= 1e-9 * max(1.0, closed)
        assert abs(v_i) <= 1e-9
    assert abs(hb[0]) <= 1e-12
    # peak at t = pi / (4k) equals the input energy; full period returns to 0
    _, (peak, period), _, _ = protocol.evolve_series(UNIT, model, [math.pi / 4.0, math.pi / 2.0])
    assert abs(peak - e_a) <= 1e-9
    assert abs(period) <= 1e-9


# evolve_series at (2, 0.5), weak(0.3), 4096 times on [0, 2 pi] from the
# per-time loop it replaced: (index, H_B brute force, H_B closed, V),
# then the exact sums of the two H_B columns
EVOLVE_FROZEN = (
    (0, 1.693071290138649e-17, 0.0, -1.1549166187806248e-16),
    (512, 0.044702679169728914, 0.04470267916972892, -1.1752751549742868e-16),
    (1024, 0.08937106344201425, 0.08937106344201427, -1.1313014395175798e-16),
    (1536, 0.044634115685121406, 0.04463411568512146, -9.80118763926896e-17),
    (2048, 5.2600374669694756e-08, 5.2600374665777645e-08, -9.235200223913637e-17),
    (2560, 0.04477124261398251, 0.04477124261398254, -7.979727989493313e-17),
    (3072, 0.08937095824129584, 0.0893709582412959, -6.446937168141931e-17),
    (3584, 0.04456555232157552, 0.04456555232157548, -4.85722573273506e-17),
    (4095, -2.449806877830751e-17, 0.0, -3.3520106745796435e-17),
)
EVOLVE_SUMS = (182.9872793223448, 182.987279322345)


def test_evolution_matches_frozen_values():
    times = np.linspace(0.0, 2.0 * math.pi, 4096)
    t, hb, closed, v = protocol.evolve_series(
        ModelParams(2.0, 0.5), measurement.weak_pair(0.3), times
    )
    assert t.tolist() == times.tolist()
    for i, *values in EVOLVE_FROZEN:
        assert_close((hb[i], closed[i], v[i]), values)
    sums = [math.fsum(hb.tolist()), math.fsum(closed.tolist())]
    assert_close(sums, EVOLVE_SUMS)


def test_evolution_names_the_failing_time(monkeypatch):
    # the closed amplitude is E_A / 2: scale E_A by 1 + 1e-6
    input_energy = measurement.input_energy_closed
    monkeypatch.setattr(
        measurement, "input_energy_closed", lambda *args: input_energy(*args) * (1.0 + 1e-6)
    )
    times = np.linspace(0.0, math.pi, 200)
    # sample 6, t = 0.0947..., is the first whose residual exceeds 1e-9
    assert times[5] < 0.0947 < times[6] < 0.0948
    with pytest.raises(RuntimeError, match=r"<H_B\(t\)> closed form differs in case 6 \(residual "):
        protocol.evolve_series(UNIT, measurement.weak_pair(0.3), times)


def test_evolution_other_parameters():
    params = ModelParams(h=2.0, k=0.5)
    model = measurement.weak_pair(0.3)
    e_a = measurement.input_energy_closed(params, model.rows)
    t_peak = math.pi / (4.0 * params.k)
    peak = protocol.evolve_series(params, model, [t_peak])[1][0]
    assert abs(peak - e_a) <= 1e-9 * max(1.0, e_a)


def test_report_bound_fields():
    model = measurement.projective_pair()
    report = case_report(run_batch([(UNIT, model, optimal_rows(UNIT, model))]), 0, 2)
    b = analytic.bounds(UNIT)
    assert abs(report.bound32_rhs - b.c32 * MAX_EB_UNIT / UNIT.eps) <= 1e-10
    assert abs(report.bound770_rhs - b.c770 * report.delta_s) <= 1e-10
    # the two inequalities at the unit projective point
    assert report.delta_s >= report.bound32_rhs - 1e-10
    assert MAX_EB_UNIT >= report.bound770_rhs - 1e-10


# ---------------------------------------------------------------------------
# batched runs

# outcome weights and Haar rotations drawn once (random_measurement with
# seeds 31, 41, 61, and five seeded Haar rotations), written out so
# that the frozen values below do not depend on the random generators
W3 = (
    (0.38267351301974595, 0.18895151574267774),
    (0.03190641195346283, 0.02882849757467202),
    (0.5854200750267912, -0.21778001331734972),
)
W4 = (
    (0.7663708069559613, -0.005069266265153501),
    (0.05575620876863364, 0.009788934052733183),
    (0.07565532605991603, -0.026612614485262434),
    (0.10221765821548891, 0.021892946697682877),
)
W6 = (
    (0.23229851171308732, 0.030898897249136557),
    (0.22031025877638571, 0.021669557741973367),
    (0.23430416957227668, -0.006699001257808552),
    (0.13024452774742992, -0.011935305148349775),
    (0.1260304772235136, 0.009247824978388457),
    (0.05681205496730684, -0.043181973563340074),
)
W_ZERO_MASS = ((0.0, 0.0), (0.5, 0.25), (0.5, -0.25))
TURNS = (
    (1.3831807197071113, -0.19947387607816813, 0.967016544504357, 0.15839562941320195),
    (1.3548782577208132, 0.5214690752420351, 0.2097236020236326, -0.8270949246129187),
    (1.4962320479109743, -0.20655943272975893, -0.1632184133589924, -0.9647242871882792),
    (0.9147279317517318, -0.9639838129186612, 0.15770475218982768, -0.2141597991396718),
    (1.9185625628567948, -0.0971704964118125, 0.9252941365087376, 0.3665905830345778),
)


def test_haar_turns_keep_their_frozen_rows():
    # the (omega, axis) rows of fixed uniforms keep their bits; (0, 0, u2) is the identity
    uniforms = np.array([[0.0, 0.0, 0.3], [0.5, 0.25, 0.75], [0.1, 0.9, 0.4], [0.97, 0.6, 0.05]])
    assert protocol.haar_turns(uniforms).tolist() == [
        [0.0, 0.0, 1.0, 0.0],
        [1.5707963267948966, 0.7071067811865476, -0.7071067811865476, -1.29893408435324e-16],
        [0.6958627703955476, -0.8698602565346394, 0.2899534188448798, -0.3990866434768981],
        [1.7113848482911618, -0.10282186337892206, 0.30737913819731105, 0.9460157133009814],
    ]


def quaternion_unitary(turns):
    """a_0 1 + i (a_1 sigma_x + a_2 sigma_y + a_3 sigma_z) of 4-vectors (..., 4): (..., 2, 2)."""
    a = turns[..., :, None, None]
    return a[..., 0, :, :] * qmath.pauli("i") + 1j * sum(
        a[..., i, :, :] * qmath.pauli(axis) for i, axis in enumerate("xyz", start=1)
    )


def test_turn_policy_reads_the_haar_and_eigen_turns_back(monkeypatch):
    # the (omega, n) table that turn_policy gives each 4-vector rotates by that vector,
    # for the quaternions haar_turns draws and the top eigenvectors of the eigen route
    block, coeffs = checks.draw_members(32, range(200))[:2]
    read, seen = protocol.turn_policy, []

    def spy(turns):
        seen.append(turns)
        return read(turns)

    monkeypatch.setattr(protocol, "turn_policy", spy)
    haar = protocol.haar_turns(np.random.default_rng(32).random((500, 3)))
    _, omega, axes = optimizer.maximize_over_policies(block, coeffs)
    assert len(seen) == 2
    for (angles, turn_axes), turns in zip([(haar[:, 0], haar[:, 1:]), (omega, axes)], seen):
        assert np.abs((turns * turns).sum(-1) - 1.0).max() <= 1e-15
        error = np.abs(protocol.rotations(angles, turn_axes) - quaternion_unitary(turns)).max()
        assert error <= 1e-15
    assert np.all((0.0 <= omega) & (omega <= math.pi / 2.0))


def test_the_identity_turn_gets_the_y_axis():
    omega, axes = protocol.turn_policy(np.array([[1.0, 0.0, 0.0, 0.0], [1.0, -0.0, 0.0, -0.0]]))
    assert omega.tolist() == [0.0, 0.0]
    assert axes.tolist() == [list(analytic.Y_AXIS)] * 2
    # an outcome of probability 0, here a padding row, keeps the identity about y
    models = [measurement.projective_pair(), measurement.random_measurement(3, n_outcomes=3)]
    block = ParamsBlock.of([UNIT, UNIT])
    _, omega, axes = optimizer.maximize_over_policies(
        block, measurement.coefficient_block(models)
    )
    assert (omega[0, 2], axes[0, 2].tolist()) == (0.0, list(analytic.Y_AXIS))


def test_haar_turns_are_unit_axes_and_haar_angles():
    turns = protocol.haar_turns(np.random.default_rng(8).random((100_000, 3)))
    omega, axes = turns[:, 0], turns[:, 1:]
    assert np.all((0.0 <= omega) & (omega <= math.pi))
    assert np.abs((axes * axes).sum(-1) - 1.0).max() <= 1e-15
    # uniform on SU(2): each quaternion component (cos omega, sin omega n) has mean
    # square 1/4, within ~6 standard errors (0.25 / sqrt(1e5)) of 1e5 draws
    quaternion = np.column_stack([np.cos(omega), np.sin(omega)[:, None] * axes])
    assert np.abs((quaternion**2).mean(0) - 0.25).max() <= 0.005


def weights_model(pairs):
    return MeasurementModel.from_weights(*np.transpose(pairs))


def turns(n, start=0):
    return [TURNS[(start + mu) % len(TURNS)] for mu in range(n)]


def optimal(params, model):
    return (params, model, optimal_rows(params, model))


def frozen_cases():
    return [
        optimal(UNIT, measurement.projective_pair()),
        optimal(ModelParams(0.3, 2.7), measurement.weak_pair(0.3)),
        (ModelParams(5.0, 0.2), weights_model(W3), turns(3)),
        optimal(ModelParams(2.0, 0.5), weights_model(W4)),
        (ModelParams(0.1, 10.0), weights_model(W6), turns(6, start=2)),
        (ModelParams(1.5, 0.7), weights_model(W_ZERO_MASS), turns(3, start=4)),
    ]


# ProtocolReport values of frozen_cases() from the per-outcome loop that
# run_many replaced: (e_a, e_b, total_final_energy, delta_s, mutual_info,
# bound32_rhs, bound770_rhs), then per outcome (probability, h_a, h_b, v, total)
FROZEN = [
    (
        (
            0.7071067811865471, 0.11474763394014709, 0.5923591472464,
            0.41649553069968737, 0.4164955306996875, 0.3034066011834987,
            0.11474763394014709,
        ),
        (
            (
                0.5, 0.7071067811865475, 0.25989318568658976,
                -0.374640819626737, 0.5923591472464003,
            ),
            (
                0.5, 0.7071067811865474, 0.2598931856865895,
                -0.3746408196267368, 0.5923591472464,
            ),
        ),
    ),
    (
        (
            0.0015259692839261877, 0.0007407889054220596, 0.0007851803785041281,
            0.045326926116285415, 0.045326926116285415, 0.04463018812304425,
            0.0005426591841718954,
        ),
        (
            (
                0.5, 0.0015259692839258731, 0.0014860202968040325,
                -0.0022268092022259536, 0.000785180378503952,
            ),
            (
                0.5, 0.0015259692839258731, 0.0014860202968040325,
                -0.002226809202225898, 0.0007851803785040076,
            ),
        ),
    ),
    (
        (
            0.5503211015253466, -4.215011374908247, 4.765332476433594,
            0.0006403142102200015, 0.0006403142102200388, 0.0006265480376824965,
            0.0007232522213041038,
        ),
        (
            (
                0.38267351301974595, 0.6515075081068137, 9.373480292181863,
                0.11161143519258253, 10.13659923548126,
            ),
            (
                0.03190641195346283, 2.8551247203352834, 3.144481034922754,
                0.3511203587994073, 6.350726114057444,
            ),
            (
                0.585420075026791, 0.3585624376209395, 0.7163349387001365,
                0.09297434944557076, 1.1678717257666469,
            ),
        ),
    ),
    (
        (
            0.01569687348495909, 0.0008507552232005482, 0.014846118261758542,
            0.0010136620305811472, 0.001013662030581286, 0.001002424297885918,
            0.0006956935771699143,
        ),
        (
            (
                0.7663708069559613, 4.244754543152978e-05, 6.812486008702867e-06,
                -9.170655908322576e-06, 4.008937553191007e-05,
            ),
            (
                0.05575620876863363, 0.030137405513850968, 0.004795093745772678,
                -0.006455759340152191, 0.028476739919471458,
            ),
            (
                0.07565532605991604, 0.12400411972393484, 0.019198334428915113,
                -0.025857152983610656, 0.1173453011692393,
            ),
            (
                0.10221765821548892, 0.04502571690253916, 0.007133185133500603,
                -0.00960419149910156, 0.0425547105369382,
            ),
        ),
    ),
    (
        (
            2.400901781841951e-05, -27.938455592500127, 27.938479601517944,
            0.022648128657645095, 0.022648128657645206, 0.020512161293148187,
            8.168307064733765e-06,
        ),
        (
            (
                0.23229851171308732, 8.885364003952115e-06, -0.004811138948762293,
                38.06772580757875, 38.062923553994,
            ),
            (
                0.2203102587763857, 4.848787787681315e-06, -0.002851228011572177,
                1.7743745959028403, 1.7715282166790558,
            ),
            (
                0.23430416957227668, 4.0878707467605127e-07, -0.0003450953680340024,
                35.021712883560475, 35.021368196979516,
            ),
            (
                0.13024452774742987, 4.207372863522616e-06, 0.004570469571733288,
                37.062768092242166, 37.067342769186766,
            ),
            (
                0.1260304772235136, 2.6956413402198166e-06, 0.005997526313364796,
                27.798022428278184, 27.804022650232888,
            ),
            (
                0.05681205496730683, 0.0003501584748086189, 0.0284179329376136,
                38.14284671872859, 38.171614810141016,
            ),
        ),
    ),
    (
        (
            0.1821082804173227, -2.3284939704767513, 2.510602250894074,
            0.038466095188632005, 0.03846609518863198, 0.036902348202200015,
            0.02042359827685772,
        ),
        (
            (
                0.0, 0.0, 0.0,
                0.0, 0.0,
            ),
            (
                0.5000000000000001, 0.1821082804173227, 2.465083694376974,
                1.3609070468724431, 4.00809902166674,
            ),
            (
                0.5000000000000001, 0.18210828041732266, 0.5862162672803738,
                0.24478093242370938, 1.0131054801214059,
            ),
        ),
    ),
]


def flat_values(value):
    """Every number of a (nested) case report, in field order."""
    if isinstance(value, types.SimpleNamespace):
        value = tuple(vars(value).values())
    if isinstance(value, (tuple, list)):
        return [x for item in value for x in flat_values(item)]
    return [value]


def assert_close(got, want):
    got, want = flat_values(got), flat_values(want)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-14 * max(1.0, abs(w)), (g, w)


def mixed_batch():
    """Outcome counts 1-6, a zero-mass outcome, off-y policies, several (h, k)."""
    return [
        (ModelParams(0.7, 1.3), measurement.identity_measurement(), [Y_TURN]),
        *frozen_cases(),
        (ModelParams(3.0, 0.4), measurement.random_measurement(5, n_outcomes=4), turns(4, 1)),
        optimal(ModelParams(0.25, 4.0), measurement.random_measurement(6, n_outcomes=6)),
        (ModelParams(1.1, 0.9), measurement.random_measurement(7, n_outcomes=2), turns(2, 3)),
    ]


def test_batch_equals_one_run_per_case(monkeypatch):
    monkeypatch.setattr(protocol, "BLOCK", 2)  # blocks split the cases
    cases = mixed_batch()
    batch = run_batch(cases)
    assert batch.e_b.shape == (len(cases),) and batch.per_outcome.shape == (len(cases), 6, 5)
    for i, case in enumerate(cases):
        n = case[1].n_outcomes
        # a block of N is N blocks of one, bit for bit, NaN eigenvalues included
        alone = case_report(run_batch([case]), 0, n)
        got, want = (np.array(flat_values(r)) for r in (case_report(batch, i, n), alone))
        assert got.tobytes() == want.tobytes()
        assert not batch.per_outcome[i, n:].any()  # padding: degenerate outcomes


def test_batch_matches_frozen_values():
    cases = frozen_cases()
    batch = run_batch(cases)
    reports = [case_report(batch, i, case[1].n_outcomes) for i, case in enumerate(cases)]
    for report, (scalars, per_outcome) in zip(reports, FROZEN):
        assert_close(
            (
                report.e_a,
                report.e_b,
                report.total_final_energy,
                report.delta_s,
                report.mutual_info,
                report.bound32_rhs,
                report.bound770_rhs,
            ),
            scalars,
        )
        assert_close(report.per_outcome, per_outcome)


def test_zero_mass_outcome_is_degenerate_in_a_batch():
    report = case_report(run_batch(frozen_cases()), -1, len(W_ZERO_MASS))
    assert report.per_outcome[0] == [0.0] * 5
    assert all(math.isnan(x) for x in report.reduced_eigenvalues[0])
    params = ModelParams(1.5, 0.7)
    for vals, (p, q) in zip(report.reduced_eigenvalues[1:], W_ZERO_MASS[1:]):
        lam_plus, lam_minus = analytic.lambda_pm(params, p, q)
        assert abs(vals[0] - lam_minus) <= 1e-12 and abs(vals[1] - lam_plus) <= 1e-12


def test_batch_working_memory_is_bounded():
    rng = np.random.default_rng(8)
    cases = []
    for i in range(1000):
        params = ModelParams(*(float(x) for x in rng.uniform(0.3, 3.0, size=2)))
        cases.append((params, measurement.random_measurement(rng, (2, 3, 4, 6)[i % 4])))
    block, coeffs = case_block(cases)
    table = protocol.optimal_table(block, *measurement.weight_block(coeffs))
    protocol.run_many(block[:4], coeffs[:4], *(x[:4] for x in table))
    tracemalloc.start()
    try:
        columns = protocol.run_many(block, coeffs, *table)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert columns.e_b.shape == (1000,)
    # the columns themselves hold ~0.4 MB; the arrays of one block come on top
    assert peak - kept < 1_000_000, (kept, peak)


def test_batch_names_the_failing_check_and_case(monkeypatch):
    # only case 7 of the batch (h = 3.0) sees a shifted Q in protocol's view
    shifted = types.SimpleNamespace(**vars(analytic))
    shifted.Q_of = lambda params, *rest: analytic.Q_of(params, *rest) + 1e-6 * (
        params.h == 3.0
    )
    monkeypatch.setattr(protocol, "analytic", shifted)
    monkeypatch.setattr(protocol, "BLOCK", 2)
    with pytest.raises(RuntimeError, match=r"E_B per-outcome route differs in case 7 "):
        run_batch(mixed_batch())


def test_a_nan_closed_input_energy_fails_its_identity(monkeypatch):
    # only case 7 of the batch (h = 3.0) gets a NaN closed E_A
    closed = measurement.input_energy_closed
    monkeypatch.setattr(
        measurement,
        "input_energy_closed",
        lambda params, coeffs: np.where(params.h == 3.0, math.nan, closed(params, coeffs)),
    )
    monkeypatch.setattr(protocol, "BLOCK", 2)
    with pytest.raises(RuntimeError, match=r"E_A closed form differs in case 7 \(residual nan, "):
        run_batch(mixed_batch())


def test_a_nan_q_fails_the_per_outcome_route(monkeypatch):
    # only case 7 of the batch (h = 3.0) sees a NaN Q in protocol's view
    nan_q = types.SimpleNamespace(**vars(analytic))
    nan_q.Q_of = lambda params, *rest: np.where(
        params.h == 3.0, math.nan, analytic.Q_of(params, *rest)
    )
    monkeypatch.setattr(protocol, "analytic", nan_q)
    monkeypatch.setattr(protocol, "BLOCK", 2)
    with pytest.raises(
        RuntimeError, match=r"E_B per-outcome route differs in case 7 \(residual nan, "
    ):
        run_batch(mixed_batch())


def test_a_nan_final_energy_fails_the_energy_floor():
    # the floor's residual is -(final energy); a residual equal to its budget passes
    label = "final energy violates H >= 0"
    residual = np.array([1.0, -3.0, math.nan, 2.0])
    passing = np.array([1.0, -3.0, 0.5, 0.0])  # each at or below either budget
    for budget, printed in ((1.0, "1"), (np.array([1.0, 0.0, 0.5, 0.0]), "0.5")):
        protocol._check(label, passing, budget, 5)
        with pytest.raises(RuntimeError) as failed:
            protocol._check(label, residual, budget, 5)
        # the first failing case, counted from the block's first case 5
        assert str(failed.value) == (
            f"internal cross-check failed: {label} in case 7 (residual nan, budget {printed})"
        )


def passive_batch():
    """2-4 outcomes, rotations as (omega, axis) rows, several (h, k)."""
    return [
        (UNIT, measurement.projective_pair(), TURNS[0]),
        (ModelParams(5.0, 0.2), weights_model(W3), TURNS[1]),
        (ModelParams(2.0, 0.5), weights_model(W4), TURNS[2]),
        (ModelParams(3.0, 0.4), measurement.random_measurement(5, n_outcomes=4), TURNS[3]),
        (ModelParams(1.5, 0.7), weights_model(W_ZERO_MASS), TURNS[4]),
        (ModelParams(0.3, 2.7), measurement.weak_pair(0.3), Y_TURN),
        (ModelParams(1.1, 0.9), measurement.random_measurement(7, n_outcomes=2), TURNS[2]),
    ]


def passive_routes(cases):
    """The direct routes <Wg|H_B + V|Wg> and <Wg|H|Wg> of (params, model, turn) cases."""
    params = ParamsBlock.of([case[0] for case in cases])
    parts = build_hamiltonian(params)
    wg = protocol.rotate_b(ground_state(params), np.stack([matrix(case[2]) for case in cases]))
    return qmath.expectation(wg, parts.h_b + parts.v), qmath.expectation(wg, parts.total)


def test_passive_runs_equal_one_run_per_case(monkeypatch):
    monkeypatch.setattr(protocol, "BLOCK", 3)  # blocks split the cases
    cases = passive_batch()
    cost = passive_cost(cases)
    local, total = passive_routes(cases)
    assert cost.shape == local.shape == total.shape == (len(cases),)
    # a block of N is N blocks of one, bit for bit
    alone = [passive_cost([case])[0] for case in cases]
    assert cost.tolist() == alone
    assert np.all(cost >= 0.0) and cost[5] == 0.0
    assert np.max(np.abs(cost - local)) <= 1e-12 and np.max(np.abs(local - total)) <= 1e-12


def test_passive_runs_name_the_failing_route_and_case(monkeypatch):
    # only case 3 of the batch (h = 3.0) sees H_B scaled by 1 + 1e-6
    def faulty(params):
        parts = build_hamiltonian(params)
        scale = 1.0 + 1e-6 * (np.asarray(params.h)[..., None, None] == 3.0)
        return dataclasses.replace(parts, h_b=parts.h_b * scale)

    monkeypatch.setattr(protocol, "build_hamiltonian", faulty)
    monkeypatch.setattr(protocol, "BLOCK", 2)
    with pytest.raises(RuntimeError, match=r"E_B local form differs in case 3 "):
        passive_cost(passive_batch())


def turn_tables(turns, n):
    """Each member's turn (omega, nx, ny, nz) applied at all n outcomes: angles and axes."""
    return np.repeat(turns[:, :1], n, 1), np.repeat(turns[:, None, 1:], n, 1)


@pytest.mark.parametrize("seed", (0, 7))
@pytest.mark.parametrize("first", (0, 256))
def test_the_d_form_of_a_turn_gives_run_blocks_e_b(seed, first):
    # a turn w = (cos omega, sin omega n) applied at every outcome extracts
    # w^T (sum_mu D_mu) w, the E_B of run_block on the same table
    block, coeffs, _, _, turns = checks.draw_members(seed, range(first, first + 256))
    measured = protocol.measured_block(block, coeffs)
    e_b = protocol.run_block(measured, *turn_tables(turns, coeffs.shape[1]), first).e_b
    w = np.concatenate([np.cos(turns[:, :1]), np.sin(turns[:, :1]) * turns[:, 1:]], axis=1)
    summed = protocol.turn_gains(block, coeffs).sum(axis=1)
    d_form = np.einsum("bi,bij,bj->b", w, summed, w)
    assert np.all(np.abs(d_form - e_b) <= 1e-15 * measured.scale)


def test_a_nan_q_fails_the_turn_runs_per_outcome_route(monkeypatch):
    # member 266, case 10 of the block from member 256, is the only one with its h
    block, coeffs, _, _, turns = checks.draw_members(0, range(256, 300))
    measured = protocol.measured_block(block, coeffs)
    h = block.h[10]
    assert np.count_nonzero(block.h == h) == 1
    nan_q = types.SimpleNamespace(**vars(analytic))
    nan_q.Q_of = lambda params, *rest: np.where(
        params.h == h, math.nan, analytic.Q_of(params, *rest)
    )
    monkeypatch.setattr(protocol, "analytic", nan_q)
    with pytest.raises(
        RuntimeError, match=r"E_B per-outcome route differs in case 266 \(residual nan, "
    ):
        protocol.run_block(measured, *turn_tables(turns, coeffs.shape[1]), 256)
