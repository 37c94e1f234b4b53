"""Output checks for the benchmark, written against the method, not against stored output.

Every check recomputes what it compares with its own numpy code (momentum,
step energy, centre of mass, weighted Procrustes fit, CSV parsing) from the
positions the program returned or wrote, and raises CheckFailed with the
worst value and its tolerance when the property does not hold.  None of
them calls back into snakesim.
"""

from __future__ import annotations

import numpy as np

RESIDUAL_RTOL = 1e-10  # momentum residual bound, relative to sum(w) * L
ENERGY_RTOL = 1e-9
EDGE_RTOL = 1e-10
ISOTROPY_TOL_BL = 1e-9  # net displacement at epsilon = 1, body lengths
FIT_TOL = 1e-3  # |fitted - true| anisotropy ratio
RESIM_RMS_RTOL = 1e-8  # CoM rms of the resimulation at the true ratio, body lengths
COMPOSE_RTOL = 1e-8  # per cycle, body lengths


class CheckFailed(Exception):
    """An output of the program does not have a property the method guarantees."""


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


# -- planar mechanics, recomputed ----------------------------------------------


def _cross(a, b):
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def tensors(weights, epsilon, tangents):
    """(N, 2, 2) dissipation tensors w (I + (eps - 1) t t^T)."""
    outer = np.einsum("ni,nj->nij", tangents, tangents)
    return weights[:, None, None] * (np.eye(2) + (epsilon - 1.0) * outer)


def step_momentum(weights, epsilon, p, s, q, u):
    """(rotational z, translational x, y) momentum of the step p -> q."""
    delta = q - p
    dp = np.einsum("nij,nj->ni", tensors(weights, epsilon, s), delta)
    dq = np.einsum("nij,nj->ni", tensors(weights, epsilon, u), delta)
    rot = -0.5 * np.sum(_cross(q, dp) + _cross(p, dq))
    tran = -0.25 * np.sum(dp + dq, axis=0)
    return np.array([rot, tran[0], tran[1]])


def step_energy(weights, epsilon, p, s, q, u):
    """Quadratic form of the averaged tensor, 1/2 delta^T (D_p + D_q)/2 delta."""
    delta = q - p
    avg = 0.5 * (tensors(weights, epsilon, s) + tensors(weights, epsilon, u))
    return 0.5 * float(np.einsum("ni,nij,nj->", delta, avg, delta))


def com(frames, weights):
    """(F, 2) weighted centre of mass of (F, N, 2) frames."""
    return np.einsum("n,fnd->fd", weights, frames) / weights.sum()


def procrustes(p, q, weights):
    """Weighted rigid motion (rotation matrix, translation) that maps p onto q in least squares."""
    w = weights / weights.sum()
    pb, qb = w @ p, w @ q
    pc, qc = p - pb, q - qb
    angle = np.arctan2(np.sum(weights * _cross(pc, qc)), np.sum(weights * np.sum(pc * qc, axis=1)))
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    return rot, qb - rot @ pb


# -- own parsers -----------------------------------------------------------------


def read_table(path, header):
    """Rows of floats from a CSV whose first line must equal `header`."""
    with open(path) as handle:
        lines = [line.strip() for line in handle if line.strip()]
    _require(lines and lines[0] == header, f"{path}: header is not {header!r}")
    return np.array([[float(cell) for cell in line.split(",")] for line in lines[1:]])


def read_trajectory(path):
    """(F, N, 2) frames from a t,k,x,y CSV; every frame must list k = 0..N-1 in order."""
    rows = read_table(path, "t,k,x,y")
    _require(len(rows) > 0, f"{path}: no rows")
    t, k = rows[:, 0].astype(int), rows[:, 1].astype(int)
    n = int(k.max()) + 1
    _require(len(rows) % n == 0, f"{path}: {len(rows)} rows is not a whole number of {n}-vertex frames")
    frames = len(rows) // n
    _require(
        np.array_equal(t, np.repeat(np.arange(frames), n)) and np.array_equal(k, np.tile(np.arange(n), frames)),
        f"{path}: frames or vertex indices are not consecutive",
    )
    return rows[:, 2:4].reshape(frames, n, 2)


# -- checks ------------------------------------------------------------------------


def check_steps(vertices, tangent_rows, energies, weights, epsilon, body_length):
    """Momentum residual, step energy and rigid placement of a trajectory.

    `vertices` and `tangent_rows` are (F, N, 2); `energies` has F - 1 entries.
    Edge lengths must equal those of the first frame (the shapes are rigidly
    placed copies of canonical shapes with equal edges).
    """
    _require(np.all(np.isfinite(vertices)), "non-finite vertex")
    bound = RESIDUAL_RTOL * weights.sum() * body_length
    worst = max(
        float(np.linalg.norm(step_momentum(weights, epsilon, p, s, q, u)))
        for p, s, q, u in zip(vertices, tangent_rows, vertices[1:], tangent_rows[1:])
    )
    _require(worst <= bound, f"momentum residual {worst:.3e} above {bound:.3e}")
    ours = np.array([
        step_energy(weights, epsilon, p, s, q, u)
        for p, s, q, u in zip(vertices, tangent_rows, vertices[1:], tangent_rows[1:])
    ])
    energies = np.asarray(energies, dtype=float)
    _require(energies.shape == ours.shape, f"{len(energies)} energies for {len(ours)} steps")
    _require(np.all(energies >= 0), f"negative step energy {energies.min():.3e}")
    gap = float(np.max(np.abs(energies - ours)))
    scale = ENERGY_RTOL * max(float(np.max(np.abs(ours))), 1e-300)
    _require(gap <= scale, f"step energy differs from the averaged-tensor form by {gap:.3e}")
    check_edges(vertices, body_length)


def check_edges(frames, body_length, edge_length=None):
    """Every edge of every frame has the reference length (first frame's when not given)."""
    lengths = np.linalg.norm(np.diff(frames, axis=1), axis=2)
    reference = lengths[0] if edge_length is None else edge_length
    gap = float(np.max(np.abs(lengths - reference)))
    _require(gap <= EDGE_RTOL * body_length, f"edge lengths change by {gap:.3e}")


def check_isotropy(frames, weights, body_length):
    path = com(frames, weights)
    moved = float(np.linalg.norm(path[-1] - path[0])) / body_length
    _require(moved < ISOTROPY_TOL_BL, f"isotropic drag moved the body {moved:.3e} body lengths")


def check_search(seed_loss, best_loss, own_best_loss, best_vector, lo, hi):
    """The search keeps the seed's loss or betters it, inside the box, with an honest loss."""
    _require(best_loss <= seed_loss, f"best loss {best_loss!r} worse than seed loss {seed_loss!r}")
    _require(np.all(best_vector >= lo) and np.all(best_vector <= hi), f"best gait {best_vector} outside the bounds")
    gap = abs(best_loss - own_best_loss)
    _require(gap <= 1e-9 * max(abs(own_best_loss), 1e-3), f"reported best loss differs from the recomputed one by {gap:.3e}")


def check_calibration(rows, fitted, true_epsilon):
    """calibration.csv rows (epsilon, rms, displacement): the minimum-rms row is the fit, near the truth."""
    _require(len(rows) > 0, "calibration.csv has no rows")
    best = rows[int(np.argmin(rows[:, 1])), 0]
    _require(abs(best - fitted) < 5e-7, f"minimum-rms row {best!r} is not the fitted ratio {fitted!r}")
    _require(abs(fitted - true_epsilon) < FIT_TOL, f"fitted ratio {fitted!r} is {abs(fitted - true_epsilon):.2e} from {true_epsilon!r}")


def check_resim(resim_frames, recorded_frames, weights, body_length):
    _require(resim_frames.shape == recorded_frames.shape,
             f"resimulated {resim_frames.shape} frames for recorded {recorded_frames.shape}")
    gap = com(resim_frames, weights) - com(recorded_frames, weights)
    rms = float(np.sqrt(np.mean(np.sum(gap ** 2, axis=1))))
    _require(rms <= RESIM_RMS_RTOL * body_length, f"resimulated CoM rms {rms:.3e} m from the recording")


def check_long_run(frames, weights, body_length, edges, cycles, timesteps):
    """Frame count, edge lengths, and composition of the one-cycle net rigid motion."""
    expected = cycles * timesteps + 1
    _require(len(frames) == expected, f"{len(frames)} frames, expected cycles*T+1 = {expected}")
    check_edges(frames, body_length, body_length / edges)
    rot, shift = procrustes(frames[0], frames[timesteps], weights)
    placed = frames[0]
    for n in range(1, cycles + 1):
        placed = placed @ rot.T + shift
        gap = float(np.max(np.abs(placed - frames[n * timesteps])))
        _require(gap <= COMPOSE_RTOL * body_length * n,
                 f"cycle {n}: composed one-cycle motion misses frame {n * timesteps} by {gap:.3e}")
