"""Tests for KO-style desk invariants of sampled bundles over loops.

Expected values come from independent in-test oracles (explicit sign
transport, fibre-by-fibre eigendecompositions, analytic winding
parities) or from closed-form constructions; nothing is copied from
the implementation under test.
"""

import numpy as np
import pytest

from helpers import perturb_field, random_orthogonal, stable_unstable_bundles

from homindex.errors import (
    InputError,
    NoDichotomyError,
    SamplingError,
)
from homindex.field import (
    ParameterLoop,
    SampledBundle,
    autonomous_field,
    construct_hyperbolic_family,
    direct_sum,
    mobius_bundle,
    realization_field,
    tabulated_field,
    trivial_bundle,
)
from homindex.dichotomy import _generic_seed
from homindex.bundle import (
    KOClassDesk,
    bundle_csv_rows,
    bundle_from_projectors,
    first_sw_class,
    index_bundle_pair,
)


# ---------------------------------------------------------------------------
# oracles and builders used by several tests


def transport_sign_oracle(frames: np.ndarray) -> int:
    """Monodromy determinant sign by explicit cyclic frame transport.

    Project the running frame onto the next fibre, re-orthonormalise by
    hand (QR with positive diagonal), and read off the determinant sign
    of the frame the loop returns.  Only numpy calls; the analytic
    winding parities asserted alongside pin the expected values.
    """
    n = frames.shape[0]
    u = frames[0].copy()
    for i in range(1, n + 1):
        f = frames[i % n]
        q, r = np.linalg.qr(f @ (f.T @ u))
        u = q * np.sign(np.diag(r))
    return int(np.sign(np.linalg.det(frames[0].T @ u)))


def winding_line_bundle(loop: ParameterLoop, half_turns: int, dim: int = 2,
                        conjugator: np.ndarray | None = None) -> SampledBundle:
    """Line bundle in R^dim whose fibre direction winds by half_turns * pi.

    Its first Stiefel-Whitney class is half_turns mod 2: the spanning
    direction returns to itself (even) or to its negative (odd) after
    one turn of the loop.
    """
    n = len(loop)
    frames = np.zeros((n, dim, 1))
    for i in range(n):
        ang = half_turns * np.pi * i / n
        frames[i, 0, 0] = np.cos(ang)
        frames[i, 1, 0] = np.sin(ang)
    if conjugator is not None:
        frames = np.einsum("ab,nbr->nar", conjugator, frames)
    return SampledBundle(loop=loop, rank=1, frames=frames,
                         name=f"winding-{half_turns}")


# ---------------------------------------------------------------------------
# KOClassDesk


def test_ko_class_guards_and_zero_pair():
    c = KOClassDesk(virtual_rank=-2, delta_w1=1, provenance=("E", "F"))
    assert c.virtual_rank == -2 and c.delta_w1 == 1
    with pytest.raises(InputError):
        KOClassDesk(virtual_rank=0, delta_w1=2, provenance=("E", "F"))
    with pytest.raises(InputError):
        KOClassDesk(virtual_rank=0, delta_w1=-1, provenance=("E", "F"))

    # the class of a pair (E, E) is the zero element
    loop = ParameterLoop.circle(16)
    mb = mobius_bundle(loop)
    zero = KOClassDesk.of_pair(mb, mb)
    assert zero.virtual_rank == 0
    assert zero.delta_w1 == 0
    assert zero.provenance == ("mobius", "mobius")


# ---------------------------------------------------------------------------
# bundle_from_projectors


def test_bundle_from_projectors_constant_diagonal():
    loop = ParameterLoop.circle(8)
    projs = [np.diag([1.0, 0.0])] * 8

    image = bundle_from_projectors(loop, projs)
    assert image.rank == 1 and image.dim == 2
    for i in range(8):
        assert abs(abs(image.fibre(i)[0, 0]) - 1.0) < 1e-12
        assert abs(image.fibre(i)[1, 0]) < 1e-12
    assert first_sw_class(image) == 0

    kernel = bundle_from_projectors(loop, [np.eye(2) - p for p in projs])
    assert kernel.rank == 1
    for i in range(8):
        assert abs(abs(kernel.fibre(i)[1, 0]) - 1.0) < 1e-12
        assert abs(kernel.fibre(i)[0, 0]) < 1e-12
    assert first_sw_class(kernel) == 0


def test_bundle_from_projectors_mobius_projectors():
    loop = ParameterLoop.circle(64)
    mb = mobius_bundle(loop)
    projs = [mb.projector(i) for i in range(64)]

    image = bundle_from_projectors(loop, projs)
    assert image.rank == 1
    for i in range(64):
        # same line as the Moebius fibre (sign of the frame is free)
        assert abs(abs((image.fibre(i).T @ mb.fibre(i)).item()) - 1.0) < 1e-10
    assert first_sw_class(image) == 1

    # the kernel part is the pointwise orthogonal complement here
    kernel = bundle_from_projectors(loop, [np.eye(2) - p for p in projs])
    for i in range(64):
        assert abs((kernel.fibre(i).T @ mb.fibre(i)).item()) < 1e-10


def test_bundle_from_projectors_oblique_whitney_complement():
    # shear-conjugated Moebius projectors: idempotent but not symmetric
    loop = ParameterLoop.circle(64)
    mb = mobius_bundle(loop)
    s = np.array([[1.0, 0.6], [0.0, 1.0]])
    s_inv = np.linalg.inv(s)
    projs = [s @ mb.projector(i) @ s_inv for i in range(64)]

    image = bundle_from_projectors(loop, projs)
    kernel = bundle_from_projectors(loop, [np.eye(2) - p for p in projs])
    for i in range(64):
        # oracle: im(S Pi S^-1) = S * fibre, ker(S Pi S^-1) = S * (fibre complement)
        v = s @ mb.fibre(i)
        v = v / np.linalg.norm(v)
        assert abs(abs((image.fibre(i).T @ v).item()) - 1.0) < 1e-10
        u = mb.fibre(i)[:, 0]
        w = s @ np.array([[-u[1]], [u[0]]])
        w = w / np.linalg.norm(w)
        assert abs(abs((kernel.fibre(i).T @ w).item()) - 1.0) < 1e-10
        # Whitney-sum complement: image + kernel span the whole plane
        stack = np.hstack([image.fibre(i), kernel.fibre(i)])
        assert np.linalg.svd(stack, compute_uv=False).min() > 1e-3
    # shearing does not change the class
    assert first_sw_class(image) == 1


def test_bundle_from_projectors_validation():
    loop = ParameterLoop.circle(8)
    good = [np.diag([1.0, 0.0])] * 8

    with pytest.raises(InputError):
        bundle_from_projectors(loop, good[:5])
    with pytest.raises(InputError):
        bundle_from_projectors(loop, [np.diag([1.0, 0.5])] * 8)
    with pytest.raises(InputError):
        bundle_from_projectors(loop, [np.ones((2, 3))] * 8)

    jump = [np.diag([1.0, 0.0])] * 8
    jump[3] = np.eye(2)
    with pytest.raises(SamplingError) as excinfo:
        bundle_from_projectors(loop, jump)
    assert "samples 2 and 3" in str(excinfo.value)
    assert "not a bundle at this sampling" in str(excinfo.value)


def test_bundle_from_projectors_names_the_first_bad_projector():
    loop = ParameterLoop.circle(8)

    def message(projs):
        with pytest.raises(InputError) as info:
            bundle_from_projectors(loop, projs)
        return str(info.value)

    # each check names the first projector that fails it: shape, finiteness, idempotency
    projs = [np.diag([1.0, 0.0])] * 8
    projs[5] = np.diag([1.0, 0.5])
    projs[3] = np.diag([1.0, 0.5])
    assert message(projs) == "matrix 3 is not idempotent to 1e-08"
    projs[6] = np.full((2, 2), np.nan)
    projs[4] = np.full((2, 2), np.inf)
    assert message(projs) == "projector 4 has non-finite entries"
    projs[7] = np.ones((2, 3))
    projs[2] = np.ones((3, 3))
    assert message(projs) == "projector 2 is not square of matching size: shape (3, 3)"


def one_at_a_time_gauge(projs, r):
    """Frames of the projectors' images from one SVD each, gauged one sample at a time.

    Sample 0's gauge is the polar factor of U0^T E, E the first r columns
    of the sweep's generic seed, and each later gauge the polar factor
    of U_i^T U_{i-1} times the gauge before it.
    """
    frames, previous, gauge = [], None, None
    for p in projs:
        u = np.linalg.svd(p)[0][:, :r]
        if previous is None:
            w, _, vt = np.linalg.svd(u.T @ _generic_seed(len(p))[:, :r])
            gauge = w @ vt
        else:
            w, _, vt = np.linalg.svd(u.T @ previous)
            gauge = (w @ vt) @ gauge
        previous = u
        frames.append(u @ gauge)
    return frames


def test_bundle_from_projectors_splits_each_sample_as_its_own_svd():
    # the stacked SVD and gauge give every sample the bits of an SVD and a
    # gauge step of its own
    loop = ParameterLoop.circle(8)
    rng = np.random.default_rng(7)
    base = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
    projs = []
    for _ in range(8):
        basis = base + 0.02 * rng.standard_normal((3, 3))
        projs.append(basis[:, :2] @ np.linalg.inv(basis)[:2])  # oblique, rank 2
    complements = [np.eye(3) - p for p in projs]
    image = bundle_from_projectors(loop, projs)
    kernel = bundle_from_projectors(loop, complements)
    for bundle, mats, r in ((image, projs, 2), (kernel, complements, 1)):
        for i, frame in enumerate(one_at_a_time_gauge(mats, r)):
            assert bundle.fibre(i).tobytes() == np.ascontiguousarray(frame).tobytes()


def test_bundle_from_projectors_rank_zero_kernel():
    loop = ParameterLoop.circle(8)
    projs = [np.eye(2)] * 8
    kernel = bundle_from_projectors(loop, [np.eye(2) - p for p in projs])
    assert kernel.rank == 0
    assert kernel.frames.shape == (8, 2, 0)
    assert first_sw_class(kernel) == 0
    image = bundle_from_projectors(loop, projs)
    assert image.rank == 2
    assert first_sw_class(image) == 0


# ---------------------------------------------------------------------------
# first_sw_class


def test_first_sw_class_pinned_generators():
    loop = ParameterLoop.circle(64)
    assert first_sw_class(mobius_bundle(loop)) == 1
    assert first_sw_class(trivial_bundle(loop, 2, 1)) == 0
    assert first_sw_class(trivial_bundle(loop, 3, 2)) == 0
    # two Moebius copies sum to a trivial (orientable) plane bundle
    both = direct_sum(mobius_bundle(loop), mobius_bundle(loop))
    assert both.rank == 2
    assert first_sw_class(both) == 0


def test_first_sw_class_matches_transport_oracle():
    loop = ParameterLoop.circle(64)
    rng = np.random.default_rng(5150)
    cases = [mobius_bundle(loop), trivial_bundle(loop, 2, 1)]
    for half_turns in (0, 1, 2, 3):
        cases.append(winding_line_bundle(loop, half_turns))
        cases.append(
            winding_line_bundle(loop, half_turns, dim=3,
                                conjugator=random_orthogonal(rng, 3))
        )
    for bundle in cases:
        expected = (1 - transport_sign_oracle(bundle.frames)) // 2
        assert first_sw_class(bundle) == expected
    # analytic parity for the winding family
    for half_turns in (0, 1, 2, 3):
        assert first_sw_class(winding_line_bundle(loop, half_turns)) == half_turns % 2


def geodesic_loop(rng, dim: int, rank: int, waypoints: int) -> np.ndarray:
    """Frames of a closed Grassmannian path through random waypoints.

    Consecutive waypoints (the last back to the first) are joined by
    geodesics, cut into steps whose largest principal angle is drawn
    from [0.9, 0.99999] * pi/3, except for the last step of a segment.
    Along a geodesic the principal angles between two points are the
    step times the segment's angles, so every step stays below pi/3.
    """
    ends = [np.linalg.qr(rng.standard_normal((dim, rank)))[0] for _ in range(waypoints)]
    frames = []
    for x, y in zip(ends, ends[1:] + ends[:1]):
        u, cosines, vt = np.linalg.svd(x.T @ y)
        angles = np.arccos(np.clip(cosines, -1.0, 1.0))
        start = x @ u
        away = y @ vt.T - start * cosines
        sines = np.linalg.norm(away, axis=0)
        away = np.divide(away, sines, out=np.zeros_like(away), where=sines > 1e-12)
        t = 0.0
        while t < 1.0:
            frames.append(start * np.cos(t * angles) + away * np.sin(t * angles))
            t += rng.uniform(0.9, 0.99999) * (np.pi / 3.0) / max(angles.max(), 1e-12)
    return np.array(frames)


def test_first_sw_class_at_the_sampling_limit_matches_transport_oracle():
    # consecutive fibres just inside the pi/3 that SampledBundle allows, so
    # the overlap determinants come close to their lower bound 2**-rank
    rng = np.random.default_rng(1217)
    for _ in range(40):
        rank = int(rng.integers(1, 4))
        dim = int(rng.integers(rank + 1, 7))
        frames = geodesic_loop(rng, dim, rank, int(rng.integers(8, 12)))
        for i in range(len(frames)):
            gauge = random_orthogonal(rng, rank)
            if rng.integers(2):
                gauge[:, 0] *= -1.0  # either determinant sign
            frames[i] = frames[i] @ gauge
        bundle = SampledBundle(
            loop=ParameterLoop.circle(len(frames)), rank=rank, frames=frames, name="limit"
        )
        assert first_sw_class(bundle) == (1 - transport_sign_oracle(frames)) // 2


def test_first_sw_class_gauge_and_basepoint_invariance():
    loop = ParameterLoop.circle(32)
    base = direct_sum(mobius_bundle(loop), trivial_bundle(loop, 2, 1))
    assert base.rank == 2
    w1 = first_sw_class(base)
    assert w1 == 1

    rng = np.random.default_rng(321)
    for _ in range(5):
        gauged = np.empty_like(np.asarray(base.frames))
        for i in range(32):
            o = random_orthogonal(rng, 2)
            if rng.integers(2):
                o = o @ np.diag([1.0, -1.0])  # mix in orientation flips
            gauged[i] = base.frames[i] @ o
        regauged = SampledBundle(loop=loop, rank=2, frames=gauged, name="gauged")
        assert first_sw_class(regauged) == w1

    for shift in (1, 7, 19):
        rolled = SampledBundle(
            loop=loop, rank=2,
            frames=np.roll(np.asarray(base.frames), shift, axis=0),
            name="rolled",
        )
        assert first_sw_class(rolled) == w1


def test_first_sw_class_additivity_on_random_pairs():
    loop = ParameterLoop.circle(48)
    rng = np.random.default_rng(2024)
    for _ in range(20):
        ka = int(rng.integers(0, 4))
        kb = int(rng.integers(0, 4))
        a = winding_line_bundle(loop, ka, dim=2,
                                conjugator=random_orthogonal(rng, 2))
        b = winding_line_bundle(loop, kb, dim=3,
                                conjugator=random_orthogonal(rng, 3))
        assert first_sw_class(a) == ka % 2
        assert first_sw_class(b) == kb % 2
        assert first_sw_class(direct_sum(a, b)) == (ka + kb) % 2


def test_rank_and_class_stable_under_loop_refinement():
    for n in (16, 32, 64):
        loop = ParameterLoop.circle(n)
        mb = mobius_bundle(loop)
        assert (mb.rank, first_sw_class(mb)) == (1, 1)
        tv = trivial_bundle(loop, 2, 1)
        assert (tv.rank, first_sw_class(tv)) == (1, 0)
        both = direct_sum(mobius_bundle(loop), mobius_bundle(loop))
        assert (both.rank, first_sw_class(both)) == (2, 0)


# ---------------------------------------------------------------------------
# stable_unstable_bundles


def test_stable_unstable_bundles_realization_mobius():
    loop = ParameterLoop.circle(16)
    mb = mobius_bundle(loop)
    field = realization_field(mb, trivial_bundle(loop, 2, 1), q=0.5)

    es, eu = stable_unstable_bundles(field, anchor_plus=8, anchor_minus=-8,
                                     horizon=20)
    assert es.rank == 1 and eu.rank == 1

    for i in range(16):
        # oracle: the stable space ahead is the eigenspace of the
        # contracted modulus of the autonomous tail matrix
        tail = field.matrix(i, 9)
        vals, vecs = np.linalg.eig(tail)
        stable_dir = np.real(vecs[:, np.argmin(np.abs(vals))])
        stable_dir /= np.linalg.norm(stable_dir)
        assert abs(abs((es.fibre(i)[:, 0] @ stable_dir).item()) - 1.0) < 1e-8
        # the Moebius fibre is that eigenspace by construction
        assert abs(abs((es.fibre(i).T @ mb.fibre(i)).item()) - 1.0) < 1e-8
        # behind, the unstable space is the constant second coordinate axis
        assert abs(abs(float(eu.fibre(i)[1, 0])) - 1.0) < 1e-8

    assert first_sw_class(es) == 1
    assert first_sw_class(eu) == 0


def test_stable_unstable_bundles_autonomous_and_full_contraction():
    loop = ParameterLoop.circle(8)

    saddle = construct_hyperbolic_family(trivial_bundle(loop, 2, 1), 0.5)
    es, eu = stable_unstable_bundles(saddle, anchor_plus=0, anchor_minus=0,
                                     horizon=12)
    assert es.rank == 1 and eu.rank == 1
    for i in range(8):
        assert abs(abs(float(es.fibre(i)[0, 0])) - 1.0) < 1e-10
        assert abs(abs(float(eu.fibre(i)[1, 0])) - 1.0) < 1e-10
    assert first_sw_class(es) == 0 and first_sw_class(eu) == 0

    # uniform contraction: everything is stable, nothing is unstable
    contraction = construct_hyperbolic_family(trivial_bundle(loop, 2, 2), 0.5)
    es2, eu2 = stable_unstable_bundles(contraction, anchor_plus=0,
                                       anchor_minus=0, horizon=12)
    assert es2.rank == 2 and eu2.rank == 0
    assert first_sw_class(eu2) == 0


def test_stable_unstable_bundles_per_sample_failure():
    loop = ParameterLoop.circle(8)
    theta = 2.0 * np.pi / 7.0
    rotation = np.array([[np.cos(theta), -np.sin(theta)],
                         [np.sin(theta), np.cos(theta)]])
    times = np.arange(-20, 21)
    values = np.tile(np.diag([0.5, 2.0]), (8, len(times), 1, 1))
    values[3, :] = rotation  # modulus-one sample: no splitting there
    field = tabulated_field(values, window=(-20, 20), loop=loop)

    with pytest.raises(NoDichotomyError) as excinfo:
        stable_unstable_bundles(field, anchor_plus=0, anchor_minus=0,
                                horizon=12)
    assert "sample 3" in str(excinfo.value)

    loopless = autonomous_field(np.diag([0.5, 2.0]))
    with pytest.raises(InputError):
        stable_unstable_bundles(loopless, anchor_plus=0, anchor_minus=0,
                                horizon=12)


# ---------------------------------------------------------------------------
# the index class of index_bundle_pair


def test_index_bundle_class_realization_generators():
    loop = ParameterLoop.circle(16)

    cls = KOClassDesk.of_pair(*index_bundle_pair(
        realization_field(mobius_bundle(loop), trivial_bundle(loop, 2, 1), q=0.5),
        anchor_plus=8, anchor_minus=-8, horizon=20,
    ))
    assert (cls.virtual_rank, cls.delta_w1) == (0, 1)
    # the realization theorem: the field's index class is the class of
    # the prescribed pair of asymptotic bundles
    pair = KOClassDesk.of_pair(mobius_bundle(loop), trivial_bundle(loop, 2, 1))
    assert (cls.virtual_rank, cls.delta_w1) == (pair.virtual_rank, pair.delta_w1)

    for k, m in ((2, 1), (1, 2), (3, 1)):
        cls_km = KOClassDesk.of_pair(*index_bundle_pair(
            realization_field(trivial_bundle(loop, 3, k),
                              trivial_bundle(loop, 3, m), q=0.5),
            anchor_plus=8, anchor_minus=-8, horizon=20,
        ))
        assert (cls_km.virtual_rank, cls_km.delta_w1) == (k - m, 0)

    both = direct_sum(mobius_bundle(loop), mobius_bundle(loop))
    cls_mm = KOClassDesk.of_pair(*index_bundle_pair(
        realization_field(both, trivial_bundle(loop, 4, 2), q=0.5),
        anchor_plus=8, anchor_minus=-8, horizon=20,
    ))
    assert (cls_mm.virtual_rank, cls_mm.delta_w1) == (0, 0)


def test_index_bundle_class_autonomous_is_zero():
    loop = ParameterLoop.circle(8)
    field = construct_hyperbolic_family(trivial_bundle(loop, 2, 1), 0.5)
    cls = KOClassDesk.of_pair(*index_bundle_pair(field, anchor_plus=0, anchor_minus=0, horizon=12))
    assert (cls.virtual_rank, cls.delta_w1) == (0, 0)
    assert "im P+" in cls.provenance[0] and "im P-" in cls.provenance[1]


def test_index_bundle_class_perturbation_invariance():
    loop = ParameterLoop.circle(8)
    base = realization_field(mobius_bundle(loop), trivial_bundle(loop, 2, 1),
                             q=0.5)
    reference = KOClassDesk.of_pair(*index_bundle_pair(base, anchor_plus=8, anchor_minus=-8,
                                                       horizon=16))
    assert (reference.virtual_rank, reference.delta_w1) == (0, 1)

    for seed in (11, 12, 13):
        rng = np.random.default_rng(seed)
        bump = rng.standard_normal((2, 2))
        bump *= 1e-3 / np.linalg.norm(bump, ord=2)

        def pert(lams, times, b=bump):
            one = b / (1.0 + 0.5 * np.abs(times))[:, None, None]
            return np.broadcast_to(one, (len(lams),) + one.shape)

        perturbed, report = perturb_field(base, pert, gamma_plus=2e-3,
                                          gamma_minus=2e-3)
        assert report.small
        cls = KOClassDesk.of_pair(*index_bundle_pair(perturbed, anchor_plus=8, anchor_minus=-8,
                                                     horizon=16))
        assert (cls.virtual_rank, cls.delta_w1) == (
            reference.virtual_rank, reference.delta_w1
        )


# ---------------------------------------------------------------------------
# CSV rows


def test_bundle_csv_rows_layout():
    loop = ParameterLoop.circle(8)
    mb = mobius_bundle(loop)
    header, rows = bundle_csv_rows(mb)
    assert header == ["sample", "param_0", "frame_0_0", "frame_1_0"]
    assert len(rows) == 8
    assert rows[0][0] == 0
    assert rows[0][1] == pytest.approx(0.0)
    assert rows[0][2] == pytest.approx(1.0)  # cos(0/2)
    assert rows[0][3] == pytest.approx(0.0)  # sin(0/2)
    assert rows[2][1] == pytest.approx(loop.angle(2))
    assert rows[2][2] == pytest.approx(np.cos(loop.angle(2) / 2.0))
