"""Loop-wide batches: field reads, shared family batches and per-sample failures."""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import re
import subprocess
import sys
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from homindex.bifurcation import (
    CertifyOptions,
    PerturbedSystemSpec,
    certify_bifurcation,
    check_F3,
    linearize_at_zero,
    localize_bifurcations,
)
from homindex.dichotomy import (
    ProjectorFamily,
    build_projector_families,
    build_projector_family,
    verify_ed,
    verify_families,
    whole_line_families,
)
import homindex.bifurcation as bifurcation
import homindex.bundle as bundle
import homindex.dichotomy as dichotomy
import homindex.field as field_module
import homindex.scenario as scenario_module
from homindex.bifurcation import NonlinearField
from homindex.cli import run
from homindex import fredholm
from homindex.errors import (
    HomindexError,
    InputError,
    NoDichotomyError,
    NumericError,
    SamplingError,
    WindowTooShortError,
    fresh,
)
from homindex.bundle import index_bundle_pair
from homindex.field import (
    DiscreteVectorField,
    ParameterLoop,
    direct_sum,
    mobius_bundle,
    realization_field,
    tabulated_field,
    trivial_bundle,
)
from homindex.scenario import Scenario, builtin_document

SADDLE = np.diag([0.5, 2.0])


def saddle_loop_field(n_samples=8, broken=None, window=(-100, 100)):
    """Constant saddle at every sample; sample `broken` gets the identity (no dichotomy)."""
    loop = ParameterLoop.circle(n_samples)
    values = np.broadcast_to(SADDLE, (n_samples, window[1] - window[0] + 1, 2, 2)).copy()
    if broken is not None:
        values[broken] = np.eye(2)
    return tabulated_field(values, window, loop=loop)


def counting_field(n_samples=8, bad=None):
    """Rotated saddles with an evaluator that records each call's samples and times."""
    calls = []

    def rotated(lam):
        c, s = np.cos(0.1 * lam), np.sin(0.1 * lam)
        rot = np.array([[c, -s], [s, c]])
        return rot @ SADDLE @ rot.T

    def evaluate(lams, times):
        calls.append((lams.tolist(), times.tolist()))
        one = np.array([rotated(lam) for lam in lams.tolist()])
        out = np.repeat(one[:, None], len(times), axis=1)
        if bad is not None:
            out[(lams == bad[0])[:, None] & (times == bad[1])] = np.nan
        return out

    field = DiscreteVectorField(
        dim=2, evaluator=evaluate, window=(-200, 200), loop=ParameterLoop.circle(n_samples)
    )
    return field, calls


FAMILY_KEYS = [("plus", 0, 30), ("minus", 0, 30), ("plus", 8, 2), ("minus", -8, 2)]


@pytest.mark.parametrize("side,anchor,length", FAMILY_KEYS)
def test_batched_families_equal_batch_of_one_on_system2_mobius(side, anchor, length):
    scenario = Scenario.builtin("system2-mobius")
    batched_field = scenario.build_field()
    single_field = scenario.build_field()
    assert batched_field is not single_field
    lams = range(batched_field.n_params)
    batch = build_projector_families(batched_field, lams, side, anchor, length, horizon=40)
    witnesses = verify_families(batch)
    for lam, fam, wit in zip(lams, batch, witnesses):
        one = build_projector_family(single_field, lam, side, anchor, length, horizon=40)
        assert isinstance(fam, ProjectorFamily) and fam.rank == one.rank
        assert np.array_equal(fam.times, one.times)
        for name in ("image_frames", "kernel_frames", "image_steps", "kernel_steps"):
            assert np.allclose(getattr(fam, name), getattr(one, name), rtol=0.0, atol=1e-12), name
        if length < 4:  # too short to fit constants: both paths refuse alike
            with pytest.raises(InputError, match=str(wit)):
                verify_ed(one)
            continue
        one_wit = verify_ed(one)
        assert wit.k_const == pytest.approx(one_wit.k_const, rel=1e-12)
        assert wit.alpha == pytest.approx(one_wit.alpha, rel=1e-12)
        assert wit.checked_pairs == one_wit.checked_pairs


@pytest.mark.parametrize(
    "tolerance,message",
    [
        ({"tau_inv": 1e-30}, "exceeds 1.0e-30"),
        ({"sigma_reg": 10.0}, "< 1.0e+01"),
        ({"zero_margin": 0.8}, "within 8.0e-01 of zero"),
        ({"gap_ratio": 1e300}, "too short to separate the rate groups"),
    ],
)
def test_the_single_form_hands_each_tolerance_to_the_batch(tolerance, message):
    # a non-normal saddle, whose frame transport leaves a rounding residual
    table = np.broadcast_to([[0.5, 3.0], [0.0, 2.0]], (201, 2, 2))
    field = tabulated_field(table, (-100, 100))
    assert isinstance(build_projector_family(field, 0, "plus", 0, 20, 40), ProjectorFamily)
    (batch,) = build_projector_families(field, [0], "plus", 0, 20, 40, **tolerance)
    assert isinstance(batch, HomindexError) and message in str(batch)
    with pytest.raises(type(batch), match=re.escape(str(batch))):
        build_projector_family(field, 0, "plus", 0, 20, 40, **tolerance)


def test_a_family_is_fitted_once_and_shared_read_only(monkeypatch):
    field = saddle_loop_field()
    batch = build_projector_families(field, range(8), "plus", 0, 20, horizon=40)
    fits = []
    verify_batch = dichotomy._verify_batch

    def counted(fams):
        fits.append(len(fams))
        return verify_batch(fams)

    monkeypatch.setattr(dichotomy, "_verify_batch", counted)
    wit = verify_families(batch)[3]
    again = verify_ed(batch[3])
    assert fits == [8, 1]  # one call fitted the batch; verify_ed fits its family again
    fields = ("family", "k_const", "alpha", "checked_pairs")
    assert [getattr(again, k) for k in fields] == [getattr(wit, k) for k in fields]
    with pytest.raises(ValueError):
        batch[3].image_frames[0, 0, 0] = 1.0  # shared families are read-only


def test_failing_sample_keeps_its_error_and_spares_the_others():
    k = 5
    expected = (
        "no dichotomy detected at anchor 0 on the plus side: a sampled rate sits "
        "within 2.0e-03 of zero"
    )
    field = saddle_loop_field(broken=k)
    batch = build_projector_families(field, range(8), "plus", 0, 30, horizon=40)
    assert isinstance(batch[k], NoDichotomyError) and str(batch[k]) == expected
    assert all(isinstance(batch[i], ProjectorFamily) for i in range(8) if i != k)
    # the single-sample path raises the same error, on this field and on a new one
    for f in (field, saddle_loop_field(broken=k)):
        with pytest.raises(NoDichotomyError) as info:
            build_projector_family(f, k, "plus", 0, 30, horizon=40)
        assert str(info.value) == expected
    verdicts = [check_F3(field, lam, window=(-30, 30), horizon=40).verdict for lam in range(8)]
    assert verdicts == ["pass"] * k + ["indeterminate"] + ["pass"] * (8 - k - 1)


def test_f2_names_the_first_failing_sample_in_loop_order():
    field = saddle_loop_field(n_samples=8, broken=5, window=(-10_000, 10_000))
    zero = lambda lams, times, x: np.zeros(x.shape)  # noqa: E731
    f = PerturbedSystemSpec(
        a_field=field,
        residual=zero,
        residual_derivative=lambda lams, times, x: np.zeros(x.shape + (2,)),
    ).to_nonlinear()
    cert = certify_bifurcation(f, CertifyOptions(horizon=40, f3_window=(-30, 30)))
    assert cert.verdict == "hypotheses_failed" and not cert.f2_ok
    assert any(
        w.startswith("(F2) half-line dichotomies are unavailable: parameter sample 5: "
                     "no dichotomy detected at anchor 0 on the plus side")
        for w in cert.warnings
    )


def rank_jump_field(window=(-100, 100)):
    """Saddle samples, but samples 1 and 2 contract in both directions: im P+ has rank 2 there."""
    loop = ParameterLoop.circle(8)
    values = np.tile(SADDLE, (8, window[1] - window[0] + 1, 1, 1))
    values[1:3] = np.diag([0.5, 0.5])
    return tabulated_field(values, window, loop=loop)


RANK_JUMP = "projector rank jumps from 1 to 2 between loop samples 0 and 1"


def zero_residual_system(field) -> NonlinearField:
    return PerturbedSystemSpec(
        a_field=field,
        residual=lambda lams, times, x: np.zeros(x.shape),
        residual_derivative=lambda lams, times, x: np.zeros(x.shape + (field.dim,)),
    ).to_nonlinear()


def test_a_rank_jump_along_the_loop_is_a_sampling_error_for_class_and_f2():
    field = rank_jump_field()
    with pytest.raises(SamplingError, match=RANK_JUMP):
        index_bundle_pair(field, anchor_plus=8, anchor_minus=-8, horizon=40)
    cert = certify_bifurcation(
        zero_residual_system(field), CertifyOptions(horizon=40, f3_window=(-30, 30))
    )
    assert cert.verdict == "hypotheses_failed" and not cert.f2_ok
    assert f"(F2) half-line dichotomies are unavailable: {RANK_JUMP}" in "\n".join(cert.warnings)


def test_a_singular_step_beyond_the_anchors_fails_f2_for_the_whole_loop():
    # sample 3's step at time 40 is zero, so every forward solution from 0 dies there:
    # its stable space has rank 2 where the other samples' has rank 1.  F2 reads the
    # families of the F3 window [-30, 30], whose runs reach time 69 at horizon 40, so
    # the stable bundle's rank jump fails the whole loop.  2-step families at the
    # anchors +-8 saw rank 1 at every sample, which only left F3 indeterminate there.
    values = np.tile(SADDLE, (8, 201, 1, 1))
    values[3, 140] = 0.0
    field = tabulated_field(values, (-100, 100), loop=ParameterLoop.circle(8))
    options = CertifyOptions(horizon=40, f3_window=(-30, 30))
    assert (options.anchor_minus, options.anchor_plus) == (-8, 8)
    cert = certify_bifurcation(zero_residual_system(field), options)
    assert cert.verdict == "hypotheses_failed" and not cert.f2_ok and not cert.f3_ok
    assert (
        "(F2) half-line dichotomies are unavailable: projector rank jumps from 1 to 2 "
        "between loop samples 2 and 3: not a bundle at this sampling"
    ) in cert.warnings


def test_non_finite_entry_is_named_by_every_read_and_spares_the_other_samples():
    field, calls = counting_field(bad=(2, 5))
    for _ in range(2):
        with pytest.raises(NumericError, match=r"non-finite entries at \(lam=2, n=5\)"):
            field.matrix(2, 5)
    assert calls == [([2], [5])] * 2  # a field keeps nothing: each read evaluates afresh
    calls.clear()
    batch = build_projector_families(field, range(8), "plus", 0, 30, horizon=40)
    assert isinstance(batch[2], NumericError)
    assert "(lam=2, n=5)" in str(batch[2])
    assert all(isinstance(batch[i], ProjectorFamily) for i in range(8) if i != 2)
    # one read of one run: one call, carrying every sample, the failing one too
    assert [lams for lams, _ in calls] == [list(range(8))]
    build_projector_families(field, range(8), "minus", 0, 30, horizon=40)
    build_projector_families(field, range(8), "plus", 8, 2, horizon=40)
    assert [lams for lams, _ in calls] == [list(range(8))] * 3
    calls.clear()
    verdicts = [check_F3(field, lam, window=(-30, 30), horizon=40).verdict for lam in range(8)]
    assert verdicts == ["pass"] * 2 + ["indeterminate"] + ["pass"] * 5
    for lam in range(8):
        if lam == 2:
            with pytest.raises(NumericError, match=r"\(lam=2, n=5\)"):
                field.matrices(lam, -70, 69)
        else:
            assert field.matrices(lam, -70, 69).shape == (140, 2, 2)
    # a read of one sample carries that sample alone, each requested time once
    assert calls and all(len(lams) == 1 for lams, _ in calls)
    assert all(len(set(times)) == len(times) for _, times in calls)
    assert calls[-8:] == [([lam], list(range(-70, 70))) for lam in range(8)]


def test_each_side_names_the_bad_entry_its_sweep_meets_first():
    # the plus sweep runs down from the far end, the minus sweep up to the anchor
    for side, bad, named in (("plus", {5, 40}, 40), ("minus", {-60, -20}, -60)):
        field = DiscreteVectorField(
            dim=2,
            evaluator=lambda lams, times, bad=bad: np.broadcast_to(
                np.where(np.isin(times, list(bad))[:, None, None], np.inf, SADDLE),
                (len(lams), len(times), 2, 2),
            ),
            window=(-200, 200),
            loop=ParameterLoop.circle(8),
        )
        with pytest.raises(NumericError, match=rf"\(lam=0, n={named}\)"):
            build_projector_family(field, 0, side, 0, 30, horizon=40)


def test_a_stack_of_the_wrong_shape_fails_each_requested_entry_of_its_read():
    calls = []

    def evaluate(lams, times):
        calls.append(times.tolist())
        return np.zeros((len(lams), len(times), 3, 3))

    field = DiscreteVectorField(dim=2, evaluator=evaluate, window=(-20, 20))
    # a malformed shape is an input error (errors.InputError)
    with pytest.raises(InputError, match=r"shape \(3, 3\) at \(lam=0, n=-5\)"):
        field.matrices(0, -5, 5)
    with pytest.raises(InputError, match=r"\(lam=0, n=2\)"):
        field.matrix(0, 2)
    # a read that covers the failed times evaluates them again; the lowest failure is named
    with pytest.raises(InputError, match=r"shape \(3, 3\) at \(lam=0, n=-6\)"):
        field.matrices(0, -6, 6)
    # one call per read, each requested time once
    assert calls == [list(range(-5, 6)), [2], list(range(-6, 7))]


def test_a_read_evaluates_each_repeated_sample_once_and_keeps_its_errors():
    field, calls = counting_field(bad=(2, 5))
    lams, times = [4, 2, 4, 0, 2, 9], [5, 6, 7]
    mats, errors = field.stack(lams, times)
    # one call, each distinct sample in range once, in request order: 9 entries, not 15
    assert calls == [([4, 2, 0], times)]
    for s, lam in enumerate(lams):
        alone, (error,) = field.stack([lam], times)
        assert np.array_equal(mats[s], alone[0])
        assert type(errors[s]) is type(error) and str(errors[s]) == str(error)
    assert [type(e).__name__ for e in errors] == [
        "NoneType", "NumericError", "NoneType", "NoneType", "NumericError", "InputError"
    ]
    assert str(errors[1]) == "evaluator returned non-finite entries at (lam=2, n=5)"
    # a read raises the error of the first failing sample it lists
    with pytest.raises(InputError, match="parameter index 9"):
        field_module._read_all(field, [0, 9, 2], times)


def test_a_call_that_raises_is_retried_per_sample_and_spares_the_others():
    calls = []

    def evaluate(lams, times):
        calls.append(lams.tolist())
        if 3 in lams.tolist():
            raise NumericError("sample 3 cannot be evaluated")
        if 5 in lams.tolist():
            raise ValueError("a bug in the evaluator")
        return np.broadcast_to(SADDLE, (len(lams), len(times), 2, 2))

    field = DiscreteVectorField(
        dim=2, evaluator=evaluate, window=(-20, 20), loop=ParameterLoop.circle(8)
    )
    # one call per read: it raises and is repeated per sample, and sample 3
    # keeps its error
    mats, errors = field.stack([1, 3, 4], [0, 1, 5, 6])
    assert calls == [[1, 3, 4], [1], [3], [4]]
    assert errors[0] is None and errors[2] is None
    assert isinstance(errors[1], NumericError) and str(errors[1]) == "sample 3 cannot be evaluated"
    assert not mats[1].any() and np.array_equal(mats[2], np.broadcast_to(SADDLE, (4, 2, 2)))
    # any other exception is the failing sample's InputError, named at its first
    # failing (lam, n), and spares the others too
    mats, errors = field.stack([1, 5], [0, 2])
    assert errors[0] is None and isinstance(errors[1], InputError)
    assert str(errors[1]) == "evaluator failure at (lam=5, n=0): a bug in the evaluator"
    assert not mats[1].any() and np.array_equal(mats[0], np.broadcast_to(SADDLE, (2, 2, 2)))


def test_a_sample_whose_evaluator_raises_fails_alone_in_a_family_batch():
    # the batch's read raises, each sample is read alone, and sample 3's read
    # is narrowed to its first failing time in the plus sweep's order (down
    # from the far end)
    def evaluate(lams, times):
        if 3 in lams.tolist() and np.isin([7, 12], times).any():
            raise ValueError("no value here")
        return np.broadcast_to(SADDLE, (len(lams), len(times), 2, 2))

    field = DiscreteVectorField(
        dim=2, evaluator=evaluate, window=(-100, 100), loop=ParameterLoop.circle(8)
    )
    batch = build_projector_families(field, range(8), "plus", 0, 30, horizon=40)
    assert isinstance(batch[3], InputError)
    assert str(batch[3]) == "evaluator failure at (lam=3, n=12): no value here"
    clean = build_projector_families(saddle_loop_field(), range(8), "plus", 0, 30, horizon=40)
    others = [batch[lam] for lam in range(8) if lam != 3]
    for fam, one in zip(others, clean[:3] + clean[4:]):
        assert isinstance(fam, ProjectorFamily)
        assert fam.image_frames.tobytes() == one.image_frames.tobytes()
    assert not any(isinstance(w, HomindexError) for w in verify_families(others))


def test_a_non_finite_residual_is_named_through_value_and_the_linearization():
    base = realization_field(
        mobius_bundle(ParameterLoop.circle(8)), trivial_bundle(ParameterLoop.circle(8), 2, 1)
    )

    def residual(lams, times, x):
        # non-finite at (lam 2, n 3) off the trivial branch, which stays exact
        bad = (lams == 2)[:, None] & (times == 3)[None, :] & np.any(x != 0.0, axis=-1)
        return np.where(bad[..., None], np.nan, 0.0 * x)

    def residual_derivative(lams, times, x):
        out = np.zeros(x.shape + (2,))
        out[(lams == 2)[:, None] & (times == 4)[None, :]] = np.inf
        return out

    f = PerturbedSystemSpec(base, residual, residual_derivative).to_nonlinear()
    times = np.arange(0, 6)
    message = r"^{} returned non-finite entries at \(lam=2, n={}\)$"
    with pytest.raises(NumericError, match=message.format("evaluator", 3)):
        f.value([0, 2, 5], times, np.ones((3, 6, 2)))
    with pytest.raises(NumericError, match=message.format("derivative", 4)):
        bifurcation._derivatives(f, [0, 2], times, np.zeros((2, 6, 2)))
    lin = linearize_at_zero(f)
    mats, errors = lin.stack([0, 2, 5], times)
    assert errors[0] is None and errors[2] is None
    assert type(errors[1]) is NumericError
    assert str(errors[1]) == "evaluator returned non-finite entries at (lam=2, n=4)"
    assert np.array_equal(mats[[0, 2]], base.stack([0, 5], times)[0])
    with pytest.raises(NumericError, match=r"\(lam=2, n=4\)"):
        lin.matrices(2, 0, 5)


def test_each_certify_read_is_validated_once_plus_its_linear_part(monkeypatch, tmp_path):
    # on `certify` of system2-mobius every read of the system or its linearization
    # is validated by one `_validate` call, inside which the linear part's own read
    # makes the only other
    validate, reads, open_reads = field_module._validate, [], []

    def counted(fn, label, owner, *args, **kwargs):
        read = (type(owner).__name__, label, fn.__qualname__, [])
        (open_reads[-1][3] if open_reads else reads).append(read)
        open_reads.append(read)
        try:
            return validate(fn, label, owner, *args, **kwargs)
        finally:
            open_reads.pop()

    monkeypatch.setattr(field_module, "_validate", counted)
    monkeypatch.setattr(bifurcation, "_validate", counted)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(builtin_document("system2-mobius")))
    assert run(["certify", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 0
    linear_part = ("DiscreteVectorField", "evaluator", "realization_field.<locals>.evaluate", [])
    kinds = {tuple(read[:3]) for read in reads}
    assert kinds == {
        ("NonlinearField", "evaluator", "PerturbedSystemSpec.to_nonlinear.<locals>.evaluate"),
        ("NonlinearField", "derivative", "PerturbedSystemSpec.to_nonlinear.<locals>.derivative"),
        ("DiscreteVectorField", "evaluator", "linearize_at_zero.<locals>.evaluate"),
    }
    # F0's central differences take one read of the system, so a certify makes 9 in all
    assert len(reads) == 9 and all(read[3] == [linear_part] for read in reads), reads


def time_stamped_field(window=(-200, 200), bad=()):
    """Field whose entry (0, 0) is the time; the evaluator counts its calls per time."""
    calls = Counter()

    def evaluate(lams, times):
        calls.update(n for _ in lams for n in times.tolist())
        out = np.broadcast_to(SADDLE, (len(lams), len(times), 2, 2)).copy()
        out[:, :, 0, 0] = times
        out[:, np.isin(times, list(bad))] = np.inf
        return out

    return DiscreteVectorField(dim=2, evaluator=evaluate, window=window), calls


def test_far_apart_reads_evaluate_only_the_requested_times():
    field, calls = time_stamped_field(window=(-10_000, 10_000))
    (table,), _ = field.stack([0], [-10_000, 0, 10_000])
    assert table[:, 0, 0].tolist() == [-10_000, 0, 10_000]
    assert sorted(calls) == [-10_000, 0, 10_000] and set(calls.values()) == {1}


def test_unsorted_reads_with_repeats_come_back_in_request_order():
    field, calls = time_stamped_field()
    assert field.matrices(0, 0, 5)[:, 0, 0].tolist() == list(range(6))
    times = [9, 3, -1, 9, 7, 3, -2, 8]
    (table,), _ = field.stack([0], times)
    assert table[:, 0, 0].tolist() == times
    assert np.array_equal(table[:, 1], np.broadcast_to(SADDLE[1], (len(times), 2)))
    assert not table.flags.writeable
    # each read evaluates each distinct time it asks for once, repeats included
    assert calls == Counter(range(6)) + Counter([-2, -1, 3, 7, 8, 9])


def test_a_read_names_its_first_bad_entry_in_request_order():
    for times, named in (([40, 5], 40), ([5, 40], 5)):
        field, calls = time_stamped_field(bad=(5, 40))
        _, (error,) = field.stack([0], times)
        assert isinstance(error, NumericError)
        assert re.search(rf"non-finite entries at \(lam=0, n={named}\)", str(error))
        # a read in the other order evaluates both again and names the other one
        other = 45 - named
        mats, (error,) = field.stack([0], times[::-1])
        assert re.search(rf"\(lam=0, n={other}\)", str(error))
        assert not mats.any() and calls == Counter({5: 2, 40: 2})


def seeded_families(monkeypatch):
    """The (plus, minus) family pairs localization seeds its Newton runs from, as it reads them."""
    seen = []
    seeds = bifurcation._seeds

    def recorded(plus, minus, window):
        seen.extend(zip(plus, minus))
        return seeds(plus, minus, window)

    monkeypatch.setattr(bifurcation, "_seeds", recorded)
    return seen


def test_localization_reuses_the_families_certification_built(monkeypatch):
    f = Scenario.builtin("system2-mobius").build_nonlinear()
    cert = certify_bifurcation(f, CertifyOptions(horizon=40, f3_window=(-30, 30)))
    assert cert.verdict == "bifurcation_certified"
    assert cert.families.window == (-30, 30)
    seen = seeded_families(monkeypatch)
    monkeypatch.setattr(bifurcation, "whole_line_families", None)  # no second batch
    for window in ((-30, 30), (-20, 20)):  # the F3 window, and one inside it
        seen.clear()
        assert localize_bifurcations(f, cert, window=window, horizon=40)
        assert len(seen) == f.n_params
        for lam, (fam_plus, fam_minus) in enumerate(seen):
            assert fam_plus is cert.families.plus[lam] and fam_minus is cert.families.minus[lam]


def test_localization_builds_its_own_batch_when_the_certificate_cannot_serve(monkeypatch):
    f = Scenario.builtin("system2-mobius").build_nonlinear()
    cert = certify_bifurcation(f, CertifyOptions(horizon=40, f3_window=(-30, 30)))
    # a wider window, another horizon, other tolerances: each builds its own batch
    for kwargs in (
        dict(window=(-35, 30), horizon=40),
        dict(window=(-30, 30), horizon=41),
        dict(window=(-30, 30), horizon=40, gap_ratio=1e4),
    ):
        seen = seeded_families(monkeypatch)
        assert localize_bifurcations(f, cert, **kwargs)
        assert seen and not any(p is cert.families.plus[lam] for lam, (p, _) in enumerate(seen))
    # another system on the same loop never seeds from this certificate's families
    g = Scenario.builtin("system2-mobius").build_nonlinear()
    seen = seeded_families(monkeypatch)
    assert localize_bifurcations(g, cert, window=(-30, 30), horizon=40)
    assert seen and not any(p is cert.families.plus[lam] for lam, (p, _) in enumerate(seen))


def count_build_batches(monkeypatch) -> list:
    """The number of families each `_build_batch` call builds, one entry per call."""
    calls = []
    build = dichotomy._build_batch

    def counted(pending, horizon, tolerances):
        calls.append(sum(len(runs) for *_, runs in pending))
        return build(pending, horizon, tolerances)

    monkeypatch.setattr(dichotomy, "_build_batch", counted)
    return calls


def test_a_read_of_many_samples_fills_each_run_once_and_names_each_sample_s_error():
    field, calls = counting_field(bad=(2, 5))
    field.matrices(4, 0, 9)
    calls.clear()
    mats, errors = field.stack([0, 2, 4, 9], np.arange(12, -1, -1))
    # one call on the run [0, 12] carries every sample in range, the failing one too
    assert calls == [([0, 2, 4], list(range(13)))]
    assert mats.shape == (4, 13, 2, 2) and not mats.flags.writeable
    assert [e is None for e in errors] == [True, False, True, False]
    assert "(lam=2, n=5)" in str(errors[1]) and "outside range(8)" in str(errors[3])
    assert not mats[1].any()
    assert np.array_equal(mats[2], field.matrices(4, 0, 12)[::-1])


def certify_loop_document(ahead: dict) -> dict:
    """A system2 document shaped like the certify-loop benchmark (n = 32, windows +-30)."""
    doc = builtin_document("system2-mobius")
    doc["loop"]["n"] = 32
    doc["field"].update(stable_ahead=ahead, q=0.45)
    doc["options"].update(f3_window=[-30, 30], localize_window=[-30, 30])
    return doc


@pytest.mark.parametrize(
    "doc, verdict, most_values",
    [
        (builtin_document("system2-mobius"), "bifurcation_certified", None),
        (certify_loop_document({"kind": "mobius"}), "bifurcation_certified", None),
        (certify_loop_document({"kind": "trivial", "rank": 1}), "obstruction_vanishes", 12),
    ],
)
def test_certify_calls_each_evaluator_once_per_read_of_all_samples(
    tmp_path, monkeypatch, doc, verdict, most_values
):
    calls = Counter()
    reads = []  # (evaluator, distinct samples) of each open read, the innermost last
    strays = []  # evaluator calls that did not carry each sample of their read once
    stack = DiscreteVectorField.stack

    def recorded_stack(self, lams, times):
        reads.append((self.evaluator, list(dict.fromkeys(int(lam) for lam in lams))))
        try:
            return stack(self, lams, times)
        finally:
            reads.pop()

    monkeypatch.setattr(DiscreteVectorField, "stack", recorded_stack)

    def counted(label, evaluate):
        def wrapped(lams, *args):
            calls[label] += 1
            if not reads or reads[-1][0] is not wrapped or reads[-1][1] != lams.tolist():
                strays.append((label, lams.tolist()))
            return evaluate(lams, *args)

        return wrapped

    build = scenario_module.realization_field

    def realization(*args, **kwargs):
        field = build(*args, **kwargs)
        return dataclasses.replace(field, evaluator=counted("realization", field.evaluator))

    monkeypatch.setattr(scenario_module, "realization_field", realization)

    def linearization(**kwargs):
        kwargs["evaluator"] = counted("linearization", kwargs["evaluator"])
        return DiscreteVectorField(**kwargs)

    monkeypatch.setattr(bifurcation, "DiscreteVectorField", linearization)
    value = NonlinearField.value

    def counted_value(self, *args):
        calls["value"] += 1
        return value(self, *args)

    monkeypatch.setattr(NonlinearField, "value", counted_value)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code = run(["certify", "--scenario", str(path), "--out", str(tmp_path / "out")])
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert code == 0 and report["results"]["verdict"] == verdict
    # every call carries each sample of its read once (no sample fails here)
    assert calls["linearization"] >= 1 and calls["realization"] >= 1 and strays == []
    if most_values is not None:
        assert calls["value"] <= most_values


def test_realize_reads_every_sample_in_one_evaluator_call(tmp_path, monkeypatch):
    calls = []
    build = scenario_module.realization_field

    def realization(*args, **kwargs):
        field = build(*args, **kwargs)

        def counted(lams, times):
            calls.append(lams.tolist())
            return field.evaluator(lams, times)

        return dataclasses.replace(field, evaluator=counted)

    monkeypatch.setattr(scenario_module, "realization_field", realization)
    assert run(["realize", "--scenario", "realization-mobius", "--out", str(tmp_path)]) == 0
    assert calls == [list(range(16))]


def test_a_system2_build_probes_its_trivial_branch_once(monkeypatch):
    calls = []
    value = NonlinearField.value

    def counted_value(self, lams, times, states):
        calls.append(np.asarray(lams).tolist())
        return value(self, lams, times, states)

    monkeypatch.setattr(NonlinearField, "value", counted_value)
    f = Scenario.builtin("system2-mobius").build_nonlinear()
    assert calls == [list(range(16))]
    refined = f.refiner(2)
    assert calls[1:] == [list(range(32))] and refined.n_params == 32


def test_dropped_fields_and_their_families_are_freed_by_reference_counting():
    gc.disable()
    try:
        field = Scenario.builtin("realization-mobius").build_field()
        families = build_projector_families(field, range(16), "plus", 0, 20, horizon=40)
        witnesses = verify_families(families)
        refs = [weakref.ref(x) for x in (field, families[0], witnesses[0])]
        del field, families, witnesses
        assert [r() for r in refs] == [None] * 3

        f = Scenario.builtin("system2-mobius").build_nonlinear()
        lin = linearize_at_zero(f)
        certify_bifurcation(f, CertifyOptions(horizon=40, f3_window=(-30, 30)))
        refs = [weakref.ref(x) for x in (f, lin)]
        del f, lin
        assert [r() for r in refs] == [None] * 2
    finally:
        gc.enable()


FAMILY_ARRAYS = ("times", "image_frames", "kernel_frames", "image_steps", "kernel_steps")


def assert_same_bits(fused, alone):
    """Outcome lists equal bit for bit: families array by array, errors by class and message."""
    assert len(fused) == len(alone)
    for a, b in zip(fused, alone):
        if isinstance(b, HomindexError):
            assert type(a) is type(b) and str(a) == str(b)
            continue
        assert (a.side, a.anchor, a.rank, a.bound) == (b.side, b.anchor, b.rank, b.bound)
        for name in FAMILY_ARRAYS:
            x, y = getattr(a, name), getattr(b, name)
            assert x.shape == y.shape and x.tobytes() == y.tobytes(), name


def unequal_ranks_field() -> DiscreteVectorField:
    """Realization with a rank-2 stable bundle ahead and a rank-1 one behind (index 1)."""
    loop = ParameterLoop.circle(16)
    ahead = direct_sum(mobius_bundle(loop), trivial_bundle(loop, 1, 1))
    return realization_field(ahead, trivial_bundle(loop, 3, 1), q=0.5)


@pytest.mark.parametrize(
    "make, window",
    [
        (lambda: Scenario.builtin("mobius-double").build_field(), (-30, 30)),
        (unequal_ranks_field, (-30, 30)),
        (unequal_ranks_field, (-24, 41)),  # asymmetric: the sides sweep runs of two lengths
        (lambda: counting_field(bad=(2, 15))[0], (-20, 20)),  # sample 2 fails on the plus side only
    ],
)
def test_whole_line_families_equal_one_side_builds_bit_for_bit(make, window):
    fused_field, plus_field, minus_field = make(), make(), make()
    lams = range(fused_field.n_params)
    plus, minus = whole_line_families(fused_field, lams, window, 40)
    lo, hi = window
    alone = (
        build_projector_families(plus_field, lams, "plus", 0, hi, horizon=40),
        build_projector_families(minus_field, lams, "minus", 0, -lo, horizon=40),
    )
    assert_same_bits(plus, alone[0])
    assert_same_bits(minus, alone[1])
    assert any(isinstance(fam, ProjectorFamily) for fam in plus + minus)


def test_whole_line_families_cover_unequal_ranks_and_a_one_sided_failure():
    plus, minus = whole_line_families(unequal_ranks_field(), range(16), (-30, 30), 40)
    assert {fam.rank for fam in plus} == {2} and {fam.rank for fam in minus} == {1}
    plus, minus = whole_line_families(counting_field(bad=(2, 15))[0], range(8), (-20, 20), 40)
    assert isinstance(plus[2], NumericError) and "(lam=2, n=15)" in str(plus[2])
    assert all(isinstance(fam, ProjectorFamily) for fam in plus[:2] + plus[3:] + minus)


@pytest.mark.parametrize("anchors", [(8, -8), (8, -3), (1, -1)])
def test_index_bundle_pair_families_equal_one_side_builds_bit_for_bit(monkeypatch, anchors):
    make = unequal_ranks_field
    fused_field, plus_field, minus_field = make(), make(), make()
    calls = count_build_batches(monkeypatch)
    top, bottom = index_bundle_pair(fused_field, *anchors, horizon=40)
    assert calls == [32]  # both sides of the 16 samples, anchored at 0, in one batch
    lams = range(16)
    # families anchored at 0 reaching each anchor, at least 2 steps a side
    alone = (
        build_projector_families(plus_field, lams, "plus", 0, max(anchors[0], 2), horizon=40),
        build_projector_families(minus_field, lams, "minus", 0, max(-anchors[1], 2), horizon=40),
    )
    loop = fused_field.loop
    one_top, one_bottom = bundle.anchor_bundles(loop, *alone, *anchors)
    for fused, one in ((top, one_top), (bottom, one_bottom)):
        assert (fused.rank, fused.name) == (one.rank, one.name)
        assert fused.frames.tobytes() == one.frames.tobytes()
    assert (top.rank, bottom.rank) == (2, 1)
    # the bundles are the canonical subspaces: im P+ and the complement of ker P-
    for lam, (p, m) in enumerate(zip(*alone)):
        im = p.image_frames[p.index_of(anchors[0])]
        ker = m.kernel_frames[m.index_of(anchors[1])]
        assert np.allclose(top.projector(lam), im @ im.T, atol=1e-12)
        assert np.allclose(bottom.projector(lam), np.eye(3) - ker @ ker.T, atol=1e-12)


def test_certify_builds_one_family_batch(tmp_path, monkeypatch):
    docs = [
        builtin_document("system2-mobius"),
        certify_loop_document({"kind": "mobius"}),
        certify_loop_document({"kind": "trivial", "rank": 1}),
    ]
    for k, doc in enumerate(docs):
        assert doc["options"]["localize"]
        calls = count_build_batches(monkeypatch)
        path = tmp_path / f"doc{k}.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / f"out{k}"
        assert run(["certify", "--scenario", str(path), "--out", str(out)]) == 0
        # both sides of every sample: F2, F3 and localization read the one batch
        assert calls == [2 * doc["loop"]["n"]]
        results = json.loads((out / "report.json").read_text())["results"]
        assert len(results["candidates"]) >= (results["verdict"] == "bifurcation_certified")


@pytest.mark.parametrize("anchor_plus", [40, 3000])
def test_an_anchor_beyond_the_f3_window_leaves_verdict_and_class(tmp_path, monkeypatch, anchor_plus):
    def certify(name, **options):
        doc = builtin_document("system2-mobius")
        doc["options"].update(options)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        calls = count_build_batches(monkeypatch)
        assert run(["certify", "--scenario", str(path), "--out", str(tmp_path / name)]) == 0
        return calls, json.loads((tmp_path / name / "report.json").read_text())["results"]

    calls, default = certify("default")
    assert calls == [32]
    # F2 and localization read the families reaching the anchor; F3 counts on its
    # own window, where fits over families out to 3000 would loosen every constant
    calls, wide = certify("wide", anchor_plus=anchor_plus, localize_window=[-20, 20])
    assert calls == [32, 32]
    for key in ("verdict", "rank_plus", "rank_minus", "lambda0", "f3_verdicts"):
        assert wide[key] == default[key], key
    for key in ("virtual_rank", "delta_w1"):
        assert wide["index_class"][key] == default["index_class"][key], key
    f3_evidence = [row for row in default["evidence"] if row[0].startswith("f3_")]
    assert len(f3_evidence) == 2 and all(row in wide["evidence"] for row in f3_evidence)
    assert wide["anchor_plus"] == anchor_plus and wide["verdict"] == "bifurcation_certified"
    assert wide["candidates"] and all(c["window"] == [-20, 20] for c in wide["candidates"])


WHOLE_LINE_FIELDS = [
    pytest.param(lambda: Scenario.builtin("system2-mobius").build_field(), id="system2-mobius"),
    pytest.param(lambda: saddle_loop_field(broken=0), id="saddle-broken-0"),
    pytest.param(lambda: saddle_loop_field(broken=5), id="saddle-broken-5"),
]


def single_index(field, lam, window, horizon):
    """One sample's index the single-sample way, or the error it raises."""
    lo, hi = window
    try:
        plus = build_projector_family(field, lam, "plus", 0, hi, horizon=horizon)
        minus = build_projector_family(field, lam, "minus", 0, -lo, horizon=horizon)
        witnesses = (verify_ed(plus), verify_ed(minus))
        return fredholm.kernel_cokernel(field, lam, window, witnesses)
    except HomindexError as exc:
        return exc


@pytest.mark.parametrize("make", WHOLE_LINE_FIELDS)
def test_whole_line_index_equals_kernel_cokernel_per_sample(make):
    batched_field, single_field = make(), make()
    # a repeated sample is counted once and reported at each of its places
    lams = list(range(batched_field.n_params)) + [3, 0]
    outcomes = fredholm.whole_line_index(batched_field, lams, (-30, 30), 40)
    assert len(outcomes) == len(lams)
    for lam, got in zip(lams, outcomes):
        one = single_index(single_field, lam, (-30, 30), 40)
        if isinstance(one, HomindexError):
            assert type(got) is type(one) and str(got) == str(one)
            continue
        assert dataclasses.astuple(got)[:-1] == dataclasses.astuple(one)[:-1]
        got_values, one_values = got.truncation.smallest, one.truncation.smallest
        assert got_values.shape == one_values.shape
        assert got_values.tobytes() == one_values.tobytes()
    assert any(isinstance(o, fredholm.IndexReport) for o in outcomes)


@pytest.mark.parametrize("make", WHOLE_LINE_FIELDS)
def test_f3_scan_equals_check_f3_per_sample(make):
    batched_field, single_field = make(), make()
    lams = range(batched_field.n_params)
    reports = fredholm.whole_line_index(batched_field, lams, (-30, 30), 40)
    checks = bifurcation._f3_verdicts(lams, (-30, 30), reports)
    for lam, check in zip(lams, checks):
        # repr shows every field, floats to the last bit and NaN equal to NaN
        assert repr(check) == repr(check_F3(single_field, lam, window=(-30, 30), horizon=40))
    assert any(check.passed for check in checks)


@pytest.mark.parametrize("lambdas, decides", [([0, 7, 12], 7), ([0, 12, 7], 12)])
def test_index_names_the_earlier_sample_whichever_stage_fails(tmp_path, capsys, lambdas, decides):
    # with gap_ratio 5e5 sample 7's truncation count is indeterminate (exit 4),
    # late in its run; sample 12, set to the identity, has no dichotomy and
    # fails at its family build (exit 2), early in its run
    assert run(["realize", "--scenario", "realization-mobius", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "realized.json").read_text())
    values = np.array(doc["field"]["values"]).reshape(16, 201, 2, 2)
    values[12] = np.eye(2)
    doc["field"]["values"] = values.ravel().tolist()
    doc["tolerances"] = {"gap_ratio": 5e5}

    def index(lams):
        doc["options"] = {"lambdas": lams}
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        code = run(["index", "--scenario", str(path), "--out", str(tmp_path / "out")])
        return code, capsys.readouterr().err

    got, alone = index(lambdas), index([decides])
    assert got == alone
    assert got[0] == (4 if decides == 7 else 2)


def _error_of(call, *args, **kwargs):
    """The class and message of the error `call` raises; the error itself is dropped."""
    try:
        call(*args, **kwargs)
    except HomindexError as exc:
        return type(exc), str(exc)
    raise AssertionError(f"{call.__name__} did not raise")


def test_a_raised_kept_error_does_not_keep_its_field_alive():
    # a kept error is raised as a fresh copy: raising the kept object would give
    # it a traceback whose frames hold the field
    gc.disable()
    try:
        field = saddle_loop_field(broken=3)
        build = (build_projector_family, field, 3, "plus", 0, 20)
        first = _error_of(*build, horizon=40)
        assert first[0] is NoDichotomyError
        assert _error_of(*build, horizon=40) == first
        ref = weakref.ref(field)
        del field, build
        assert ref() is None

        field, _ = counting_field(bad=(2, 5))
        message = r"evaluator returned non-finite entries at \(lam=2, n=5\)"
        reads = ((field.matrices, (2, 0, 9)), (field_module._read_all, (field, [1, 2], range(9))))
        for call, args in reads:
            kind, text = _error_of(call, *args)
            assert kind is NumericError and re.fullmatch(message, text)
        ref = weakref.ref(field)
        del field, reads, call, args
        assert ref() is None

        # a truncation read error
        good, _ = counting_field()
        plus, minus = whole_line_families(good, [0], (-30, 30), 40)
        witnesses = (verify_ed(plus[0]), verify_ed(minus[0]))
        field, _ = counting_field(bad=(0, 5))
        for _ in range(2):
            kind, text = _error_of(fredholm.kernel_cokernel, field, 0, (-30, 30), witnesses)
            assert kind is NumericError and "(lam=0, n=5)" in text
        ref = weakref.ref(field)
        del field
        assert ref() is None

        # localization: a run that leaves the field window, kept in the outcome lists
        f = Scenario.builtin("system2-mobius").build_nonlinear()
        cert = certify_bifurcation(f, CertifyOptions(horizon=40, f3_window=(-30, 30)))
        kind, _ = _error_of(localize_bifurcations, f, cert, window=(-9990, 30), horizon=40)
        assert kind is WindowTooShortError
        ref = weakref.ref(f)
        del f, cert
        assert ref() is None
    finally:
        gc.enable()


def test_a_fresh_error_keeps_its_class_message_and_attributes():
    try:
        raise WindowTooShortError("needs more", required=7)
    except WindowTooShortError as exc:
        caught = exc
    copy = fresh(caught)
    assert type(copy) is WindowTooShortError and copy is not caught
    assert (str(copy), copy.required, copy.__traceback__) == ("needs more", 7, None)
    assert caught.__traceback__ is not None


def test_importing_the_cli_does_not_load_scipy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = "import sys, homindex.cli; sys.exit(int('scipy' in sys.modules))"
    done = subprocess.run([sys.executable, "-c", code], env=env, timeout=120)
    assert done.returncode == 0
