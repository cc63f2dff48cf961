import dataclasses
import tracemalloc

import numpy as np
import pytest

from deskrl.agents import preset
from deskrl.networks import PolicyValueNet
from deskrl.rng import Rng
from deskrl.tensor import ShapeError, Tensor, tsum, add


def make_net(name="ppo", obs_size=16, **kw):
    hp = dataclasses.replace(preset(name), **kw)
    return PolicyValueNet(hp, obs_size, 5, Rng(0))


def frames_batch(n, k, size=16):
    return Rng(1).random((n, k, size, size, 3))


# -- configuration ----------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError, match="frames"):
        make_net(frames=0)
    with pytest.raises(ValueError, match="conv_kind"):
        make_net(conv_kind="conv4d")
    with pytest.raises(ValueError, match="width_multiplier"):
        make_net(width_multiplier=0)
    with pytest.raises(ValueError, match="multiples of 8"):
        make_net(obs_size=12)
    make_net(obs_size=8)


def test_input_channels_2d_stacks_frames_3d_does_not():
    assert make_net(frames=1, conv_kind="conv2d").input_channels == 3
    assert make_net(frames=8, conv_kind="conv2d").input_channels == 24
    assert make_net(frames=8, conv_kind="conv3d").input_channels == 3
    assert make_net(frames=16, conv_kind="conv3d").input_channels == 3


# -- width and frame scaling ------------------------------------------------

def test_width_multiplier_doubles_every_conv_layer():
    base = make_net(width_multiplier=1)
    wide = make_net(width_multiplier=2)
    base_out = [c.out_channels for c in base.conv_layers()]
    wide_out = [c.out_channels for c in wide.conv_layers()]
    assert len(base_out) == len(wide_out) == 15  # 3 stages x (entry + 2x2 block convs)
    assert all(w == 2 * b for b, w in zip(base_out, wide_out))


def test_first_layer_channels_match_stack_mode():
    net2d = make_net(frames=8, conv_kind="conv2d")
    assert net2d.conv_layers()[0].spec.in_channels == 24
    net3d = make_net(frames=8, conv_kind="conv3d")
    assert net3d.conv_layers()[0].spec.in_channels == 3


def test_width_doubling_parameter_ratios():
    base = make_net(width_multiplier=1)
    wide = make_net(width_multiplier=2)
    b = dict(base.named_params())
    w = dict(wide.named_params())
    # First conv kernel: (out x in x k x k) with fixed input channels -> 2x.
    assert w["stage0.entry.kernel"].size == 2 * b["stage0.entry.kernel"].size
    # Interior convs double both in and out channels -> 4x.
    assert w["stage1.block0.conv0.kernel"].size == 4 * b["stage1.block0.conv0.kernel"].size
    # Overall parameter count grows but less than the 4x interior factor.
    assert 2 < wide.parameter_count() / base.parameter_count() < 4


def test_3d_conv_kernels_have_temporal_extent_3():
    net = make_net(frames=8, conv_kind="conv3d")
    for layer in net.conv_layers():
        assert layer.spec.kernel == (3, 3, 3)
        assert layer.spec.stride == (1, 1, 1)
        assert layer.spec.padding == (1, 1, 1)


# -- format_obs -------------------------------------------------------------

def test_format_obs_2d_concatenates_frames_oldest_first():
    frames = np.zeros((1, 2, 16, 16, 3))
    frames[0, 0, :, :, 0] = 1.0  # oldest frame, red channel
    frames[0, 1, :, :, 2] = 2.0  # newest frame, blue channel
    net = make_net(frames=2, conv_kind="conv2d")
    x = net.format_obs(frames)
    assert x.shape == (1, 6, 16, 16)
    assert np.all(x[0, 0] == 1.0)  # frame 0 channel 0 first
    assert np.all(x[0, 5] == 2.0)  # frame 1 channel 2 last


def test_format_obs_3d_moves_frames_to_depth():
    frames = Rng(2).random((4, 8, 16, 16, 3))
    net = make_net(frames=8, conv_kind="conv3d")
    x = net.format_obs(frames)
    assert x.shape == (4, 3, 8, 16, 16)
    np.testing.assert_array_equal(x, frames.transpose(0, 4, 1, 2, 3))


def test_format_obs_rejects_wrong_depth():
    net = make_net(frames=4)
    with pytest.raises(ShapeError):
        net.format_obs(frames_batch(1, 3))


# -- forward ----------------------------------------------------------------

@pytest.mark.parametrize("kind,frames", [("conv2d", 1), ("conv2d", 8),
                                         ("conv3d", 8)])
def test_forward_output_shapes(kind, frames):
    net = make_net(frames=frames, conv_kind=kind)
    out = net.forward(net.format_obs(frames_batch(5, frames)))
    assert out.logits.shape == (5, 5)
    assert out.value.shape == (5,)
    assert np.all(np.isfinite(out.logits.data))


def test_eval_forward_is_deterministic():
    net = make_net()
    x = net.format_obs(frames_batch(3, 1))
    o1 = net.forward(x, mode="eval")
    o2 = net.forward(x, mode="eval")
    np.testing.assert_array_equal(o1.logits.data, o2.logits.data)


def test_train_dropout_changes_output():
    net = make_net("vsop", dropout_rate=0.3)
    x = net.format_obs(frames_batch(3, 1))
    rng = Rng(5)
    o1 = net.forward(x, mode="train", rng=rng)
    o2 = net.forward(x, mode="train", rng=rng)
    assert not np.array_equal(o1.logits.data, o2.logits.data)


def test_train_forward_without_dropout_draws_nothing():
    net = make_net("ppo")
    x = net.format_obs(frames_batch(3, 1))
    rng = Rng(5)
    state = rng.get_state()
    train = net.forward(x, mode="train", rng=rng)
    assert rng.get_state() == state
    np.testing.assert_array_equal(train.logits.data, net.forward(x).logits.data)


def test_gradient_reaches_every_parameter():
    net = make_net()
    out = net.forward(net.format_obs(frames_batch(2, 1)))
    loss = add(tsum(out.logits), tsum(out.value))
    loss.backward()
    for name, p in net.named_params():
        assert p.grad is not None, name
        assert np.any(p.grad != 0.0), name


def test_vsop3d_training_step_memory_stays_bounded():
    # One vsop3d forward + backward at minibatch 32, the benchmark's
    # train_vsop3d minibatch. Gathering the whole batch's columns and
    # keeping the tape alive through backward peaked at 224 MB traced;
    # chunked columns, a tape that keeps only what backward reads and a
    # backward that frees it and adopts fresh gradients peak at 28 MB.
    net = make_net("vsop3d")
    x = net.format_obs(frames_batch(32, 8))
    tracemalloc.start()
    try:
        out = net.forward(x, mode="train", rng=Rng(5))
        add(tsum(out.logits), tsum(out.value)).backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 2**20


def test_vsop3d_training_forward_tape_stays_small():
    # What a minibatch-32 train forward keeps alive for backward. Each conv
    # adds its own bias (no pre-bias output on the tape), pooling keeps no
    # index array and dropout keeps bool masks: 97 MiB before, 62 MiB after.
    net = make_net("vsop3d")
    x = net.format_obs(frames_batch(32, 8))
    tracemalloc.start()
    try:
        out = net.forward(x, mode="train", rng=Rng(5))
        live = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert out.value.shape == (32,)
    assert live < 72 * 2**20


def test_value_head_initial_scale_beats_policy_head():
    # Orthogonal init gains: policy 0.01, value 1.0 -> value weights larger.
    net = make_net()
    params = dict(net.named_params())
    assert (np.abs(params["value.weight"].data).max()
            > 10 * np.abs(params["policy.weight"].data).max())
    for name in ("stage0.entry.bias", "trunk.bias", "policy.bias", "value.bias"):
        assert np.all(params[name].data == 0.0)


def test_build_is_deterministic_given_seed():
    a = PolicyValueNet(preset("ppo"), 16, 5, Rng(7))
    b = PolicyValueNet(preset("ppo"), 16, 5, Rng(7))
    for (na, pa), (_, pb) in zip(a.named_params(), b.named_params()):
        np.testing.assert_array_equal(pa.data, pb.data)
