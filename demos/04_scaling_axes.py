"""Inspect the three scaling axes: frame stacking, 2D->3D conv, width.

Prints how each axis changes the network's input layout and parameter
budget, without any training.

Run: python3 demos/04_scaling_axes.py
"""

from deskrl.agents import PRESETS
from deskrl.networks import BackboneConfig, PolicyValueNet
from deskrl.rng import Rng

print(f"{'preset':<12} {'frames':>6} {'conv':>7} {'width':>5} "
      f"{'in-ch':>5} {'params':>10}")
for name, hp in PRESETS.items():
    cfg = BackboneConfig(frames=hp.frames, conv_kind=hp.conv_kind,
                         width_multiplier=hp.width_multiplier,
                         obs_height=16, obs_width=16)
    net = PolicyValueNet(cfg, Rng(0))
    print(f"{name:<12} {hp.frames:>6} {hp.conv_kind:>7} "
          f"{hp.width_multiplier:>5} {cfg.input_channels:>5} "
          f"{net.parameter_count():>10,}")

print("""
Notes
- 2D networks fold the frame stack into input channels (frames x 3), so
  only the first conv layer grows with the stack depth.
- 3D networks keep frames as a temporal axis: 3 input channels always, a
  3x3x3 kernel in every conv, and a temporal mean before the dense trunk,
  so parameters are independent of the stack depth.
- width_multiplier 2 doubles every conv layer's output channels exactly:""")

base = PolicyValueNet(BackboneConfig(obs_height=16, obs_width=16), Rng(0))
wide = PolicyValueNet(BackboneConfig(obs_height=16, obs_width=16,
                                     width_multiplier=2), Rng(0))
for b, w in list(zip(base.conv_layers(), wide.conv_layers()))[:4]:
    print(f"  {b.name:<22} {b.out_channels:>3} -> {w.out_channels:>3} channels")
print("  ... (all 15 conv layers double)")
