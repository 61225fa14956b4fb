"""Run configuration: a typed bundle read from an INI file.

The file format has three sections -- [instance], [optimizer], [verify] --
all optional, all keys optional.  A key left out keeps its default, and an
unknown key, or a key in another section, is refused.
"""
from __future__ import annotations

import configparser
from dataclasses import dataclass, fields

__all__ = ["RunConfig"]

_INSTANCE_MODES = ("deterministic", "randomized-individual",
                   "randomized-third-moment", "synthetic")
_OPTIMIZERS = ("svrc", "gd", "cubic")


@dataclass
class RunConfig:
    # [instance]
    mode: str = "deterministic"
    p: int = 1
    n: int = 4
    delta: float = 960.0
    L: float = 1.0
    eps: float = 1.0
    d: int | None = None
    ell_hat: float | None = None
    haar_c: bool = False
    curvature: float = 1.0    # synthetic mode only
    ripple: float = 1.0       # synthetic mode only

    # [optimizer]
    optimizer: str = "svrc"
    step: float = 0.01        # gd step size
    M: float | None = None
    b_g: int | None = None
    b_h: int | None = None
    S: int | None = None
    T: int | None = None
    full_batch: bool = False
    L2: float | None = None
    delta_hat: float | None = None  # gap estimate for the svrc schedule

    # run-level
    seed: int = 0
    out: str | None = None
    budget: int | None = None

    # [verify]
    num_points: int = 60
    zero_chain_samples: int = 500
    pairs: int = 120
    trials: int = 2000
    starts: int = 20

    def __post_init__(self):
        if self.mode not in _INSTANCE_MODES:
            raise ValueError(f"unknown instance mode {self.mode!r}; "
                             f"expected one of {_INSTANCE_MODES}")
        for name in ("p", "n", "budget", "d"):   # budget and d when set
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be at least 1, "
                                 f"got {name} = {value}")
        for name in self._SECTIONS["verify"]:   # zero skips checks
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be at least 0, "
                                 f"got {name} = {value}")
        for name in ("delta", "L", "eps"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be positive, "
                                 f"got {name} = {value}")
        if self.mode == "randomized-third-moment" and self.p != 2:
            raise ValueError("mode randomized-third-moment is defined for "
                             f"p = 2, got p = {self.p}")
        if self.mode.startswith("randomized") and self.ell_hat is None \
                and self.p not in (1, 2):
            raise ValueError("ell_hat is estimated only for p in {1, 2}; "
                             f"set ell_hat for p = {self.p}")
        if self.optimizer not in _OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}; "
                             f"expected one of {_OPTIMIZERS}")

    # -- section layouts ---------------------------------------------------

    _SECTIONS = {
        "instance": ("mode", "p", "n", "delta", "L", "eps", "d", "ell_hat",
                     "haar_c", "curvature", "ripple"),
        "optimizer": ("optimizer", "step", "M", "b_g", "b_h", "S", "T",
                      "full_batch", "L2", "delta_hat", "seed", "out",
                      "budget"),
        "verify": ("num_points", "zero_chain_samples", "pairs", "trials",
                   "starts"),
    }

    @classmethod
    def from_ini(cls, text: str) -> "RunConfig":
        parser = configparser.ConfigParser()
        parser.optionxform = str  # keys are case-sensitive (e.g. L vs l)
        parser.read_string(text)
        types = {f.name: f.type for f in fields(cls)}
        kwargs = {}
        for section, keys in cls._SECTIONS.items():
            if not parser.has_section(section):
                continue
            for key in parser[section]:
                if key not in keys:
                    raise ValueError(
                        f"unknown key {key!r} in section [{section}]")
            for key in keys:
                if not parser.has_option(section, key):
                    continue
                ann = types[key]
                if ann in ("bool", bool):
                    kwargs[key] = parser.getboolean(section, key)
                elif ann in ("int", int) or ann == "int | None":
                    kwargs[key] = parser.getint(section, key)
                elif ann in ("float", float) or ann == "float | None":
                    kwargs[key] = parser.getfloat(section, key)
                else:
                    kwargs[key] = parser.get(section, key)
        return cls(**kwargs)

    @classmethod
    def load(cls, path) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_ini(fh.read())
