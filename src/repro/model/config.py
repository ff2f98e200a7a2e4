"""Model configurations for the NumPy transformer substrate.

Two kinds of configurations are provided:

* **Paper-scale configs** (``opt-6.7b``, ``llama-13b``, ...) carry the real
  layer counts and hidden dimensions of the models the paper evaluates.  They
  are used by the analytic cost model and the memory simulator, which only
  need tensor *shapes*, never weights.
* **Executable configs** (``opt-tiny``, ``llama-small``, ...) are scaled-down
  versions of the same families that can actually be run forward in NumPy on
  a laptop.  They are used by the accuracy and attention-sparsity experiments
  (Figures 3, 4, 5, 8, 10), where what matters is the *relative* behaviour of
  dense vs. sparse attention, not absolute model quality.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro._common import ConfigurationError, validate_positive


@dataclass(frozen=True)
class ModelConfig:
    """Architecture description of a decoder-only transformer.

    Attributes mirror the notation of Table II in the paper: ``hidden_size``
    is ``h``, ``num_layers`` is ``l``.
    """

    name: str
    family: str
    num_layers: int
    hidden_size: int
    num_heads: int
    vocab_size: int = 32_000
    ffn_multiplier: int = 4
    max_seq_len: int = 2048
    params_billions: float | None = None
    executable: bool = False

    def __post_init__(self) -> None:
        validate_positive(
            num_layers=self.num_layers,
            hidden_size=self.hidden_size,
            num_heads=self.num_heads,
            vocab_size=self.vocab_size,
            ffn_multiplier=self.ffn_multiplier,
            max_seq_len=self.max_seq_len,
        )
        if self.hidden_size % self.num_heads != 0:
            raise ConfigurationError(
                f"hidden_size {self.hidden_size} not divisible by "
                f"num_heads {self.num_heads}"
            )

    @property
    def head_dim(self) -> int:
        """Per-head hidden dimension (``d`` in Equation 1)."""
        return self.hidden_size // self.num_heads

    @property
    def ffn_size(self) -> int:
        """Inner dimension of the feed-forward network."""
        return self.hidden_size * self.ffn_multiplier

    def num_parameters(self) -> int:
        """Approximate parameter count of the decoder stack plus embeddings."""
        per_layer = (
            4 * self.hidden_size * self.hidden_size  # QKV + output projections
            + 2 * self.hidden_size * self.ffn_size  # FFN up + down
            + 9 * self.hidden_size  # layer norms and biases (approximate)
        )
        embeddings = self.vocab_size * self.hidden_size
        return self.num_layers * per_layer + 2 * embeddings

    def scaled(self, **overrides) -> "ModelConfig":
        """Return a copy of this config with fields replaced."""
        return replace(self, **overrides)


def _paper(name: str, family: str, layers: int, hidden: int, heads: int,
           params_b: float, vocab: int, max_len: int = 2048) -> ModelConfig:
    return ModelConfig(
        name=name,
        family=family,
        num_layers=layers,
        hidden_size=hidden,
        num_heads=heads,
        vocab_size=vocab,
        max_seq_len=max_len,
        params_billions=params_b,
        executable=False,
    )


#: Paper-scale configurations (architecture dimensions from the public model
#: cards of OPT, LLaMA and Pythia; used only for analytic cost modelling).
PAPER_CONFIGS: dict[str, ModelConfig] = {
    "opt-6.7b": _paper("opt-6.7b", "opt", 32, 4096, 32, 6.7, 50_272),
    "opt-13b": _paper("opt-13b", "opt", 40, 5120, 40, 13.0, 50_272),
    "opt-30b": _paper("opt-30b", "opt", 48, 7168, 56, 30.0, 50_272),
    "llama-7b": _paper("llama-7b", "llama", 32, 4096, 32, 6.7, 32_000),
    "llama-13b": _paper("llama-13b", "llama", 40, 5120, 40, 13.0, 32_000),
    "llama-33b": _paper("llama-33b", "llama", 60, 6656, 52, 32.5, 32_000),
    "pythia-6.7b": _paper("pythia-6.7b", "pythia", 32, 4096, 32, 6.9, 50_304),
    "pythia-12b": _paper("pythia-12b", "pythia", 36, 5120, 40, 12.0, 50_304),
}


def _executable(name: str, family: str, layers: int, hidden: int, heads: int,
                vocab: int = 512, max_len: int = 512) -> ModelConfig:
    return ModelConfig(
        name=name,
        family=family,
        num_layers=layers,
        hidden_size=hidden,
        num_heads=heads,
        vocab_size=vocab,
        max_seq_len=max_len,
        params_billions=None,
        executable=True,
    )


#: Executable (NumPy-runnable) configurations.  Each family has a small and a
#: large variant so that experiments can reproduce the paper's "larger LLMs
#: are sparser / more robust" trend.
EXECUTABLE_CONFIGS: dict[str, ModelConfig] = {
    "opt-tiny": _executable("opt-tiny", "opt", 4, 64, 4),
    "opt-small": _executable("opt-small", "opt", 6, 128, 8),
    "opt-base": _executable("opt-base", "opt", 8, 192, 8),
    "llama-tiny": _executable("llama-tiny", "llama", 4, 64, 4),
    "llama-small": _executable("llama-small", "llama", 6, 128, 8),
    "llama-base": _executable("llama-base", "llama", 8, 192, 8),
    "pythia-tiny": _executable("pythia-tiny", "pythia", 4, 64, 4),
    "pythia-small": _executable("pythia-small", "pythia", 6, 128, 8),
}

#: Mapping from paper-scale model names to the executable stand-in used by
#: accuracy experiments.
EXECUTABLE_STAND_INS: dict[str, str] = {
    "opt-6.7b": "opt-tiny",
    "opt-13b": "opt-small",
    "opt-30b": "opt-base",
    "llama-7b": "llama-tiny",
    "llama-13b": "llama-small",
    "llama-33b": "llama-base",
    "pythia-6.7b": "pythia-tiny",
    "pythia-12b": "pythia-small",
}


def get_config(name: str) -> ModelConfig:
    """Look up a configuration by name (paper-scale or executable)."""
    if name in PAPER_CONFIGS:
        return PAPER_CONFIGS[name]
    if name in EXECUTABLE_CONFIGS:
        return EXECUTABLE_CONFIGS[name]
    known = sorted(PAPER_CONFIGS) + sorted(EXECUTABLE_CONFIGS)
    raise ConfigurationError(f"unknown model config {name!r}; known: {known}")


def executable_stand_in(paper_name: str) -> ModelConfig:
    """Return the executable stand-in config for a paper-scale model name."""
    if paper_name in EXECUTABLE_CONFIGS:
        return EXECUTABLE_CONFIGS[paper_name]
    try:
        return EXECUTABLE_CONFIGS[EXECUTABLE_STAND_INS[paper_name]]
    except KeyError as exc:
        raise ConfigurationError(
            f"no executable stand-in registered for {paper_name!r}"
        ) from exc


def list_configs(executable: bool | None = None) -> list[str]:
    """List known config names, optionally filtered by executability."""
    names = []
    if executable in (None, False):
        names.extend(sorted(PAPER_CONFIGS))
    if executable in (None, True):
        names.extend(sorted(EXECUTABLE_CONFIGS))
    return names
