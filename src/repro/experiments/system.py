"""System-level experiments: Figures 9, 11, and 12.

* ``fig09_throughput`` — end-to-end token throughput of ALISA (80% KV
  sparsity) against DeepSpeed-ZeRO, HuggingFace Accelerate, FlexGen, and
  vLLM across batch sizes.
* ``fig11_attention_breakdown`` — per-operator execution time (and attained
  FLOPS) of a single attention module for dense attention and SWA at several
  KV sparsities.
* ``fig12_breakdown`` — (a) per-phase time and memory of FlexGen vs ALISA,
  (b) impact of recomputation, and (c) the ablation over SWA / dynamic
  scheduling / compression.
"""

from __future__ import annotations

from repro._common import left_sum
from repro.baselines import BASELINE_SYSTEMS
from repro.core.engine import AlisaSystem
from repro.core.swa import SWAConfig
from repro.experiments.base import ExperimentResult, register
from repro.hardware.presets import hardware_for_model
from repro.model.config import get_config
from repro.systems.cost import LLMCostModel
from repro.workloads.descriptors import ALPACA_WORKLOAD, FIGURE9_BATCH_SIZES


@register("fig09_throughput",
          "End-to-end throughput of ALISA vs baselines on the Alpaca "
          "workload (Figure 9)")
def fig09_throughput(models: tuple[str, ...] = ("opt-6.7b", "opt-13b",
                                                "opt-30b", "llama-7b",
                                                "llama-13b", "llama-33b"),
                     batch_sizes: tuple[int, ...] = FIGURE9_BATCH_SIZES,
                     kv_sparsity: float = 0.8,
                     output_len: int | None = None) -> ExperimentResult:
    result = ExperimentResult("fig09_throughput", "Figure 9: throughput")
    systems = ("deepspeed-zero", "accelerate", "flexgen", "vllm")
    for model in models:
        hardware = hardware_for_model(model)
        for batch_size in batch_sizes:
            workload = ALPACA_WORKLOAD.with_batch_size(batch_size)
            if output_len is not None:
                workload = type(workload)(batch_size, workload.input_len,
                                          output_len, name=workload.name)
            throughputs = {}
            for system_name in systems:
                system = BASELINE_SYSTEMS[system_name](model, hardware)
                trace = system.run(workload)
                throughputs[system_name] = trace
            alisa = AlisaSystem(model, hardware, kv_sparsity=kv_sparsity)
            alisa_trace = alisa.run(workload)
            flexgen = throughputs["flexgen"]
            vllm = throughputs["vllm"]
            for system_name, trace in {**throughputs, "alisa": alisa_trace}.items():
                result.add(
                    model=model, hardware=hardware.name, batch_size=batch_size,
                    system=system_name, oom=trace.oom,
                    throughput_tokens_per_s=trace.throughput,
                    total_time_s=trace.total_time,
                    speedup_vs_flexgen=(trace.throughput / flexgen.throughput
                                        if not trace.oom and not flexgen.oom
                                        else 0.0),
                    speedup_vs_vllm=(trace.throughput / vllm.throughput
                                     if not trace.oom and not vllm.oom else 0.0),
                )
    return result


@register("fig11_attention_breakdown",
          "Execution-time breakdown of a single attention module (Figure 11)")
def fig11_attention_breakdown(models: tuple[str, ...] = ("opt-6.7b", "opt-13b",
                                                         "opt-30b"),
                              batch_size: int = 64, seq_len: int = 128,
                              kv_sparsities: tuple[float, ...] = (0.0, 0.5, 0.8)
                              ) -> ExperimentResult:
    result = ExperimentResult("fig11_attention_breakdown",
                              "Figure 11: attention module breakdown")
    for model in models:
        config = get_config(model)
        hardware = hardware_for_model(model)
        cost = LLMCostModel(config, hardware)
        for kv_sparsity in kv_sparsities:
            if kv_sparsity == 0.0:
                breakdown = cost.attention_breakdown(batch_size, seq_len)
                label = "dense"
            else:
                swa = SWAConfig.from_sparsity(kv_sparsity)
                num_local, num_global = swa.split_budget(seq_len)
                breakdown = cost.attention_breakdown(
                    batch_size, seq_len, kept_kv=num_local + num_global,
                    local_window=num_local,
                )
                label = f"swa-{int(kv_sparsity * 100)}%"
            for op in breakdown.ops:
                result.add(model=model, configuration=label,
                           kv_sparsity=kv_sparsity, op=op.name,
                           time_us=op.time_s * 1e6, flops=op.flops,
                           achieved_gflops=op.achieved_flops / 1e9)
            result.add(model=model, configuration=label,
                       kv_sparsity=kv_sparsity, op="total",
                       time_us=breakdown.total_time * 1e6,
                       flops=left_sum(op.flops for op in breakdown.ops),
                       achieved_gflops=0.0)
    return result


@register("fig12_breakdown",
          "Per-phase breakdown, recomputation impact, and ablation for "
          "OPT-30B (Figure 12)")
def fig12_breakdown(model: str = "opt-30b", batch_size: int = 64,
                    input_len: int = 128, output_len: int = 512,
                    kv_sparsities: tuple[float, ...] = (0.5, 0.8)
                    ) -> ExperimentResult:
    result = ExperimentResult("fig12_breakdown", "Figure 12: LLM inference breakdown")
    hardware = hardware_for_model(model)
    workload = ALPACA_WORKLOAD.with_batch_size(batch_size)
    workload = type(workload)(batch_size, input_len, output_len,
                              name="fig12-workload")

    # (a) phase-by-phase time and memory: FlexGen vs ALISA.  Compression is
    # disabled here (and in the recomputation study) so that its contribution
    # is isolated in the ablation series, matching the paper's protocol; with
    # INT8 KV the compressed cache fits the GPU for much longer and Phase III
    # is rarely entered at all.
    flexgen_trace = BASELINE_SYSTEMS["flexgen"](model, hardware).run(workload)
    for kv_sparsity in kv_sparsities:
        alisa_trace = AlisaSystem(model, hardware, kv_sparsity=kv_sparsity,
                                  use_compression=False).run(workload)
        for system_name, trace in (("flexgen", flexgen_trace),
                                   ("alisa", alisa_trace)):
            boundaries = trace.phase_boundaries()
            by_phase = trace.time_by_phase()
            for phase, elapsed in by_phase.items():
                steps = trace.steps_in_phase(phase)
                last = steps[-1]
                result.add(series="phase_breakdown", system=system_name,
                           kv_sparsity=kv_sparsity, phase=phase,
                           end_seq_len=boundaries[phase][1],
                           time_s=elapsed,
                           gpu_kv_gb=last.gpu_kv_bytes / 1e9,
                           cpu_kv_gb=last.cpu_kv_bytes / 1e9,
                           gpu_used_gb=last.gpu_used_bytes / 1e9)

        # (b) impact of recomputation at this KV sparsity.
        no_recompute = AlisaSystem(model, hardware, kv_sparsity=kv_sparsity,
                                   use_compression=False,
                                   enable_recomputation=False).run(workload)
        result.add(series="recomputation", system="alisa",
                   kv_sparsity=kv_sparsity, phase="all",
                   end_seq_len=workload.max_seq_len,
                   time_s=alisa_trace.total_time,
                   gpu_kv_gb=0.0, cpu_kv_gb=0.0, gpu_used_gb=0.0,
                   time_without_recompute_s=no_recompute.total_time,
                   recompute_speedup=(no_recompute.total_time
                                      / alisa_trace.total_time))

        # (c) ablation: SWA only -> + dynamic scheduling -> + compression.
        ablations = {
            "swa_only": dict(use_dynamic_scheduling=False, use_compression=False),
            "swa_ds": dict(use_dynamic_scheduling=True, use_compression=False),
            "swa_ds_compression": dict(use_dynamic_scheduling=True,
                                       use_compression=True),
        }
        for label, flags in ablations.items():
            trace = AlisaSystem(model, hardware, kv_sparsity=kv_sparsity,
                                **flags).run(workload)
            result.add(series="ablation", system=label,
                       kv_sparsity=kv_sparsity, phase="all",
                       end_seq_len=workload.max_seq_len,
                       time_s=trace.total_time,
                       gpu_kv_gb=0.0, cpu_kv_gb=0.0, gpu_used_gb=0.0,
                       throughput_tokens_per_s=trace.throughput,
                       speedup_vs_flexgen=(trace.throughput
                                           / flexgen_trace.throughput))
    return result
