/**
 * @file
 * Umbrella header: the public API of the FPSA library.
 *
 * Layers, bottom to top:
 *   device      - reram/ (cells, variation, splice/add codec, crossbar)
 *   circuits    - pe/ (spiking PE), smb/, clb/
 *   fabric      - arch/, routing/, pnr/ (placement & routing)
 *   software    - nn/ (graphs, model zoo), synth/ (neural synthesizer),
 *                 mapper/ (spatial-to-temporal mapper)
 *   evaluation  - sim/ (performance, bounds, energy, spiking cycle sim),
 *                 baseline/ (PRIME, FP-PRIME), accuracy/ (Fig. 9)
 *   facade      - pipeline.hh (staged compile pipeline with cached
 *                 artifacts; the primary entry point),
 *                 compiler.hh (its option/result structs)
 *   serving     - runtime/ (CompiledModel deployable artifacts,
 *                 Executor backends, the ModelRegistry chip-capacity
 *                 admission, the concurrent batched multi-tenant Engine)
 */

#ifndef FPSA_FPSA_HH
#define FPSA_FPSA_HH

#include "accuracy/analytic.hh"
#include "accuracy/dataset.hh"
#include "accuracy/noise_eval.hh"
#include "accuracy/trainer.hh"
#include "arch/area_model.hh"
#include "arch/energy_model.hh"
#include "arch/fpsa_arch.hh"
#include "baseline/digital.hh"
#include "baseline/fp_prime.hh"
#include "baseline/prime.hh"
#include "clb/clb.hh"
#include "clb/lut.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/status.hh"
#include "common/table.hh"
#include "common/types.hh"
#include "compiler.hh"
#include "mapper/allocation.hh"
#include "mapper/control_gen.hh"
#include "mapper/groups.hh"
#include "mapper/mapper.hh"
#include "mapper/netlist.hh"
#include "mapper/schedule.hh"
#include "nn/builder.hh"
#include "nn/execute.hh"
#include "nn/graph.hh"
#include "nn/models.hh"
#include "pe/pe_params.hh"
#include "pe/processing_element.hh"
#include "pipeline.hh"
#include "pnr/config_gen.hh"
#include "pnr/pnr_flow.hh"
#include "reram/crossbar.hh"
#include "reram/weight_mapping.hh"
#include "runtime/cluster/chip_fleet.hh"
#include "runtime/cluster/cluster_engine.hh"
#include "runtime/cluster/controller.hh"
#include "runtime/cluster/event_log.hh"
#include "runtime/cluster/fault_injection.hh"
#include "runtime/cluster/health.hh"
#include "runtime/cluster/placement.hh"
#include "runtime/cluster/sharding.hh"
#include "runtime/compiled_model.hh"
#include "runtime/engine.hh"
#include "runtime/execution_config.hh"
#include "runtime/executor.hh"
#include "runtime/fault_hook.hh"
#include "runtime/model_registry.hh"
#include "sim/bounds.hh"
#include "sim/cycle_sim.hh"
#include "sim/energy_report.hh"
#include "sim/perf_model.hh"
#include "smb/smb.hh"
#include "spike/codec.hh"
#include "spike/spike_train.hh"
#include "synth/synthesizer.hh"
#include "tensor/kernels.hh"
#include "tensor/quant.hh"
#include "tensor/tensor.hh"

#endif // FPSA_FPSA_HH
