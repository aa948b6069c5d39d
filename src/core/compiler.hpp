// Pipeline compilation helpers: template selection + construction for one
// (sub)table, parser-plan derivation for the whole pipeline, and the
// planner of the burst walk's pipeline plan.
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "core/analysis.hpp"
#include "core/compiled_table.hpp"
#include "core/datapath.hpp"
#include "flow/pipeline.hpp"

namespace esw::core {

/// Builds the implementation for one table's entries according to analysis
/// (honoring cfg.force_template when its prerequisite holds).  Reports the
/// chosen template via `chosen_out` when non-null.  A specialized build that
/// exhausts its resource budget (tbl8 groups, LPM result slots) degrades to
/// the linked-list template — the infallible bottom of Fig. 4's fallback
/// chain — and sets *fell_back; only a linked-list build failure propagates.
std::unique_ptr<CompiledTable> build_table_impl(const std::vector<BuildEntry>& entries,
                                                const CompilerConfig& cfg, BuildCtx& ctx,
                                                TableTemplate* chosen_out = nullptr,
                                                bool* fell_back = nullptr);

/// The minimal parser plan covering every matched field and every packet-
/// mutating action in the pipeline — the parser-template specialization of
/// §3.1.  With cfg.specialize_parser == false, returns the full L2–L4 plan.
proto::ParserPlan compute_parser_plan(const flow::Pipeline& pl, const CompilerConfig& cfg);

/// Plan needed for a given ProtoBit requirement set.
proto::ParserPlan plan_for_requirements(uint32_t required);

/// ProtoBits an action list needs parsed (set-field targets, checksum-fixup
/// dependencies, dec-TTL).
uint32_t action_proto_requirements(const flow::ActionList& actions);

/// Outcome of one planning pass over the pipeline.
struct FusionResult {
  /// The plan to publish; nullptr when `unchanged` or the pipeline is empty.
  std::unique_ptr<FusedPipeline> fused;
  /// The currently published plan is already exact (same fingerprint, and
  /// no machine program owed): skip the republish entirely.
  bool unchanged = false;
  /// Machine code was wanted but ExecBuffer refused the mapping (the
  /// jit.exec_map edge): `fused` is the plan without a program, eligible
  /// for the bounded re-fusion retry.
  bool machine_failed = false;
};

/// Builds the packet walk's plan for the pipeline's current compiled state.
/// Every non-empty pipeline gets one: stages are the logical tables in id
/// order, each followed by its decomposition sub-slots (`sub_slots[id]`,
/// kept in topological order by the caller), so the control plane's forward
/// gotos (`goto_table > table_id`) make every transition go to a later
/// stage, and stage 0, where every walk starts, is the first table.  Every
/// table must have a published impl behind its slot (checked).  With
/// `want_program`
/// (cfg.enable_fusion, outside a re-fusion retry window) and the JIT on,
/// the direct-code stages are compiled into one machine program
/// (jit::FusedProgram); otherwise the plan has none.
///
/// When `prev` (the currently published plan) is passed: an identical
/// fingerprint short-circuits to `unchanged` unless a wanted program is
/// missing from it, and an identical direct-code member set (program_key)
/// reuses the previous machine program instead of re-emitting — churn that
/// only touched non-direct-code tables (linked-list rebuilds, in-place hash
/// or LPM)
/// republishes the plan without running the JIT.
FusionResult fuse_pipeline(const flow::Pipeline& pl, const CompiledDatapath& dp,
                           const GotoMap& goto_map,
                           const std::array<std::vector<int32_t>, 256>& sub_slots,
                           bool want_program, const CompilerConfig& cfg,
                           const FusedPipeline* prev);

}  // namespace esw::core
