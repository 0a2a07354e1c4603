//===- opt/MapInference.hpp - Static map-clause inference ------------------===//
//
// Deduces the minimal data-motion set a kernel needs per pointer argument,
// in the spirit of the implicit-map optimizations around the paper's
// runtime co-design: OpenMP's implicit default maps every pointer tofrom,
// but a kernel that provably only reads an argument needs map(to), one
// that only writes needs map(from), and one that never dereferences it
// needs map(alloc) — each dropped direction is a whole host<->device
// transfer the runtime never performs.
//
// The proof walks the SSA uses of each pointer argument inter-procedurally:
// Gep/Select/Phi extend the alias set, loads and stores through an alias
// record reads/writes, direct calls recurse into the callee's parameter
// (memoized, cycle-guarded), and native ops are classified by their
// declared per-operand effect masks. A pointer stored *as a value* is
// paired through the cached field-sensitive AccessAnalysis: when the
// destination object is fully analyzable and the slot offset is known, the
// loads overlapping that slot continue the walk (this resolves the
// codegen's arg-block pack/unpack idiom after inlining); anything else —
// ptrtoint, returns, indirect calls, calls into declarations, stores into
// unanalyzable memory — escapes, and an escaped argument keeps the
// conservative tofrom.
//
// Results are annotated on the kernel Function (setInferredArgMap) — pure
// metadata, no IR mutation — where the host runtime's pipeline planner and
// the map lint rules consume them. TargetCompiler runs the inference after
// the optimization pipeline, when inlining and load forwarding have made
// argument usage directly visible.
//
//===----------------------------------------------------------------------===//
#pragma once

#include <vector>

#include "ir/MapKind.hpp"
#include "opt/PassManager.hpp"

namespace codesign::opt {

/// Proven usage of one pointer argument.
struct ArgUsage {
  bool Read = false;    ///< some execution may load through it
  bool Written = false; ///< some execution may store through it
  /// A use left the provable region (ptrtoint, return, indirect call,
  /// declaration call, store into unanalyzable memory). Read/Written are
  /// then lower bounds and any map deduction must stay conservative.
  bool Escaped = false;
};

/// Inter-procedural usage of every argument of Kernel. Non-pointer
/// arguments report all-false (no map clause applies to them).
std::vector<ArgUsage> computeArgUsage(ir::Function &Kernel,
                                      AnalysisManager &AM);

/// The minimal clause implied by proven usage (tofrom when escaped).
[[nodiscard]] ir::MapKind inferredMapFor(const ArgUsage &U);

/// Annotate every kernel in M with inferred per-argument maps. Returns the
/// number of pointer arguments annotated. Emits Analysis remarks (one per
/// argument) and opt.mapinfer.* counters; never mutates IR.
std::size_t inferModuleMaps(ir::Module &M, AnalysisManager &AM,
                            const OptOptions &Options);

/// Lint rule: a declared map clause moves more data than the kernel's
/// proven usage needs (e.g. map(tofrom) on a read-only argument). Requires
/// a full proof — quiet on escaped arguments and on kernels with no
/// explicit clauses.
PassResult runLintRedundantMap(ir::Module &M, AnalysisManager &AM,
                               const OptOptions &Options);

/// Lint rule: a declared map clause omits motion the kernel provably
/// performs (map(to) on a written argument — the host never sees the
/// writes; map(from) on a read argument — the kernel reads uninitialized
/// device memory). Quiet on escaped arguments.
PassResult runLintMissingMap(ir::Module &M, AnalysisManager &AM,
                             const OptOptions &Options);

} // namespace codesign::opt
