//===- tests/mapping/test_map_inference.cpp - Static map inference --------===//
//
// The inference engine's proof obligations: per-argument usage walks
// (loads, stores, gep/select aliasing, direct-call recursion, native-op
// effect masks), conservative escape handling, and the MapKind each proof
// implies. Plus the two map lint rules, checked statically (findings on
// seeded clause/usage mismatches, silence on clean and escaped kernels)
// and dynamically (the redundant clause's suggested narrowing is
// output-preserving and cheaper; the missing clause reproduces as a real
// divergence against the golden tofrom run).
//
//===----------------------------------------------------------------------===//
#include "opt/MapInference.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "host/HostRuntime.hpp"
#include "ir/IRBuilder.hpp"
#include "ir/Verifier.hpp"
#include "opt/Lint.hpp"
#include "opt/Pipeline.hpp"
#include "support/Stats.hpp"
#include "vgpu/VirtualGPU.hpp"

namespace codesign::opt {
namespace {

using namespace ir;

/// Kernel with four pointer args exercising the four clause outcomes:
///   ro: loaded only; wo: stored only; rw: both; unused: never touched.
Function *buildUsageKernel(Module &M) {
  Function *K = M.createFunction(
      "usage_k", Type::voidTy(),
      {Type::ptr(), Type::ptr(), Type::ptr(), Type::ptr()});
  K->addAttr(FnAttr::Kernel);
  IRBuilder B(M);
  B.setInsertPoint(K->createBlock("entry"));
  Value *V = B.load(Type::i64(), K->arg(0));
  B.store(V, K->arg(1));
  B.store(B.add(B.load(Type::i64(), K->arg(2)), B.i64(1)), K->arg(2));
  B.retVoid();
  return K;
}

TEST(MapInference, UsageProofsAndImpliedClauses) {
  Module M;
  Function *K = buildUsageKernel(M);
  ASSERT_TRUE(verifyModule(M).empty());
  AnalysisManager AM(M);
  const std::vector<ArgUsage> U = computeArgUsage(*K, AM);
  ASSERT_EQ(U.size(), 4u);
  EXPECT_TRUE(U[0].Read);
  EXPECT_FALSE(U[0].Written);
  EXPECT_FALSE(U[0].Escaped);
  EXPECT_FALSE(U[1].Read);
  EXPECT_TRUE(U[1].Written);
  EXPECT_TRUE(U[2].Read);
  EXPECT_TRUE(U[2].Written);
  EXPECT_FALSE(U[3].Read);
  EXPECT_FALSE(U[3].Written);
  EXPECT_EQ(inferredMapFor(U[0]), MapKind::To);
  EXPECT_EQ(inferredMapFor(U[1]), MapKind::From);
  EXPECT_EQ(inferredMapFor(U[2]), MapKind::ToFrom);
  EXPECT_EQ(inferredMapFor(U[3]), MapKind::Alloc);
}

TEST(MapInference, AliasingThroughGepAndSelect) {
  // load(gep(select(c, p, p), 8)) reads p — and nothing more.
  Module M;
  Function *K =
      M.createFunction("alias_k", Type::voidTy(), {Type::ptr(), Type::i1()});
  K->addAttr(FnAttr::Kernel);
  IRBuilder B(M);
  B.setInsertPoint(K->createBlock("entry"));
  Value *P = B.select(K->arg(1), K->arg(0), K->arg(0));
  B.load(Type::i64(), B.gep(P, B.i64(8)));
  B.retVoid();
  ASSERT_TRUE(verifyModule(M).empty());
  AnalysisManager AM(M);
  const auto U = computeArgUsage(*K, AM);
  EXPECT_TRUE(U[0].Read);
  EXPECT_FALSE(U[0].Written);
  EXPECT_FALSE(U[0].Escaped);
  EXPECT_EQ(inferredMapFor(U[0]), MapKind::To);
}

TEST(MapInference, DirectCallsWalkIntoTheCallee) {
  // helper stores through its parameter; kernel passes arg0 to helper.
  Module M;
  Function *Helper =
      M.createFunction("sink", Type::voidTy(), {Type::ptr()});
  IRBuilder B(M);
  B.setInsertPoint(Helper->createBlock("entry"));
  B.store(B.i64(7), Helper->arg(0));
  B.retVoid();
  Function *K = M.createFunction("call_k", Type::voidTy(), {Type::ptr()});
  K->addAttr(FnAttr::Kernel);
  B.setInsertPoint(K->createBlock("entry"));
  B.call(Helper, {K->arg(0)});
  B.retVoid();
  ASSERT_TRUE(verifyModule(M).empty());
  AnalysisManager AM(M);
  const auto U = computeArgUsage(*K, AM);
  EXPECT_TRUE(U[0].Written);
  EXPECT_FALSE(U[0].Read);
  EXPECT_FALSE(U[0].Escaped);
  EXPECT_EQ(inferredMapFor(U[0]), MapKind::From);
}

TEST(MapInference, EscapesStayConservative) {
  // ptrtoint launders arg0; a call into a declaration swallows arg1. Both
  // must report Escaped and keep the conservative tofrom.
  Module M;
  Function *Opaque = M.createFunction("opaque", Type::voidTy(), {Type::ptr()});
  Function *K =
      M.createFunction("esc_k", Type::voidTy(), {Type::ptr(), Type::ptr()});
  K->addAttr(FnAttr::Kernel);
  IRBuilder B(M);
  B.setInsertPoint(K->createBlock("entry"));
  B.ptrToInt(K->arg(0));
  B.call(Opaque, {K->arg(1)});
  B.retVoid();
  ASSERT_TRUE(verifyModule(M).empty());
  AnalysisManager AM(M);
  const auto U = computeArgUsage(*K, AM);
  EXPECT_TRUE(U[0].Escaped);
  EXPECT_TRUE(U[1].Escaped);
  EXPECT_EQ(inferredMapFor(U[0]), MapKind::ToFrom);
  EXPECT_EQ(inferredMapFor(U[1]), MapKind::ToFrom);
}

TEST(MapInference, AtomicsPhisComparesAndCalleeUses) {
  // arg0 is an atomic's address (read and written); arg1 the exchanged
  // value (escapes); arg2 reaches a load through a phi and is compared
  // (read only); arg3 is used as a callee (escapes); arg4 is read, written
  // and laundered, so its walk stops before the gep.
  Module M;
  Function *K = M.createFunction(
      "mix_k", Type::voidTy(),
      {Type::ptr(), Type::ptr(), Type::ptr(), Type::ptr(), Type::ptr(),
       Type::i1()});
  K->addAttr(FnAttr::Kernel);
  BasicBlock *Entry = K->createBlock("entry");
  BasicBlock *Skip = K->createBlock("skip");
  BasicBlock *Join = K->createBlock("join");
  IRBuilder B(M);
  B.setInsertPoint(Entry);
  B.atomicRMW(AtomicOp::Add, K->arg(0), B.i64(1));
  B.atomicRMW(AtomicOp::Exchange, K->arg(0), K->arg(1));
  Value *Shifted = B.gep(K->arg(2), 8);
  B.atomicRMW(AtomicOp::Max, K->arg(4), B.i64(3));
  B.ptrToInt(K->arg(4));
  B.load(Type::i64(), B.gep(K->arg(4), 8));
  B.condBr(K->arg(5), Skip, Join);
  B.setInsertPoint(Skip);
  B.br(Join);
  B.setInsertPoint(Join);
  Instruction *P = B.phi(Type::ptr());
  P->addIncoming(K->arg(2), Entry);
  P->addIncoming(Shifted, Skip);
  B.load(Type::i64(), P);
  B.icmpEQ(K->arg(2), B.nullPtr());
  B.callIndirect(Type::voidTy(), K->arg(3), {});
  B.retVoid();
  ASSERT_TRUE(verifyModule(M).empty());
  AnalysisManager AM(M);
  const auto U = computeArgUsage(*K, AM);
  EXPECT_TRUE(U[0].Read && U[0].Written && !U[0].Escaped);
  EXPECT_TRUE(U[1].Escaped);
  EXPECT_TRUE(U[2].Read && !U[2].Written && !U[2].Escaped);
  EXPECT_TRUE(U[3].Escaped);
  EXPECT_TRUE(U[4].Read && U[4].Written && U[4].Escaped);
}

TEST(MapInference, RepeatedAndRecursiveCallsTerminate) {
  // sink(p) stores through p and calls itself; the kernel calls it twice.
  // The second call reuses the first proof, and the recursion ends.
  Module M;
  Function *Sink = M.createFunction("sink", Type::voidTy(), {Type::ptr()});
  IRBuilder B(M);
  B.setInsertPoint(Sink->createBlock("entry"));
  B.store(B.i64(7), Sink->arg(0));
  B.call(Sink, {Sink->arg(0)});
  B.retVoid();
  Function *K = M.createFunction("rec_k", Type::voidTy(), {Type::ptr()});
  K->addAttr(FnAttr::Kernel);
  B.setInsertPoint(K->createBlock("entry"));
  B.call(Sink, {K->arg(0)});
  B.call(Sink, {K->arg(0)});
  B.retVoid();
  ASSERT_TRUE(verifyModule(M).empty());
  AnalysisManager AM(M);
  const auto U = computeArgUsage(*K, AM);
  EXPECT_TRUE(U[0].Written);
  EXPECT_FALSE(U[0].Read);
  EXPECT_FALSE(U[0].Escaped);
}

TEST(MapInference, NativeOpMasksRefineUsage) {
  // One native op, two pointer operands: the declared masks say it reads
  // only through operand 0 and writes only through operand 1.
  Module M;
  Function *K =
      M.createFunction("native_k", Type::voidTy(), {Type::ptr(), Type::ptr()});
  K->addAttr(FnAttr::Kernel);
  IRBuilder B(M);
  B.setInsertPoint(K->createBlock("entry"));
  NativeOpFlags Flags;
  Flags.ReadsArgsMask = 1u << 0;
  Flags.WritesArgsMask = 1u << 1;
  B.nativeOp(1, Type::voidTy(), {K->arg(0), K->arg(1)}, Flags);
  B.retVoid();
  ASSERT_TRUE(verifyModule(M).empty());
  AnalysisManager AM(M);
  const auto U = computeArgUsage(*K, AM);
  EXPECT_TRUE(U[0].Read);
  EXPECT_FALSE(U[0].Written);
  EXPECT_TRUE(U[1].Written);
  EXPECT_FALSE(U[1].Read);
  // Default all-ones masks: the same op with no refinement is read+write
  // through every pointer operand.
  Function *K2 = M.createFunction("native_default_k", Type::voidTy(),
                                  {Type::ptr()});
  K2->addAttr(FnAttr::Kernel);
  B.setInsertPoint(K2->createBlock("entry"));
  B.nativeOp(1, Type::voidTy(), {K2->arg(0)}, NativeOpFlags{});
  B.retVoid();
  const auto U2 = computeArgUsage(*K2, AM);
  EXPECT_TRUE(U2[0].Read);
  EXPECT_TRUE(U2[0].Written);
  EXPECT_EQ(inferredMapFor(U2[0]), MapKind::ToFrom);
}

TEST(MapInference, InferModuleMapsAnnotatesKernelsOnly) {
  Module M;
  Function *K = buildUsageKernel(M);
  // A non-kernel function must not be annotated.
  Function *Helper = M.createFunction("plain", Type::voidTy(), {Type::ptr()});
  IRBuilder B(M);
  B.setInsertPoint(Helper->createBlock("entry"));
  B.load(Type::i64(), Helper->arg(0));
  B.retVoid();
  AnalysisManager AM(M);
  OptOptions Options;
  Counters::global().reset();
  const std::size_t Annotated = inferModuleMaps(M, AM, Options);
  EXPECT_EQ(Annotated, 4u);
  ASSERT_TRUE(K->hasInferredMaps());
  EXPECT_FALSE(Helper->hasInferredMaps());
  EXPECT_EQ(K->inferredArgMap(0), MapKind::To);
  EXPECT_EQ(K->inferredArgMap(1), MapKind::From);
  EXPECT_EQ(K->inferredArgMap(2), MapKind::ToFrom);
  EXPECT_EQ(K->inferredArgMap(3), MapKind::Alloc);
  EXPECT_EQ(Counters::global().value("opt.mapinfer.kernels"), 1u);
  EXPECT_EQ(Counters::global().value("opt.mapinfer.to"), 1u);
  EXPECT_EQ(Counters::global().value("opt.mapinfer.from"), 1u);
  EXPECT_EQ(Counters::global().value("opt.mapinfer.tofrom"), 1u);
  EXPECT_EQ(Counters::global().value("opt.mapinfer.alloc"), 1u);
}

//===--------------------------------------------------------------------===//
// The map lint rules, statically.
//===--------------------------------------------------------------------===//

/// Run the full lint pipeline over M and return one rule's findings.
std::vector<Remark> lint(Module &M, const std::string &Rule) {
  RemarkCollector Collector;
  OptOptions Options;
  Options.Pipeline = std::string(LintPipeline);
  Options.Obs.Remarks = &Collector;
  runPipeline(M, Options);
  return Collector.filtered(RemarkKind::Missed, Rule);
}

TEST(MapLint, RedundantClauseFlagged) {
  // map(tofrom) on an argument the kernel only reads: the from direction
  // is a wasted transfer.
  Module M;
  Function *K = M.createFunction("redundant_k", Type::voidTy(),
                                 {Type::ptr(), Type::ptr()});
  K->addAttr(FnAttr::Kernel);
  K->setArgMap(0, MapKind::ToFrom);
  K->setArgMap(1, MapKind::From);
  IRBuilder B(M);
  B.setInsertPoint(K->createBlock("entry"));
  B.store(B.load(Type::i64(), K->arg(0)), K->arg(1));
  B.retVoid();
  ASSERT_TRUE(verifyModule(M).empty());
  const auto Findings = lint(M, "lint-redundant-map");
  ASSERT_EQ(Findings.size(), 1u)
      << "tofrom-on-read-only flagged; the exact from clause is clean";
  EXPECT_EQ(Findings[0].Function, "redundant_k");
  EXPECT_NE(Findings[0].Message.find("never writes"), std::string::npos)
      << Findings[0].Message;
}

TEST(MapLint, MissingClauseFlaggedBothDirections) {
  // map(from) on a read argument (kernel sees uninitialized memory) and
  // map(to) on a written argument (host never sees the writes).
  Module M;
  Function *K = M.createFunction("missing_k", Type::voidTy(),
                                 {Type::ptr(), Type::ptr()});
  K->addAttr(FnAttr::Kernel);
  K->setArgMap(0, MapKind::From);
  K->setArgMap(1, MapKind::To);
  IRBuilder B(M);
  B.setInsertPoint(K->createBlock("entry"));
  B.store(B.load(Type::i64(), K->arg(0)), K->arg(1));
  B.retVoid();
  ASSERT_TRUE(verifyModule(M).empty());
  const auto Findings = lint(M, "lint-missing-map");
  ASSERT_EQ(Findings.size(), 2u);
  bool SawUninit = false, SawLost = false;
  for (const Remark &F : Findings) {
    SawUninit |= F.Message.find("uninitialized") != std::string::npos;
    SawLost |= F.Message.find("never observes") != std::string::npos;
  }
  EXPECT_TRUE(SawUninit);
  EXPECT_TRUE(SawLost);
}

TEST(MapLint, QuietWithoutClausesAndOnEscapes) {
  // No declared clauses: both rules have nothing to check. An escaped
  // argument under a clause: no proof, no finding.
  Module M;
  Function *Plain = M.createFunction("noclause_k", Type::voidTy(),
                                     {Type::ptr()});
  Plain->addAttr(FnAttr::Kernel);
  IRBuilder B(M);
  B.setInsertPoint(Plain->createBlock("entry"));
  B.load(Type::i64(), Plain->arg(0));
  B.retVoid();
  Function *Esc = M.createFunction("escape_k", Type::voidTy(), {Type::ptr()});
  Esc->addAttr(FnAttr::Kernel);
  Esc->setArgMap(0, MapKind::ToFrom);
  B.setInsertPoint(Esc->createBlock("entry"));
  B.ptrToInt(Esc->arg(0));
  B.retVoid();
  ASSERT_TRUE(verifyModule(M).empty());
  EXPECT_TRUE(lint(M, "lint-redundant-map").empty());
  EXPECT_TRUE(lint(M, "lint-missing-map").empty());
}

//===--------------------------------------------------------------------===//
// Dynamic differential: the static findings are real behaviors.
//===--------------------------------------------------------------------===//

/// out[tid] = in[tid] + 3, hand-lowered; declared maps as given.
void buildAddKernel(Module &M, MapKind InMap, MapKind OutMap) {
  Function *K = M.createFunction("dyn_k", Type::voidTy(),
                                 {Type::ptr(), Type::ptr()});
  K->addAttr(FnAttr::Kernel);
  K->setArgMap(0, InMap);
  K->setArgMap(1, OutMap);
  IRBuilder B(M);
  B.setInsertPoint(K->createBlock("entry"));
  Value *Off = B.mul(B.zext(B.threadId(), Type::i64()), B.i64(8));
  Value *V = B.load(Type::i64(), B.gep(K->arg(0), Off));
  B.store(B.add(V, B.i64(3)), B.gep(K->arg(1), Off));
  B.retVoid();
}

/// Launch dyn_k over T threads with buffer args carrying the declared
/// clauses; returns the resulting out vector and the launch's transfers.
struct DynRun {
  std::vector<std::int64_t> Out;
  std::uint64_t TotalBytes = 0;
  bool Ok = false;
};

DynRun runAdd(MapKind InMap, MapKind OutMap) {
  constexpr std::uint32_t T = 16;
  vgpu::VirtualGPU GPU;
  Module M;
  buildAddKernel(M, InMap, OutMap);
  host::HostRuntime RT(GPU);
  DynRun R;
  if (!RT.registerImage(M))
    return R;
  std::vector<std::int64_t> In(T), Out(T, -1);
  for (std::uint32_t I = 0; I < T; ++I)
    In[I] = 10 * I + 1;
  const host::KernelArg Args[] = {
      host::KernelArg::buffer(In.data(), T * 8, InMap),
      host::KernelArg::buffer(Out.data(), T * 8, OutMap)};
  auto LR = RT.launch("dyn_k", Args, 1, T);
  if (!LR || !LR->Ok)
    return R;
  R.Out = std::move(Out);
  R.TotalBytes = LR->Profile.BytesToDevice + LR->Profile.BytesFromDevice;
  R.Ok = true;
  return R;
}

TEST(MapLintDifferential, RedundantNarrowingIsOutputPreservingAndCheaper) {
  // Golden: the conservative implicit tofrom on both arguments.
  const DynRun Golden = runAdd(MapKind::ToFrom, MapKind::ToFrom);
  ASSERT_TRUE(Golden.Ok);
  // What lint-redundant-map suggests: in is read-only -> map(to); out is
  // write-only -> map(from). Same outputs, strictly fewer bytes moved.
  const DynRun Narrowed = runAdd(MapKind::To, MapKind::From);
  ASSERT_TRUE(Narrowed.Ok);
  EXPECT_EQ(Narrowed.Out, Golden.Out)
      << "narrowing a redundant clause must not change results";
  EXPECT_LT(Narrowed.TotalBytes, Golden.TotalBytes);
  EXPECT_EQ(Narrowed.TotalBytes, Golden.TotalBytes / 2)
      << "to+from moves half of tofrom+tofrom";
}

TEST(MapLintDifferential, MissingToClauseReallyDiverges) {
  // What lint-missing-map flags: map(from) on the read argument. The
  // kernel then reads device memory never written from the host — the
  // outputs must diverge from the golden run (the device zero-fills, so
  // the divergence is deterministic: out[i] == 3).
  const DynRun Golden = runAdd(MapKind::ToFrom, MapKind::ToFrom);
  ASSERT_TRUE(Golden.Ok);
  const DynRun Missing = runAdd(MapKind::From, MapKind::From);
  ASSERT_TRUE(Missing.Ok);
  EXPECT_NE(Missing.Out, Golden.Out)
      << "a missing to-clause must be observable, or the lint is noise";
  for (std::size_t I = 0; I < Missing.Out.size(); ++I)
    EXPECT_EQ(Missing.Out[I], 3) << "element " << I;
}

} // namespace
} // namespace codesign::opt
