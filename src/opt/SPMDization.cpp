//===- opt/SPMDization.cpp - Generic-to-SPMD conversion (IV-A3) ------------===//
//
// Rewrites eligible generic-mode kernels to SPMD mode:
//
//   * the __kmpc_target_init/deinit mode constants flip to SPMD;
//   * the main-thread dispatch branch becomes unconditional, making the
//     state-machine blocks unreachable (SimplifyCFG deletes them);
//   * each __kmpc_parallel(fn, args, 0) call becomes
//     spmd_parallel_begin(); fn(args); spmd_parallel_end() executed by all
//     threads;
//   * league-wide worksharing retargets from the generic-mode loop (over
//     blockDim-1 workers) to the static SPMD loop (over blockDim threads);
//   * main-thread side effects in the sequential region are guarded with a
//     thread-0 check plus an aligned barrier ("Instructions executed by the
//     main thread with no side-effects are simply recomputed while others
//     are guarded", Section IV-A3).
//
// Ineligible kernels keep the state machine, and a missed-optimization
// remark explains why (the paper's -Rpass-missed=openmp-opt, Section VII).
//
//===----------------------------------------------------------------------===//
#include "opt/Pipeline.hpp"
#include "rt/RuntimeABI.hpp"

#include <optional>
#include <set>

namespace codesign::opt {

using namespace ir;
namespace abi = codesign::rt;

namespace {

struct KernelShape {
  Instruction *InitCall = nullptr;
  Instruction *Dispatch = nullptr; ///< condbr on "tid == blockDim-1"
  BasicBlock *MainEntry = nullptr;
  BasicBlock *WorkerEntry = nullptr;
  std::vector<BasicBlock *> MainBlocks;
};

bool callTargets(const Instruction *I, std::string_view Name) {
  if (I->opcode() != Opcode::Call)
    return false;
  const Function *Callee = I->calledFunction();
  return Callee && Callee->name() == Name;
}

std::optional<KernelShape> matchShape(Function &K) {
  if (K.execMode() != ExecMode::Generic)
    return std::nullopt;
  KernelShape S;
  BasicBlock *Entry = K.entry();
  for (const auto &I : Entry->instructions())
    if (callTargets(I.get(), abi::TargetInitName)) {
      S.InitCall = I.get();
      break;
    }
  if (!S.InitCall)
    return std::nullopt;
  Instruction *T = Entry->terminator();
  if (!T || T->opcode() != Opcode::CondBr)
    return std::nullopt;
  const auto *Cmp = dynCast<Instruction>(T->operand(0));
  if (!Cmp || Cmp->opcode() != Opcode::ICmp || Cmp->pred() != CmpPred::EQ)
    return std::nullopt;
  const auto *Lhs = dynCast<Instruction>(Cmp->operand(0));
  if (!Lhs || Lhs->opcode() != Opcode::ThreadId)
    return std::nullopt;
  S.Dispatch = T;
  S.MainEntry = T->blockOperand(0);
  S.WorkerEntry = T->blockOperand(1);

  std::set<BasicBlock *> Main, Worker;
  auto collect = [](BasicBlock *From, std::set<BasicBlock *> &Out) {
    std::vector<BasicBlock *> Work{From};
    while (!Work.empty()) {
      BasicBlock *BB = Work.back();
      Work.pop_back();
      if (!Out.insert(BB).second)
        continue;
      for (BasicBlock *Succ : BB->successors())
        Work.push_back(Succ);
    }
  };
  collect(S.MainEntry, Main);
  collect(S.WorkerEntry, Worker);
  for (BasicBlock *BB : Main)
    if (Worker.count(BB))
      return std::nullopt; // paths rejoin: not the fork-join shape
  S.MainBlocks.assign(Main.begin(), Main.end());
  return S;
}

std::optional<std::string> findBlocker(const KernelShape &S) {
  for (BasicBlock *BB : S.MainBlocks) {
    for (const auto &I : BB->instructions()) {
      if (I->opcode() != Opcode::Call)
        continue;
      const Function *Callee = I->calledFunction();
      if (!Callee)
        return std::string("indirect call in the sequential region");
      const std::string &N = Callee->name();
      if (N == abi::ParallelName) {
        const auto *Clause = dynCast<ConstantInt>(I->callArg(2));
        if (!Clause || !Clause->isZero())
          return std::string("parallel region with a num_threads clause");
        if (!Function::fromValue(I->callArg(0)))
          return std::string("parallel region with an unknown outlined "
                             "function");
        continue;
      }
      if (N == abi::TargetDeinitName || N == abi::FreeSharedName ||
          N == "__kmpc_trace")
        continue;
      if (N == abi::AllocSharedName) {
        // A shared allocation whose pointer escapes into memory is real
        // team-shared state: SPMD conversion would allocate once per
        // thread and break the sharing.
        for (const ir::Use &U : I->uses())
          if (U.User->opcode() == Opcode::Store && U.OpIdx == 0)
            return std::string(
                "team-shared allocation escapes the sequential region");
        continue;
      }
      if (N == abi::SetNumThreadsName)
        return std::string("ICV write in the sequential region");
      if (Callee->hasAttr(FnAttr::NoInline) || Callee->isDeclaration())
        return "opaque call '" + N + "' in the sequential region";
    }
  }
  return std::nullopt;
}

/// Wrap the instruction at BB[Idx] in "if (tid == 0) { op } barrier".
/// Returns the continuation block holding the rest of BB.
BasicBlock *guardMainOnly(Function &K, BasicBlock *BB, std::size_t Idx,
                          Module &M) {
  BasicBlock *GuardBB = K.createBlock(BB->name() + ".guarded");
  BasicBlock *ContBB = K.createBlock(BB->name() + ".guardcont");
  while (BB->size() > Idx + 1)
    ContBB->append(BB->detach(BB->inst(Idx + 1)));
  for (BasicBlock *Succ : ContBB->successors())
    for (std::size_t I2 = 0; I2 < Succ->size(); ++I2) {
      Instruction *Phi = Succ->inst(I2);
      if (Phi->opcode() != Opcode::Phi)
        break;
      for (unsigned KIdx = 0; KIdx < Phi->numBlockOperands(); ++KIdx)
        if (Phi->blockOperand(KIdx) == BB)
          Phi->setBlockOperand(KIdx, ContBB);
    }
  GuardBB->append(BB->detach(BB->inst(Idx)));
  {
    auto Br = std::make_unique<Instruction>(Opcode::Br, Type::voidTy());
    Br->addBlockOperand(ContBB);
    GuardBB->append(std::move(Br));
  }
  auto Tid = std::make_unique<Instruction>(Opcode::ThreadId, Type::i32());
  Instruction *TidPtr = BB->append(std::move(Tid));
  auto Cmp = std::make_unique<Instruction>(Opcode::ICmp, Type::i1());
  Cmp->setPred(CmpPred::EQ);
  Cmp->addOperand(TidPtr);
  Cmp->addOperand(M.constI32(0));
  Instruction *CmpPtr = BB->append(std::move(Cmp));
  auto CondBr = std::make_unique<Instruction>(Opcode::CondBr, Type::voidTy());
  CondBr->addOperand(CmpPtr);
  CondBr->addBlockOperand(GuardBB);
  CondBr->addBlockOperand(ContBB);
  BB->append(std::move(CondBr));
  auto Barrier =
      std::make_unique<Instruction>(Opcode::AlignedBarrier, Type::voidTy());
  ContBB->insertAt(0, std::move(Barrier));
  return ContBB;
}

void transform(Function &K, KernelShape &S, Module &M) {
  // 1. Flip init/deinit modes.
  S.InitCall->setOperand(1, M.constI32(abi::ModeSPMD));
  for (BasicBlock *BB : S.MainBlocks)
    for (const auto &I : BB->instructions())
      if (callTargets(I.get(), abi::TargetDeinitName))
        I->setOperand(1, M.constI32(abi::ModeSPMD));

  // 2. All threads take the main path.
  BasicBlock *Entry = S.Dispatch->parent();
  BasicBlock *MainEntry = S.MainEntry;
  Entry->erase(S.Dispatch);
  {
    auto Br = std::make_unique<Instruction>(Opcode::Br, Type::voidTy());
    Br->addBlockOperand(MainEntry);
    Entry->append(std::move(Br));
  }

  Function *Begin = M.findFunction(abi::SpmdParallelBeginName);
  Function *End = M.findFunction(abi::SpmdParallelEndName);

  // 3. Rewrite fork calls; guard main-only side effects. Work over a
  // block list that grows when guarding splits a block.
  std::vector<BasicBlock *> Work = S.MainBlocks;
  while (!Work.empty()) {
    BasicBlock *BB = Work.back();
    Work.pop_back();
    for (std::size_t Idx = 0; Idx < BB->size(); ++Idx) {
      Instruction *I = BB->inst(Idx);
      if (callTargets(I, abi::ParallelName)) {
        Function *Outlined = Function::fromValue(I->callArg(0));
        Value *Args = I->callArg(1);
        auto BeginCall =
            std::make_unique<Instruction>(Opcode::Call, Type::voidTy());
        BeginCall->addOperand(Begin->asValue());
        auto Direct =
            std::make_unique<Instruction>(Opcode::Call, Type::voidTy());
        Direct->addOperand(Outlined->asValue());
        Direct->addOperand(Args);
        auto EndCall =
            std::make_unique<Instruction>(Opcode::Call, Type::voidTy());
        EndCall->addOperand(End->asValue());
        BB->insertAt(Idx, std::move(BeginCall));
        BB->insertAt(Idx + 1, std::move(Direct));
        BB->insertAt(Idx + 2, std::move(EndCall));
        Instruction *Fork = BB->inst(Idx + 3);
        BB->erase(Fork);
        Idx += 2;
        continue;
      }
      if (I->opcode() == Opcode::NativeOp &&
          (I->nativeFlags().WritesMemory || I->nativeFlags().Divergent)) {
        BasicBlock *Cont = guardMainOnly(K, BB, Idx, M);
        Work.push_back(Cont);
        break; // the rest of BB moved into Cont
      }
    }
  }

  K.setExecMode(ExecMode::SPMD);
}

/// The first SPMD-mode entry point M lacks; the conversion calls them all.
std::optional<std::string_view> missingEntryPoint(const Module &M) {
  for (std::string_view Name : abi::SpmdizationEntryPoints)
    if (!M.findFunction(Name))
      return Name;
  return std::nullopt;
}

} // namespace

bool runSPMDization(Module &M, const OptOptions &Options) {
  if (!Options.EnableSPMDization)
    return false;
  bool Changed = false;
  for (const auto &F : M.functions()) {
    if (!F->hasAttr(FnAttr::Kernel) || F->isDeclaration())
      continue;
    auto Shape = matchShape(*F);
    if (!Shape) {
      if (F->execMode() == ExecMode::Generic)
        Options.remark(RemarkKind::Missed, "spmdization", F->name(),
                       "generic-mode kernel does not match the "
                       "fork-join shape");
      continue;
    }
    if (auto Blocker = findBlocker(*Shape)) {
      Options.remark(RemarkKind::Missed, "spmdization", F->name(),
                     *Blocker + "; kernel keeps the state machine "
                                "and data-sharing overhead");
      continue;
    }
    if (auto Missing = missingEntryPoint(M)) {
      Options.remark(RemarkKind::Missed, "spmdization", F->name(),
                     "runtime entry point '" + std::string(*Missing) +
                         "' is missing from the module; kernel keeps the "
                         "state machine");
      continue;
    }
    transform(*F, *Shape, M);
    Options.remark(RemarkKind::Passed, "spmdization", F->name(),
                   "kernel converted to SPMD mode");
    Changed = true;
  }

  // Retarget league-wide worksharing to the SPMD scheme — only once no
  // generic-mode kernel in the module still relies on the worker count.
  if (Changed) {
    bool AnyGeneric = false;
    for (const auto &F : M.functions())
      if (F->hasAttr(FnAttr::Kernel) && F->execMode() == ExecMode::Generic)
        AnyGeneric = true;
    Function *GenericLoop = M.findFunction(abi::DistributeForGenericLoopName);
    Function *StaticLoop = M.findFunction(abi::DistributeForStaticLoopName);
    if (!AnyGeneric && GenericLoop && !GenericLoop->asValue()->useEmpty())
      GenericLoop->asValue()->replaceAllUsesWith(StaticLoop->asValue());
  }
  return Changed;
}

} // namespace codesign::opt
