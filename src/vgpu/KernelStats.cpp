#include "vgpu/KernelStats.hpp"

#include <set>
#include <vector>

#include "analysis/Liveness.hpp"

namespace codesign::vgpu {

KernelStaticStats computeKernelStats(const ir::Function &Kernel,
                                     const NativeRegistry &Registry) {
  KernelStaticStats Stats;

  // Collect functions reachable from the kernel. Address-taken functions
  // (potential indirect-call targets, e.g. outlined parallel regions routed
  // through the state machine's work-function slot) count as reachable when
  // their address is referenced from reachable code.
  std::set<const ir::Function *> Reachable;
  std::vector<const ir::Function *> Work{&Kernel};
  while (!Work.empty()) {
    const ir::Function *F = Work.back();
    Work.pop_back();
    if (!Reachable.insert(F).second || F->isDeclaration())
      continue;
    for (const auto &BB : F->blocks())
      for (const auto &I : BB->instructions())
        for (unsigned Op = 0; Op < I->numOperands(); ++Op)
          if (const ir::Function *Ref =
                  ir::Function::fromValue(I->operand(Op)))
            Work.push_back(Ref);
  }

  unsigned MaxLive = 0;
  unsigned MaxNativeRegs = 0;
  for (const ir::Function *F : Reachable) {
    if (F->isDeclaration())
      continue;
    analysis::Liveness L(*F);
    MaxLive = std::max(MaxLive, L.maxLive());
    Stats.CodeSize += F->instructionCount();
    for (const auto &BB : F->blocks())
      for (const auto &I : BB->instructions())
        if (I->opcode() == ir::Opcode::NativeOp)
          MaxNativeRegs =
              std::max(MaxNativeRegs, Registry.get(I->imm()).ExtraRegisters);
  }
  constexpr unsigned BaseRegisters = 8;
  Stats.Registers = BaseRegisters + MaxLive + MaxNativeRegs;

  Stats.SharedMemBytes =
      layoutSharedSegment(*Kernel.parent(), [](const ir::GlobalVariable *,
                                              std::uint64_t) {});
  return Stats;
}

} // namespace codesign::vgpu
