//===- exec/NativeCodegen.cpp - IR -> standalone C++ emission --------------===//
//
// Emits one self-contained C++ translation unit per ir::Module. The
// generated code mirrors the tree interpreter instruction by instruction:
// every value operation is one call into ir/Eval.hpp (embedded verbatim)
// with a constant opcode and kind, which the host compiler folds, and the
// memory paths keep the same global atomics and the same trap conditions
// and messages, so its outputs are bit-identical to the interpreting
// backends on any input. Speed comes from the host compiler,
// not from semantic shortcuts: values live in plain uint64 slots, control
// flow is gotos, and only native ops, device mallocs, barrier suspension
// and address resolution outside the published memory windows call back
// into the host's team model.
//
// Lanes run on host-side fibers scheduled by the team model
// (NativeBackend.cpp): a barrier — in the kernel entry or any callee,
// including ones reached through the state machine's indirect
// work-function calls — records its site and suspends via
// cg_team::host_suspend. Barrier site ids are unique across the module so
// they serve as the team model's barrier identity.
//
// Layout of a generated TU:
//   includes
//   ir/Eval.hpp              (embedded verbatim at build time)
//   exec/NativeABI.inc       (embedded verbatim; host structs, same bytes)
//   prelude                  (trap and resolve fast path)
//   static body functions    (cg_f<i>)
//   extern "C" lane entries  (one per kernel; what the fibers run)
//
//===----------------------------------------------------------------------===//
#include "exec/NativeCodegen.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

#include "NativeEmbedded.hpp"
#include "ir/Function.hpp"
#include "ir/Instruction.hpp"

namespace codesign::exec {

namespace {

using namespace ir;

//===----------------------------------------------------------------------===//
// Small helpers
//===----------------------------------------------------------------------===//

std::string hexU64(std::uint64_t V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "0x%llxULL",
                static_cast<unsigned long long>(V));
  return Buf;
}

/// C string literal contents for a trap message (octal escapes are
/// self-terminating, unlike \x).
std::string escapeC(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (const char Ch : S) {
    const auto U = static_cast<unsigned char>(Ch);
    if (Ch == '\\' || Ch == '"') {
      Out += '\\';
      Out += Ch;
    } else if (U >= 0x20 && U < 0x7F) {
      Out += Ch;
    } else {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\%03o", U);
      Out += Buf;
    }
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Emitter
//===----------------------------------------------------------------------===//

class Emitter {
public:
  explicit Emitter(const Module &M) : M(M) {
    std::uint32_t GIdx = 0;
    for (const auto &G : M.globals())
      GlobalOrdinal[G.get()] = GIdx++;
    std::uint32_t FIdx = 0;
    for (const auto &F : M.functions())
      FnOrdinal[F.get()] = FIdx++;
  }

  NativeModuleSource run() {
    emitHeader();
    for (const auto &F : M.functions())
      if (!F->isDeclaration())
        emitForwardDecl(*F);
    S += "\n";
    for (const auto &F : M.functions())
      if (!F->isDeclaration())
        emitFunction(*F);
    for (const auto &F : M.functions())
      if (!F->isDeclaration() && F->hasAttr(FnAttr::Kernel))
        emitLaneEntry(*F);
    Out.Source = std::move(S);
    Out.AnyBarriers = NextSite > 0;
    return std::move(Out);
  }

private:
  const Module &M;
  NativeModuleSource Out;
  std::string S;

  std::unordered_map<const GlobalVariable *, std::uint32_t> GlobalOrdinal;
  std::unordered_map<const Function *, std::uint32_t> FnOrdinal;
  /// cpool position of an already-referenced global/function.
  std::unordered_map<const Value *, std::uint32_t> PoolIndex;

  // Per-function state.
  const Function *F = nullptr;
  std::unordered_map<const Value *, std::uint32_t> Slots;
  std::unordered_map<const BasicBlock *, std::uint32_t> BlockIds;
  std::unordered_map<const Instruction *, std::uint32_t> BarrierSites;
  std::uint32_t NextSite = 0; ///< module-global barrier site counter
  std::uint32_t NumSlots = 0;
  bool FnHasBarriers = false;
  bool KernelMode = false;
  std::string Arr;     ///< "R" (lane slots) or "S" (callee-local array)
  std::string RetDflt; ///< "return;" or "return 0ULL;"

  //--- Small emission helpers ----------------------------------------------

  void line(const std::string &Text) {
    S += "  ";
    S += Text;
    S += '\n';
  }

  [[nodiscard]] std::string trapStmt(const std::string &Msg) const {
    return "{ cg_trap(L, \"" + escapeC(Msg) + "\"); " + RetDflt + " }";
  }

  [[nodiscard]] std::uint32_t poolIndexOf(const Value *V, bool IsFunction,
                                          std::uint32_t Ordinal) {
    auto It = PoolIndex.find(V);
    if (It != PoolIndex.end())
      return It->second;
    const auto Pos = static_cast<std::uint32_t>(Out.CPool.size());
    Out.CPool.push_back({IsFunction, Ordinal});
    PoolIndex.emplace(V, Pos);
    return Pos;
  }

  /// Expression for a value's canonical 64-bit representation (mirrors
  /// TeamExecutor::operandValue).
  [[nodiscard]] std::string val(const Value *V) {
    switch (V->kind()) {
    case ValueKind::Instruction:
    case ValueKind::Argument:
      return Arr + "[" + std::to_string(Slots.at(V)) + "]";
    case ValueKind::ConstantInt:
      return hexU64(ir::cast<ir::ConstantInt>(V)->bits());
    case ValueKind::ConstantFP:
      return hexU64(ir::cast<ir::ConstantFP>(V)->bits());
    case ValueKind::ConstantNull:
    case ValueKind::Undef:
      return "0ULL";
    case ValueKind::GlobalVariable: {
      const auto *G = ir::cast<ir::GlobalVariable>(V);
      return "T->cpool[" +
             std::to_string(poolIndexOf(V, false, GlobalOrdinal.at(G))) + "]";
    }
    case ValueKind::Function: {
      const Function *Fn = Function::fromValue(V);
      return "T->cpool[" +
             std::to_string(poolIndexOf(V, true, FnOrdinal.at(Fn))) + "]";
    }
    }
    return "0ULL";
  }

  /// Constant arguments of an ir/Eval.hpp call, with the mnemonic as a
  /// comment.
  [[nodiscard]] static std::string opArg(Opcode Op) {
    return "Opcode(" + std::to_string(static_cast<unsigned>(Op)) + ") /*" +
           opcodeName(Op) + "*/";
  }
  [[nodiscard]] static std::string predArg(CmpPred P) {
    return "CmpPred(" + std::to_string(static_cast<unsigned>(P)) + ") /*" +
           cmpPredName(P) + "*/";
  }
  [[nodiscard]] static std::string kindArg(Type Ty) {
    return "TypeKind(" + std::to_string(static_cast<unsigned>(Ty.kind())) +
           ") /*" + std::string(Ty.name()) + "*/";
  }

  /// eval::canonBits of E as a value of type Ty.
  [[nodiscard]] static std::string canonExpr(Type Ty, const std::string &E) {
    return "eval::canonBits(" + kindArg(Ty) + ", " + E + ")";
  }

  [[nodiscard]] std::string slotRef(const Value *V) const {
    return Arr + "[" + std::to_string(Slots.at(V)) + "]";
  }

  /// `Arr[slot(I)] = E;` — or nothing for void-typed instructions.
  [[nodiscard]] std::string setRes(const Instruction *I,
                                   const std::string &E) const {
    if (I->type().isVoid())
      return "(void)(" + E + ");";
    return slotRef(I) + " = " + E + ";";
  }

  //--- Module-level pieces --------------------------------------------------

  void emitHeader() {
    S += "// Generated by codesign exec::NativeBackend. Do not edit.\n";
    S += "#include <cstdint>\n#include <cstring>\n\n";
    // ir/Eval.hpp verbatim, minus the include guard (we are the main file
    // here and GCC warns about #pragma once in it).
    std::string Eval = embedded::EvalText;
    const std::size_t Pragma = Eval.find("#pragma once");
    if (Pragma != std::string::npos)
      Eval.erase(Pragma, std::strlen("#pragma once"));
    S += Eval;
    S += "\nnamespace eval = codesign::ir::eval;\n"
         "using codesign::ir::AtomicOp;\nusing codesign::ir::CmpPred;\n"
         "using codesign::ir::Opcode;\nusing codesign::ir::TypeKind;\n\n";
    S += embedded::AbiText;
    S += R"CGPRE(
static constexpr std::uint64_t CG_OFF_MASK = (1ULL << 46) - 1ULL;

static inline void cg_trap(cg_lane *L, const char *Msg) {
  L->trap_msg = Msg;
  L->status = 2u;
}

// The fast path of vgpu::TeamModel::resolve over the memory windows the
// host publishes. Everything else (traps, local-memory growth) is the
// host's resolve, which sets status 2 when it traps.
static inline std::uint8_t *cg_resolve(cg_lane *L, std::uint64_t A,
                                       std::uint64_t Size) {
  cg_team *const T = L->team;
  const std::uint64_t Off = A & CG_OFF_MASK;
  switch (A >> 62) {
  case 1: // global
    if (Off + Size <= T->global_size)
      return T->global_base + Off;
    break;
  case 2: // shared
    if (Off + Size <= T->shared_cap)
      return T->shared_base + Off;
    break;
  case 3: // local, owned by this lane
    if ((!T->debug_checks || ((A >> 46) & 0xffffULL) == L->tid) &&
        Off + Size <= L->local_size)
      return L->local_base + Off;
    break;
  }
  return T->host_resolve(T->host, L, A, Size);
}

)CGPRE";
  }

  void emitForwardDecl(const Function &Fn) {
    const std::uint32_t Idx = FnOrdinal.at(&Fn);
    if (Fn.hasAttr(FnAttr::Kernel)) {
      S += "static void cg_f" + std::to_string(Idx) + "(cg_lane *const L);\n";
      return;
    }
    S += "static std::uint64_t cg_f" + std::to_string(Idx) +
         "(cg_lane *const L";
    for (unsigned A = 0; A < Fn.numArgs(); ++A)
      S += ", std::uint64_t";
    S += ");\n";
  }

  //--- Function emission ----------------------------------------------------

  void setupFunction(const Function &Fn) {
    F = &Fn;
    Slots.clear();
    BlockIds.clear();
    BarrierSites.clear();
    NumSlots = 0;
    for (unsigned A = 0; A < Fn.numArgs(); ++A)
      Slots[Fn.arg(A)] = NumSlots++;
    std::uint32_t BlockId = 0;
    FnHasBarriers = false;
    for (const auto &BB : Fn.blocks()) {
      BlockIds[BB.get()] = BlockId++;
      for (std::size_t Idx = 0; Idx < BB->size(); ++Idx) {
        const Instruction *I = BB->inst(Idx);
        if (!I->type().isVoid())
          Slots[I] = NumSlots++;
        if (I->opcode() == Opcode::Barrier ||
            I->opcode() == Opcode::AlignedBarrier) {
          BarrierSites[I] = ++NextSite; // unique across the whole module
          FnHasBarriers = true;
        }
      }
    }
  }

  void emitFunction(const Function &Fn) {
    setupFunction(Fn);
    const std::uint32_t Idx = FnOrdinal.at(&Fn);
    KernelMode = Fn.hasAttr(FnAttr::Kernel);
    Arr = KernelMode ? "R" : "S";
    RetDflt = KernelMode ? "return;" : "return 0ULL;";

    S += "\n// @" + Fn.name() + "\n";
    if (KernelMode) {
      Out.Kernels[Fn.name()] = {"codesign_native_kernel_" +
                                    std::to_string(Idx),
                                NumSlots, FnHasBarriers};
      S += "static void cg_f" + std::to_string(Idx) + "(cg_lane *const L) {\n";
      line("cg_team *const T = L->team; (void)T;");
      line("std::uint64_t *const R = L->slots; (void)R;");
    } else {
      S += "static std::uint64_t cg_f" + std::to_string(Idx) +
           "(cg_lane *const L";
      for (unsigned A = 0; A < Fn.numArgs(); ++A)
        S += ", std::uint64_t cg_a" + std::to_string(A);
      S += ") {\n";
      line("cg_team *const T = L->team; (void)T;");
      line("std::uint64_t S[" +
           std::to_string(std::max<std::uint32_t>(NumSlots, 1)) +
           "] = {}; (void)S;");
      for (unsigned A = 0; A < Fn.numArgs(); ++A)
        line("S[" + std::to_string(Slots.at(Fn.arg(A))) + "] = cg_a" +
             std::to_string(A) + ";");
      line("const std::uint64_t cg_wm = L->local_top; (void)cg_wm;");
    }
    line("goto cg_bb" + std::to_string(BlockIds.at(Fn.entry())) + ";");
    for (const auto &BB : Fn.blocks())
      emitBlock(*BB);
    S += "}\n";
  }

  void emitBlock(const BasicBlock &BB) {
    S += "cg_bb" + std::to_string(BlockIds.at(&BB)) + ": ;\n";
    std::size_t Idx = 0;
    // Leading phis are assigned on the incoming edges.
    while (Idx < BB.size() && BB.inst(Idx)->opcode() == Opcode::Phi)
      ++Idx;
    for (; Idx < BB.size(); ++Idx)
      emitInstruction(BB.inst(Idx));
    // Interpreter safety net for blocks without a terminator.
    line(trapStmt("fell off the end of a basic block"));
  }

  /// Parallel phi assignment for the edge Pred -> Succ (the interpreter's
  /// executePhis: evaluate every incoming first, then write — and trap
  /// before any write when an incoming value is missing).
  [[nodiscard]] std::string edgeCopies(const BasicBlock *Pred,
                                       const BasicBlock *Succ) {
    std::vector<std::pair<std::string, std::string>> Items; // slot ref, expr
    for (std::size_t Idx = 0; Idx < Succ->size(); ++Idx) {
      const Instruction *Phi = Succ->inst(Idx);
      if (Phi->opcode() != Opcode::Phi)
        break;
      const Value *In = Phi->incomingFor(Pred);
      if (!In)
        return trapStmt("phi has no incoming value for predecessor") + " ";
      Items.emplace_back(slotRef(Phi), val(In));
    }
    if (Items.empty())
      return "";
    std::string Code = "{ ";
    for (std::size_t K = 0; K < Items.size(); ++K)
      Code += "const std::uint64_t cg_t" + std::to_string(K) + " = " +
              Items[K].second + "; ";
    for (std::size_t K = 0; K < Items.size(); ++K)
      Code += Items[K].first + " = cg_t" + std::to_string(K) + "; ";
    Code += "} ";
    return Code;
  }

  [[nodiscard]] std::string branchTo(const BasicBlock *Pred,
                                     const BasicBlock *Succ) {
    return edgeCopies(Pred, Succ) + "goto cg_bb" +
           std::to_string(BlockIds.at(Succ)) + ";";
  }

  //--- Instruction emission -------------------------------------------------

  void emitInstruction(const Instruction *I);
  void emitAtomicRMW(const Instruction *I);
  void emitCall(const Instruction *I);
  void emitNativeOp(const Instruction *I);

  /// One call expression for target Callee (a known function with a body),
  /// or the interpreter's trap for declarations/arity mismatches. Appends
  /// statements assigning cg_v.
  [[nodiscard]] std::string callTarget(const Instruction *I,
                                       const Function *Callee) {
    if (Callee->isDeclaration())
      return trapStmt("call to unresolved external function '" +
                      Callee->name() + "'");
    if (Callee->numArgs() != I->numCallArgs())
      return trapStmt("indirect call argument count mismatch for '" +
                      Callee->name() + "'");
    if (Callee->hasAttr(FnAttr::Kernel))
      return trapStmt("native backend limit: call to a kernel entry");
    std::string Code =
        "cg_v = cg_f" + std::to_string(FnOrdinal.at(Callee)) + "(L";
    for (unsigned A = 0; A < Callee->numArgs(); ++A)
      Code += ", " + canonExpr(Callee->arg(A)->type(), val(I->operand(A + 1)));
    Code += ");";
    return Code;
  }

  void emitLaneEntry(const Function &Fn);
};

void Emitter::emitAtomicRMW(const Instruction *I) {
  const Type Ty = I->type();
  const unsigned Size = Ty.sizeInBytes();
  const std::string SizeS = std::to_string(Size);
  line("{ const std::uint64_t cg_a = " + val(I->operand(0)) + ";");
  line("  std::uint8_t *const cg_p = cg_resolve(L, cg_a, " + SizeS + ");");
  line("  if (!cg_p) { " + RetDflt + " }");
  line("  const std::uint64_t cg_val = " + val(I->operand(1)) + ";");
  line("  const auto cg_new = [&](std::uint64_t cg_old) {");
  line("    return eval::atomicResult(AtomicOp(" +
       std::to_string(static_cast<unsigned>(I->atomicOp())) + "), " +
       canonExpr(Ty, "cg_old") + ", cg_val);");
  line("  };");
  line("  std::uint64_t cg_raw = 0;");
  if (Size == 4 || Size == 8) {
    const std::string U = Size == 4 ? "std::uint32_t" : "std::uint64_t";
    line("  if ((cg_a >> 62) == 1ULL && eval::atomicCapable(cg_p, " + SizeS +
         ")) {");
    line("    cg_raw = eval::atomicFetchModify<" + U + ">(cg_p, cg_new);");
    line("  } else {");
  } else {
    line("  {");
  }
  line("    std::memcpy(&cg_raw, cg_p, " + SizeS + ");");
  line("    const std::uint64_t cg_nb = cg_new(cg_raw);");
  line("    std::memcpy(cg_p, &cg_nb, " + SizeS + ");");
  line("  }");
  line("  " + setRes(I, canonExpr(Ty, "cg_raw")) + " }");
}

void Emitter::emitCall(const Instruction *I) {
  line("{ std::uint64_t cg_v = 0; (void)cg_v;");
  if (const Function *Callee = I->calledFunction()) {
    line("  " + callTarget(I, Callee));
  } else {
    line("  const std::uint64_t cg_tgt = " + val(I->operand(0)) + ";");
    line("  if (cg_tgt == 0ULL || (cg_tgt >> 62) != 0ULL) " +
         trapStmt("indirect call to a non-function address"));
    line("  switch ((cg_tgt & CG_OFF_MASK) - 1ULL) {");
    std::uint32_t Idx = 0;
    for (const auto &Target : M.functions()) {
      line("  case " + std::to_string(Idx) + "ULL: " +
           (Target->numArgs() == I->numCallArgs() || Target->isDeclaration()
                ? callTarget(I, Target.get())
                : trapStmt("indirect call argument count mismatch for '" +
                           Target->name() + "'")) +
           " break;");
      ++Idx;
    }
    line("  default: " + trapStmt("indirect call to a non-function address"));
    line("  }");
  }
  line("  if (L->status != 0u) { " + RetDflt + " }");
  if (!I->type().isVoid())
    line("  " + setRes(I, canonExpr(I->type(), "cg_v")));
  line("}");
}

void Emitter::emitNativeOp(const Instruction *I) {
  const unsigned N = I->numOperands();
  line("{");
  if (N > 0) {
    std::string Init = "  const std::uint64_t cg_na[" + std::to_string(N) +
                       "] = {";
    for (unsigned A = 0; A < N; ++A)
      Init += (A ? ", " : "") + val(I->operand(A));
    Init += "};";
    line(Init);
  } else {
    line("  const std::uint64_t *cg_na = nullptr;");
  }
  line("  const std::uint64_t cg_v = T->host_native_op(T->host, L, " +
       std::to_string(I->imm()) + "LL, cg_na, " + std::to_string(N) +
       "u, std::uint32_t(" + kindArg(I->type()) + ")); (void)cg_v;");
  line("  if (L->status != 0u) { " + RetDflt + " }");
  if (!I->type().isVoid())
    line("  " + setRes(I, "cg_v"));
  line("}");
}

void Emitter::emitInstruction(const Instruction *I) {
  switch (I->opcode()) {
  // Value operations: one ir/Eval.hpp call each.
  case Opcode::Add:
  case Opcode::Sub:
  case Opcode::Mul:
  case Opcode::SDiv:
  case Opcode::UDiv:
  case Opcode::SRem:
  case Opcode::URem:
  case Opcode::And:
  case Opcode::Or:
  case Opcode::Xor:
  case Opcode::Shl:
  case Opcode::LShr:
  case Opcode::AShr:
    line("if (const char *cg_e = eval::intBinop(" + opArg(I->opcode()) + ", " +
         kindArg(I->type()) + ", " + val(I->operand(0)) + ", " +
         val(I->operand(1)) + ", " + slotRef(I) + ")) { cg_trap(L, cg_e); " +
         RetDflt + " }");
    return;
  case Opcode::FAdd:
  case Opcode::FSub:
  case Opcode::FMul:
  case Opcode::FDiv:
    line(setRes(I, "eval::floatBinop(" + opArg(I->opcode()) + ", " +
                       kindArg(I->type()) + ", " + val(I->operand(0)) +
                       ", " + val(I->operand(1)) + ")"));
    return;
  case Opcode::ICmp:
    line(setRes(I, "eval::icmp(" + predArg(I->pred()) + ", " +
                       val(I->operand(0)) + ", " + val(I->operand(1)) + ")"));
    return;
  case Opcode::FCmp:
    line(setRes(I, "eval::fcmp(" + predArg(I->pred()) + ", " +
                       kindArg(I->operand(0)->type()) + ", " +
                       val(I->operand(0)) + ", " + val(I->operand(1)) + ")"));
    return;
  case Opcode::Select:
    line(setRes(I, "eval::select(" + val(I->operand(0)) + ", " +
                       val(I->operand(1)) + ", " + val(I->operand(2)) + ")"));
    return;
  case Opcode::ZExt:
  case Opcode::SExt:
  case Opcode::Trunc:
  case Opcode::SIToFP:
  case Opcode::FPToSI:
  case Opcode::FPCast:
  case Opcode::PtrToInt:
  case Opcode::IntToPtr:
    line(setRes(I, "eval::cast(" + opArg(I->opcode()) + ", " +
                       kindArg(I->type()) + ", " +
                       kindArg(I->operand(0)->type()) + ", " +
                       val(I->operand(0)) + ")"));
    return;
  case Opcode::Alloca: {
    const std::string Size = std::to_string(I->imm()) + "ULL";
    line("{ const std::uint64_t cg_off = (L->local_top + 15ULL) & ~15ULL;");
    line("  if (cg_off + " + Size + " > T->local_cap) " +
         trapStmt("local memory exhausted"));
    line("  L->local_top = cg_off + " + Size + ";");
    line("  " +
         setRes(I, "(3ULL << 62) | ((static_cast<std::uint64_t>(L->tid) & "
                   "0xffffULL) << 46) | (cg_off & CG_OFF_MASK)") +
         " }");
    return;
  }
  case Opcode::Load: {
    const Type Ty = I->type();
    const std::string SizeS = std::to_string(Ty.sizeInBytes());
    line("{ std::uint8_t *const cg_p = cg_resolve(L, " + val(I->operand(0)) +
         ", " + SizeS + ");");
    line("  if (!cg_p) { " + RetDflt + " }");
    line("  std::uint64_t cg_v = 0; std::memcpy(&cg_v, cg_p, " + SizeS +
         ");");
    line("  " + setRes(I, canonExpr(Ty, "cg_v")) + " }");
    return;
  }
  case Opcode::Store: {
    const std::string SizeS =
        std::to_string(I->operand(0)->type().sizeInBytes());
    line("{ std::uint8_t *const cg_p = cg_resolve(L, " + val(I->operand(1)) +
         ", " + SizeS + ");");
    line("  if (!cg_p) { " + RetDflt + " }");
    line("  const std::uint64_t cg_v = " + val(I->operand(0)) + ";");
    line("  std::memcpy(cg_p, &cg_v, " + SizeS + "); }");
    return;
  }
  case Opcode::Gep: {
    line("{ const std::uint64_t cg_a = " + val(I->operand(0)) + ";");
    line("  " +
         setRes(I, "(cg_a & ~CG_OFF_MASK) | (((cg_a & CG_OFF_MASK) + "
                   "static_cast<std::uint64_t>(static_cast<std::int64_t>(" +
                       val(I->operand(1)) + "))) & CG_OFF_MASK)") +
         " }");
    return;
  }
  case Opcode::AtomicRMW:
    emitAtomicRMW(I);
    return;
  case Opcode::Malloc:
    line(setRes(I, "T->host_malloc(T->host, " + val(I->operand(0)) + ")"));
    return;
  case Opcode::Free:
    line("{ const std::uint64_t cg_a = " + val(I->operand(0)) +
         "; if (cg_a != 0ULL) T->host_free(T->host, cg_a); }");
    return;
  case Opcode::Br:
    line(branchTo(I->parent(), I->blockOperand(0)));
    return;
  case Opcode::CondBr:
    line("if (" + val(I->operand(0)) + ") { " +
         branchTo(I->parent(), I->blockOperand(0)) + " } else { " +
         branchTo(I->parent(), I->blockOperand(1)) + " }");
    return;
  case Opcode::Ret:
    if (KernelMode) {
      line("L->local_top = 0; L->status = 1u; return;");
    } else {
      const std::string RV =
          I->numOperands() == 1 ? val(I->operand(0)) : std::string("0ULL");
      line("{ const std::uint64_t cg_rv = " + RV +
           "; L->local_top = cg_wm; return cg_rv; }");
    }
    return;
  case Opcode::Phi:
    line(trapStmt("phi encountered mid-block"));
    return;
  case Opcode::Call:
    emitCall(I);
    return;
  case Opcode::ThreadId:
    line(setRes(I, "static_cast<std::uint64_t>(L->tid)"));
    return;
  case Opcode::BlockId:
    line(setRes(I, "static_cast<std::uint64_t>(T->team_id)"));
    return;
  case Opcode::BlockDim:
    line(setRes(I, "static_cast<std::uint64_t>(T->num_threads)"));
    return;
  case Opcode::GridDim:
    line(setRes(I, "static_cast<std::uint64_t>(T->num_teams)"));
    return;
  case Opcode::Barrier:
  case Opcode::AlignedBarrier: {
    // Suspend this lane's fiber at the rendezvous; the host scheduler
    // releases it (status back to 0) once every live lane has arrived, and
    // execution continues right here — whatever the call depth.
    const std::string SiteS = std::to_string(BarrierSites.at(I));
    line("L->barrier_site = " + SiteS + "u; L->barrier_aligned = " +
         (I->opcode() == Opcode::AlignedBarrier ? "1u" : "0u") +
         "; L->status = 3u; T->host_suspend(T->host, L);");
    return;
  }
  case Opcode::Assume:
    line("if (T->debug_checks && (" + val(I->operand(0)) + ") == 0ULL) " +
         trapStmt("compiler assumption violated at runtime (in @" +
                  F->name() + ", block '" + I->parent()->name() + "')"));
    return;
  case Opcode::AssertFail:
    line("if (T->debug_checks && (" + val(I->operand(0)) + ") == 0ULL) " +
         trapStmt("assertion failed: " + I->str()));
    return;
  case Opcode::NativeOp:
    emitNativeOp(I);
    return;
  }
  line(trapStmt("native backend limit: unsupported opcode"));
}

/// The exported per-kernel lane entry: what the host runs on each lane's
/// fiber. Scheduling and the barrier rendezvous are the team model's.
void Emitter::emitLaneEntry(const Function &Fn) {
  S += "\nextern \"C\" void " + Out.Kernels.at(Fn.name()).Symbol +
       "(void *LanePtr) {\n  cg_f" + std::to_string(FnOrdinal.at(&Fn)) +
       "(static_cast<cg_lane *>(LanePtr));\n}\n";
}

} // namespace

NativeModuleSource emitNativeModule(const ir::Module &M) {
  return Emitter(M).run();
}

} // namespace codesign::exec
