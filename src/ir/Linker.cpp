#include "ir/Linker.hpp"

#include "ir/Clone.hpp"

#include <unordered_set>

namespace codesign::ir {

namespace {

void mergeAttrs(const Function &From, Function &To) {
  for (FnAttr A : {FnAttr::Kernel, FnAttr::Internal, FnAttr::NoInline,
                   FnAttr::AlwaysInline, FnAttr::Pure,
                   FnAttr::MainThreadOnly})
    if (From.hasAttr(A))
      To.addAttr(A);
}

/// The Src symbols a link copies.
struct Closure {
  std::unordered_set<const Function *> Functions;
  std::unordered_set<const GlobalVariable *> Globals;
};

Expected<Closure> closureOf(const Module &Dst, const Module &Src,
                            std::span<const std::string_view> Roots) {
  Closure C;
  std::vector<const Function *> Work;
  auto need = [&](const Function *F) {
    if (C.Functions.insert(F).second)
      Work.push_back(F);
  };
  for (const auto &F : Src.functions()) {
    if (F->isDeclaration())
      continue;
    const Function *D = Dst.findFunction(F->name());
    if ((D && D->isDeclaration()) || !F->hasAttr(FnAttr::Internal))
      need(F.get());
  }
  for (std::string_view Name : Roots) {
    const Function *F = Src.findFunction(Name);
    if (!F || F->isDeclaration())
      return makeError("link: root '", Name, "' is not defined in '",
                       Src.name(), "'");
    need(F);
  }
  for (const auto &G : Src.globals())
    if (!G->isInternal())
      C.Globals.insert(G.get());
  while (!Work.empty()) {
    const Function *F = Work.back();
    Work.pop_back();
    for (const auto &BB : F->blocks())
      for (const auto &I : BB->instructions())
        for (unsigned Op = 0; Op < I->numOperands(); ++Op) {
          const Value *V = I->operand(Op);
          if (const auto *G = dynCast<GlobalVariable>(V))
            C.Globals.insert(G);
          else if (V->kind() == ValueKind::Function)
            need(Function::fromValue(V));
        }
  }
  return C;
}

} // namespace

Expected<bool> linkModules(Module &Dst, const Module &Src,
                           std::span<const std::string_view> Roots) {
  // Phase 1: check every same-named pair and merge attributes.
  for (const auto &G : Src.globals())
    if (const GlobalVariable *Existing = Dst.findGlobal(G->name()))
      if (Existing->sizeBytes() != G->sizeBytes() ||
          Existing->space() != G->space())
        return makeError("link: global '", G->name(),
                         "' redefined with different size or address space");
  for (const auto &F : Src.functions()) {
    Function *Existing = Dst.findFunction(F->name());
    if (!Existing)
      continue;
    if (Existing->numArgs() != F->numArgs() ||
        Existing->returnType() != F->returnType())
      return makeError("link: function '", F->name(),
                       "' redeclared with a different signature");
    if (!Existing->isDeclaration() && !F->isDeclaration())
      return makeError("link: function '", F->name(), "' defined twice");
    mergeAttrs(*F, *Existing);
  }

  auto Needed = closureOf(Dst, Src, Roots);
  if (!Needed)
    return Needed.error();
  const Closure &C = *Needed;

  // Phase 2: materialize the globals Dst lacks.
  for (const auto &G : Src.globals()) {
    if (!C.Globals.count(G.get()) || Dst.findGlobal(G->name()))
      continue;
    GlobalVariable *NG =
        Dst.createGlobal(G->name(), G->space(), G->sizeBytes(),
                         G->alignment());
    NG->setInternal(G->isInternal());
    NG->setConstantFlag(G->isConstant());
    if (!G->initializer().empty())
      NG->setInitializer(G->initializer());
  }

  // Phase 3: create shells for the functions Dst lacks.
  for (const auto &F : Src.functions()) {
    if (!C.Functions.count(F.get()) || Dst.findFunction(F->name()))
      continue;
    std::vector<Type> Params;
    Params.reserve(F->numArgs());
    for (const auto &A : F->args())
      Params.push_back(A->type());
    Function *NF =
        Dst.createFunction(F->name(), F->returnType(), std::move(Params));
    NF->setExecMode(F->execMode());
    for (unsigned I = 0; I < F->numArgs(); ++I)
      if (F->argMap(I) != MapKind::None)
        NF->setArgMap(I, F->argMap(I));
    mergeAttrs(*F, *NF);
  }

  // Phase 4: clone bodies. Each target is a declaration: Dst's own, or a
  // shell from phase 3 (two definitions failed phase 1).
  const ValueResolver Resolve = crossModuleResolver(Dst);
  for (const auto &F : Src.functions()) {
    if (F->isDeclaration() || !C.Functions.count(F.get()))
      continue;
    Function *Target = Dst.findFunction(F->name());
    ValueMap VMap;
    for (unsigned I = 0; I < F->numArgs(); ++I)
      VMap[F->arg(I)] = Target->arg(I);
    cloneBody(*F, *Target, VMap, Resolve, "");
  }
  return true;
}

} // namespace codesign::ir
