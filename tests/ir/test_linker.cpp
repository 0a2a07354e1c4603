#include "ir/IRBuilder.hpp"
#include "ir/Linker.hpp"
#include "ir/Verifier.hpp"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

namespace codesign::ir {
namespace {

/// Build a "runtime" module with a global and a function definition, like
/// the device RTL bitcode library from the paper's Section II-B.
std::unique_ptr<Module> makeRuntimeModule() {
  auto RTL = std::make_unique<Module>("rtl");
  GlobalVariable *State = RTL->createGlobal("team_state", AddrSpace::Shared, 32);
  Function *Init = RTL->createFunction("rtl_init", Type::voidTy(), {Type::i32()});
  Init->addAttr(FnAttr::AlwaysInline);
  IRBuilder B(*RTL);
  B.setInsertPoint(Init->createBlock("entry"));
  B.store(Init->arg(0), State);
  B.retVoid();
  return RTL;
}

TEST(Linker, FulfillsDeclarations) {
  Module App("app");
  Function *Decl = App.createFunction("rtl_init", Type::voidTy(), {Type::i32()});
  Function *K = App.createFunction("kernel", Type::voidTy(), {});
  K->addAttr(FnAttr::Kernel);
  IRBuilder B(App);
  B.setInsertPoint(K->createBlock("entry"));
  B.call(Decl, {B.i32(5)});
  B.retVoid();

  auto RTL = makeRuntimeModule();
  auto Result = linkModules(App, *RTL);
  ASSERT_TRUE(Result.hasValue()) << Result.error().message();

  Function *Linked = App.findFunction("rtl_init");
  ASSERT_NE(Linked, nullptr);
  EXPECT_FALSE(Linked->isDeclaration());
  EXPECT_TRUE(Linked->hasAttr(FnAttr::AlwaysInline));
  EXPECT_NE(App.findGlobal("team_state"), nullptr);
  EXPECT_TRUE(verifyModule(App).empty());
}

TEST(Linker, RejectsDoubleDefinition) {
  Module App("app");
  Function *Def = App.createFunction("rtl_init", Type::voidTy(), {Type::i32()});
  IRBuilder B(App);
  B.setInsertPoint(Def->createBlock("entry"));
  B.retVoid();

  auto RTL = makeRuntimeModule();
  auto Result = linkModules(App, *RTL);
  ASSERT_FALSE(Result.hasValue());
  EXPECT_NE(Result.error().message().find("defined twice"),
            std::string::npos);
}

TEST(Linker, RejectsSignatureMismatch) {
  Module App("app");
  App.createFunction("rtl_init", Type::i32(), {Type::i32()}); // wrong ret
  auto RTL = makeRuntimeModule();
  auto Result = linkModules(App, *RTL);
  ASSERT_FALSE(Result.hasValue());
  EXPECT_NE(Result.error().message().find("different signature"),
            std::string::npos);
}

TEST(Linker, RejectsGlobalShapeMismatch) {
  Module App("app");
  App.createGlobal("team_state", AddrSpace::Global, 32); // wrong space
  auto RTL = makeRuntimeModule();
  auto Result = linkModules(App, *RTL);
  ASSERT_FALSE(Result.hasValue());
}

TEST(Linker, GlobalInitializerCopied) {
  Module App("app");
  App.createFunction("read_cfg", Type::i64(), {});
  auto RTL = std::make_unique<Module>("rtl");
  GlobalVariable *G = RTL->createGlobal("cfg", AddrSpace::Constant, 8);
  G->setScalarInit(0xDEAD, 8);
  // The global is internal: it is linked because read_cfg, which App
  // declares, reads it.
  Function *Read = RTL->createFunction("read_cfg", Type::i64(), {});
  Read->addAttr(FnAttr::Internal);
  IRBuilder B(*RTL);
  B.setInsertPoint(Read->createBlock("entry"));
  B.ret(B.load(Type::i64(), G));
  auto Result = linkModules(App, *RTL);
  ASSERT_TRUE(Result.hasValue());
  GlobalVariable *Linked = App.findGlobal("cfg");
  ASSERT_NE(Linked, nullptr);
  EXPECT_EQ(Linked->initializer(), G->initializer());
}

TEST(Linker, ConstantsRemappedAcrossModules) {
  Module App("app");
  auto RTL = std::make_unique<Module>("rtl");
  Function *F = RTL->createFunction("give7", Type::i32(), {});
  IRBuilder B(*RTL);
  B.setInsertPoint(F->createBlock("entry"));
  B.ret(B.i32(7));
  ASSERT_TRUE(linkModules(App, *RTL).hasValue());
  Function *Linked = App.findFunction("give7");
  ASSERT_NE(Linked, nullptr);
  Instruction *Ret = Linked->entry()->inst(0);
  // The constant must belong to App's uniquing table.
  EXPECT_EQ(Ret->operand(0), App.constI32(7));
}

/// Names of M's functions in module order.
std::vector<std::string> functionNames(const Module &M) {
  std::vector<std::string> Names;
  for (const auto &F : M.functions())
    Names.push_back(F->name());
  return Names;
}

/// An internal function of M with an empty body.
Function *internalFn(Module &M, const std::string &Name) {
  Function *F = M.createFunction(Name, Type::voidTy(), {});
  F->addAttr(FnAttr::Internal);
  return F;
}

TEST(Linker, UnreferencedInternalSymbolsAreNotLinked) {
  Module App("app");
  App.createFunction("rtl_init", Type::voidTy(), {Type::i32()});
  auto RTL = makeRuntimeModule();
  // An internal function nothing calls, and the internal global only it
  // touches.
  GlobalVariable *Scratch =
      RTL->createGlobal("unused_state", AddrSpace::Shared, 64);
  Function *Unused = internalFn(*RTL, "unused_fn");
  IRBuilder B(*RTL);
  B.setInsertPoint(Unused->createBlock("entry"));
  B.store(B.i32(1), Scratch);
  B.retVoid();

  ASSERT_TRUE(linkModules(App, *RTL).hasValue());
  EXPECT_EQ(App.findFunction("unused_fn"), nullptr);
  EXPECT_EQ(App.findGlobal("unused_state"), nullptr);
  EXPECT_FALSE(App.findFunction("rtl_init")->isDeclaration());
  EXPECT_NE(App.findGlobal("team_state"), nullptr);
  EXPECT_TRUE(verifyModule(App).empty());
}

TEST(Linker, NonInternalGlobalIsLinked) {
  // A host reads such a global back by name (the runtime's trace
  // counters), so it is linked although no function references it.
  Module App("app");
  auto RTL = std::make_unique<Module>("rtl");
  GlobalVariable *Counters =
      RTL->createGlobal("host_counters", AddrSpace::Global, 32);
  Counters->setInternal(false);
  RTL->createGlobal("internal_state", AddrSpace::Global, 32);
  ASSERT_TRUE(linkModules(App, *RTL).hasValue());
  GlobalVariable *Linked = App.findGlobal("host_counters");
  ASSERT_NE(Linked, nullptr);
  EXPECT_FALSE(Linked->isInternal());
  EXPECT_EQ(Linked->sizeBytes(), 32u);
  EXPECT_EQ(App.findGlobal("internal_state"), nullptr);
}

TEST(Linker, TransitiveCalleesAndTheirGlobalsAreLinked) {
  // entry -> mid -> leaf, and leaf stores to a global. Src defines them
  // bottom-up; the shells App lacks follow Src's order.
  auto RTL = std::make_unique<Module>("rtl");
  GlobalVariable *G = RTL->createGlobal("leaf_state", AddrSpace::Shared, 8);
  IRBuilder B(*RTL);
  Function *Leaf = internalFn(*RTL, "leaf");
  B.setInsertPoint(Leaf->createBlock("entry"));
  B.store(B.i64(3), G);
  B.retVoid();
  Function *Other = internalFn(*RTL, "other");
  B.setInsertPoint(Other->createBlock("entry"));
  B.retVoid();
  Function *Mid = internalFn(*RTL, "mid");
  B.setInsertPoint(Mid->createBlock("entry"));
  B.call(Leaf, {});
  B.retVoid();
  Function *Entry = internalFn(*RTL, "entry");
  B.setInsertPoint(Entry->createBlock("entry"));
  B.call(Mid, {});
  B.retVoid();

  Module App("app");
  Function *Decl = App.createFunction("entry", Type::voidTy(), {});
  Function *K = App.createFunction("kernel", Type::voidTy(), {});
  K->addAttr(FnAttr::Kernel);
  IRBuilder AB(App);
  AB.setInsertPoint(K->createBlock("entry"));
  AB.call(Decl, {});
  AB.retVoid();

  ASSERT_TRUE(linkModules(App, *RTL).hasValue());
  EXPECT_EQ(functionNames(App),
            (std::vector<std::string>{"entry", "kernel", "leaf", "mid"}));
  for (const char *Name : {"entry", "mid", "leaf"}) {
    Function *F = App.findFunction(Name);
    EXPECT_FALSE(F->isDeclaration()) << Name;
    EXPECT_TRUE(F->hasAttr(FnAttr::Internal)) << Name;
  }
  EXPECT_NE(App.findGlobal("leaf_state"), nullptr);
  EXPECT_TRUE(verifyModule(App).empty());
}

TEST(Linker, ExtraRootIsLinked) {
  // A root names an entry point a later pass introduces into App, which
  // App does not reference yet.
  auto RTL = std::make_unique<Module>("rtl");
  Function *Helper = internalFn(*RTL, "helper");
  IRBuilder B(*RTL);
  B.setInsertPoint(Helper->createBlock("entry"));
  B.retVoid();
  internalFn(*RTL, "declared_only");

  Module App("app");
  const std::string_view Roots[] = {"helper"};
  ASSERT_TRUE(linkModules(App, *RTL, Roots).hasValue());
  ASSERT_NE(App.findFunction("helper"), nullptr);
  EXPECT_FALSE(App.findFunction("helper")->isDeclaration());

  // A root must be a Src definition.
  for (std::string_view Bad : {"missing", "declared_only"}) {
    Module Other("other");
    const std::string_view BadRoots[] = {Bad};
    auto Result = linkModules(Other, *RTL, BadRoots);
    ASSERT_FALSE(Result.hasValue()) << Bad;
    EXPECT_NE(Result.error().message().find("is not defined in 'rtl'"),
              std::string::npos)
        << Result.error().message();
  }
}

} // namespace
} // namespace codesign::ir
