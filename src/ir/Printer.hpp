//===- ir/Printer.hpp - Human-readable IR dumps ---------------------------===//
#pragma once

#include <string>

#include "ir/Module.hpp"

namespace codesign::ir {

/// Render one function as LLVM-flavoured text. Values print as %N in
/// definition order (arguments first), blocks as their labels.
std::string printFunction(const Function &F);

/// Render a whole module: globals, then functions.
std::string printModule(const Module &M);

} // namespace codesign::ir
