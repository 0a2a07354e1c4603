//===- ir/Linker.hpp - Module linking --------------------------------------===//
//
// Reproduces the paper's compilation flow (Section II-B): "the GPU runtime
// library is first linked into the user code as an LLVM bytecode library and
// then optimized together with the user application". Like clang's
// -mlink-builtin-bitcode (LLVM's Linker::LinkOnlyNeeded), linkModules copies
// only what the application needs from the runtime module: the definitions
// its declarations name, everything those reference in turn, and the
// runtime's externally visible symbols.
//
//===----------------------------------------------------------------------===//
#pragma once

#include <span>
#include <string_view>

#include "ir/Module.hpp"
#include "support/Error.hpp"

namespace codesign::ir {

/// Link from Src into Dst the closure of what Dst needs. Src is only read,
/// so one Src may be linked into many modules at once from any thread.
///  * Roots: each Src definition that fulfils a Dst declaration, each
///    non-internal Src function and global (a host may look it up by
///    name, and dead-code elimination keeps it), and each function named
///    in Roots, which must be defined in Src (entry points a later pass
///    introduces into Dst).
///  * Closure: the roots and every function and global they reference,
///    transitively. Internal symbols nothing reaches are not copied.
///  * Globals in the closure are created in Dst when missing. Functions in
///    the closure that Dst lacks are created; a Dst declaration is
///    fulfilled by the Src definition, and a Src declaration links to
///    whatever Dst has.
///  * Every same-named pair is checked, whether or not the closure holds
///    it: globals must match in size and address space, functions in
///    signature, and two definitions of one name are an error. Src's
///    function attributes are merged into Dst's function of the same name.
/// Symbols are created in Src's order. Returns an error message on
/// incompatibility; Dst may be partially modified in that case and should
/// be discarded.
Expected<bool> linkModules(Module &Dst, const Module &Src,
                           std::span<const std::string_view> Roots = {});

} // namespace codesign::ir
