//===- frontend/Driver.hpp - Link the chosen runtime into an app module ----===//
#pragma once

#include "frontend/Codegen.hpp"

namespace codesign::frontend {

/// The device runtime Kind links against, built on first use and then
/// shared, immutable, by every later compile in the process on any thread:
/// the paper's runtime ships as bitcode built once per target. Null for
/// Native, and for OldRT unless hasOldRT().
const ir::Module *runtimeModule(RuntimeKind Kind);

/// Link the runtime matching Kind into AppModule (no-op for Native),
/// reproducing the paper's Section II-B flow: the device RTL is merged as a
/// "bitcode library" before any optimization runs. Only what AppModule
/// references is copied (ir::linkModules), plus, for the new runtime, the
/// entry points SPMDization may introduce (rt::SpmdizationEntryPoints).
Expected<bool> linkRuntime(ir::Module &AppModule, RuntimeKind Kind);

/// True when the legacy pre-co-design runtime was compiled in
/// (-DCODESIGN_BUILD_OLDRT=ON). When false, RuntimeKind::OldRT fails
/// linkRuntime with an explicit error, and paperBuildConfigs() omits the
/// "Old RT (Nightly)" baseline.
bool hasOldRT();

} // namespace codesign::frontend
