#include "frontend/Driver.hpp"

#include "ir/Linker.hpp"
#include "rt/DeviceRTL.hpp"
#include "rt/RuntimeABI.hpp"
#ifdef CODESIGN_HAS_OLDRT
#include "oldrt/OldDeviceRTL.hpp"
#endif

namespace codesign::frontend {

bool hasOldRT() {
#ifdef CODESIGN_HAS_OLDRT
  return true;
#else
  return false;
#endif
}

const ir::Module *runtimeModule(RuntimeKind Kind) {
  switch (Kind) {
  case RuntimeKind::Native:
    return nullptr;
  case RuntimeKind::NewRT: {
    static const std::unique_ptr<const ir::Module> RTL = rt::buildDeviceRTL();
    return RTL.get();
  }
  case RuntimeKind::OldRT: {
#ifdef CODESIGN_HAS_OLDRT
    static const std::unique_ptr<const ir::Module> RTL =
        oldrt::buildOldDeviceRTL();
    return RTL.get();
#else
    return nullptr;
#endif
  }
  }
  CODESIGN_UNREACHABLE("bad runtime kind");
}

Expected<bool> linkRuntime(ir::Module &AppModule, RuntimeKind Kind) {
  if (Kind == RuntimeKind::Native)
    return true;
  const ir::Module *RTL = runtimeModule(Kind);
  if (!RTL)
    return makeError(
        "the legacy old-runtime baseline is not part of this build; "
        "configure with -DCODESIGN_BUILD_OLDRT=ON to compare against it");
  if (Kind == RuntimeKind::NewRT)
    return ir::linkModules(AppModule, *RTL, rt::SpmdizationEntryPoints);
  return ir::linkModules(AppModule, *RTL);
}

} // namespace codesign::frontend
