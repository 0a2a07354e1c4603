//===- tests/apps/test_native_cache.cpp - Native on-disk module cache ------===//
//
// The native backend keeps compiled modules as shared objects in
// CODESIGN_NATIVE_CACHE_DIR. An object there that dlopen refuses — a
// truncated file, as a crash mid-write or a full disk leaves it — must not
// fail every later launch of its module: the backend compiles the module
// afresh and launches it. A successful compile leaves only the .so behind.
// Only a second refusal fails the launch, and its error names both.
//
//===----------------------------------------------------------------------===//
#include "apps/XSBench.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

namespace codesign::apps {
namespace {

namespace fs = std::filesystem;

AppRunResult runXSBench(const char *Backend, const BuildConfig &Build) {
  vgpu::DeviceConfig C;
  C.ExecBackend = Backend;
  vgpu::VirtualGPU GPU(C);
  // Pin past any ambient CODESIGN_EXEC_BACKEND override.
  if (!GPU.setExecBackend(Backend)) {
    AppRunResult R;
    R.Error = std::string("cannot select backend ") + Backend;
    return R;
  }
  XSBenchConfig Cfg;
  Cfg.NLookups = 1024;
  Cfg.Teams = 8;
  Cfg.Threads = 128;
  XSBench App(GPU, Cfg);
  return App.run(Build);
}

std::vector<fs::path> filesIn(const fs::path &Dir) {
  std::vector<fs::path> Out;
  for (const fs::directory_entry &E : fs::directory_iterator(Dir))
    Out.push_back(E.path());
  std::sort(Out.begin(), Out.end());
  return Out;
}

/// A fresh native cache directory for this process, selected through
/// CODESIGN_NATIVE_CACHE_DIR and removed again when the test ends.
struct FreshCacheDir {
  const fs::path Dir = fs::temp_directory_path() /
                       ("codesign-native-heal." + std::to_string(::getpid()));
  FreshCacheDir() {
    fs::remove_all(Dir);
    fs::create_directories(Dir);
    ::setenv("CODESIGN_NATIVE_CACHE_DIR", Dir.c_str(), 1);
  }
  ~FreshCacheDir() {
    ::unsetenv("CODESIGN_NATIVE_CACHE_DIR");
    std::error_code EC;
    fs::remove_all(Dir, EC);
  }
};

TEST(NativeCache, RecompilesACachedObjectDlopenRefuses) {
  // The child below must share this process's cache directory.
  ::testing::FLAGS_gtest_death_test_style = "fast";
  const FreshCacheDir Cache;
  const fs::path &Dir = Cache.Dir;
  const BuildConfig Build = paperBuildConfigs().back();

  // Fill the cache from a child, so this process has never loaded the
  // module and its launch below goes to the disk cache.
  EXPECT_EXIT(
      {
        const AppRunResult R = runXSBench("native", Build);
        std::exit(R.Ok && R.Verified ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
  const std::vector<fs::path> Objects = filesIn(Dir);
  ASSERT_FALSE(Objects.empty());
  for (const fs::path &P : Objects) {
    ASSERT_EQ(P.extension(), ".so") << P;
    fs::resize_file(P, 0);
  }

  const AppRunResult N = runXSBench("native", Build);
  const AppRunResult B = runXSBench("bytecode", Build);
  ASSERT_TRUE(N.Ok) << N.Error;
  ASSERT_TRUE(B.Ok) << B.Error;
  EXPECT_TRUE(N.Verified);
  EXPECT_EQ(N.OutputHash, B.OutputHash);
  // Healed in place: the same objects, now whole, and no source, log or
  // temporary object left beside them.
  EXPECT_EQ(filesIn(Dir), Objects);
  for (const fs::path &P : Objects)
    EXPECT_GT(fs::file_size(P), 0u) << P;
}

TEST(NativeCache, SecondRefusalFailsNamingBothAttempts) {
  const FreshCacheDir Cache;
  // A stand-in compiler that writes an empty object: dlopen refuses the
  // first compile and the recompile alike.
  const fs::path Cxx = Cache.Dir / "empty-object-cxx.sh";
  {
    std::ofstream Out(Cxx);
    Out << "#!/bin/sh\n"
           "while [ $# -gt 0 ]; do\n"
           "  if [ \"$1\" = -o ]; then : > \"$2\"; fi\n"
           "  shift\n"
           "done\n";
  }
  fs::permissions(Cxx, fs::perms::owner_all);
  ASSERT_EQ(::setenv("CODESIGN_NATIVE_CXX", Cxx.c_str(), 1), 0);
  // A build no other test here launches natively, so this process has not
  // loaded its module.
  const AppRunResult N = runXSBench("native", paperBuildConfigs().front());
  ::unsetenv("CODESIGN_NATIVE_CXX");

  ASSERT_FALSE(N.Ok);
  EXPECT_NE(N.Error.find("failed twice"), std::string::npos) << N.Error;
  const std::string Short = "file too short";
  const std::size_t First = N.Error.find(Short);
  ASSERT_NE(First, std::string::npos) << N.Error;
  EXPECT_NE(N.Error.find(Short, First + Short.size()), std::string::npos)
      << N.Error;
}

} // namespace
} // namespace codesign::apps
