//===- apps/XSBench.hpp - Monte Carlo cross-section lookup proxy -----------===//
//
// Port of XSBench, the OpenMC proxy of the paper's Section V-A: "the
// continuous energy macroscopic neutron cross-section lookup", which is
// memory bound in this setup. Each lookup draws a pseudo-random energy and
// material, binary-searches the unionized energy grid, gathers the
// micro-cross-sections of every nuclide in the material, and interpolates.
// The reduction stays outside the timed kernel, matching the paper's note.
//
// Section VII reproduction: the simulation configuration struct is passed
// to the OpenMP kernel *by reference* (the body re-loads its fields each
// iteration), while the CUDA lowering receives the fields by value —
// the residual gap the paper discusses.
//
//===----------------------------------------------------------------------===//
#pragma once

#include "apps/AppCommon.hpp"

namespace codesign::apps {

/// Workload shape. Defaults are sized so the oversubscription-assuming
/// build is valid (one lookup per hardware thread).
struct XSBenchConfig {
  std::uint64_t NGridpoints = 4096;
  std::uint32_t NNuclides = 32;
  std::uint32_t NNuclidesPerMaterial = 8;
  std::uint32_t NMaterials = 12;
  std::uint64_t NLookups = 8192;
  std::uint32_t Teams = 64;
  std::uint32_t Threads = 128;
  /// Pass the config struct by reference (OpenMP default per Section VII);
  /// the CUDA path always receives scalars.
  bool ConfigStructByReference = true;
  std::uint64_t Seed = 42;
};

/// The XSBench application: owns the device data and the registered
/// kernel body, runs under any build configuration.
class XSBench {
public:
  XSBench(vgpu::VirtualGPU &GPU, XSBenchConfig Cfg = {});
  ~XSBench();

  /// Compile + launch + verify under one build configuration.
  AppRunResult run(const BuildConfig &Build);

  /// Label for AppMetric (lookups per kilocycle).
  static constexpr const char *MetricName = "lookups/kcycle";

private:
  void generate();
  void upload();
  frontend::KernelSpec makeSpec(bool ByReference) const;
  /// The host result of every lookup, computed like deviceLookup.
  [[nodiscard]] std::vector<double> reference() const;

  AppHarness Harness;
  XSBenchConfig Cfg;
  std::int64_t BodyByRefId = 0;
  std::int64_t BodyByValId = 0;

  std::vector<double> EnergyGrid;          ///< [NG], ascending
  std::vector<double> XSData;              ///< [NN][NG][2]
  std::vector<std::int64_t> MaterialTable; ///< [NMat][NNucPerMat]
  std::vector<std::uint64_t> ConfigBlock;  ///< device-side config struct
  std::vector<double> Out;                 ///< [NLookups]
};

} // namespace codesign::apps
