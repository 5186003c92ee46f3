// Shared helpers for the benchmark harness. Every bench binary regenerates
// one table or figure of the paper and prints the corresponding rows/series;
// EXPERIMENTS.md records paper-vs-measured for each.
#pragma once

#include <cstdio>
#include <string>

#include "common/table.h"
#include "serving/engine.h"

namespace cachegen::bench {

// Engine with a profiling set large enough for stable per-channel tables but
// small enough to keep every bench under ~30 s.
inline Engine::Options FastEngineOptions(const std::string& model) {
  Engine::Options opts;
  opts.model_name = model;
  opts.calib_context_tokens = 1000;
  opts.calib_num_contexts = 10;
  return opts;
}

inline void PrintHeader(const std::string& title, const std::string& setup) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("setup: %s\n", setup.c_str());
  std::printf("==============================================================\n");
}

inline std::string Mb(double bytes) { return TablePrinter::Fmt(bytes / 1e6, 1); }

}  // namespace cachegen::bench
