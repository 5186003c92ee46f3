// Re-run the current test binary on one gtest filter with CACHEGEN_THREADS
// set, and return the first stdout line that starts with `marker` (marker
// included), or an empty string when the run prints none. The process-wide
// codec pool reads CACHEGEN_THREADS once, when it is created, so comparing a
// result across pool sizes needs one fresh process per size.
#pragma once

#include <unistd.h>

#include <cstdio>
#include <string>

namespace cachegen {

inline std::string RunSelfWithThreads(const char* threads,
                                      const std::string& gtest_filter,
                                      const std::string& marker) {
  // Resolve the symlink HERE: handed to the shell verbatim, /proc/self/exe
  // would resolve to the shell's own binary at exec time.
  char self[4096];
  const ssize_t n = readlink("/proc/self/exe", self, sizeof self - 1);
  if (n <= 0) return {};
  self[n] = '\0';
  const std::string cmd = std::string("CACHEGEN_THREADS=") + threads + " '" +
                          self + "' --gtest_filter=" + gtest_filter +
                          " 2>/dev/null";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return {};
  std::string out;
  char buf[512];
  while (fgets(buf, sizeof buf, pipe) != nullptr) out += buf;
  pclose(pipe);
  const size_t pos = out.find(marker);
  if (pos == std::string::npos) return {};
  return out.substr(pos, out.find('\n', pos) - pos);
}

}  // namespace cachegen
