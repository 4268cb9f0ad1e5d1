// Build provenance embedded in every binary at compile time.
//
// Run reports are diffed across PRs and across machines, so each one
// carries a `meta.build` block naming exactly which build produced it:
// the git describe string of the source tree, the CMake build type, the
// configure preset (CMakePresets.json sets FMM_PRESET_NAME; plain
// `cmake -B build` runs report "none") and the compiler.  `fmmio
// version` prints the same block for humans.
#pragma once

#include <string>

namespace fmm::obs {

struct BuildInfo {
  std::string version;     // project version (CMake PROJECT_VERSION)
  std::string git;         // `git describe --always --dirty --tags`
  std::string build_type;  // CMAKE_BUILD_TYPE
  std::string preset;      // configure preset name, or "none"
  std::string compiler;    // compiler identification (__VERSION__)
};

/// The build this binary was compiled from (values baked in at compile
/// time; never touches the filesystem).
const BuildInfo& build_info();

/// The `meta.build` JSON object embedded in every run report:
/// {"version": ..., "git": ..., "build_type": ..., "preset": ...,
///  "compiler": ...} with deterministic field order.
std::string build_info_json();

/// One human-readable line for `fmmio version`.
std::string build_info_line();

}  // namespace fmm::obs
