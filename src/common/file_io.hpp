// Checked whole-file writes.
//
// An ofstream reports a full disk only when its buffer is flushed, so a
// writer that tests the stream right after `<<` passes on /dev/full and
// exits 0 with nothing on disk.  Every artifact the library, the benches
// and fmmio write (run reports, traces, CSV tables, BENCH files,
// exported schemes, snapshots) goes through write_file_checked.
#pragma once

#include <string>
#include <string_view>

namespace fmm {

/// Writes `bytes` to `path` (created or truncated), flushes, and throws
/// a one-line CheckError naming `path` when the open, the write or the
/// flush fails.
void write_file_checked(const std::string& path, std::string_view bytes);

}  // namespace fmm
