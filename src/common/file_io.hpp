// Checked whole-file writes.
//
// An ofstream reports a full disk only when its buffer is flushed, so a
// writer that tests the stream right after `<<` passes on /dev/full and
// exits 0 with nothing on disk.  Every artifact the library, the benches
// and fmmio write (run reports, traces, CSV tables, BENCH files,
// exported schemes, snapshots) goes through write_file_checked.
#pragma once

#include <span>
#include <string>
#include <string_view>

namespace fmm {

/// Writes `bytes` to `path` (created or truncated), flushes, and throws
/// a one-line CheckError naming `path` when the open, the write or the
/// flush fails.
void write_file_checked(const std::string& path, std::string_view bytes);

/// The same for a file given as consecutive pieces, written in order
/// and never joined: a writer whose bytes already sit in several buffers
/// (a snapshot's header and its CDAG's arrays) copies none of them.  On
/// POSIX the pieces go to the kernel as one gathered write (writev), so
/// the page cache holds the file as if it had been written from one
/// buffer.
void write_file_checked(const std::string& path,
                        std::span<const std::string_view> pieces);

}  // namespace fmm
