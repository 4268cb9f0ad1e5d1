#include "resilience/checkpoint.hpp"

#include <cstdio>

#include "common/check.hpp"

namespace fmm::resilience {

CheckpointWriter::CheckpointWriter(const std::string& path,
                                   const std::string& header_json,
                                   std::size_t flush_every,
                                   bool replace_atomically)
    : path_(path),
      write_path_(replace_atomically ? path + ".tmp" : path),
      published_(!replace_atomically),
      flush_every_(flush_every == 0 ? 1 : flush_every) {
  out_.open(write_path_, std::ios::out | std::ios::trunc);
  FMM_CHECK_MSG(out_.good(), "checkpoint: cannot open '" << write_path_
                                                         << "' for writing");
  out_ << header_json << '\n';
  out_.flush();
  FMM_CHECK_MSG(out_.good(), "checkpoint: write failed on '" << write_path_
                                                             << "'");
}

CheckpointWriter::~CheckpointWriter() {
  // An unpublished temporary must not linger: until publish() the file
  // at `path_` remains the authoritative checkpoint.
  if (!published_) {
    out_.close();
    std::remove(write_path_.c_str());
  }
}

void CheckpointWriter::append_row(const std::string& row_json) {
  out_ << row_json << '\n';
  ++rows_written_;
  if (++pending_ >= flush_every_) {
    flush();
  }
}

void CheckpointWriter::flush() {
  if (pending_ == 0) {
    return;
  }
  out_.flush();
  FMM_CHECK_MSG(out_.good(), "checkpoint: flush failed on '" << path_
                                                             << "'");
  pending_ = 0;
}

void CheckpointWriter::publish() {
  if (published_) {
    return;
  }
  out_.flush();
  FMM_CHECK_MSG(out_.good(), "checkpoint: flush failed on '" << write_path_
                                                             << "'");
  pending_ = 0;
  FMM_CHECK_MSG(std::rename(write_path_.c_str(), path_.c_str()) == 0,
                "checkpoint: cannot rename '" << write_path_ << "' onto '"
                                              << path_ << "'");
  // POSIX rename: the open descriptor follows the inode, so subsequent
  // append_row calls keep writing to the file now named `path_`.
  published_ = true;
}

CheckpointFile load_checkpoint(const std::string& path) {
  std::ifstream in(path);
  FMM_CHECK_MSG(in.good(),
                "checkpoint: cannot read '" << path << "'");
  CheckpointFile file;
  std::string line;
  FMM_CHECK_MSG(static_cast<bool>(std::getline(in, line)) && !line.empty(),
                "checkpoint: '" << path << "' has no header line");
  file.header = parse_json(line);
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    try {
      file.rows.push_back(parse_json(line));
      file.raw_rows.push_back(line);
    } catch (const CheckError&) {
      // A torn final line means the writer was killed mid-append; the
      // rows before it are intact.  Anything torn mid-file would leave
      // further (complete) lines after it — refuse that.
      FMM_CHECK_MSG(!std::getline(in, line) || line.empty(),
                    "checkpoint: '" << path
                                    << "' is corrupt before the tail");
      file.truncated_tail = true;
      break;
    }
  }
  return file;
}

}  // namespace fmm::resilience
