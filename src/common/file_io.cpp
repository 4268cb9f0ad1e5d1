#include "common/file_io.hpp"

#include <algorithm>
#include <fstream>
#include <vector>

#ifdef __unix__
#include <fcntl.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <climits>
#endif

#include "common/check.hpp"

namespace fmm {

void write_file_checked(const std::string& path, std::string_view bytes) {
  write_file_checked(path, std::span<const std::string_view>(&bytes, 1));
}

#ifdef __unix__

void write_file_checked(const std::string& path,
                        std::span<const std::string_view> pieces) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  FMM_CHECK_MSG(fd >= 0, "cannot open " << path << " for writing");
  // One writev per IOV_MAX pieces: the kernel sees the file as one
  // buffer written in order, and no piece is copied in user space.
  std::vector<iovec> iov;
  iov.reserve(pieces.size());
  for (const std::string_view piece : pieces) {
    if (!piece.empty()) {
      iov.push_back({const_cast<char*>(piece.data()), piece.size()});
    }
  }
  bool ok = true;
  for (std::size_t first = 0; ok && first < iov.size();) {
    const auto count =
        static_cast<int>(std::min<std::size_t>(iov.size() - first, IOV_MAX));
    const ssize_t written = ::writev(fd, iov.data() + first, count);
    if (written < 0 && errno == EINTR) {
      continue;
    }
    ok = written > 0;
    // Skip what was written; a partial write resumes mid-piece.
    for (auto left = static_cast<std::size_t>(std::max<ssize_t>(written, 0));
         left > 0;) {
      const std::size_t step = std::min(left, iov[first].iov_len);
      iov[first].iov_base = static_cast<char*>(iov[first].iov_base) + step;
      iov[first].iov_len -= step;
      left -= step;
      if (iov[first].iov_len == 0) {
        ++first;
      }
    }
  }
  ok = ::close(fd) == 0 && ok;
  FMM_CHECK_MSG(ok, "cannot write " << path);
}

#else  // !__unix__

void write_file_checked(const std::string& path,
                        std::span<const std::string_view> pieces) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  FMM_CHECK_MSG(out.is_open(), "cannot open " << path << " for writing");
  for (const std::string_view piece : pieces) {
    out.write(piece.data(), static_cast<std::streamsize>(piece.size()));
  }
  out.flush();
  FMM_CHECK_MSG(out.good(), "cannot write " << path);
}

#endif  // __unix__

}  // namespace fmm
