#include "common/file_io.hpp"

#include <fstream>

#include "common/check.hpp"

namespace fmm {

void write_file_checked(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  FMM_CHECK_MSG(out.is_open(), "cannot open " << path << " for writing");
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  FMM_CHECK_MSG(out.good(), "cannot write " << path);
}

}  // namespace fmm
